/**
 * @file
 * The paper's cache consistency protocol (Sec. 2), executable.
 *
 * State is distributed into the caches: the owner of a block holds
 * the present-flag vector and mode bit; non-owners in global-read
 * mode keep Invalid entries caching the OWNER identification; the
 * memory modules keep only the block store (valid bit + owner id).
 *
 * The engine implements every action of Sec. 2.2 - read hit/miss,
 * write hit/miss, block replacement (including the ownership
 * hand-off with ack/nack retries) and the two set-mode operations -
 * over the simulated omega network, so every protocol message is
 * accounted with the paper's link-bit cost metric.
 *
 * Decisions the paper leaves open (documented in DESIGN.md):
 *  - If every hand-off candidate nacks (exercised via the fault-
 *    injection hook), the evicting owner invalidates the remaining
 *    copies, writes back if modified and clears the block store.
 *  - After a hand-off the departing cache asks the new owner to
 *    clear its present flag with one direct control message.
 *  - A GR->DW mode switch drops the bystanders' OWNER pointers
 *    (one control multicast) so the present vector again tracks
 *    valid copies only.
 */

#ifndef MSCP_PROTO_STENSTROM_HH
#define MSCP_PROTO_STENSTROM_HH

#include <functional>
#include <vector>

#include "cache/cache_array.hh"
#include "proto/protocol.hh"

namespace mscp::proto
{

/** Event counters specific to the Stenstrom engine. */
struct StenstromCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readHits = 0;
    std::uint64_t readMissUncached = 0;  ///< no copy anywhere
    std::uint64_t readMissOwnedDW = 0;   ///< copy loaded from owner
    std::uint64_t readMissOwnedGR = 0;   ///< datum via memory module
    std::uint64_t readMissPointerGR = 0; ///< datum via OWNER bypass
    std::uint64_t writeHitExcl = 0;
    std::uint64_t writeHitNonExclDW = 0;
    std::uint64_t writeHitNonExclGR = 0;
    std::uint64_t writeHitUnOwned = 0;   ///< ownership acquired
    std::uint64_t writeMissUncached = 0;
    std::uint64_t writeMissOwned = 0;
    std::uint64_t ownershipTransfers = 0;
    std::uint64_t replacements = 0;
    std::uint64_t replOwnedExcl = 0;
    std::uint64_t replOwnedNonExcl = 0;
    std::uint64_t replUnOwned = 0;
    std::uint64_t replInvalid = 0;
    std::uint64_t handoffNacks = 0;
    std::uint64_t handoffFallbacks = 0;
    std::uint64_t dwUpdates = 0;     ///< distributed-write multicasts
    std::uint64_t invalidations = 0;
    std::uint64_t ownerAnnounces = 0;
    std::uint64_t modeSwitches = 0;
    std::uint64_t writeBacks = 0;
};

/** Configuration of the engine. */
struct StenstromParams
{
    /** Cache shape (same for every cache). */
    cache::Geometry geometry;
    /** Multicast scheme for updates/invalidations/announcements. */
    net::Scheme multicastScheme = net::Scheme::Combined;
    /** Mode given to a block on first caching (paper: global read). */
    cache::Mode defaultMode = cache::Mode::GlobalRead;
    /** Wire sizes. */
    MessageSizes sizes;
    /**
     * Optional per-multicast scheme choice (Sec. 5's break-even
     * registers): called with the destination count; overrides
     * multicastScheme when set.
     */
    std::function<net::Scheme(unsigned num_dests)> schemePolicy;
};

/** Atomic engine for the two-mode protocol. */
class StenstromProtocol : public CoherenceProtocol
{
  public:
    StenstromProtocol(net::OmegaNetwork &network,
                      StenstromParams params);

    std::uint64_t read(NodeId cpu, Addr addr) override;
    void write(NodeId cpu, Addr addr, std::uint64_t value) override;
    std::string protoName() const override { return "stenstrom"; }

    /**
     * Software-controlled mode change (Sec. 2.2 items 6/7).
     * Acquires ownership for @p cpu first if needed.
     */
    void setMode(NodeId cpu, Addr addr, cache::Mode mode);

    /** Current mode of a block, if it is owned anywhere. */
    bool blockMode(Addr addr, cache::Mode &mode) const;

    /** Current owner of a block, or invalidNode. */
    NodeId ownerOf(Addr addr) const;

    /**
     * Size of the owner's present set (holders including the owner),
     * or 0 if the block is not cached.
     */
    unsigned presentCount(Addr addr) const;

    const StenstromCounters &counters() const { return ctrs; }

    /** @{ introspection for checkers and tests */
    unsigned numCaches() const
    {
        return static_cast<unsigned>(caches.size());
    }
    const cache::CacheArray &cacheArray(NodeId c) const
    {
        return caches[c];
    }
    const cache::Geometry &geometry() const
    {
        return params.geometry;
    }
    /** @} */

    /**
     * Fault-injection hook for the replacement hand-off: return
     * true to make candidate @p cand nack the ownership offer for
     * @p block. Used by tests to exercise the retry loop and the
     * all-nack fallback.
     */
    using NackInjector = std::function<bool(NodeId cand,
                                            BlockId block)>;
    void setNackInjector(NackInjector fn) { nackInjector = fn; }

  private:
    using Entry = cache::Entry;
    using State = cache::State;
    using Mode = cache::Mode;

    /** @{ protocol actions (Sec. 2.2) */
    std::uint64_t readMissNoEntry(NodeId cpu, BlockId blk,
                                  unsigned off);
    std::uint64_t readMissPointer(NodeId cpu, Entry &e, BlockId blk,
                                  unsigned off);
    void writeOwned(NodeId cpu, Entry &e, BlockId blk, unsigned off,
                    std::uint64_t value);
    void acquireFromUnOwned(NodeId cpu, Entry &e, BlockId blk);
    Entry &writeMissAcquire(NodeId cpu, BlockId blk);
    void replaceVictim(NodeId cpu, Entry &victim);
    bool handoffOwnership(NodeId cpu, Entry &victim);
    void allNackFallback(NodeId cpu, Entry &victim);
    /** @} */

    /** @{ steps several actions share */
    /**
     * 2/4-(a), no copy anywhere: register @p cpu as owner, load the
     * block from memory and install it Owned Exclusively in the
     * default mode.
     */
    Entry &fillUncached(NodeId cpu, BlockId blk);

    /** DW read miss at a present owner: it sends a copy, and the
     *  requester (@p e, or a newly allocated entry) holds it
     *  UnOwned. */
    std::uint64_t copyFromOwner(NodeId cpu, Entry *e, NodeId o,
                                Entry &oe, BlockId blk, unsigned off);

    /** Hand copy and state field from @p src at @p from to @p dst
     *  at @p to (StateCopyXfer); @p dst gets no OWNER pointer. */
    void copyState(NodeId from, const Entry &src, NodeId to,
                   Entry &dst);

    /**
     * Ownership of @p blk moved from @p o to @p cpu: in DW the old
     * owner keeps a valid UnOwned copy, in GR it announces the new
     * owner and keeps an OWNER pointer to it.
     */
    void retireOwner(NodeId o, Entry &oe, NodeId cpu, Entry &e,
                     BlockId blk);

    /** GR: tell every pointer holder in @p present but the two
     *  owners that @p new_owner now owns @p blk, and repoint them. */
    void announceOwner(NodeId old_owner, NodeId new_owner,
                       BlockId blk, const DynamicBitset &present);

    /** Owner @p cpu drops the last copy of @p victim's block: a
     *  write-back if modified, else BsClear, then the home clears
     *  the block-store entry. */
    void releaseExclusive(NodeId cpu, const Entry &victim);
    /** @} */

    /**
     * Get the entry @p blk will use at @p cpu, running the
     * replacement protocol on a victim if necessary, then
     * installing the tag.
     */
    Entry &allocateEntry(NodeId cpu, BlockId blk);

    /** Owner-side entry, asserting protocol invariants. */
    Entry &ownerEntry(NodeId owner, BlockId blk);

    /**
     * Present-set members other than @p self, in the scratch set:
     * valid until the next othersPresent() or announceOwner().
     */
    const DynamicBitset &othersPresent(const Entry &e, NodeId self);

    /** Multicast with the configured scheme or, if set, the scheme
     *  policy's choice for this destination count. */
    void multicast(MsgType t, NodeId src, const DynamicBitset &dests,
                   Bits payload);

    /** Collapse to exclusive when the present set is only self. */
    void maybeExclusive(Entry &e, NodeId self);

    StenstromParams params;
    StenstromCounters ctrs;
    std::vector<cache::CacheArray> caches;
    NackInjector nackInjector;
    /** The destination set of the multicast being sent. */
    DynamicBitset destScratch;
};

} // namespace mscp::proto

#endif // MSCP_PROTO_STENSTROM_HH
