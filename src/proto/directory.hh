/**
 * @file
 * The home directory the three directory baselines (full-map,
 * write-once, Dragon) share, and every step they take the same way.
 *
 * Each home module keeps, per block, a presence bit vector and the
 * cache holding the one exclusive copy, if any. All consistency
 * traffic flows through the home (no cache-to-cache bypass), which
 * is exactly the indirection the paper's distributed scheme
 * removes. A read miss recalls an exclusive copy and fills the
 * block from memory; a miss for an exclusive copy also invalidates
 * the other sharers. Each protocol adds only its write transitions.
 *
 * The baselines model the paper's evaluation assumption that the
 * cache is big enough for the shared data structure: lines are
 * stored in unbounded per-cache flat maps and capacity replacement
 * is not modelled (capacity effects are studied with the Stenstrom
 * engine, which has real geometry). An invalidated line keeps its
 * slot and its words, marked invalid, so a later miss on the block
 * refills them in place: the steady state allocates nothing.
 */

#ifndef MSCP_PROTO_DIRECTORY_HH
#define MSCP_PROTO_DIRECTORY_HH

#include <vector>

#include "proto/protocol.hh"
#include "sim/bitset.hh"
#include "sim/flat.hh"

namespace mscp::proto
{

/** Counters shared by the directory baselines. */
struct DirectoryCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t invalidations = 0; ///< invalidation multicasts
    std::uint64_t updates = 0;       ///< update multicasts (Dragon)
    std::uint64_t recalls = 0;       ///< dirty-copy recalls
    std::uint64_t writeBacks = 0;
    std::uint64_t writeThroughs = 0;
};

/** Base class of the directory baselines. */
class DirectoryProtocol : public CoherenceProtocol
{
  public:
    DirectoryProtocol(net::OmegaNetwork &network, MessageSizes sizes,
                      unsigned block_words,
                      net::Scheme scheme = net::Scheme::Combined);

    /** A read hit is local; a miss fetches a Shared copy. */
    std::uint64_t read(NodeId cpu, Addr addr) final;

    const DirectoryCounters &counters() const { return ctrs; }

    /** Directory entry (exposed for tests). */
    struct DirEntry
    {
        DynamicBitset sharers;
        NodeId dirtyOwner = invalidNode; ///< cache w/ exclusive copy
    };

    /** @return directory entry of @p block, or nullptr if absent. */
    const DirEntry *dirEntry(BlockId block) const;

  protected:
    /**
     * Cached line state. Shared is a clean copy (write-once's
     * Valid); Reserved and Dirty are the one exclusive copy, with
     * memory consistent or stale. Full-map uses Shared and Dirty,
     * Dragon only Shared.
     */
    enum class LineState : std::uint8_t { Shared, Reserved, Dirty };

    /** One cached line, or (valid clear) an invalidated one kept
     *  for its storage. */
    struct Line
    {
        bool valid = false;
        LineState state = LineState::Shared;
        std::vector<std::uint64_t> data;
    };

    DirEntry &dir(BlockId block);
    /** @p cpu's valid line of @p blk, or nullptr. */
    Line *findLine(NodeId cpu, BlockId blk);

    /**
     * Miss handling: request the block from its home (LoadReq for a
     * Shared copy, LoadOwnReq otherwise), recall the exclusive copy
     * if any, invalidate the other sharers when @p state is
     * exclusive, and fill the block at @p cpu in @p state.
     */
    Line &fetchBlock(NodeId cpu, BlockId blk, LineState state);

    /** Invalidate every sharer except @p except. */
    void invalidateSharers(BlockId blk, DirEntry &d, NodeId except);

    /** Sharers of @p d other than @p except, in the scratch set:
     *  valid until the next call. */
    const DynamicBitset &otherSharers(const DirEntry &d,
                                      NodeId except);

    const net::Scheme scheme;
    DirectoryCounters ctrs;

  private:
    std::vector<FlatMap<BlockId, Line>> caches;
    FlatMap<BlockId, DirEntry> directory;
    /** The destination set of the multicast being sent. */
    DynamicBitset destScratch;
};

} // namespace mscp::proto

#endif // MSCP_PROTO_DIRECTORY_HH
