/**
 * @file
 * Tag/state/data storage of one private cache.
 *
 * The array is a set-associative structure of entries; each entry
 * holds the block tag, the protocol state field of Table 1, the
 * block's data words and LRU bookkeeping. Entry *occupancy* (a tag
 * is installed) is distinct from protocol validity: a GR-mode
 * bystander keeps an occupied entry in state Invalid whose OWNER
 * field caches the owner's identity.
 *
 * Victim selection and installation are split so the protocol can
 * run the paper's replacement actions (Sec. 2.2 item 5) on the
 * victim before the new block takes the entry.
 */

#ifndef MSCP_CACHE_CACHE_ARRAY_HH
#define MSCP_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/block_state.hh"
#include "cache/geometry.hh"
#include "sim/types.hh"

namespace mscp::cache
{

/** One cache entry (line). */
struct Entry
{
    /** Whether a tag is installed at all. */
    bool occupied = false;
    /** Block currently held (valid iff occupied). */
    BlockId block = 0;
    /** Protocol state field. */
    StateField field;
    /** Data words (blockWords of them; valid iff V=1). */
    std::vector<std::uint64_t> data;
    /** LRU timestamp. */
    std::uint64_t lastUse = 0;
};

/** Set-associative tag/state/data array. */
class CacheArray
{
  public:
    /**
     * @param geom cache shape
     * @param num_caches N, sizing every entry's present vector
     */
    CacheArray(const Geometry &geom, unsigned num_caches);

    const Geometry &geometry() const { return geom; }

    /**
     * Find the entry holding @p block, or nullptr.
     * Does not touch LRU state.
     */
    Entry *find(BlockId block);
    const Entry *find(BlockId block) const;

    /** Record a use of @p entry for LRU purposes. */
    void
    touch(Entry &entry)
    {
        entry.lastUse = ++useClock;
    }

    /**
     * Pick the entry @p block would occupy: a free entry of its set
     * if one exists, otherwise the least-recently-used occupied
     * entry (which the protocol must first evict).
     *
     * @return the chosen entry; entry->occupied tells whether an
     *         eviction is needed
     */
    Entry *pickVictim(BlockId block);

    /**
     * Like pickVictim, but only entries satisfying @p usable may be
     * chosen (free entries always qualify). Used by the concurrent
     * engine to skip entries pinned by in-flight transactions.
     *
     * @return the victim, or nullptr if every way is occupied by an
     *         unusable entry
     */
    Entry *pickVictimFiltered(
        BlockId block,
        const std::function<bool(const Entry &)> &usable);

    /**
     * Install @p block into @p entry, resetting the state field to
     * Invalid and zero-filling data. The caller sets the protocol
     * state afterwards.
     */
    void install(Entry &entry, BlockId block);

    /** Drop an entry entirely (after replacement actions). */
    void evict(Entry &entry);

    /**
     * Wipe every entry, as a crash-stop failure does: all tags,
     * state fields (including present vectors and OWNER pointers)
     * and data vanish at once. The LRU clock is also reset so a
     * restarted node is indistinguishable from a fresh one.
     */
    void reset();

    /**
     * Mutable visit of every occupied entry (dead-node cleanup in
     * the concurrent engine). The callback may evict the entry it
     * is handed; the underlying storage is stable throughout.
     */
    template <typename Fn>
    void
    forEachOccupied(Fn &&fn)
    {
        for (auto &e : entries)
            if (e.occupied)
                fn(e);
    }

    /** Read-only visit of every occupied entry, in storage order
     *  (the model checker's canonical serialization). */
    template <typename Fn>
    void
    forEachOccupied(Fn &&fn) const
    {
        for (const auto &e : entries)
            if (e.occupied)
                fn(e);
    }

    /** Number of occupied entries (for tests and stats). */
    unsigned occupiedCount() const;

    /** All occupied entries (for invariant checkers). */
    std::vector<const Entry *> occupiedEntries() const;

  private:
    Geometry geom;
    unsigned numCaches;
    std::uint64_t useClock = 0;
    std::vector<Entry> entries;

    Entry *setBase(BlockId block);
};

} // namespace mscp::cache

#endif // MSCP_CACHE_CACHE_ARRAY_HH
