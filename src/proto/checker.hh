/**
 * @file
 * Whole-system invariant checker for the Stenstrom engine.
 *
 * Checked invariants (each tied to the paper's definitions):
 *
 *  I1  at most one cache owns a block, and the block store of the
 *      block's home module names exactly that cache;
 *  I2  a valid non-owner copy (UnOwned) exists only when the owner
 *      is in distributed-write mode, and its data equals the
 *      owner's;
 *  I3  in global-read mode no valid copy other than the owner's
 *      exists, and every Invalid entry's OWNER field names the
 *      current owner;
 *  I4  the owner's present vector is exact: it contains the owner
 *      itself plus precisely the caches holding the block (valid
 *      copies in DW mode, Invalid pointer entries in GR mode);
 *  I5  exclusive states really are exclusive (no other entry for
 *      the block anywhere);
 *  I6  an unmodified owner copy equals the memory copy;
 *  I7  copies without an owner anywhere do not exist (no orphan
 *      UnOwned/Invalid entries);
 *  I8  no live state references a dead node: a crashed cache holds
 *      no entries, no block store names a dead owner, and no live
 *      Invalid entry's OWNER field points at a dead node;
 *  I9  single-writer/multiple-reader: at most one cache holds a
 *      block in a writable (owned) state, and every other copy is
 *      read-only (explicit SWMR statement; overlaps I1/I3 but is
 *      reported under its own tag so model-checker counterexamples
 *      name the property the paper's protocol is meant to provide);
 *  I10 data-value: when the view supplies an expectedWord oracle
 *      (the latest completed write per address), the owner's copy
 *      of every cached block matches it, and memory matches it for
 *      blocks with no cached copy (requires numBlocks).
 *
 * Under a crash plan I1-I7 quantify over *live* caches only (a
 * dead cache has no protocol state by definition); I8 covers the
 * dead ones. The invariants are only defined at quiescence: when
 * the view provides an isQuiescent hook and it reports in-flight
 * work, the checker returns a single "NQ" pseudo-violation instead
 * of misreporting transient states as protocol bugs.
 */

#ifndef MSCP_PROTO_CHECKER_HH
#define MSCP_PROTO_CHECKER_HH

#include <functional>
#include <string>
#include <vector>

#include "proto/stenstrom.hh"

namespace mscp::proto
{

class ConcurrentProtocol;

/**
 * Engine-agnostic view of a two-mode-protocol system's state, so
 * the same invariants verify the atomic and the concurrent engine.
 */
struct SystemView
{
    unsigned numCaches = 0;
    /** Memory modules to scan for I8 (0 means numCaches). */
    unsigned numModules = 0;
    std::function<const cache::CacheArray &(NodeId)> cacheArray;
    std::function<const mem::MemoryModule &(unsigned)> memoryModule;
    std::function<NodeId(BlockId)> homeOf;
    /** Liveness of a cache; null means every cache is live. */
    std::function<bool(NodeId)> isLive;
    /** Whether the system is quiescent; null means it is. */
    std::function<bool()> isQuiescent;
    /**
     * Latest completed write per word address (I10); returns false
     * when no write to @p a has completed (the initial value is
     * then unconstrained). Null disables the data-value invariant.
     */
    std::function<bool(Addr, std::uint64_t &)> expectedWord;
    /** Block-id universe [0, numBlocks) for I10's uncached-block
     *  memory check; 0 limits I10 to cached copies. */
    std::uint64_t numBlocks = 0;
};

/**
 * Run every invariant over an arbitrary system view (the system
 * must be quiescent: no transactions in flight).
 *
 * @return human-readable descriptions of all violations (empty if
 *         the system is consistent)
 */
std::vector<std::string> checkInvariants(const SystemView &view);

/** Convenience overload for the atomic engine. */
std::vector<std::string> checkInvariants(
    const StenstromProtocol &proto);

/**
 * View of the concurrent engine with every structural hook set:
 * caches, modules, home mapping, liveness and quiescence (the data
 * oracle and block universe stay unset). The view refers to
 * @p proto, which must outlive it.
 */
SystemView viewOf(const ConcurrentProtocol &proto);

} // namespace mscp::proto

#endif // MSCP_PROTO_CHECKER_HH
