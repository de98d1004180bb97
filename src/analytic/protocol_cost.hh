/**
 * @file
 * Analytic per-reference communication costs of Sec. 4.
 *
 * Model: n tasks share a read-write block; exactly one task writes
 * it; w is the fraction of writes in the global reference string,
 * modelled as a Markov process (Fig. 7 for write-once). A read
 * costs twice a write in network terms. CC1(n=1) (eq. 2) is the
 * cost unit; "normalized" costs divide by it.
 *
 *   eq. 9   no cache:          (2 - w) * CC1
 *   eq. 10  write-once:        w(1-w) (CC4(n) + 2 CC1)
 *                               <= w(1-w)(n+2) CC1
 *   eq. 11  distributed write: w CC4(n) <= w n CC1
 *   eq. 12  global read:       2 (1-w) CC1
 *
 * The two-mode protocol runs distributed write when
 * w <= w1 = 2/(n+2) and global read otherwise, which caps the
 * normalized cost at 2n/(n+2) < 2 - w for any w.
 */

#ifndef MSCP_ANALYTIC_PROTOCOL_COST_HH
#define MSCP_ANALYTIC_PROTOCOL_COST_HH

#include <cstdint>

namespace mscp::analytic
{

/** @{ Normalized costs (units of CC1 with one destination). */

/** Eq. 9 normalized: block kept in memory, no caching. */
double normNoCache(double w);

/**
 * Eq. 10 normalized upper bound (scheme-1 multicast assumed, as in
 * Fig. 8): w(1-w)(n+2).
 */
double normWriteOnce(double w, double n);

/** Eq. 11 normalized upper bound: w n. */
double normDistWrite(double w, double n);

/** Eq. 12 normalized: 2(1-w). */
double normGlobalRead(double w);

/** Two-mode protocol: min of eqs. 11 and 12. */
double normTwoMode(double w, double n);

/** Mode-switch threshold w1 = 2 / (n + 2). */
double wThreshold(double n);

/** @} */

/** @{ Absolute costs in bits, using the exact multicast series. */

/**
 * Absolute no-cache cost per reference: every access is a network
 * round trip of a single message of M bits (reads count twice).
 */
double absNoCache(double w, std::uint64_t N, std::uint64_t M);

/** Absolute distributed-write cost per reference. */
double absDistWrite(double w, std::uint64_t n, std::uint64_t n1,
                    std::uint64_t N, std::uint64_t M);

/** Absolute global-read cost per reference. */
double absGlobalRead(double w, std::uint64_t N, std::uint64_t M);

/** Absolute two-mode cost: min of DW and GR. */
double absTwoMode(double w, std::uint64_t n, std::uint64_t n1,
                  std::uint64_t N, std::uint64_t M);

/** @} */

/** @{ State-memory sizes (Sec. 1 discussion, used by the ablation). */

/**
 * Bits of consistency state for a memory-resident full-map
 * directory: one presence bit per cache for each of the
 * @p mem_blocks memory blocks, i.e. O(N M).
 */
std::uint64_t stateBitsFullMap(std::uint64_t num_caches,
                               std::uint64_t mem_blocks);

/**
 * Bits of consistency state for the distributed scheme:
 * C (N + log N) at the caches plus M log N in the block stores,
 * i.e. O(C(N + log N) + M log N).
 *
 * @param num_caches N
 * @param cache_blocks C, per-cache capacity in blocks
 * @param mem_blocks M, main-memory capacity in blocks
 */
std::uint64_t stateBitsDistributed(std::uint64_t num_caches,
                                   std::uint64_t cache_blocks,
                                   std::uint64_t mem_blocks);

/**
 * Sec. 5's split-cache reduction: only a dedicated shared-data
 * partition of each cache carries present vectors; the private
 * partition needs the base state bits only.
 *
 * @param num_caches N
 * @param shared_blocks per-cache blocks supporting shared data
 * @param private_blocks per-cache blocks for private data
 * @param mem_blocks main-memory capacity in blocks
 */
std::uint64_t stateBitsSplitCache(std::uint64_t num_caches,
                                  std::uint64_t shared_blocks,
                                  std::uint64_t private_blocks,
                                  std::uint64_t mem_blocks);

/**
 * Sec. 5's associative state memory: present vectors are stored in
 * a small per-cache associative table of @p state_entries entries
 * (tagged by block id), separate from the cache directory - valid
 * because "the present flag vector is used only by the owner".
 *
 * @param num_caches N
 * @param cache_blocks per-cache capacity in blocks
 * @param state_entries associative present-vector entries per cache
 * @param tag_bits tag width of a state-memory entry
 * @param mem_blocks main-memory capacity in blocks
 */
std::uint64_t stateBitsAssociative(std::uint64_t num_caches,
                                   std::uint64_t cache_blocks,
                                   std::uint64_t state_entries,
                                   std::uint64_t tag_bits,
                                   std::uint64_t mem_blocks);

/** @} */

} // namespace mscp::analytic

#endif // MSCP_ANALYTIC_PROTOCOL_COST_HH
