/**
 * @file
 * HDR-style log-bucketed latency histograms per operation class.
 *
 * A LatencyHistogram covers the full 64-bit tick range with 512
 * fixed-width counters: values below 2^(S+1) land in unit-width
 * buckets, and every octave above that is split into 2^S sub-buckets
 * (S = 3, so relative bucket error is bounded by 1/8). Recording is
 * one bit-scan plus one increment; merging is plain counter addition,
 * so merged results are bit-identical regardless of merge order —
 * the property the sharded PDES engine's worker-count-stability
 * contract (tests/timed/test_pdes_traffic.cc) depends on.
 *
 * Percentiles report the upper bound of the bucket holding the
 * requested rank, clamped to the exact maximum seen, so p100 == max
 * and quantiles never overshoot an observed value.
 */

#ifndef MSCP_CORE_LATENCY_HH
#define MSCP_CORE_LATENCY_HH

#include <array>
#include <cstdint>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace mscp::core
{

class LatencyHistogram
{
  public:
    /** Sub-buckets per octave = 2^SubBucketBits. */
    static constexpr unsigned SubBucketBits = 3;
    /** 64 octaves x 8 sub-buckets fits in 496; round to 512. */
    static constexpr std::size_t NumBuckets = 512;

    /** Map a value to its bucket index (monotone in @p v). */
    static std::size_t bucketIndex(std::uint64_t v);
    /** Smallest value mapping to bucket @p idx. */
    static std::uint64_t bucketLow(std::size_t idx);
    /** Largest value mapping to bucket @p idx (inclusive). */
    static std::uint64_t bucketHigh(std::size_t idx);

    void sample(Tick v);

    /** Add @p other's counts into this histogram (commutative and
     *  associative: any merge order yields identical state). */
    void merge(const LatencyHistogram &other);

    std::uint64_t count() const { return total; }
    Tick max() const { return maxSeen; }

    /**
     * Value at quantile @p p in [0, 1]: the upper bound of the
     * bucket containing the ceil(p * count)-th sample, clamped to
     * max(). Returns 0 for an empty histogram.
     */
    Tick percentile(double p) const;

    bool operator==(const LatencyHistogram &) const = default;

  private:
    std::array<std::uint64_t, NumBuckets> counts{};
    std::uint64_t total = 0;
    Tick maxSeen = 0;
};

/**
 * One histogram per OpClass; the unit the sharded PDES engine keeps
 * per shard and merges across shards.
 */
class OpLatencies
{
  public:
    void
    sample(OpClass c, Tick v)
    {
        hist[static_cast<std::size_t>(c)].sample(v);
    }

    void merge(const OpLatencies &other);

    const LatencyHistogram &
    of(OpClass c) const
    {
        return hist[static_cast<std::size_t>(c)];
    }

    /** Total samples across all classes. */
    std::uint64_t totalCount() const;

    bool operator==(const OpLatencies &) const = default;

  private:
    std::array<LatencyHistogram,
               static_cast<std::size_t>(OpClass::NumClasses)> hist{};
};

} // namespace mscp::core

#endif // MSCP_CORE_LATENCY_HH
