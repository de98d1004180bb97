#include "latency.hh"

#include <bit>

#include "sim/logging.hh"

namespace mscp::core
{

namespace
{

constexpr unsigned S = LatencyHistogram::SubBucketBits;
constexpr std::uint64_t LinearMax = 1ull << (S + 1); // unit buckets

} // anonymous namespace

std::size_t
LatencyHistogram::bucketIndex(std::uint64_t v)
{
    if (v < LinearMax)
        return static_cast<std::size_t>(v);
    const unsigned msb = 63 - std::countl_zero(v);
    const std::uint64_t sub = (v >> (msb - S)) - (1ull << S);
    return ((msb - S) << S) + static_cast<std::size_t>(sub) +
           (1ull << S);
}

std::uint64_t
LatencyHistogram::bucketLow(std::size_t idx)
{
    if (idx < LinearMax)
        return idx;
    const unsigned level = static_cast<unsigned>(idx >> S);
    const unsigned msb = level + S - 1;
    const std::uint64_t sub = idx & ((1ull << S) - 1);
    return (1ull << msb) + (sub << (msb - S));
}

std::uint64_t
LatencyHistogram::bucketHigh(std::size_t idx)
{
    if (idx < LinearMax)
        return idx;
    const unsigned level = static_cast<unsigned>(idx >> S);
    const unsigned msb = level + S - 1;
    return bucketLow(idx) + (1ull << (msb - S)) - 1;
}

void
LatencyHistogram::sample(Tick v)
{
    const std::size_t idx = bucketIndex(v);
    panic_if(idx >= NumBuckets,
             "latency bucket index %zu out of range", idx);
    ++counts[idx];
    ++total;
    if (v > maxSeen)
        maxSeen = v;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < NumBuckets; ++i)
        counts[i] += other.counts[i];
    total += other.total;
    if (other.maxSeen > maxSeen)
        maxSeen = other.maxSeen;
}

Tick
LatencyHistogram::percentile(double p) const
{
    if (total == 0)
        return 0;
    if (p <= 0.0)
        p = 0.0;
    if (p >= 1.0)
        return maxSeen;
    // Rank of the requested sample, 1-based.
    auto rank = static_cast<std::uint64_t>(p * total);
    if (rank * 1.0 < p * total) // ceil without <cmath> rounding traps
        ++rank;
    if (rank == 0)
        rank = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < NumBuckets; ++i) {
        cum += counts[i];
        if (cum >= rank) {
            const std::uint64_t high = bucketHigh(i);
            return high < maxSeen ? high : maxSeen;
        }
    }
    return maxSeen;
}

void
OpLatencies::merge(const OpLatencies &other)
{
    for (std::size_t i = 0; i < hist.size(); ++i)
        hist[i].merge(other.hist[i]);
}

std::uint64_t
OpLatencies::totalCount() const
{
    std::uint64_t n = 0;
    for (const auto &h : hist)
        n += h.count();
    return n;
}

} // namespace mscp::core
