/**
 * @file
 * Unit tests for the HDR-style latency histograms: bucket boundary
 * math across the full 64-bit range, percentile semantics, and the
 * order-independent merge the sharded PDES engine's determinism
 * contract relies on (tests/timed/test_pdes_traffic.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/latency.hh"

using namespace mscp;
using core::LatencyHistogram;
using core::OpLatencies;

namespace
{

/** Deterministic 64-bit LCG (constants from MMIX). */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
}

} // anonymous namespace

TEST(LatencyHistogram, UnitBucketsBelowSixteen)
{
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), v);
        EXPECT_EQ(LatencyHistogram::bucketLow(v), v);
        EXPECT_EQ(LatencyHistogram::bucketHigh(v), v);
    }
}

TEST(LatencyHistogram, LogBucketBoundaries)
{
    // First sub-bucketed octave: [16, 32) splits into 8 buckets of
    // width 2 starting at index 16.
    EXPECT_EQ(LatencyHistogram::bucketIndex(16), 16u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(17), 16u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(18), 17u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(31), 23u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(32), 24u);
    EXPECT_EQ(LatencyHistogram::bucketLow(16), 16u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(16), 17u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(23), 31u);

    // The top of the range still fits the table.
    EXPECT_EQ(LatencyHistogram::bucketIndex(~0ull),
              LatencyHistogram::NumBuckets - 17);
    EXPECT_LT(LatencyHistogram::bucketIndex(~0ull),
              LatencyHistogram::NumBuckets);
}

TEST(LatencyHistogram, BucketInvariantsOnSweptValues)
{
    // low <= v <= high for v's own bucket, indices monotone in v,
    // and each bucket's bounds consistent with its neighbors.
    std::uint64_t state = 42;
    std::size_t prevIdx = 0;
    for (std::uint64_t v = 0; v < 100000; v += 1 + (v >> 4)) {
        std::size_t idx = LatencyHistogram::bucketIndex(v);
        EXPECT_LE(LatencyHistogram::bucketLow(idx), v);
        EXPECT_GE(LatencyHistogram::bucketHigh(idx), v);
        EXPECT_GE(idx, prevIdx);
        prevIdx = idx;
    }
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = nextRand(state);
        std::size_t idx = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(idx, LatencyHistogram::NumBuckets);
        EXPECT_LE(LatencyHistogram::bucketLow(idx), v);
        EXPECT_GE(LatencyHistogram::bucketHigh(idx), v);
    }
}

TEST(LatencyHistogram, RelativeErrorBounded)
{
    // Sub-bucket width is at most 1/8 of the bucket's base value,
    // so a reported bucketHigh overestimates v by < 12.5%.
    for (std::uint64_t v = 16; v < (1ull << 40); v = v * 3 + 1) {
        std::size_t idx = LatencyHistogram::bucketIndex(v);
        std::uint64_t high = LatencyHistogram::bucketHigh(idx);
        EXPECT_LE(high - v, v / 8);
    }
}

TEST(LatencyHistogram, PercentileSemantics)
{
    LatencyHistogram h;
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.count(), 0u);

    // Values 1..10 sit in exact unit buckets.
    for (std::uint64_t v = 1; v <= 10; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(0.95), 10u);
    EXPECT_EQ(h.percentile(1.0), 10u);
}

TEST(LatencyHistogram, PercentileClampsToObservedMax)
{
    // A single large sample: the bucket's upper bound exceeds the
    // value, but every percentile must report the observed max.
    LatencyHistogram h;
    h.sample(1000);
    EXPECT_EQ(h.percentile(0.5), 1000u);
    EXPECT_EQ(h.percentile(0.99), 1000u);
    EXPECT_EQ(h.max(), 1000u);
}

TEST(LatencyHistogram, MergeIsOrderIndependent)
{
    // 1000 samples split across 8 shards; merging the shards in
    // any order or grouping must equal sampling serially.
    std::uint64_t state = 7;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 1000; ++i)
        values.push_back(nextRand(state) >> (i % 50));

    LatencyHistogram serial;
    for (auto v : values)
        serial.sample(v);

    std::vector<LatencyHistogram> shards(8);
    for (std::size_t i = 0; i < values.size(); ++i)
        shards[i % 8].sample(values[i]);

    LatencyHistogram fwd;
    for (const auto &s : shards)
        fwd.merge(s);
    LatencyHistogram rev;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it)
        rev.merge(*it);
    LatencyHistogram paired;
    for (std::size_t i = 0; i < 4; ++i) {
        LatencyHistogram pair = shards[2 * i];
        pair.merge(shards[2 * i + 1]);
        paired.merge(pair);
    }

    EXPECT_EQ(fwd, serial);
    EXPECT_EQ(rev, serial);
    EXPECT_EQ(paired, serial);
    EXPECT_EQ(fwd.percentile(0.99), serial.percentile(0.99));
}

TEST(OpLatencies, PerClassAccountingAndMerge)
{
    OpLatencies a;
    a.sample(OpClass::ReadMiss, 30);
    a.sample(OpClass::ReadMiss, 40);
    a.sample(OpClass::WriteMiss, 100);
    OpLatencies b;
    b.sample(OpClass::Eviction, 9);

    EXPECT_EQ(a.totalCount(), 3u);
    EXPECT_EQ(a.of(OpClass::ReadMiss).count(), 2u);
    EXPECT_EQ(a.of(OpClass::Upgrade).count(), 0u);

    OpLatencies ab = a;
    ab.merge(b);
    EXPECT_EQ(ab.totalCount(), 4u);
    EXPECT_EQ(ab.of(OpClass::Eviction).max(), 9u);

    OpLatencies ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
}
