/** @file Unit tests for the random source. */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>

#include "sim/logging.hh"
#include "sim/random.hh"

using namespace mscp;

TEST(Random, DeterministicForSameSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Random, ReseedRestartsStream)
{
    Random a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.uniform(0, 99));
    a.seed(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.uniform(0, 99), first[static_cast<size_t>(i)]);
}

TEST(Random, UniformStaysInBounds)
{
    Random r(1);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, UniformBadRangePanics)
{
    Random r(1);
    EXPECT_THROW(r.uniform(5, 4), PanicError);
}

TEST(Random, RealInUnitInterval)
{
    Random r(3);
    for (int i = 0; i < 1000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, BernoulliRate)
{
    Random r(5);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Random, SampleWithoutReplacement)
{
    Random r(9);
    auto s = r.sampleWithoutReplacement(100, 10);
    EXPECT_EQ(s.size(), 10u);
    std::set<std::uint32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 10u);
    for (auto v : s)
        EXPECT_LT(v, 100u);
    for (std::size_t i = 1; i < s.size(); ++i)
        EXPECT_LT(s[i - 1], s[i]);
}

TEST(Random, SampleAllElements)
{
    Random r(11);
    auto s = r.sampleWithoutReplacement(8, 8);
    EXPECT_EQ(s.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(s[i], i);
}

TEST(Random, SampleTooManyPanics)
{
    Random r(1);
    EXPECT_THROW(r.sampleWithoutReplacement(4, 5), PanicError);
}

TEST(Random, ShufflePermutes)
{
    Random r(13);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    r.shuffle(v);
    EXPECT_EQ(v.size(), orig.size());
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), orig.size());
}

// Random reproduces std::mt19937_64 and libstdc++'s mappings of it
// draw for draw; every stream in the simulator relies on this to
// keep its results.

namespace
{

constexpr std::uint64_t ExactSeeds[] = {0, 1, 5489, 0x5eed,
                                        ~std::uint64_t{0}};

/**
 * Raw draws of a fresh std::mt19937_64 needed to reach @p r's
 * position, found by matching @p r's next draw (at most @p limit).
 */
std::size_t
drawsConsumed(Random &r, std::uint64_t seed, std::size_t limit)
{
    const std::uint64_t next = r.draw();
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < limit; ++i) {
        if (ref() == next)
            return i;
    }
    return limit;
}

} // namespace

TEST(Random, RawDrawsMatchMt19937_64)
{
    for (std::uint64_t seed : ExactSeeds) {
        Random r(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2500; ++i)
            ASSERT_EQ(r.draw(), ref())
                << "seed " << seed << " draw " << i;
        // Reseed mid-block: the next draw starts a fresh twist.
        r.seed(seed ^ 0x9e3779b97f4a7c15ull);
        ref.seed(seed ^ 0x9e3779b97f4a7c15ull);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(r.draw(), ref())
                << "reseeded " << seed << " draw " << i;
    }
}

TEST(Random, TenThousandthDrawOfDefaultSeed)
{
    // The check value the C++ standard gives for mt19937_64.
    Random r(5489);
    for (int i = 1; i < 10000; ++i)
        r.draw();
    EXPECT_EQ(r.draw(), 9981545732273789042ull);
}

TEST(Random, KnownValuesForOneSeed)
{
    // Recorded from std::mt19937_64(2024) through libstdc++'s
    // uniform_int_distribution<std::uint64_t> and
    // uniform_real_distribution<double>(0, 1), in this order.
    Random r(2024);
    const std::uint64_t digits[] = {6, 7, 2, 3, 0, 1, 9, 5};
    for (std::uint64_t want : digits)
        EXPECT_EQ(r.uniform(0, 9), want);
    const std::uint64_t wide[] = {
        4927406173507508448ull, 5230527213421750120ull,
        5558564781562307033ull, 6873181201557369061ull};
    for (std::uint64_t want : wide)
        EXPECT_EQ(r.uniform(100, 100 + (1ull << 63)), want);
    const double reals[] = {0x1.94000b99e13f9p-5, 0x1.34ae61503782ap-3,
                            0x1.5ab8215aa11dp-2, 0x1.e28f5125f5867p-1};
    for (double want : reals)
        EXPECT_EQ(r.real(), want);
}

#ifdef __GLIBCXX__

TEST(Random, UniformMatchesLibstdcxx)
{
    constexpr std::uint64_t Max = ~std::uint64_t{0};
    // (lo, hi): widths 1, 2, 3, 4, 1000, 2^32, 2^63 + 1 and 2^64.
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {7, 7},
        {0, 1},
        {10, 12},
        {0, 3},
        {5, 1004},
        {3, 3 + 0xffffffffull},
        {100, 100 + (1ull << 63)},
        {0, Max},
    };
    constexpr int Calls = 2000;
    for (std::uint64_t seed : ExactSeeds) {
        for (auto [lo, hi] : ranges) {
            Random r(seed);
            std::mt19937_64 ref(seed);
            std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
            for (int i = 0; i < Calls; ++i)
                ASSERT_EQ(r.uniform(lo, hi), dist(ref))
                    << "seed " << seed << " [" << lo << ", " << hi
                    << "] call " << i;
            EXPECT_EQ(r.draw(), ref()) << "streams drifted apart";
        }
    }
    // A width of 2^63 + 1 rejects about half its draws, so the
    // redraw loop ran and the draws still lined up.
    Random r(1);
    for (int i = 0; i < Calls; ++i)
        r.uniform(100, 100 + (1ull << 63));
    EXPECT_GT(drawsConsumed(r, 1, 4 * Calls), Calls * 3 / 2);
}

TEST(Random, RealAndBernoulliMatchLibstdcxx)
{
    const double probs[] = {0.0, 0x1p-60, 0.3, 0.5, 1.0 - 0x1p-53, 1.0};
    for (std::uint64_t seed : ExactSeeds) {
        Random r(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(r.real(), dist(ref))
                << "seed " << seed << " call " << i;
        for (double p : probs) {
            for (int i = 0; i < 2000; ++i)
                ASSERT_EQ(r.bernoulli(p), dist(ref) < p)
                    << "seed " << seed << " p " << p << " call " << i;
        }
        EXPECT_EQ(r.draw(), ref()) << "streams drifted apart";
    }
}

#endif // __GLIBCXX__
