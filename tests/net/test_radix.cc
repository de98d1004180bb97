/**
 * @file
 * Tests for the radix-a omega generalization: radix-2 must agree
 * with the canonical binary network bit-for-bit, higher radices
 * must route correctly and match the generalized cost series.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "analytic/multicast_cost.hh"
#include "analytic/radix_cost.hh"
#include "bitset_oracle.hh"
#include "net/omega_network.hh"
#include "sim/random.hh"

using namespace mscp;
using namespace mscp::net;
using namespace mscp::analytic;

namespace
{

std::vector<NodeId>
sorted(std::vector<NodeId> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

std::vector<NodeId>
strided(unsigned n, unsigned num_ports)
{
    std::vector<NodeId> d(n);
    for (unsigned j = 0; j < n; ++j)
        d[j] = j * (num_ports / n);
    return d;
}

std::vector<NodeId>
cluster(unsigned n)
{
    std::vector<NodeId> d(n);
    for (unsigned j = 0; j < n; ++j)
        d[j] = j;
    return d;
}

} // anonymous namespace

TEST(RadixTopology, RejectsNonPowers)
{
    EXPECT_THROW(RadixOmegaTopology(12, 4), FatalError);
    EXPECT_THROW(RadixOmegaTopology(1, 2), FatalError);
    EXPECT_THROW(RadixOmegaTopology(8, 1), FatalError);
    EXPECT_NO_THROW(RadixOmegaTopology(64, 4));
    EXPECT_NO_THROW(RadixOmegaTopology(27, 3));
}

TEST(RadixTopology, GeometryCounts)
{
    RadixOmegaTopology t(64, 4);
    EXPECT_EQ(t.numStages(), 3u);
    EXPECT_EQ(t.switchesPerStage(), 16u);
    EXPECT_EQ(t.digitBits(), 2u);
    RadixOmegaTopology t3(27, 3);
    EXPECT_EQ(t3.numStages(), 3u);
    EXPECT_EQ(t3.digitBits(), 2u);
}

TEST(RadixTopology, ShuffleInverse)
{
    for (auto [n, a] : {std::pair{16u, 4u}, {64u, 4u}, {27u, 3u},
                        {32u, 2u}}) {
        RadixOmegaTopology t(n, a);
        for (unsigned line = 0; line < n; ++line) {
            EXPECT_EQ(t.unshuffle(t.shuffle(line)), line);
            EXPECT_EQ(t.shuffle(t.unshuffle(line)), line);
        }
    }
}

TEST(RadixTopology, AllPairsRoute)
{
    for (auto [n, a] : {std::pair{16u, 4u}, {27u, 3u}, {64u, 8u}}) {
        RadixOmegaTopology t(n, a);
        for (unsigned s = 0; s < n; ++s) {
            for (unsigned d = 0; d < n; ++d) {
                auto path = t.path(s, d);
                EXPECT_EQ(path.front(), s);
                EXPECT_EQ(path.back(), d);
                EXPECT_EQ(path.size(), t.numStages() + 1);
            }
        }
    }
}

TEST(RadixTopology, Radix2MatchesBinaryTopology)
{
    OmegaTopology bin(32);
    RadixOmegaTopology rad(32, 2);
    for (unsigned s = 0; s < 32; ++s)
        for (unsigned d = 0; d < 32; ++d)
            EXPECT_EQ(bin.path(s, d), rad.path(s, d));
}

TEST(RadixNetwork, Radix2CostsMatchBinaryNetwork)
{
    OmegaNetwork bin(64);
    RadixOmegaNetwork rad(64, 2);
    Random rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        auto k = static_cast<std::uint32_t>(rng.uniform(1, 64));
        auto set32 = rng.sampleWithoutReplacement(64, k);
        std::vector<NodeId> dests(set32.begin(), set32.end());
        NodeId src = static_cast<NodeId>(rng.uniform(0, 63));

        auto b1 = bin.evaluate(bin.traceScheme1(src, dests, 20));
        auto r1 = rad.evaluate(rad.traceScheme1(src, dests, 20));
        EXPECT_EQ(b1.totalBits, r1.totalBits);

        DynamicBitset v(64);
        for (auto d : dests)
            v.set(d);
        auto b2 = bin.evaluate(bin.traceScheme2(src, v, 20));
        auto r2 = rad.evaluate(rad.traceScheme2(src, v, 20));
        EXPECT_EQ(b2.totalBits, r2.totalBits);
        EXPECT_EQ(sorted(b2.delivered), sorted(r2.delivered));
    }
}

TEST(RadixNetwork, Scheme2DeliversExactSetsAllRadices)
{
    for (auto [n, a] : {std::pair{16u, 4u}, {27u, 3u}, {64u, 8u},
                        {256u, 4u}}) {
        RadixOmegaNetwork net(n, a);
        Random rng(n + a);
        for (int trial = 0; trial < 30; ++trial) {
            auto k = static_cast<std::uint32_t>(
                rng.uniform(1, n));
            auto set32 = rng.sampleWithoutReplacement(n, k);
            std::vector<NodeId> dests(set32.begin(), set32.end());
            auto src = static_cast<NodeId>(rng.uniform(0, n - 1));
            auto r = net.multicast(Scheme::VectorRouting, src,
                                   dests, 20);
            EXPECT_EQ(sorted(r.delivered), dests);
        }
    }
    // Every port of a 4096-port radix-16 network: the walk's stack
    // peaks at m(a-1)+1 = 46 frames.
    RadixOmegaNetwork big(4096, 16);
    std::vector<NodeId> all(4096);
    std::iota(all.begin(), all.end(), 0u);
    auto r = big.multicast(Scheme::VectorRouting, 5, all, 20);
    EXPECT_EQ(r.delivered, all);
    EXPECT_EQ(r.totalBits, big.schemeCosts(5, all, 20).scheme2);
}

TEST(RadixNetwork, Scheme1MatchesRadixSeries)
{
    for (auto [n_ports, a] : {std::pair{64u, 4u}, {256u, 4u},
                              {64u, 8u}}) {
        RadixOmegaNetwork net(n_ports, a);
        for (unsigned n : {1u, 4u, 16u}) {
            auto r = net.multicast(Scheme::Unicasts, 0,
                                   strided(n, n_ports), 20);
            EXPECT_EQ(r.totalBits,
                      cc1SeriesRadix(n, n_ports, a, 20))
                << "N=" << n_ports << " a=" << a << " n=" << n;
        }
    }
}

TEST(RadixNetwork, Scheme2WorstCaseMatchesRadixSeries)
{
    // Strided destinations n = a^k fork at every switch of the
    // first k+1 stages.
    for (auto [n_ports, a] : {std::pair{64u, 4u}, {256u, 4u},
                              {512u, 8u}}) {
        for (unsigned k = 0; k <= 2; ++k) {
            unsigned n = 1;
            for (unsigned i = 0; i < k; ++i)
                n *= a;
            RadixOmegaNetwork net(n_ports, a);
            auto r = net.multicast(Scheme::VectorRouting, 1,
                                   strided(n, n_ports), 20);
            EXPECT_EQ(r.totalBits,
                      cc2WorstSeriesRadix(n, n_ports, a, 20))
                << "N=" << n_ports << " a=" << a << " n=" << n;
        }
    }
}

TEST(RadixNetwork, Scheme3MatchesRadixSeries)
{
    for (auto [n_ports, a] : {std::pair{64u, 4u}, {256u, 4u},
                              {64u, 8u}}) {
        for (unsigned l = 1; l <= 2; ++l) {
            unsigned n1 = 1;
            for (unsigned i = 0; i < l; ++i)
                n1 *= a;
            if (n1 > n_ports)
                continue;
            RadixOmegaNetwork net(n_ports, a);
            auto r = net.multicast(Scheme::BroadcastTag, 3,
                                   cluster(n1), 20);
            EXPECT_EQ(sorted(r.delivered), cluster(n1));
            EXPECT_EQ(r.totalBits,
                      cc3SeriesRadix(n1, n_ports, a, 20))
                << "N=" << n_ports << " a=" << a << " n1=" << n1;
        }
    }
}

TEST(RadixNetwork, RadixSeriesReduceToBinarySeries)
{
    for (std::uint64_t N : {64ull, 1024ull}) {
        for (std::uint64_t M : {0ull, 20ull, 40ull}) {
            for (std::uint64_t n = 1; n <= N; n <<= 2) {
                EXPECT_EQ(cc1SeriesRadix(n, N, 2, M),
                          cc1Series(n, N, M));
                EXPECT_EQ(cc2WorstSeriesRadix(n, N, 2, M),
                          cc2WorstSeries(n, N, M));
            }
        }
    }
}

TEST(RadixNetwork, HigherRadixCutsMulticastCost)
{
    // Same 4096-port machine with fatter switches: fewer stages,
    // cheaper multicasts (the generalization the paper gestures
    // at).
    // n = 256 is a power of 2, 4 and 16 (not 8), so those radices
    // compare like-for-like.
    std::uint64_t prev = ~0ull;
    for (unsigned a : {2u, 4u, 16u}) {
        auto cc = cc2WorstSeriesRadix(256, 4096, a, 20);
        EXPECT_LT(cc, prev) << "radix " << a;
        prev = cc;
    }
    // Scheme 1 is defined for any n; check the full radix ladder.
    prev = ~0ull;
    for (unsigned a : {2u, 4u, 8u, 16u}) {
        auto cc = cc1SeriesRadix(256, 4096, a, 20);
        EXPECT_LT(cc, prev) << "radix " << a;
        prev = cc;
    }
}

TEST(RadixNetwork, CombinedPicksMinimum)
{
    // On any radix every Combined path -- the trace path, the
    // committed walk and schemeCosts -- makes the same eq. 8 choice:
    // the minimum cost, with identical bits on identical links.
    auto check = [](unsigned n_ports, unsigned a,
                    const std::vector<NodeId> &dests, Bits payload) {
        auto costs = RadixOmegaNetwork(n_ports, a)
                         .evaluateAllSchemes(0, dests, payload);
        auto sc = RadixOmegaNetwork(n_ports, a)
                      .schemeCosts(0, dests, payload);
        EXPECT_EQ(sc.scheme1, costs[0].totalBits);
        EXPECT_EQ(sc.scheme2, costs[1].totalBits);
        EXPECT_EQ(sc.scheme3, costs[2].totalBits);
        Bits best = std::min({costs[0].totalBits, costs[1].totalBits,
                              costs[2].totalBits});
        RadixOmegaNetwork traced(n_ports, a);
        auto r = traced.multicastCombined(0, dests, payload);
        EXPECT_EQ(r.totalBits, best);
        // Every requested destination reached.
        for (NodeId d : dests)
            EXPECT_TRUE(std::binary_search(r.delivered.begin(),
                                           r.delivered.end(), d));
        RadixOmegaNetwork committed(n_ports, a);
        EXPECT_EQ(committed.multicastCommit(Scheme::Combined, 0, dests,
                                            payload),
                  best);
        EXPECT_EQ(committed.linkStats(), traced.linkStats());
        return r.used;
    };

    Random rng(17);
    for (int trial = 0; trial < 40; ++trial) {
        auto k = static_cast<std::uint32_t>(rng.uniform(1, 32));
        auto set32 = rng.sampleWithoutReplacement(64, k);
        check(64, 4, std::vector<NodeId>(set32.begin(), set32.end()),
              20);
    }
    for (int trial = 0; trial < 40; ++trial) {
        auto k = static_cast<std::uint32_t>(rng.uniform(1, 27));
        auto set32 = rng.sampleWithoutReplacement(27, k);
        check(27, 3, std::vector<NodeId>(set32.begin(), set32.end()),
              20);
    }
    // Ties go to the lower scheme. {0, 3} at M = 10 costs 104 bits
    // under all three schemes; {0, 1} at M = 23 costs 156 under
    // schemes 2 and 3, whose scheme-3 cube also reaches port 2.
    EXPECT_EQ(check(27, 3, {0, 3}, 10), Scheme::Unicasts);
    EXPECT_EQ(check(27, 3, {0, 1}, 23), Scheme::VectorRouting);
}

TEST(RadixSubcube, EnclosingAndMembers)
{
    RadixOmegaTopology t(64, 4);
    auto cube = RadixSubcube::enclosing(t, {5, 9});
    // 5 = digits (0,1,1), 9 = (0,2,1): digit position 1 differs.
    EXPECT_EQ(cube.mask, 2u);
    EXPECT_EQ(cube.size(t), 4u);
    auto m = cube.members(t);
    EXPECT_EQ(m, (std::vector<NodeId>{1, 5, 9, 13}));
}

TEST(RadixNetwork, BitsetPathsMatchTracesAndLists)
{
    // The randomized oracle of the bitset paths (bitset_oracle.hh)
    // on a x a switches, where the divergence level and the
    // enclosing cube work on base-a digits.
    Random rng(4096);
    for (auto [a, m] : {std::pair{4u, 2u}, {4u, 3u}, {8u, 2u}}) {
        unsigned n = 1;
        for (unsigned i = 0; i < m; ++i)
            n *= a;
        RadixOmegaNetwork shape(n, a);
        for (int round = 0; round < 2; ++round) {
            const auto src = static_cast<NodeId>(rng.uniform(0, n - 1));
            for (const auto &dests : oracle::destSets(shape, src, rng)) {
                SCOPED_TRACE(csprintf("N=%u a=%u src=%u |dests|=%zu", n,
                                      a, src, dests.size()));
                oracle::checkBitsetPaths(
                    [n, a] { return RadixOmegaNetwork(n, a); }, src,
                    dests, rng.uniform(0, 100));
            }
        }
    }
}
