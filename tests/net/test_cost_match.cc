/**
 * @file
 * Property tests: the simulated per-link bit counts reproduce the
 * paper's per-stage cost series exactly (eqs. 2, 3, 5, 6 and the
 * best case of scheme 2). These tie Sec. 3's analysis to the
 * executable network.
 */

#include <gtest/gtest.h>

#include <utility>

#include "analytic/multicast_cost.hh"
#include "bitset_oracle.hh"
#include "net/omega_network.hh"
#include "net/timed_network.hh"
#include "sim/random.hh"

using namespace mscp;
using namespace mscp::net;
using namespace mscp::analytic;

namespace
{

/** Strided destinations forcing scheme 2's worst case. */
std::vector<NodeId>
stridedDests(unsigned n, unsigned num_ports)
{
    std::vector<NodeId> d(n);
    for (unsigned j = 0; j < n; ++j)
        d[j] = j * (num_ports / n);
    return d;
}

/** Contiguous aligned cluster [base, base + n). */
std::vector<NodeId>
clusterDests(unsigned n, unsigned base = 0)
{
    std::vector<NodeId> d(n);
    for (unsigned j = 0; j < n; ++j)
        d[j] = base + j;
    return d;
}

/** (destination, tick) of every delivery of two back-to-back timed
 *  multicasts of @p dests (a set or a list), in delivery order. */
template <class Dests>
std::vector<std::pair<NodeId, Tick>>
timedDeliveries(unsigned num_ports, Scheme scheme, NodeId src,
                const Dests &dests, Bits payload)
{
    OmegaNetwork net(num_ports);
    EventQueue eq;
    TimedNetwork tn(net, eq);
    std::vector<std::pair<NodeId, Tick>> got;
    for (int send = 0; send < 2; ++send) {
        tn.sendMulticast(scheme, src, dests, payload,
                         [&got](NodeId d, Tick t) {
                             got.emplace_back(d, t);
                         });
    }
    eq.run();
    return got;
}

struct Case
{
    unsigned numPorts;
    unsigned numDests;
    unsigned messageBits;
};

} // anonymous namespace

class CostMatch : public ::testing::TestWithParam<Case>
{
};

TEST_P(CostMatch, Scheme1MatchesEq2Series)
{
    auto [N, n, M] = GetParam();
    OmegaNetwork net(N);
    auto r = net.multicast(Scheme::Unicasts, 0, stridedDests(n, N),
                           M);
    EXPECT_EQ(r.totalBits, cc1Series(n, N, M));
}

TEST_P(CostMatch, Scheme2WorstCaseMatchesEq3Series)
{
    auto [N, n, M] = GetParam();
    OmegaNetwork net(N);
    // Strided destinations split the vector at every switch of the
    // first k+1 stages: the worst case of the paper's derivation.
    auto r = net.multicast(Scheme::VectorRouting, 3 % N,
                           stridedDests(n, N), M);
    EXPECT_EQ(r.totalBits, cc2WorstSeries(n, N, M));
}

TEST_P(CostMatch, Scheme2BestCaseMatchesSeries)
{
    auto [N, n, M] = GetParam();
    OmegaNetwork net(N);
    auto r = net.multicast(Scheme::VectorRouting, 1 % N,
                           clusterDests(n), M);
    EXPECT_EQ(r.totalBits, cc2BestSeries(n, N, M));
}

TEST_P(CostMatch, Scheme3MatchesEq5Series)
{
    auto [N, n, M] = GetParam();
    OmegaNetwork net(N);
    auto r = net.multicast(Scheme::BroadcastTag, 2 % N,
                           clusterDests(n), M);
    EXPECT_EQ(r.totalBits, cc3Series(n, N, M));
    EXPECT_EQ(r.delivered.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CostMatch,
    ::testing::Values(Case{8, 1, 20}, Case{8, 2, 20}, Case{8, 8, 20},
                      Case{16, 4, 0}, Case{16, 4, 20},
                      Case{64, 8, 40}, Case{64, 16, 20},
                      Case{256, 32, 20}, Case{256, 64, 100},
                      Case{1024, 128, 20}, Case{1024, 16, 40}));

TEST(CostMatch, Scheme2ClusteredWorstMatchesEq6Series)
{
    // n destinations strided inside an n1-cluster, cluster reached
    // by a single path: the series above eq. 6.
    struct ClCase { unsigned N, n1, n, M; };
    for (auto [N, n1, n, M] : {ClCase{64, 16, 4, 20},
                               ClCase{256, 32, 8, 20},
                               ClCase{1024, 128, 16, 20},
                               ClCase{1024, 128, 4, 40},
                               ClCase{1024, 128, 128, 20}}) {
        OmegaNetwork net(N);
        std::vector<NodeId> dests(n);
        for (unsigned j = 0; j < n; ++j)
            dests[j] = j * (n1 / n);
        auto r = net.multicast(Scheme::VectorRouting, N - 1, dests,
                               M);
        EXPECT_EQ(r.totalBits, cc2ClusteredSeries(n, n1, N, M))
            << "N=" << N << " n1=" << n1 << " n=" << n;
    }
}

TEST(CostMatch, SourceDoesNotChangeCost)
{
    // Omega symmetry: the multicast cost depends on the destination
    // pattern relative to the stages, not on the source port.
    unsigned N = 64;
    auto dests = stridedDests(8, N);
    Bits ref = 0;
    for (NodeId src = 0; src < N; ++src) {
        OmegaNetwork net(N);
        auto r = net.multicast(Scheme::VectorRouting, src, dests, 20);
        if (src == 0)
            ref = r.totalBits;
        EXPECT_EQ(r.totalBits, ref) << "src=" << src;
    }
}

TEST(CostMatch, CombinedPicksTheMinimum)
{
    // Every Combined path -- multicastCombined, the committed fast
    // path and the timed layer -- makes the same eq. 8 choice: the
    // minimum cost, with identical bits on identical links.
    auto check = [](unsigned N, const std::vector<NodeId> &dests,
                    Bits payload) {
        auto costs = OmegaNetwork(N).evaluateAllSchemes(0, dests, payload);
        Bits best = std::min({costs[0].totalBits, costs[1].totalBits,
                              costs[2].totalBits});
        OmegaNetwork fresh(N);
        auto r = fresh.multicastCombined(0, dests, payload);
        EXPECT_EQ(r.totalBits, best);

        OmegaNetwork committed(N);
        EXPECT_EQ(committed.multicastCommit(Scheme::Combined, 0, dests,
                                            payload),
                  best);
        EXPECT_EQ(committed.linkStats(), fresh.linkStats());
        OmegaNetwork viaTimed(N);
        EventQueue eq;
        TimedNetwork tn(viaTimed, eq);
        tn.sendMulticast(Scheme::Combined, 0, dests, payload, {});
        EXPECT_EQ(viaTimed.linkStats(), fresh.linkStats());
        return r.used;
    };

    Random rng(99);
    for (int trial = 0; trial < 100; ++trial) {
        auto k = static_cast<std::uint32_t>(rng.uniform(1, 64));
        auto set32 = rng.sampleWithoutReplacement(256, k);
        check(256, std::vector<NodeId>(set32.begin(), set32.end()), 20);
    }
    // A tie: schemes 1 and 3 both cost 270 bits but load different
    // links. It goes to the lower scheme on every path.
    EXPECT_EQ(check(32, {11, 27}, 20), Scheme::Unicasts);
}

TEST(CostMatch, Scheme2NeverWorseThanItsWorstCase)
{
    unsigned N = 128;
    OmegaNetwork net(N);
    Random rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        // Random power-of-two-sized set; cost must lie between the
        // best-case and worst-case series for that cardinality.
        unsigned k = 1u << rng.uniform(0, 7);
        auto set32 = rng.sampleWithoutReplacement(N, k);
        std::vector<NodeId> dests(set32.begin(), set32.end());
        auto trace = net.traceScheme2(
            0, [&] {
                DynamicBitset v(N);
                for (auto d : dests)
                    v.set(d);
                return v;
            }(), 20);
        auto r = net.evaluate(trace);
        EXPECT_LE(r.totalBits, cc2WorstSeries(k, N, 20));
        EXPECT_GE(r.totalBits, cc2BestSeries(k, N, 20));
    }
}

TEST(CostMatch, Scheme2RelievesTheInjectionHotSpot)
{
    // Scheme 1 pushes n separate messages over the source's
    // injection link; scheme 2 sends one vector. For large n the
    // hottest link under scheme 2 carries far fewer bits - the
    // congestion argument behind vector routing.
    unsigned N = 256;
    auto dests = stridedDests(64, N);

    OmegaNetwork n1(N);
    n1.multicast(Scheme::Unicasts, 0, dests, 20);
    OmegaNetwork n2(N);
    n2.multicast(Scheme::VectorRouting, 0, dests, 20);

    EXPECT_LT(n2.linkStats().maxLinkBits(),
              n1.linkStats().maxLinkBits());
    // Scheme 1's hottest link is the injection link: n messages of
    // (M + m) bits each.
    EXPECT_EQ(n1.linkStats().maxLinkBits(),
              64u * (20u + log2Exact(N)));
}

TEST(CostMatch, PerLevelBitsMatchEq3Table)
{
    // Spot-check the per-stage table above eq. 3 for N=8, n=4,
    // M=20: stages carry M+N, 2(M+N/2), 4(M+N/4), 4(M+N/8).
    OmegaNetwork net(8);
    auto r = net.multicast(Scheme::VectorRouting, 0,
                           stridedDests(4, 8), 20);
    ASSERT_EQ(r.bitsPerLevel.size(), 4u);
    EXPECT_EQ(r.bitsPerLevel[0], 20u + 8u);
    EXPECT_EQ(r.bitsPerLevel[1], 2u * (20u + 4u));
    EXPECT_EQ(r.bitsPerLevel[2], 4u * (20u + 2u));
    EXPECT_EQ(r.bitsPerLevel[3], 4u * (20u + 1u));
}

TEST(CostMatch, BitsetPathsMatchTracesAndListsOn2x2)
{
    // Randomized oracle for the bitset paths on every 2x2 network
    // from 2 to 256 ports: closed-form costs against the traced
    // trees, committed links against the list adapter, and the
    // timed layer's deliveries against its list overload.
    Random rng(2024);
    for (unsigned n = 2; n <= 256; n *= 2) {
        OmegaNetwork shape(n);
        for (int round = 0; round < 2; ++round) {
            const auto src = static_cast<NodeId>(rng.uniform(0, n - 1));
            for (const auto &dests : oracle::destSets(shape, src, rng)) {
                SCOPED_TRACE(csprintf("N=%u src=%u |dests|=%zu", n, src,
                                      dests.size()));
                const Bits payload = rng.uniform(0, 100);
                oracle::checkBitsetPaths([n] { return OmegaNetwork(n); },
                                         src, dests, payload);
                const DynamicBitset set = oracle::bitsOf(n, dests);
                for (Scheme s : {Scheme::Unicasts, Scheme::VectorRouting,
                                 Scheme::BroadcastTag,
                                 Scheme::Combined}) {
                    EXPECT_EQ(timedDeliveries(n, s, src, set, payload),
                              timedDeliveries(n, s, src, dests, payload))
                        << schemeName(s);
                }
            }
        }
    }
}
