/** @file Unit tests for omega-network geometry. */

#include <gtest/gtest.h>

#include "net/topology.hh"
#include "sim/logging.hh"

using namespace mscp;
using namespace mscp::net;

TEST(Topology, BasicGeometry)
{
    OmegaTopology t(16);
    EXPECT_EQ(t.numPorts(), 16u);
    EXPECT_EQ(t.numStages(), 4u);
    EXPECT_EQ(t.numLinkLevels(), 5u);
    EXPECT_EQ(t.switchesPerStage(), 8u);
}

TEST(Topology, RejectsBadPortCounts)
{
    EXPECT_THROW(OmegaTopology(0), FatalError);
    EXPECT_THROW(OmegaTopology(1), FatalError);
    EXPECT_THROW(OmegaTopology(12), FatalError);
}

TEST(Topology, ShuffleIsRotateLeft)
{
    OmegaTopology t(8); // 3-bit lines
    EXPECT_EQ(t.shuffle(0b000), 0b000u);
    EXPECT_EQ(t.shuffle(0b001), 0b010u);
    EXPECT_EQ(t.shuffle(0b100), 0b001u);
    EXPECT_EQ(t.shuffle(0b110), 0b101u);
}

TEST(Topology, UnshuffleInvertsShuffle)
{
    for (unsigned n : {4u, 8u, 32u, 128u}) {
        OmegaTopology t(n);
        for (unsigned line = 0; line < n; ++line) {
            EXPECT_EQ(t.unshuffle(t.shuffle(line)), line);
            EXPECT_EQ(t.shuffle(t.unshuffle(line)), line);
        }
    }
}

class TopologyPath : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TopologyPath, AllPairsRouteCorrectly)
{
    unsigned n = GetParam();
    OmegaTopology t(n);
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            auto path = t.path(s, d);
            ASSERT_EQ(path.size(), t.numStages() + 1);
            EXPECT_EQ(path.front(), s);
            EXPECT_EQ(path.back(), d);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologyPath,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u));

TEST(Topology, DestBitIsMsbFirst)
{
    OmegaTopology t(8);
    // destination 0b110: stage 0 uses bit 2 (1), stage 1 bit 1 (1),
    // stage 2 bit 0 (0).
    EXPECT_EQ(t.destDigit(0b110, 0), 1u);
    EXPECT_EQ(t.destDigit(0b110, 1), 1u);
    EXPECT_EQ(t.destDigit(0b110, 2), 0u);
}

TEST(Topology, ReachableNarrowsByLevel)
{
    OmegaTopology t(16);
    unsigned lo, hi;
    // At injection every destination is reachable.
    t.reachable(0, 5, lo, hi);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 16u);
    // At the delivery level only the line itself.
    t.reachable(4, 11, lo, hi);
    EXPECT_EQ(lo, 11u);
    EXPECT_EQ(hi, 12u);
}

TEST(Topology, ReachableConsistentWithPaths)
{
    OmegaTopology t(16);
    // Walk a path and verify the destination stays inside the
    // reachable window at every level.
    for (unsigned s = 0; s < 16; ++s) {
        for (unsigned d = 0; d < 16; ++d) {
            auto path = t.path(s, d);
            for (unsigned lvl = 0; lvl < path.size(); ++lvl) {
                unsigned lo, hi;
                t.reachable(lvl, path[lvl], lo, hi);
                EXPECT_LE(lo, d);
                EXPECT_LT(d, hi);
            }
        }
    }
}
