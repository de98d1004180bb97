/** @file Tests for the top-level system builder. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "proto/checker.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

using namespace mscp;
using namespace mscp::core;

namespace
{

workload::SharedBlockWorkload
sharedStream(double w, unsigned tasks, std::uint64_t refs)
{
    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(tasks);
    p.writeFraction = w;
    p.numBlocks = 2;
    p.blockWords = 4;
    p.numRefs = refs;
    return workload::SharedBlockWorkload(p);
}

SystemConfig
cfg16()
{
    SystemConfig cfg;
    cfg.numPorts = 16;
    cfg.geometry = cache::Geometry{4, 8, 2};
    return cfg;
}

} // anonymous namespace

TEST(System, BuildsAndRuns)
{
    SystemConfig cfg;
    cfg.numPorts = 16;
    cfg.geometry = cache::Geometry{4, 8, 2};
    System sys(cfg);
    auto w = sharedStream(0.3, 4, 2000);
    auto res = sys.run(w);
    EXPECT_EQ(res.refs, 2000u);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(res.networkBits, 0u);
    auto errs = proto::checkInvariants(sys.protocol());
    EXPECT_TRUE(errs.empty()) << errs.front();
}

TEST(System, RejectsBadPortCount)
{
    SystemConfig cfg;
    cfg.numPorts = 12;
    EXPECT_THROW(System sys(cfg), FatalError);
}

TEST(System, AdaptivePolicyRunsCoherently)
{
    SystemConfig cfg;
    cfg.numPorts = 16;
    cfg.geometry = cache::Geometry{4, 8, 2};
    cfg.policy = PolicyKind::Adaptive;
    cfg.adaptWindow = 16;
    System sys(cfg);
    auto w = sharedStream(0.1, 8, 4000);
    auto res = sys.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(sys.policy().switchesIssued(), 0u);
}

TEST(System, SchemeRegistersPathWorks)
{
    SystemConfig cfg;
    cfg.numPorts = 64;
    cfg.geometry = cache::Geometry{4, 8, 2};
    cfg.useSchemeRegisters = true;
    cfg.clusterSize = 16;
    cfg.defaultMode = cache::Mode::DistributedWrite;
    System sys(cfg);
    auto w = sharedStream(0.3, 16, 3000);
    auto res = sys.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(sys.protocol().counters().dwUpdates, 0u);
}

TEST(System, SchemeRegistersRequireClusterSize)
{
    SystemConfig cfg;
    cfg.numPorts = 16;
    cfg.useSchemeRegisters = true;
    cfg.clusterSize = 0;
    EXPECT_THROW(System sys(cfg), FatalError);
}

TEST(System, ReportMentionsKeyCounters)
{
    SystemConfig cfg;
    cfg.numPorts = 8;
    cfg.geometry = cache::Geometry{4, 4, 2};
    System sys(cfg);
    auto w = sharedStream(0.4, 4, 500);
    sys.run(w);
    std::ostringstream os;
    sys.report(os);
    auto s = os.str();
    EXPECT_NE(s.find("reads"), std::string::npos);
    EXPECT_NE(s.find("ownership transfers"), std::string::npos);
    EXPECT_NE(s.find("network:"), std::string::npos);
    EXPECT_NE(s.find("write-backs:"), std::string::npos);
    EXPECT_NE(s.find("bits/ref"), std::string::npos);
    EXPECT_NE(s.find("hottest link"), std::string::npos);
}

TEST(System, PolicyKindNames)
{
    EXPECT_STREQ(policyKindName(PolicyKind::Adaptive), "adaptive");
    EXPECT_STREQ(policyKindName(PolicyKind::ForceDW), "force-dw");
    EXPECT_STREQ(policyKindName(PolicyKind::ForceGR), "force-gr");
    EXPECT_STREQ(policyKindName(PolicyKind::EngineDefault),
                 "engine-default");
}

TEST(System, ForcedModesProduceExpectedTrafficShapes)
{
    // On a read-heavy shared block, DW turns remote reads into
    // hits; GR pays a round trip per remote read. DW must carry
    // less traffic at w = 0.05 and n = 8.
    auto bits_for = [](PolicyKind k) {
        SystemConfig cfg;
        cfg.numPorts = 16;
        cfg.geometry = cache::Geometry{4, 8, 2};
        cfg.policy = k;
        System sys(cfg);
        auto w = sharedStream(0.05, 8, 5000);
        auto res = sys.run(w);
        EXPECT_EQ(res.valueErrors, 0u);
        return res.networkBits;
    };
    EXPECT_LT(bits_for(PolicyKind::ForceDW),
              bits_for(PolicyKind::ForceGR));
}

TEST(System, HighWriteFractionFavorsGlobalRead)
{
    auto bits_for = [](PolicyKind k) {
        SystemConfig cfg;
        cfg.numPorts = 16;
        cfg.geometry = cache::Geometry{4, 8, 2};
        cfg.policy = k;
        System sys(cfg);
        auto w = sharedStream(0.9, 8, 5000);
        auto res = sys.run(w);
        EXPECT_EQ(res.valueErrors, 0u);
        return res.networkBits;
    };
    EXPECT_LT(bits_for(PolicyKind::ForceGR),
              bits_for(PolicyKind::ForceDW));
}

TEST(MessageTable, ListsOnlyUsedTypes)
{
    System sys(cfg16());
    auto &p = sys.protocol();
    p.write(0, 100, 1);
    p.read(1, 100);

    std::ostringstream os;
    dumpMessageTable(os, p.messageCounters());
    auto s = os.str();
    EXPECT_NE(s.find("LoadReq"), std::string::npos);
    EXPECT_NE(s.find("total"), std::string::npos);
    // No distributed-write updates happened.
    EXPECT_EQ(s.find("DwUpdate"), std::string::npos);
}

TEST(MessageTable, TotalsAreConsistent)
{
    System sys(cfg16());
    auto &p = sys.protocol();
    for (Addr a = 0; a < 32; ++a) {
        p.write(static_cast<NodeId>(a % 16), a, a);
        p.read(static_cast<NodeId>((a + 1) % 16), a);
    }
    const auto &mc = p.messageCounters();
    std::uint64_t count = 0;
    Bits bits = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(proto::MsgType::NumTypes);
         ++i) {
        count += mc.count[i];
        bits += mc.bits[i];
    }
    EXPECT_EQ(count, mc.totalCount());
    EXPECT_EQ(bits, mc.totalBits());
}
