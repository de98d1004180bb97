/**
 * @file
 * PDES determinism suite for the sharded timed traffic engine --
 * the intra-run analogue of tests/core/test_sweep.cc's
 * thread-count-stability contract. A sharded run must be
 * bit-identical to the serial reference engine and byte-stable
 * (results *and* dumpStats text) across MSCP_PDES_THREADS-style
 * worker counts {1, 2, 4, 8}, on both a 64-port and a 256-port
 * configuration.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "timed/pdes_traffic.hh"

using namespace mscp;
using namespace mscp::timed;

namespace
{

PdesTrafficConfig
smallConfig()
{
    PdesTrafficConfig cfg;
    cfg.numPorts = 64;
    cfg.numShards = 8;
    cfg.numBlocks = 64;
    cfg.cacheCapacity = 8;
    cfg.writeFraction = 0.3;
    cfg.refsPerNode = 300;
    cfg.seed = 42;
    return cfg;
}

PdesTrafficConfig
largeConfig()
{
    PdesTrafficConfig cfg;
    cfg.numPorts = 256;
    cfg.numShards = 16;
    cfg.numBlocks = 256;
    cfg.cacheCapacity = 8;
    cfg.writeFraction = 0.3;
    cfg.refsPerNode = 100;
    cfg.seed = 7;
    return cfg;
}

struct Outcome
{
    PdesTrafficResult result;
    std::string stats;
    PdesDiag diag;
};

Outcome
runSharded(const PdesTrafficConfig &cfg, unsigned threads)
{
    PdesTrafficSystem sys(cfg);
    Outcome r;
    r.result = sys.run(threads);
    r.diag = sys.diag();
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    return r;
}

Outcome
runSerial(const PdesTrafficConfig &cfg)
{
    PdesTrafficSystem sys(cfg);
    Outcome r;
    r.result = sys.runSerial();
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    return r;
}

} // anonymous namespace

TEST(PdesTraffic, CompletesEveryReference)
{
    const PdesTrafficConfig cfg = smallConfig();
    const Outcome r = runSharded(cfg, 4);
    EXPECT_EQ(r.result.refs,
              static_cast<std::uint64_t>(cfg.numPorts) *
                  cfg.refsPerNode);
    EXPECT_EQ(r.result.readHits + r.result.readMisses +
                  r.result.writeHits + r.result.writeMisses,
              r.result.refs);
    EXPECT_GT(r.result.events, r.result.refs);
    EXPECT_GT(r.result.makespan, 0u);
    EXPECT_GT(r.result.messages, 0u);
    // Acks are counted per delivery; scheme-3 subcube overshoot
    // reaches (and invalidates) ports beyond the sharer set, so
    // acks can exceed the targeted invalidation count.
    EXPECT_GE(r.result.invalAcks, r.result.invalidations);
    EXPECT_GT(r.diag.windows, 0u);
    EXPECT_GT(r.diag.crossShard, 0u);
}

TEST(PdesTraffic, VersionsStayMonotone)
{
    // The version counter doubles as the data value; a stale
    // install (an Inval overtaking a ReadReply, a reordered grant)
    // would show up as a monotonicity break.
    EXPECT_EQ(runSharded(smallConfig(), 4).result.valueErrors, 0u);
    EXPECT_EQ(runSerial(smallConfig()).result.valueErrors, 0u);
}

TEST(PdesTraffic, ShardedMatchesSerialBitForBit)
{
    const Outcome serial = runSerial(smallConfig());
    const Outcome sharded = runSharded(smallConfig(), 4);
    EXPECT_EQ(sharded.result, serial.result);
    EXPECT_EQ(sharded.stats, serial.stats);
}

TEST(PdesTraffic, ByteStableAcrossThreadCounts64Ports)
{
    const Outcome ref = runSharded(smallConfig(), 1);
    for (unsigned threads : {2u, 4u, 8u}) {
        const Outcome r = runSharded(smallConfig(), threads);
        EXPECT_EQ(r.result, ref.result)
            << "stats diverged at " << threads << " threads";
        EXPECT_EQ(r.stats, ref.stats)
            << "stdout diverged at " << threads << " threads";
    }
}

TEST(PdesTraffic, ByteStableAcrossThreadCounts256Ports)
{
    const Outcome serial = runSerial(largeConfig());
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const Outcome r = runSharded(largeConfig(), threads);
        EXPECT_EQ(r.result, serial.result)
            << "stats diverged at " << threads << " threads";
        EXPECT_EQ(r.stats, serial.stats)
            << "stdout diverged at " << threads << " threads";
    }
}

TEST(PdesTraffic, ShardCountInvariant)
{
    // The shard count is a config knob, not a thread count -- but
    // events at distinct nodes commute and same-tick ordering is
    // fixed by explicit keys, so even reshaping the partition
    // leaves every statistic untouched.
    PdesTrafficConfig cfg = smallConfig();
    const Outcome ref = runSharded(cfg, 4);
    // Everything below the header line (which echoes the shard
    // count itself) must be byte-identical.
    const auto body = [](const std::string &s) {
        return s.substr(s.find('\n') + 1);
    };
    for (unsigned shards : {1u, 4u, 16u}) {
        cfg.numShards = shards;
        const Outcome r = runSharded(cfg, 4);
        EXPECT_EQ(r.result, ref.result)
            << "stats diverged at " << shards << " shards";
        EXPECT_EQ(body(r.stats), body(ref.stats));
    }
}

TEST(PdesTraffic, LookaheadMatchesNetworkFormula)
{
    PdesTrafficSystem sys(smallConfig());
    // 64 ports -> 6 stages -> 7 hops; hopLatency 1 -> L = 14.
    EXPECT_EQ(sys.lookahead(), 14u);
}

TEST(PdesTraffic, TraceMergesDeterministically)
{
    PdesTrafficConfig cfg = smallConfig();
    cfg.refsPerNode = 50;
    cfg.traceEnabled = true;
    cfg.traceCapacity = 1 << 14;

    auto traceOf = [&](unsigned threads, bool serial) {
        PdesTrafficSystem sys(cfg);
        if (serial)
            sys.runSerial();
        else
            sys.run(threads);
        std::ostringstream os;
        sys.exportChromeTrace(os);
        return os.str();
    };

    const std::string ref = traceOf(1, false);
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(traceOf(4, false), ref)
        << "merged trace must not depend on the worker count";
}

TEST(PdesTraffic, RunsExactlyOnce)
{
    PdesTrafficSystem sys(smallConfig());
    sys.run(2);
    EXPECT_THROW(sys.run(2), PanicError);
    PdesTrafficSystem sys2(smallConfig());
    sys2.runSerial();
    EXPECT_THROW(sys2.run(1), PanicError);
}

TEST(PdesTraffic, MetricsSeriesIdenticalAcrossWorkerCountsAndSerial)
{
    // The metrics contract mirrors the stats one: per-shard samplers
    // see the same event stream under any worker count (and under the
    // serial reference engine), so the merged window series must be
    // bit-identical everywhere. MetricsWindow's defaulted operator==
    // compares every cell.
    PdesTrafficConfig cfg = smallConfig();
    cfg.metricsEnabled = true;
    cfg.metricsWindow = 64;

    auto windowsOf = [&](unsigned threads, bool serial) {
        PdesTrafficSystem sys(cfg);
        if (serial)
            sys.runSerial();
        else
            sys.run(threads);
        return sys.metricsWindows();
    };

    const auto ref = windowsOf(0, true);
    ASSERT_FALSE(ref.empty())
        << "metrics-enabled run produced no windows";
    for (unsigned threads : {1u, 2u, 4u, 8u})
        EXPECT_EQ(windowsOf(threads, false), ref)
            << "metrics series diverged at " << threads << " workers";
}

TEST(PdesTraffic, MetricsStayEmptyWhenDisabled)
{
    // Default config leaves metrics off: the registry still describes
    // the schema, but no sampler ever arms and no windows accumulate.
    PdesTrafficSystem sys(smallConfig());
    sys.run(2);
    EXPECT_TRUE(sys.metricsWindows().empty());
}
