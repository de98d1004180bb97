/**
 * @file
 * Fault-injection soak for the concurrent engine.
 *
 * The hardened engine claims three things, and each gets a test
 * here: (1) under the *recoverable* fault envelope - dropped
 * requests, duplicated requests and replies, random extra delay -
 * every run stays linearizable and quiesces into an invariant-clean
 * end state; (2) with the plan disabled the hardening is inert
 * (armed-but-unfired timeouts and watchdog scans change nothing
 * observable); (3) an *unrecoverable* loss (a dropped reply, which
 * nothing re-creates) is caught by the liveness watchdog with a
 * diagnostic dump instead of hanging the run.
 */

#include <gtest/gtest.h>

#include "core/sweep.hh"
#include "net/omega_network.hh"
#include "proto/checker.hh"
#include "proto/concurrent.hh"
#include "sim/fault.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

using namespace mscp;
using namespace mscp::core;
using namespace mscp::proto;

namespace
{

/** Hardened-engine defaults every faulted run in this file uses. */
void
hardenPoint(SweepPoint &pt)
{
    pt.engine = EngineKind::Concurrent;
    pt.timeoutBase = 512;
    pt.maxRetries = 12;
    pt.watchdogPeriod = 50000;
    pt.watchdogAge = 200000;
    pt.checkEndState = true;
}

} // anonymous namespace

// ---------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisions)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.of(FaultClass::Request).drop = 0.3;
    plan.of(FaultClass::Reply).duplicate = 0.4;
    plan.of(FaultClass::Control).delay = 0.5;

    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 2000; ++i) {
        FaultClass c =
            static_cast<FaultClass>(i % int(FaultClass::NumClasses));
        a.setMessageClass(c);
        b.setMessageClass(c);
        FaultDecision da = a.decide(i % 16, i * 3);
        FaultDecision db = b.decide(i % 16, i * 3);
        ASSERT_EQ(da.drop, db.drop);
        ASSERT_EQ(da.duplicate, db.duplicate);
        ASSERT_EQ(da.extraDelay, db.extraDelay);
        ASSERT_EQ(da.dupDelay, db.dupDelay);
    }
    EXPECT_GT(a.counters().totalDropped(), 0u);
    EXPECT_GT(a.counters().totalDuplicated(), 0u);
    EXPECT_GT(a.counters().totalDelayed(), 0u);
}

TEST(FaultInjector, DegradeWindowBoostsOneNode)
{
    // No base rates: every fault must come from the window.
    FaultPlan plan;
    DegradeWindow w;
    w.begin = 100;
    w.end = 200;
    w.node = 3;
    w.dropBoost = 1.0;
    plan.windows.push_back(w);

    FaultInjector fi(plan);
    ASSERT_TRUE(fi.enabled());
    fi.setMessageClass(FaultClass::Reply);
    // Inside the window, the targeted node loses everything.
    for (Tick t = 100; t < 200; t += 10)
        EXPECT_TRUE(fi.decide(3, t).drop);
    // Other nodes and other times are untouched.
    for (Tick t = 100; t < 200; t += 10)
        EXPECT_FALSE(fi.decide(4, t).drop);
    EXPECT_FALSE(fi.decide(3, 99).drop);
    EXPECT_FALSE(fi.decide(3, 200).drop);
}

TEST(FaultInjector, DisabledPlanIsInert)
{
    FaultPlan plan; // all rates zero, no windows
    FaultInjector fi(plan);
    EXPECT_FALSE(fi.enabled());
}

// ---------------------------------------------------------------
// Soak: the recoverable envelope, swept wide
// ---------------------------------------------------------------

TEST(FaultSoak, GridStaysLinearizableAndInvariantClean)
{
    // (fault mix x seed x machine shape) grid, >= 200 points. Every
    // point must finish without deadlock, report zero value errors
    // and quiesce into an invariant-clean state; collectively the
    // grid must actually exercise the recovery machinery.
    struct Mix
    {
        double drop, dup, delay;
    };
    const Mix mixes[] = {
        {0.02, 0.0, 0.0},   // drops only
        {0.0, 0.05, 0.0},   // duplicates only
        {0.0, 0.0, 0.10},   // delays only
        {0.03, 0.03, 0.05}, // everything at once
    };
    struct Shape
    {
        unsigned ports, sets, assoc, tasks, blocks;
    };
    const Shape shapes[] = {
        {8, 8, 2, 8, 4},  // comfortable caches
        {16, 1, 1, 8, 3}, // one-entry caches: eviction-heavy
    };

    std::vector<SweepPoint> pts;
    for (const Mix &m : mixes) {
        for (const Shape &s : shapes) {
            for (std::uint64_t seed = 1; seed <= 26; ++seed) {
                SweepPoint pt;
                hardenPoint(pt);
                pt.numPorts = s.ports;
                pt.sets = s.sets;
                pt.assoc = s.assoc;
                pt.tasks = s.tasks;
                pt.numBlocks = s.blocks;
                pt.writeFraction = 0.35;
                pt.numRefs = 1500;
                pt.seed = seed;
                pt.faultSeed = seed * 0x9e37 + 17;
                pt.faultDropRate = m.drop;
                pt.faultDupRate = m.dup;
                pt.faultDelayRate = m.delay;
                pts.push_back(pt);
            }
        }
    }
    ASSERT_GE(pts.size(), 200u);

    std::vector<SweepResult> res = runSweep(pts);
    std::uint64_t drops = 0, dups = 0, retries = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        const SweepResult &r = res[i];
        EXPECT_EQ(r.valueErrors, 0u) << "point " << i;
        EXPECT_EQ(r.deadlocks, 0u) << "point " << i;
        EXPECT_EQ(r.invariantErrors, 0u) << "point " << i;
        EXPECT_EQ(r.refs, pts[i].numRefs) << "point " << i;
        drops += r.faultDrops;
        dups += r.faultDups;
        retries += r.retries;
    }
    // The soak is vacuous unless faults really happened and really
    // got recovered from.
    EXPECT_GT(drops, 100u);
    EXPECT_GT(dups, 100u);
    EXPECT_GT(retries, 50u);
}

TEST(FaultSoak, CrashSoakGridStaysClean)
{
    // Crash-stop soak: every fault mix crossed with a kill/restart
    // schedule and a spread of seeds. Survivors must finish
    // watchdog-silent, linearizable and invariant-clean (I8
    // included); collectively the grid must actually mask
    // deliveries to dead nodes, rebuild directories and rejoin
    // restarted nodes.
    struct Mix
    {
        double drop, dup, delay;
    };
    const Mix mixes[] = {
        {0.0, 0.0, 0.0},    // crash only
        {0.02, 0.0, 0.0},   // crash + request drops
        {0.02, 0.03, 0.05}, // crash + the full envelope
    };
    struct Crash
    {
        Tick kill, restartDelta;
    };
    const Crash crashes[] = {
        {700, 0},     // die early, stay down
        {2500, 3000}, // die mid-run, come back cold
    };

    std::vector<SweepPoint> pts;
    for (const Mix &m : mixes) {
        for (const Crash &c : crashes) {
            for (std::uint64_t seed = 1; seed <= 10; ++seed) {
                SweepPoint pt;
                hardenPoint(pt);
                pt.timeoutBase = 256;
                pt.maxRetries = 5;
                pt.watchdogAge = 400000;
                pt.numPorts = 8;
                pt.tasks = 8;
                pt.writeFraction = 0.35;
                pt.numRefs = 1500;
                pt.seed = seed;
                pt.faultSeed = seed * 0x517 + 3;
                pt.faultDropRate = m.drop;
                pt.faultDupRate = m.dup;
                pt.faultDelayRate = m.delay;
                pt.crashNode = static_cast<NodeId>(seed % 8);
                pt.crashTick = c.kill + seed * 37;
                pt.crashRestartDelta = c.restartDelta;
                pts.push_back(pt);
            }
        }
    }

    std::vector<SweepResult> res = runSweep(pts);
    std::uint64_t masked = 0, rebuilds = 0, rejoins = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        const SweepResult &r = res[i];
        EXPECT_EQ(r.valueErrors, 0u) << "point " << i;
        EXPECT_EQ(r.deadlocks, 0u) << "point " << i;
        EXPECT_EQ(r.invariantErrors, 0u) << "point " << i;
        EXPECT_EQ(r.crashes, 1u) << "point " << i;
        masked += r.crashMasked;
        rebuilds += r.rebuilds;
        rejoins += r.rejoins;
    }
    EXPECT_GT(masked, 0u);
    EXPECT_GT(rebuilds, 0u);
    EXPECT_GT(rejoins, 0u);
}

TEST(FaultSoak, ZeroFaultHardeningIsInert)
{
    // Timeouts armed (but never firing) and a running watchdog must
    // not perturb the simulation: every protocol-visible result of
    // a fault-free hardened run equals the unhardened run's.
    SweepPoint plain;
    plain.engine = EngineKind::Concurrent;
    plain.numPorts = 16;
    plain.tasks = 8;
    plain.writeFraction = 0.3;
    plain.numRefs = 4000;
    plain.seed = 7;

    SweepPoint hardened = plain;
    hardenPoint(hardened);
    hardened.checkEndState = false;

    SweepResult a = runPoint(plain);
    SweepResult b = runPoint(hardened);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.networkBits, b.networkBits);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.valueErrors, b.valueErrors);
    EXPECT_EQ(a.avgReadLatency, b.avgReadLatency);
    EXPECT_EQ(a.avgWriteLatency, b.avgWriteLatency);
    EXPECT_EQ(a.homeQueued, b.homeQueued);
    EXPECT_EQ(a.pointerNacks, b.pointerNacks);
    EXPECT_EQ(b.timeouts, 0u);
    EXPECT_EQ(b.retries, 0u);
    EXPECT_EQ(b.deadlocks, 0u);
    EXPECT_EQ(b.faultDrops, 0u);
    EXPECT_EQ(b.faultDups, 0u);
}

TEST(FaultSoak, SweepIsDeterministicAcrossThreadCounts)
{
    std::vector<SweepPoint> pts;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SweepPoint pt;
        hardenPoint(pt);
        pt.numPorts = 8;
        pt.tasks = 8;
        pt.numRefs = 1000;
        pt.seed = seed;
        pt.faultDropRate = 0.03;
        pt.faultDupRate = 0.03;
        pt.faultDelayRate = 0.05;
        pts.push_back(pt);
    }
    auto serial = runSweep(pts, 1);
    auto parallel = runSweep(pts, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << "point " << i;
}

// ---------------------------------------------------------------
// Directed engine-level fault tests
// ---------------------------------------------------------------

TEST(FaultSoak, RequestDropsAreRetriedToCompletion)
{
    net::OmegaNetwork net(8);
    ConcurrentParams params;
    params.geometry = cache::Geometry{4, 8, 2};
    params.faultPlan.of(FaultClass::Request).drop = 0.3;
    params.faultPlan.seed = 99;
    params.timeoutBase = 512;
    params.maxRetries = 16;
    params.watchdogPeriod = 50000;
    params.watchdogAge = 200000;
    ConcurrentProtocol p(net, params);

    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(8);
    wp.writeFraction = 0.3;
    wp.numBlocks = 2;
    wp.blockWords = 4;
    wp.baseAddr = 6 * 4;
    wp.numRefs = 2000;
    workload::SharedBlockWorkload w(wp);
    auto res = p.run(w);

    EXPECT_EQ(res.refs, 2000u);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_EQ(res.deadlocks, 0u);
    EXPECT_GT(p.faultCounters().totalDropped(), 0u);
    EXPECT_GT(p.counters().timeouts, 0u);
    EXPECT_GT(p.counters().retries, 0u);
    auto errs = checkInvariants(viewOf(p));
    EXPECT_TRUE(errs.empty()) << errs.front();
}

TEST(FaultSoak, DelayWindowsKeepProtocolCorrect)
{
    // Deterministic link degradation: two windows of heavy fixed
    // delay (one node-targeted, one global). Delay reorders but
    // never loses messages, so no timeouts are needed and the run
    // must stay clean.
    net::OmegaNetwork net(8);
    ConcurrentParams params;
    params.geometry = cache::Geometry{4, 8, 2};
    DegradeWindow w1;
    w1.begin = 0;
    w1.end = 4000;
    w1.node = 2;
    w1.extraDelay = 300;
    DegradeWindow w2;
    w2.begin = 2000;
    w2.end = 9000;
    w2.node = invalidNode;
    w2.extraDelay = 120;
    params.faultPlan.windows = {w1, w2};
    ConcurrentProtocol p(net, params);

    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(8);
    wp.writeFraction = 0.4;
    wp.numBlocks = 2;
    wp.blockWords = 4;
    wp.baseAddr = 6 * 4;
    wp.numRefs = 3000;
    workload::SharedBlockWorkload w(wp);
    auto res = p.run(w);

    EXPECT_EQ(res.refs, 3000u);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_EQ(res.deadlocks, 0u);
    EXPECT_GT(p.faultCounters().totalDelayed(), 0u);
    auto errs = checkInvariants(viewOf(p));
    EXPECT_TRUE(errs.empty()) << errs.front();
}

TEST(FaultSoak, WatchdogCatchesUnrecoverableDrop)
{
    // A dropped *reply* loses state nothing re-creates; with
    // retries disabled the transaction is wedged for good. The
    // watchdog must flag it, dump diagnostics and end the run
    // instead of spinning forever.
    net::OmegaNetwork net(8);
    ConcurrentParams params;
    params.geometry = cache::Geometry{4, 8, 2};
    params.faultPlan.of(FaultClass::Reply).drop = 1.0;
    params.timeoutBase = 0;     // deliberately no retry
    params.watchdogPeriod = 2000;
    params.watchdogAge = 5000;
    ConcurrentProtocol p(net, params);

    // One cpu so the wedge is isolated: its very first miss reply
    // vanishes and nothing else is in flight.
    workload::UniformRandomParams up;
    up.numCpus = 1;
    up.addrRange = 16;
    up.writeFraction = 0.5;
    up.numRefs = 50;
    up.seed = 3;
    workload::UniformRandomWorkload w(up);
    auto res = p.run(w);

    EXPECT_GT(res.deadlocks, 0u);
    EXPECT_GT(p.counters().watchdogDeadlocks, 0u);
    EXPECT_FALSE(p.deadlockReport().empty());
    // The dump names the wedged cpu and its phase.
    EXPECT_NE(p.deadlockReport().find("cpu0"), std::string::npos);
    EXPECT_NE(p.deadlockReport().find("phase"), std::string::npos);
    // The watchdog auto-enables the tracer, so the report must
    // replay the wedged transaction's event history: at least the
    // issue of the reference whose reply vanished.
    EXPECT_NE(p.deadlockReport().find("last"), std::string::npos)
        << p.deadlockReport();
    EXPECT_NE(p.deadlockReport().find("issue"), std::string::npos)
        << p.deadlockReport();
}

TEST(FaultSoak, FaultPathsRunWithoutATracer)
{
    // TimedNetwork traces a dropped, duplicated or crash-masked
    // delivery only while a tracer is attached. An armed watchdog
    // attaches one, so every other faulted run here takes these
    // paths traced; these two runs take them with no tracer: one
    // under request drops and duplicates, one with a node killed
    // and restarted (the grid shape of CrashSoakGridStaysClean).
    for (const bool crash : {false, true}) {
        SCOPED_TRACE(crash ? "crash plan" : "fault plan");
        net::OmegaNetwork net(8);
        ConcurrentParams params;
        params.geometry = cache::Geometry{4, 16, 2};
        params.faultPlan.seed = 0x51a;
        params.faultPlan.of(FaultClass::Request).drop = 0.02;
        params.faultPlan.of(FaultClass::Request).duplicate = 0.03;
        params.faultPlan.of(FaultClass::Reply).duplicate = 0.03;
        if (crash)
            params.crashPlan = CrashPlan::singleNode(1, 2537, 5537);
        params.timeoutBase = 256;
        params.maxRetries = 5;
        ConcurrentProtocol p(net, params);
        ASSERT_FALSE(p.tracer().enabled());

        workload::SharedBlockParams wp;
        wp.placement = workload::adjacentPlacement(8);
        wp.writeFraction = 0.35;
        wp.numBlocks = 4;
        wp.blockWords = 4;
        wp.baseAddr = 4 * 4;
        wp.numRefs = 1500;
        wp.seed = 1;
        workload::SharedBlockWorkload w(wp);
        auto res = p.run(w);

        EXPECT_EQ(res.valueErrors, 0u);
        EXPECT_EQ(res.deadlocks, 0u);
        EXPECT_GT(p.faultCounters().totalDropped(), 0u);
        EXPECT_GT(p.faultCounters().totalDuplicated(), 0u);
        if (crash) {
            EXPECT_GT(p.faultCounters().totalCrashMasked(), 0u);
        }
        EXPECT_EQ(p.tracer().recorded(), 0u);
        auto errs = checkInvariants(viewOf(p));
        EXPECT_TRUE(errs.empty()) << errs.front();
    }
}
