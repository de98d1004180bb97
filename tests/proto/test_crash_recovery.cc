/**
 * @file
 * Crash-stop failure and directory-reconstruction tests for the
 * concurrent engine.
 *
 * The crash model (DESIGN.md Sec. 5f) claims: (1) a crash schedule
 * is deterministic - decisions are pure functions of (seed, plan);
 * (2) killing any single node at any point in the protocol leaves
 * the survivors linearizable, watchdog-silent and invariant-clean
 * (including the new I8 liveness invariant) after the homes
 * reconstruct the dead node's blocks; (3) no write committed before
 * the crash is ever lost - the linearizability monitor would flag a
 * read of a rolled-back value; (4) a restarted node rejoins cold
 * and finishes its reference stream; (5) with no crash schedule the
 * machinery is inert.
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

/** Engine parameters every crash run in this file uses. */
ConcurrentParams
crashParams()
{
    ConcurrentParams p;
    p.geometry = cache::Geometry{4, 8, 2};
    p.timeoutBase = 256;
    p.timeoutCap = 4096;
    p.maxRetries = 5;
    p.watchdogPeriod = 50000;
    p.watchdogAge = 400000;
    return p;
}

workload::SharedBlockWorkload
crashWorkload(unsigned cpus, std::uint64_t seed,
              std::uint64_t refs = 2500)
{
    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(cpus);
    wp.writeFraction = 0.4;
    wp.numBlocks = 3;
    wp.blockWords = 4;
    wp.baseAddr = static_cast<Addr>(cpus - wp.numBlocks) * 4;
    wp.numRefs = refs;
    wp.seed = seed;
    return workload::SharedBlockWorkload(wp);
}

} // anonymous namespace

// ---------------------------------------------------------------
// CrashPlan / FaultInjector unit tests
// ---------------------------------------------------------------

TEST(CrashPlan, DeadAtWindowSemantics)
{
    CrashPlan p = CrashPlan::singleNode(3, 1000, 5000);
    EXPECT_TRUE(p.enabled());
    EXPECT_FALSE(p.deadAt(3, 999));
    EXPECT_TRUE(p.deadAt(3, 1000));
    EXPECT_TRUE(p.deadAt(3, 4999));
    EXPECT_FALSE(p.deadAt(3, 5000));
    EXPECT_FALSE(p.deadAt(2, 2000));

    CrashPlan forever = CrashPlan::singleNode(1, 42);
    EXPECT_TRUE(forever.deadAt(1, 42));
    EXPECT_TRUE(forever.deadAt(1, 1u << 30));
    EXPECT_FALSE(forever.deadAt(1, 41));

    CrashPlan none;
    EXPECT_FALSE(none.enabled());
}

TEST(CrashPlan, RandomSingleIsPureFunctionOfSeed)
{
    CrashPlan a = CrashPlan::randomSingle(99, 16, 100, 900, 250);
    CrashPlan b = CrashPlan::randomSingle(99, 16, 100, 900, 250);
    ASSERT_EQ(a.events.size(), 1u);
    EXPECT_EQ(a.events[0].node, b.events[0].node);
    EXPECT_EQ(a.events[0].killTick, b.events[0].killTick);
    EXPECT_EQ(a.events[0].restartTick, b.events[0].restartTick);
    EXPECT_LT(a.events[0].node, 16u);
    EXPECT_GE(a.events[0].killTick, 100u);
    EXPECT_LE(a.events[0].killTick, 900u);
    EXPECT_EQ(a.events[0].restartTick, a.events[0].killTick + 250);
}

TEST(CrashPlan, InjectorMasksDeliveriesToDeadNodesDeterministically)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.of(FaultClass::Request).drop = 0.2;
    CrashPlan crash = CrashPlan::singleNode(2, 500, 1500);

    FaultInjector a(plan, crash), b(plan, crash);
    ASSERT_TRUE(a.enabled());
    std::uint64_t masked = 0;
    for (int i = 0; i < 4000; ++i) {
        FaultClass c =
            static_cast<FaultClass>(i % int(FaultClass::NumClasses));
        a.setMessageClass(c);
        b.setMessageClass(c);
        FaultDecision da = a.decide(i % 8, i);
        FaultDecision db = b.decide(i % 8, i);
        ASSERT_EQ(da.drop, db.drop);
        ASSERT_EQ(da.crashMasked, db.crashMasked);
        ASSERT_EQ(da.extraDelay, db.extraDelay);
        if (da.crashMasked) {
            ++masked;
            // Masked deliveries target the dead node in its window.
            EXPECT_EQ(i % 8, 2);
            EXPECT_GE(i, 500);
            EXPECT_LT(i, 1500);
        }
    }
    EXPECT_GT(masked, 0u);
    EXPECT_EQ(a.counters().totalCrashMasked(), masked);
}

TEST(CrashPlan, RecoveryClassIsLossless)
{
    // Even a drop-everything plan must not touch recovery traffic:
    // the reconstruction protocol assumes its probes arrive.
    FaultPlan plan;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(FaultClass::NumClasses); ++c)
        plan.rates[c].drop = 1.0;
    FaultInjector fi(plan);
    fi.setMessageClass(FaultClass::Recovery);
    for (Tick t = 0; t < 100; ++t)
        EXPECT_FALSE(fi.decide(1, t).drop);
    fi.setMessageClass(FaultClass::Request);
    EXPECT_TRUE(fi.decide(1, 0).drop);
}

// ---------------------------------------------------------------
// Checker: NQ precondition and the I8 liveness invariant
// ---------------------------------------------------------------

TEST(CrashChecker, NonQuiescentSystemIsOneDistinguishedViolation)
{
    net::OmegaNetwork net(8);
    ConcurrentProtocol p(net, crashParams());
    auto w = crashWorkload(8, 1, 400);
    p.run(w);

    SystemView v = viewOf(p);
    auto clean = checkInvariants(v);
    EXPECT_TRUE(clean.empty()) << clean.front();

    // Same state, but the view claims work is in flight: the
    // checker must report exactly the NQ condition, not a pile of
    // mid-transaction artifacts.
    v.isQuiescent = [] { return false; };
    auto errs = checkInvariants(v);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("NQ"), std::string::npos);
}

TEST(CrashChecker, I8FlagsStateReferencingDeadNodes)
{
    // Run clean (no crash), then *pretend* a node died without any
    // cleanup: everything it owns and holds must light up as I8.
    net::OmegaNetwork net(8);
    ConcurrentProtocol p(net, crashParams());
    auto w = crashWorkload(8, 2, 800);
    p.run(w);

    SystemView v = viewOf(p);
    ASSERT_TRUE(checkInvariants(v).empty());

    // Find a node that still holds something.
    NodeId victim = invalidNode;
    for (NodeId c = 0; c < 8; ++c) {
        if (p.cacheArray(c).occupiedCount()) {
            victim = c;
            break;
        }
    }
    ASSERT_NE(victim, invalidNode);

    v.isLive = [victim](NodeId c) { return c != victim; };
    auto errs = checkInvariants(v);
    ASSERT_FALSE(errs.empty());
    bool saw_i8 = false;
    for (const std::string &e : errs)
        saw_i8 = saw_i8 || e.find("I8") != std::string::npos;
    EXPECT_TRUE(saw_i8) << errs.front();
}

// ---------------------------------------------------------------
// Directed crash matrix: kill the cluster at every protocol moment
// ---------------------------------------------------------------

TEST(CrashRecovery, SingleCrashAnywhereLeavesSurvivorsClean)
{
    // Kill one node at a dense grid of ticks x victims. Sweeping
    // the kill tick walks the crash through every in-flight phase
    // (miss serves, ownership transfers, DW update fans, evictions,
    // hand-offs). Each run must end watchdog-silent, value-clean
    // and invariant-clean including I8; collectively the grid must
    // exercise reconstruction and the dead-node message sink.
    std::uint64_t rebuilds = 0, masked = 0, restarts = 0;
    for (NodeId victim : {0u, 3u, 5u}) {
        for (Tick kill = 300; kill < 6000; kill += 571) {
            net::OmegaNetwork net(8);
            ConcurrentParams cp = crashParams();
            cp.crashPlan = CrashPlan::singleNode(victim, kill);
            ConcurrentProtocol p(net, cp);
            auto w = crashWorkload(8, 3 + kill);
            auto res = p.run(w);

            SCOPED_TRACE(testing::Message()
                         << "victim=" << victim << " kill=" << kill);
            EXPECT_EQ(res.deadlocks, 0u);
            EXPECT_EQ(res.valueErrors, 0u);
            EXPECT_FALSE(p.isLive(victim));
            auto errs = checkInvariants(viewOf(p));
            EXPECT_TRUE(errs.empty()) << errs.front();
            rebuilds += p.counters().rebuilds;
            masked += p.faultCounters().totalCrashMasked();
            restarts += p.counters().recoveryRestarts;
        }
    }
    EXPECT_GT(rebuilds, 0u);
    EXPECT_GT(masked, 0u);
    EXPECT_GT(restarts, 0u);
}

TEST(CrashRecovery, RestartedNodeRejoinsColdAndFinishes)
{
    std::uint64_t rejoins = 0;
    for (Tick kill = 500; kill < 4000; kill += 977) {
        net::OmegaNetwork net(8);
        ConcurrentParams cp = crashParams();
        cp.crashPlan = CrashPlan::singleNode(2, kill, kill + 3000);
        ConcurrentProtocol p(net, cp);
        auto w = crashWorkload(8, 11 + kill);
        auto res = p.run(w);

        SCOPED_TRACE(testing::Message() << "kill=" << kill);
        EXPECT_EQ(res.deadlocks, 0u);
        EXPECT_EQ(res.valueErrors, 0u);
        // Only the reference in flight at the kill tick can be
        // lost; the queued remainder completes after the rejoin.
        EXPECT_LE(res.refsLost, 1u);
        EXPECT_TRUE(p.isLive(2));
        EXPECT_EQ(p.counters().crashes, 1u);
        EXPECT_EQ(p.counters().rejoins, 1u);
        rejoins += p.counters().rejoins;
        auto errs = checkInvariants(viewOf(p));
        EXPECT_TRUE(errs.empty()) << errs.front();
    }
    EXPECT_GT(rejoins, 0u);
}

TEST(CrashRecovery, CommittedWritesSurviveOwnerCrash)
{
    // Writer-heavy single-block contention maximizes the window in
    // which the dead node owns dirty data. Every committed write is
    // either durable at the home (DurableWrite write-through) or in
    // a surviving copy the reconstruction harvests; a lost one
    // would surface as a read of a rolled-back value, which the
    // linearizability monitor reports as a valueError.
    std::uint64_t durable = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        net::OmegaNetwork net(8);
        ConcurrentParams cp = crashParams();
        cp.crashPlan =
            CrashPlan::randomSingle(seed * 77, 8, 400, 5000);
        ConcurrentProtocol p(net, cp);
        workload::SharedBlockParams wp;
        wp.placement = workload::adjacentPlacement(8);
        wp.writeFraction = 0.7;
        wp.numBlocks = 1;
        wp.blockWords = 4;
        wp.baseAddr = 5 * 4;
        wp.numRefs = 3000;
        wp.seed = seed;
        workload::SharedBlockWorkload w(wp);
        auto res = p.run(w);

        SCOPED_TRACE(testing::Message() << "seed=" << seed);
        EXPECT_EQ(res.deadlocks, 0u);
        EXPECT_EQ(res.valueErrors, 0u);
        auto errs = checkInvariants(viewOf(p));
        EXPECT_TRUE(errs.empty()) << errs.front();
        durable += p.counters().durableWrites;
    }
    EXPECT_GT(durable, 0u);
}

TEST(CrashRecovery, CrashSurvivesMessageFaultsToo)
{
    // Crashes and the recoverable fault envelope at once: request
    // drops/dups/delays while a node dies and returns. Recovery
    // traffic rides the lossless class, so reconstruction still
    // terminates.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        net::OmegaNetwork net(8);
        ConcurrentParams cp = crashParams();
        cp.faultPlan.seed = seed * 13;
        cp.faultPlan.of(FaultClass::Request).drop = 0.02;
        cp.faultPlan.of(FaultClass::Request).duplicate = 0.03;
        cp.faultPlan.of(FaultClass::Reply).duplicate = 0.03;
        cp.crashPlan =
            CrashPlan::randomSingle(seed, 8, 300, 4000, 2500);
        ConcurrentProtocol p(net, cp);
        auto w = crashWorkload(8, seed, 2000);
        auto res = p.run(w);

        SCOPED_TRACE(testing::Message() << "seed=" << seed);
        EXPECT_EQ(res.deadlocks, 0u);
        EXPECT_EQ(res.valueErrors, 0u);
        EXPECT_LE(res.refsLost, 1u);
        auto errs = checkInvariants(viewOf(p));
        EXPECT_TRUE(errs.empty()) << errs.front();
    }
}

TEST(CrashRecovery, DisabledCrashPlanIsInert)
{
    // An engine built with an empty CrashPlan must behave byte-for-
    // byte like one that never heard of crashes: same makespan,
    // same traffic, zero recovery counters.
    auto run_once = [](bool with_empty_plan) {
        net::OmegaNetwork net(8);
        ConcurrentParams cp;
        cp.geometry = cache::Geometry{4, 8, 2};
        if (with_empty_plan)
            cp.crashPlan = CrashPlan{};
        ConcurrentProtocol p(net, cp);
        auto w = crashWorkload(8, 5, 3000);
        auto res = p.run(w);
        EXPECT_EQ(p.counters().crashes, 0u);
        EXPECT_EQ(p.counters().suspects, 0u);
        EXPECT_EQ(p.counters().purges, 0u);
        EXPECT_EQ(p.counters().rebuilds, 0u);
        EXPECT_EQ(p.counters().durableWrites, 0u);
        EXPECT_EQ(p.counters().recoveryRestarts, 0u);
        EXPECT_EQ(p.faultCounters().totalCrashMasked(), 0u);
        return std::tuple(res.makespan, res.networkBits,
                          p.messageCounters().totalCount());
    };
    EXPECT_EQ(run_once(false), run_once(true));
}

TEST(CrashRecovery, SweepPointCrashRunsAreDeterministic)
{
    SweepPoint pt;
    pt.engine = EngineKind::Concurrent;
    pt.numPorts = 8;
    pt.tasks = 8;
    pt.numRefs = 1500;
    pt.seed = 9;
    pt.timeoutBase = 256;
    pt.maxRetries = 5;
    pt.watchdogPeriod = 50000;
    pt.watchdogAge = 400000;
    pt.checkEndState = true;
    pt.crashNode = 4;
    pt.crashTick = 1200;
    pt.crashRestartDelta = 2000;

    SweepResult a = runPoint(pt);
    SweepResult b = runPoint(pt);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.crashes, 1u);
    EXPECT_EQ(a.rejoins, 1u);
    EXPECT_EQ(a.deadlocks, 0u);
    EXPECT_EQ(a.invariantErrors, 0u);
}
