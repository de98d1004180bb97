/**
 * @file
 * Tests for the parallel sweep runner: the result vector must be
 * bit-identical for any thread count (the determinism contract the
 * benches rely on), runPoint must agree with runSweep, and a failed
 * point must be named the same way for any thread count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "sim/metrics.hh"

#include "../sim/json_checker.hh"

using namespace mscp;
using core::EngineKind;

namespace
{

/** A small mixed-engine grid covering every engine kind. */
std::vector<core::SweepPoint>
mixedGrid()
{
    std::vector<core::SweepPoint> points;
    const EngineKind engines[] = {
        EngineKind::NoCache,        EngineKind::WriteOnce,
        EngineKind::FullMap,        EngineKind::Dragon,
        EngineKind::TwoModeForceDW, EngineKind::TwoModeForceGR,
        EngineKind::TwoModeAdaptive, EngineKind::AtomicTwoMode,
        EngineKind::Concurrent,
    };
    const double writeFractions[] = {0.1, 0.5};
    for (EngineKind engine : engines) {
        for (double w : writeFractions) {
            core::SweepPoint pt;
            pt.engine = engine;
            pt.numPorts = 16;
            pt.tasks = 4;
            pt.writeFraction = w;
            pt.numBlocks = 2;
            pt.numRefs = 400;
            pt.seed = 7;
            points.push_back(pt);
        }
    }
    return points;
}

} // anonymous namespace

TEST(Sweep, ParallelMatchesSerialBitIdentical)
{
    auto points = mixedGrid();
    auto serial = core::runSweep(points, 1);
    auto threaded = core::runSweep(points, 4);
    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(threaded.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(serial[i], threaded[i])
            << "point " << i << " ("
            << core::engineKindName(points[i].engine) << ", w="
            << points[i].writeFraction << ") diverged across "
            << "thread counts";
    }
}

TEST(Sweep, RunSweepMatchesRunPoint)
{
    auto points = mixedGrid();
    auto swept = core::runSweep(points, 3);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(swept[i], core::runPoint(points[i])) << "point " << i;
}

TEST(Sweep, RepeatedRunsAreReproducible)
{
    core::SweepPoint pt;
    pt.engine = EngineKind::Concurrent;
    pt.numPorts = 16;
    pt.tasks = 4;
    pt.numBlocks = 2;
    pt.numRefs = 500;
    pt.seed = 3;
    auto a = core::runPoint(pt);
    auto b = core::runPoint(pt);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.refs, 0u);
    EXPECT_GT(a.networkBits, 0u);
    EXPECT_EQ(a.valueErrors, 0u);
    EXPECT_GT(a.makespan, 0u);
}

TEST(Sweep, FailedPointIsNamedForAnyThreadCount)
{
    // A 3-port omega network is a fatal configuration error, and a
    // concurrent point whose every request is dropped, with no
    // timeout to resend it, deadlocks under the watchdog. The sweep
    // still runs every other point, then throws one error naming
    // both failed points; the text is the same for 1 and 4 threads.
    auto points = mixedGrid();
    points[5].numPorts = 3;
    ASSERT_EQ(points[16].engine, EngineKind::Concurrent);
    points[16].timeoutBase = 0;
    points[16].faultDropRate = 1;
    points[16].watchdogPeriod = 1000;
    std::string what[2];
    const unsigned threads[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
        try {
            core::runSweep(points, threads[t]);
            ADD_FAILURE() << "runSweep did not throw";
        } catch (const std::runtime_error &e) {
            what[t] = e.what();
        }
    }
    EXPECT_EQ(what[0], what[1]);
    EXPECT_NE(what[0].find("2 of 18 points failed"), std::string::npos)
        << what[0];
    const std::size_t fatal = what[0].find(
        "point 5 (full-map, seed 7, w=0.5, tasks 4, ports 3, no "
        "crash): fatal: omega network needs a power-of-two port "
        "count");
    const std::size_t deadlock = what[0].find(
        "point 16 (concurrent, seed 7, w=0.1, tasks 4, ports 16, no "
        "crash): watchdog deadlock: cpu0: ");
    EXPECT_NE(fatal, std::string::npos) << what[0];
    EXPECT_NE(deadlock, std::string::npos) << what[0];
    EXPECT_LT(fatal, deadlock) << what[0];
}

TEST(Sweep, DifferentSeedsDiverge)
{
    core::SweepPoint pt;
    pt.engine = EngineKind::TwoModeAdaptive;
    pt.numPorts = 16;
    pt.tasks = 4;
    pt.numBlocks = 2;
    pt.numRefs = 500;
    pt.seed = 1;
    auto a = core::runPoint(pt);
    pt.seed = 2;
    auto b = core::runPoint(pt);
    EXPECT_NE(a.networkBits, b.networkBits);
}

TEST(Sweep, EngineKindNamesAreDistinct)
{
    EXPECT_STREQ(core::engineKindName(EngineKind::NoCache),
                 "no-cache");
    EXPECT_STRNE(core::engineKindName(EngineKind::TwoModeForceDW),
                 core::engineKindName(EngineKind::TwoModeForceGR));
}

TEST(Sweep, ObservedRunNeverPerturbsResults)
{
    // runPointObserved's contract: attaching the tracer and the
    // windowed metrics sampler is pure observation -- the SweepResult
    // must be bit-identical to a plain runPoint of the same point.
    core::SweepPoint pt;
    pt.engine = EngineKind::Concurrent;
    pt.numPorts = 16;
    pt.tasks = 4;
    pt.writeFraction = 0.4;
    pt.numBlocks = 4;
    pt.numRefs = 800;
    pt.seed = 11;
    pt.metricsWindow = 128;

    const auto plain = core::runPoint(pt);

    std::ostringstream trace, metrics;
    const auto observed =
        core::runPointObserved(pt, &trace, &metrics, "test/observed");
    EXPECT_EQ(observed, plain);

    // The trace stream must hold one valid JSON document.
    EXPECT_FALSE(trace.str().empty());
    EXPECT_TRUE(mscp::test::JsonChecker(trace.str()).valid());

    // The metrics stream is JSON Lines: every line valid on its own,
    // each carrying the label we passed.
    const std::string mtext = metrics.str();
    ASSERT_FALSE(mtext.empty());
    std::istringstream lines(mtext);
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_TRUE(mscp::test::JsonChecker(line).valid()) << line;
        EXPECT_NE(line.find("\"label\":\"test/observed\""),
                  std::string::npos);
    }
    EXPECT_GT(n, 1u);
}
