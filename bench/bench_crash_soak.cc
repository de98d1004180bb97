/**
 * @file
 * Crash-soak bench: the hardened concurrent engine under seeded
 * crash-stop node failures, alone and combined with message-level
 * fault injection.
 *
 * Each row is one crash schedule (no crash control, early permanent
 * kill, mid-run kill with cold restart) crossed with a fault mix,
 * run over a pool of seeds on the sweep runner's thread pool. The
 * columns aggregate what the recovery machinery did: deliveries
 * masked at dead nodes, suspicions raised, directories rebuilt,
 * transactions restarted after a purge, and references lost with
 * the dead node (never of survivors). The no-crash row doubles as
 * the control: identical workload with the crash path compiled in
 * but never firing.
 *
 * Stdout is byte-stable, so CI can diff two runs of this binary
 * for determinism. A point that panics fails the bench: runSweep
 * names every failed point on stderr and no table is printed.
 */

#include <cstdio>
#include <vector>

#include "core/sweep.hh"

using namespace mscp;
using core::EngineKind;

namespace
{

constexpr unsigned numPorts = 16;
constexpr unsigned tasks = 8;
constexpr std::uint64_t refsPerRun = 3000;
constexpr std::uint64_t seedsPerRow = 6;

struct Schedule
{
    const char *name;
    Tick kill;         ///< 0 = no crash
    Tick restartDelta; ///< 0 = stays down
    double drop, dup, delay;
};

const Schedule rows[] = {
    {"none", 0, 0, 0.0, 0.0, 0.0},
    {"early", 800, 0, 0.0, 0.0, 0.0},
    {"mid+rejoin", 3000, 4000, 0.0, 0.0, 0.0},
    {"early+faults", 800, 0, 0.02, 0.03, 0.05},
    {"rejoin+faults", 3000, 4000, 0.02, 0.03, 0.05},
};

core::SweepPoint
point(const Schedule &row, std::uint64_t seed)
{
    core::SweepPoint pt;
    pt.engine = EngineKind::Concurrent;
    pt.numPorts = numPorts;
    pt.sets = 2;
    pt.assoc = 1;
    pt.tasks = tasks;
    pt.numBlocks = 4;
    pt.writeFraction = 0.35;
    pt.numRefs = refsPerRun;
    pt.seed = seed;
    pt.faultSeed = seed * 0x9e37 + 17;
    pt.faultDropRate = row.drop;
    pt.faultDupRate = row.dup;
    pt.faultDelayRate = row.delay;
    pt.timeoutBase = 256;
    pt.maxRetries = 5;
    pt.watchdogPeriod = 50000;
    pt.watchdogAge = 400000;
    pt.checkEndState = true;
    if (row.kill) {
        pt.crashNode = static_cast<NodeId>(seed % tasks);
        pt.crashTick = row.kill + seed * 37;
        pt.crashRestartDelta = row.restartDelta;
    }
    return pt;
}

} // anonymous namespace

int
main()
{
    std::vector<core::SweepPoint> points;
    for (const Schedule &row : rows)
        for (std::uint64_t s = 1; s <= seedsPerRow; ++s)
            points.push_back(point(row, s));

    auto results = core::runSweep(points);

    std::printf("# Hardened concurrent engine under crash-stop "
                "failures, N=%u, n=%u tasks,\n"
                "# %llu refs x %llu seeds per schedule\n\n",
                numPorts, tasks,
                static_cast<unsigned long long>(refsPerRun),
                static_cast<unsigned long long>(seedsPerRow));
    std::printf("%13s | %9s | %6s %7s %7s %7s %7s %5s | %5s %4s\n",
                "schedule", "makespan", "masked", "suspect",
                "rebuild", "restart", "lost", "rejoin", "bad",
                "dead");

    std::size_t i = 0;
    for (const Schedule &row : rows) {
        std::uint64_t makespan = 0, masked = 0, suspects = 0;
        std::uint64_t rebuilds = 0, restarts = 0, lost = 0;
        std::uint64_t rejoins = 0, bad = 0, dead = 0;
        for (std::uint64_t s = 0; s < seedsPerRow; ++s, ++i) {
            const core::SweepResult &r = results[i];
            makespan += r.makespan;
            masked += r.crashMasked;
            suspects += r.suspects;
            rebuilds += r.rebuilds;
            restarts += r.recoveryRestarts;
            lost += r.refsLost;
            rejoins += r.rejoins;
            bad += r.valueErrors + r.invariantErrors;
            dead += r.deadlocks;
        }
        std::printf("%13s | %9llu | %6llu %7llu %7llu %7llu %7llu "
                    "%5llu | %5llu %4llu\n",
                    row.name,
                    static_cast<unsigned long long>(
                        makespan / seedsPerRow),
                    static_cast<unsigned long long>(masked),
                    static_cast<unsigned long long>(suspects),
                    static_cast<unsigned long long>(rebuilds),
                    static_cast<unsigned long long>(restarts),
                    static_cast<unsigned long long>(lost),
                    static_cast<unsigned long long>(rejoins),
                    static_cast<unsigned long long>(bad),
                    static_cast<unsigned long long>(dead));
    }

    std::printf("\n# masked = deliveries sunk at dead nodes; "
                "rebuild = directory reconstructions;\n"
                "# restart = transactions re-driven after a "
                "recovery purge; lost counts only the\n"
                "# dead node's own in-flight references. bad = "
                "value + invariant errors, dead =\n"
                "# watchdog-flagged wedges; both columns must "
                "read zero on every row.\n");

    // Observability capture: re-run one crash+rejoin point with the
    // tracer and/or windowed metrics forced on ($MSCP_TRACE_OUT /
    // $MSCP_METRICS_OUT) so the recovery spans (suspect -> rebuild)
    // and gauges are visible; stdout stays byte-stable.
    core::SweepPoint observed = point(rows[2], 1);
    // The kill fires early in the run; keep the whole timeline so
    // the recovery spans survive the ring.
    observed.traceCapacity = 1 << 20;
    core::capturePointObservability(observed,
                                    "crash_soak/mid+rejoin");
    return 0;
}
