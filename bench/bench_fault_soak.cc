/**
 * @file
 * Fault-soak bench: the hardened concurrent engine under seeded
 * message-level fault injection.
 *
 * Each row is one fault mix (drop/duplicate/delay rates) run over
 * a pool of seeds on the sweep runner's thread pool; the row
 * aggregates what the robustness machinery had to absorb (drops,
 * duplicates, timeouts, retries) and what it cost (makespan,
 * messages). The zero-rate row doubles as the control: identical
 * protocol work with the fault path compiled in but never firing.
 *
 * The hardening-overhead check runs the same workload with the
 * hardening parameters on (timeouts armed, watchdog polling, no
 * faults) and fully off, and prints the wall-time ratio as one `#`
 * line on stderr, keeping stdout byte-stable. With injection
 * disabled the delivery path itself costs one predicted branch;
 * the measurable overhead is the per-request timeout arming.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/sweep.hh"

using namespace mscp;
using core::EngineKind;

namespace
{

constexpr unsigned numPorts = 16;
constexpr unsigned tasks = 8;
constexpr std::uint64_t refsPerRun = 4000;
constexpr std::uint64_t seedsPerMix = 6;

struct Mix
{
    const char *name;
    double drop, dup, delay;
};

const Mix mixes[] = {
    {"none", 0.0, 0.0, 0.0},
    {"drop", 0.02, 0.0, 0.0},
    {"dup", 0.0, 0.05, 0.0},
    {"delay", 0.0, 0.0, 0.10},
    {"all", 0.03, 0.03, 0.05},
};

core::SweepPoint
point(const Mix &m, std::uint64_t seed, bool hardened)
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
    pt.faultDropRate = m.drop;
    pt.faultDupRate = m.dup;
    pt.faultDelayRate = m.delay;
    if (hardened) {
        pt.timeoutBase = 512;
        pt.maxRetries = 12;
        pt.watchdogPeriod = 50000;
        pt.watchdogAge = 200000;
        pt.checkEndState = true;
    }
    return pt;
}

double
timeSweep(const std::vector<core::SweepPoint> &pts)
{
    auto t0 = std::chrono::steady_clock::now();
    core::runSweep(pts);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // anonymous namespace

int
main()
{
    std::vector<core::SweepPoint> points;
    for (const Mix &m : mixes)
        for (std::uint64_t s = 1; s <= seedsPerMix; ++s)
            points.push_back(point(m, s, true));

    auto results = core::runSweep(points);

    std::printf("# Hardened concurrent engine under fault "
                "injection, N=%u, n=%u tasks,\n"
                "# %llu refs x %llu seeds per mix\n\n",
                numPorts, tasks,
                static_cast<unsigned long long>(refsPerRun),
                static_cast<unsigned long long>(seedsPerMix));
    std::printf("%6s | %5s %5s %5s | %9s %9s | %6s %7s %7s %7s "
                "%5s %4s\n",
                "mix", "drop", "dup", "delay", "makespan", "msgs",
                "drops", "dups", "timeout", "retries", "bad",
                "dead");

    std::size_t i = 0;
    for (const Mix &m : mixes) {
        std::uint64_t makespan = 0, msgs = 0, drops = 0, dups = 0;
        std::uint64_t timeouts = 0, retries = 0, dead = 0, bad = 0;
        for (std::uint64_t s = 0; s < seedsPerMix; ++s, ++i) {
            const core::SweepResult &r = results[i];
            makespan += r.makespan;
            msgs += r.messages;
            drops += r.faultDrops;
            dups += r.faultDups;
            timeouts += r.timeouts;
            retries += r.retries;
            dead += r.deadlocks;
            bad += r.valueErrors + r.invariantErrors;
        }
        std::printf("%6s | %5.2f %5.2f %5.2f | %9llu %9llu | "
                    "%6llu %7llu %7llu %7llu %5llu %4llu\n",
                    m.name, m.drop, m.dup, m.delay,
                    static_cast<unsigned long long>(
                        makespan / seedsPerMix),
                    static_cast<unsigned long long>(
                        msgs / seedsPerMix),
                    static_cast<unsigned long long>(drops),
                    static_cast<unsigned long long>(dups),
                    static_cast<unsigned long long>(timeouts),
                    static_cast<unsigned long long>(retries),
                    static_cast<unsigned long long>(bad),
                    static_cast<unsigned long long>(dead));
    }

    std::printf("\n# every lost request is re-driven by the "
                "end-to-end timeout; duplicates and\n"
                "# delays are absorbed by sequence numbers, busy "
                "tokens and the port-FIFO\n"
                "# clamp. bad = value + invariant errors, dead = "
                "watchdog-flagged wedges;\n"
                "# both columns must read zero.\n");

    // Disabled-overhead check: hardening armed but never firing
    // vs the plain engine, timed onto stderr so stdout stays
    // byte-stable run to run.
    std::vector<core::SweepPoint> armed, plain;
    for (std::uint64_t s = 1; s <= seedsPerMix; ++s) {
        armed.push_back(point(mixes[0], s, true));
        armed.back().checkEndState = false;
        plain.push_back(point(mixes[0], s, false));
    }
    timeSweep(plain); // warm-up: fault caches and the thread pool
    double plainSec = timeSweep(plain);
    double armedSec = timeSweep(armed);
    std::fprintf(stderr,
                 "# hardening overhead (zero-fault sweep, %llu "
                 "seeds): armed %.3f s / plain %.3f s = %.2fx\n",
                 static_cast<unsigned long long>(seedsPerMix),
                 armedSec, plainSec,
                 plainSec > 0 ? armedSec / plainSec : 0.0);

    // Observability capture: re-run one representative soak point
    // (the all-faults mix) with the tracer and/or windowed metrics
    // forced on when $MSCP_TRACE_OUT / $MSCP_METRICS_OUT ask for
    // them. Stdout is untouched, so the table above stays
    // byte-stable.
    core::capturePointObservability(point(mixes[4], 1, true),
                                    "fault_soak/all");
    return 0;
}
