/**
 * @file
 * Simulation-level protocol comparison on the paper's workload
 * model: measured link-bit traffic per reference for every engine
 * (no-cache, write-once, full-map directory, Dragon-style update,
 * and the two-mode protocol under its policies), swept over write
 * fraction w and sharer count n.
 *
 * This is the executable generalization of Fig. 8: it shows who
 * wins where, with real block transfers, ownership moves and
 * replacement traffic included.
 *
 * All grid points are independent seeded runs fanned over the
 * sweep runner's thread pool (MSCP_THREADS); the printed table is
 * bit-identical for any thread count.
 *
 * The closing section exercises the orthogonal axis: one large
 * 256-port timed run sharded *internally* by the conservative PDES
 * engine (timed/pdes_traffic.hh), executed serially and at 1/2/4/8
 * workers. Stdout carries only deterministic statistics -- byte
 * identical for every worker count, including MSCP_PDES_THREADS,
 * which the CI diff gate relies on -- while the wall time of each
 * worker count, with the 8-worker speedup, goes to one `#` line on
 * stderr.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "sim/logging.hh"
#include "timed/pdes_traffic.hh"

using namespace mscp;
using core::EngineKind;

namespace
{

constexpr unsigned numPorts = 64;
constexpr unsigned blockWords = 4;
constexpr std::uint64_t refsPerRun = 15000;

constexpr EngineKind columns[] = {
    EngineKind::NoCache, EngineKind::WriteOnce, EngineKind::FullMap,
    EngineKind::Dragon, EngineKind::TwoModeForceDW,
    EngineKind::TwoModeForceGR, EngineKind::TwoModeAdaptive,
};

core::SweepPoint
point(EngineKind engine, double w, unsigned tasks)
{
    core::SweepPoint pt;
    pt.engine = engine;
    pt.numPorts = numPorts;
    pt.blockWords = blockWords;
    pt.tasks = tasks;
    pt.writeFraction = w;
    pt.numBlocks = 4;
    pt.numRefs = refsPerRun;
    return pt;
}

timed::PdesTrafficConfig
pdesConfig()
{
    timed::PdesTrafficConfig cfg;
    cfg.numPorts = 256;
    cfg.numShards = 16;
    cfg.numBlocks = 256;
    cfg.cacheCapacity = 8;
    cfg.writeFraction = 0.3;
    cfg.refsPerNode = 2000;
    cfg.seed = 7;
    return cfg;
}

/**
 * Run the sharded timed system once -- the serial reference when
 * @p num_threads is negative -- and return its result; @p secs
 * receives the wall time. Stdout is not touched here: timing stays
 * out of the byte-stable table.
 */
timed::PdesTrafficResult
timedPdesRun(int num_threads, double &secs)
{
    timed::PdesTrafficSystem sys(pdesConfig());
    const auto t0 = std::chrono::steady_clock::now();
    const timed::PdesTrafficResult r = num_threads < 0
        ? sys.runSerial()
        : sys.run(static_cast<unsigned>(num_threads));
    secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return r;
}

} // anonymous namespace

int
main()
{
    const std::vector<unsigned> taskCounts{4, 8, 16, 32};
    const std::vector<double> writeFractions{
        0.02, 0.1, 0.2, 0.35, 0.5, 0.75, 0.95};

    std::vector<core::SweepPoint> points;
    for (unsigned tasks : taskCounts)
        for (double w : writeFractions)
            for (EngineKind engine : columns)
                points.push_back(point(engine, w, tasks));

    auto results = core::runSweep(points);

    std::printf("# Protocol traffic comparison (bits per "
                "reference), N=%u ports, %llu refs/point\n",
                numPorts,
                static_cast<unsigned long long>(refsPerRun));

    std::size_t idx = 0;
    for (unsigned tasks : taskCounts) {
        std::printf("\n## n = %u sharing tasks\n", tasks);
        std::printf("%6s %10s %10s %10s %10s %10s %10s %10s\n",
                    "w", "no-cache", "write-1x", "full-map",
                    "dragon", "force-dw", "force-gr", "adaptive");
        for (double w : writeFractions) {
            double cols[std::size(columns)];
            for (std::size_t c = 0; c < std::size(columns); ++c) {
                const core::SweepResult &r = results[idx++];
                if (r.valueErrors)
                    std::printf("# WARNING: %llu value errors\n",
                                static_cast<unsigned long long>(
                                    r.valueErrors));
                cols[c] = r.bitsPerRef();
            }
            std::printf("%6.2f %10.1f %10.1f %10.1f %10.1f %10.1f "
                        "%10.1f %10.1f\n",
                        w, cols[0], cols[1], cols[2], cols[3],
                        cols[4], cols[5], cols[6]);
        }
    }
    std::printf("\n# expected shapes: update protocols (dragon, "
                "force-dw) grow with w and n; invalidation\n"
                "# protocols (write-1x, full-map) peak mid-w; "
                "adaptive tracks the lower envelope of the\n"
                "# two-mode pair and stays below no-cache.\n");

    // ---- PDES intra-run scaling: one big timed run, sharded ----
    // Serial reference plus one timed run at each of 1/2/4/8
    // workers, then one run at the environment default
    // (MSCP_PDES_THREADS) whose deterministic stats are the ones
    // printed. Everything below on stdout must be byte-identical
    // for every worker count.
    const timed::PdesTrafficConfig pcfg = pdesConfig();
    std::printf("\n# PDES intra-run scaling: %u-port sharded timed "
                "run (%u shards, %llu refs/node, w=%.2f)\n",
                pcfg.numPorts, pcfg.numShards,
                static_cast<unsigned long long>(pcfg.refsPerNode),
                pcfg.writeFraction);

    double serialSecs = 0, secs = 0;
    const timed::PdesTrafficResult serial =
        timedPdesRun(-1, serialSecs);
    std::string timing =
        csprintf("# PDES wall time: serial %.3f s", serialSecs);
    bool identical = true;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const timed::PdesTrafficResult r =
            timedPdesRun(static_cast<int>(threads), secs);
        identical = identical && r == serial;
        timing += csprintf(", %ut %.3f s", threads, secs);
    }
    // secs is the 8-worker run's.
    std::fprintf(stderr, "%s; speedup at 8t %.2fx\n", timing.c_str(),
                 secs > 0 ? serialSecs / secs : 0.0);

    // The default-thread run carries the windowed metrics: pure
    // observation, so its result must still match the serial
    // reference bit for bit (part of the `identical` gate below).
    timed::PdesTrafficConfig mcfg = pcfg;
    mcfg.metricsEnabled = true;
    timed::PdesTrafficSystem sys(mcfg);
    const timed::PdesTrafficResult dflt = sys.run();
    identical = identical && dflt == serial;
    std::ostringstream stats;
    sys.dumpStats(stats);
    std::printf("%s", stats.str().c_str());
    std::printf("# sharded == serial across 1/2/4/8/default "
                "workers: %s\n", identical ? "yes" : "NO -- "
                "DETERMINISM BROKEN");

    // The full window series to $MSCP_METRICS_OUT when asked.
    // Stdout above stays byte-stable either way.
    if (const char *mpath = std::getenv("MSCP_METRICS_OUT")) {
        std::ofstream mf(mpath, std::ios::app);
        if (!mf) {
            warn("cannot open metrics output file %s", mpath);
        } else {
            exportMetricsJsonLines(mf, sys.metricsRegistry(),
                                   sys.metricsWindows(), "pdes",
                                   "sim_traffic/pdes256");
        }
    }

    return identical ? 0 : 1;
}
