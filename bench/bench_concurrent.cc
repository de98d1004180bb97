/**
 * @file
 * Concurrent-engine extension bench: the message-level engine
 * against the atomic engine on the paper's workload model.
 *
 * Columns show (a) the protocol overhead concurrency adds - acks,
 * unblocks, NACKed pointer bypasses, home queueing - relative to
 * the atomic engine's message count, and (b) execution time and
 * latency, which only the concurrent engine can report with
 * overlapping transactions.
 *
 * Both engines per write fraction are independent seeded sweep
 * points fanned over the sweep runner's thread pool.
 */

#include <cstdio>
#include <vector>

#include "core/sweep.hh"

using namespace mscp;
using core::EngineKind;

namespace
{

constexpr unsigned numPorts = 32;
constexpr unsigned tasks = 8;
constexpr std::uint64_t refsPerRun = 6000;

core::SweepPoint
point(EngineKind engine, double w)
{
    core::SweepPoint pt;
    pt.engine = engine;
    pt.numPorts = numPorts;
    pt.tasks = tasks;
    pt.writeFraction = w;
    pt.numBlocks = 2;
    pt.numRefs = refsPerRun;
    pt.seed = 42;
    return pt;
}

} // anonymous namespace

int
main()
{
    const std::vector<double> writeFractions{0.05, 0.2, 0.5, 0.8};
    std::vector<core::SweepPoint> points;
    for (double w : writeFractions) {
        points.push_back(point(EngineKind::AtomicTwoMode, w));
        points.push_back(point(EngineKind::Concurrent, w));
    }

    auto results = core::runSweep(points);

    std::printf("# Atomic vs message-level concurrent engine, "
                "N=%u, n=%u tasks, %llu refs\n\n",
                numPorts, tasks,
                static_cast<unsigned long long>(refsPerRun));
    std::printf("%6s | %10s %10s %7s | %10s %9s %9s %8s %8s\n",
                "w", "msgs(atom)", "msgs(conc)", "ratio",
                "makespan", "rd-lat", "wr-lat", "queued",
                "ptrNack");

    for (std::size_t i = 0; i < writeFractions.size(); ++i) {
        const core::SweepResult &atom = results[2 * i];
        const core::SweepResult &conc = results[2 * i + 1];
        if (atom.valueErrors)
            std::printf("# WARNING: atomic value errors\n");
        if (conc.valueErrors)
            std::printf("# WARNING: concurrent value errors\n");
        std::printf("%6.2f | %10llu %10llu %6.2fx | %10llu %9.1f "
                    "%9.1f %8llu %8llu\n", writeFractions[i],
                    static_cast<unsigned long long>(atom.messages),
                    static_cast<unsigned long long>(conc.messages),
                    static_cast<double>(conc.messages) /
                        static_cast<double>(atom.messages),
                    static_cast<unsigned long long>(conc.makespan),
                    conc.avgReadLatency, conc.avgWriteLatency,
                    static_cast<unsigned long long>(
                        conc.homeQueued),
                    static_cast<unsigned long long>(
                        conc.pointerNacks));
    }

    std::printf("\n# the concurrency machinery (acks, unblocks, "
                "retries) costs a bounded message\n"
                "# overhead; the protocol's decisions and the "
                "paper's traffic shapes are unchanged.\n");

    // Observability capture ($MSCP_TRACE_OUT / $MSCP_METRICS_OUT):
    // re-run the highest-write-fraction concurrent point observed;
    // stdout stays byte-stable.
    core::capturePointObservability(
        point(EngineKind::Concurrent, writeFractions.back()),
        "concurrent/w0.8");
    return 0;
}
