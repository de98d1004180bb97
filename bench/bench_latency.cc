/**
 * @file
 * Timed-execution extension bench: completion time (not just link
 * bits) of the two-mode protocol in distributed-write and
 * global-read mode across the write-fraction range, plus a
 * link-width (bandwidth) sweep showing contention effects.
 *
 * The paper evaluates communication cost only; this bench runs the
 * message-level concurrent engine, whose transactions overlap and
 * queue on real links, to show how its conclusions carry over to
 * completion time. Every run must end with no value errors, no
 * watchdog deadlock and a clean quiescent invariant check; the first
 * failure names its mode, write fraction and link width on stderr
 * and exits nonzero instead of printing a table.
 */

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "net/omega_network.hh"
#include "proto/checker.hh"
#include "proto/concurrent.hh"
#include "sim/logging.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

using namespace mscp;

namespace
{

constexpr unsigned numPorts = 64;
constexpr unsigned tasks = 8;
constexpr std::uint64_t refsPerRun = 8000;

constexpr cache::Mode dw = cache::Mode::DistributedWrite;
constexpr cache::Mode gr = cache::Mode::GlobalRead;

[[noreturn]] void
fail(cache::Mode mode, double w, Bits link_width,
     const std::string &why)
{
    std::fprintf(stderr,
                 "bench_latency: %s mode, w=%.2f, %llu-bit links: "
                 "%s\n", cache::modeName(mode), w,
                 static_cast<unsigned long long>(link_width),
                 why.c_str());
    std::exit(1);
}

proto::ConcurrentRunResult
run(cache::Mode mode, double w, Bits link_width)
{
    net::OmegaNetwork net(numPorts);
    proto::ConcurrentParams params;
    params.geometry = cache::Geometry{4, 16, 2};
    params.defaultMode = mode;
    params.linkWidthBits = link_width;
    // Closed loop: ~100 ticks of private work between shared refs
    // keeps the processors in phase.
    params.thinkTime = 100;
    // A wedged transaction is reported as a deadlock instead of
    // hanging the bench.
    params.watchdogPeriod = 10000;
    proto::ConcurrentProtocol engine(net, params);

    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(tasks);
    p.writeFraction = w;
    p.numBlocks = 1;
    p.blockWords = 4;
    p.baseAddr = static_cast<Addr>(numPorts - 1) * 4;
    p.numRefs = refsPerRun;
    workload::SharedBlockWorkload stream(p);

    proto::ConcurrentRunResult res;
    try {
        res = engine.run(stream);
    } catch (const PanicError &e) {
        fail(mode, w, link_width, e.what());
    }
    if (res.valueErrors)
        fail(mode, w, link_width,
             csprintf("%llu value errors",
                      static_cast<unsigned long long>(
                          res.valueErrors)));
    if (res.deadlocks)
        fail(mode, w, link_width, engine.deadlockReport());

    auto errs = proto::checkInvariants(proto::viewOf(engine));
    if (!errs.empty())
        fail(mode, w, link_width, errs.front());
    return res;
}

} // anonymous namespace

int
main()
{
    const double writeFractions[] = {0.02, 0.1, 0.3, 0.5, 0.8};
    const Bits linkWidths[] = {4, 8, 16, 32, 64, 128};

    // Every run finishes before anything is printed, so a failing
    // run leaves no partial table on stdout.
    std::vector<proto::ConcurrentRunResult> by_w, by_width;
    for (double w : writeFractions) {
        by_w.push_back(run(dw, w, 16));
        by_w.push_back(run(gr, w, 16));
    }
    for (Bits width : linkWidths) {
        by_width.push_back(run(dw, 0.3, width));
        by_width.push_back(run(gr, 0.3, width));
    }

    std::printf("# Timed execution (message-level engine): N=%u, "
                "n=%u tasks, %llu refs/point, 16-bit links\n\n",
                numPorts, tasks,
                static_cast<unsigned long long>(refsPerRun));
    std::printf("%6s | %12s %12s | %10s %10s\n", "w", "dw ticks",
                "gr ticks", "rd-lat(dw)", "rd-lat(gr)");
    for (std::size_t i = 0; i < std::size(writeFractions); ++i) {
        const auto &d = by_w[2 * i];
        const auto &g = by_w[2 * i + 1];
        std::printf("%6.2f | %12llu %12llu | %10.1f %10.1f\n",
                    writeFractions[i],
                    static_cast<unsigned long long>(d.makespan),
                    static_cast<unsigned long long>(g.makespan),
                    d.avgReadLatency, g.avgReadLatency);
    }

    std::printf("\n# bandwidth sweep at w=0.3\n");
    std::printf("%8s %12s %12s\n", "width", "dw ticks", "gr ticks");
    for (std::size_t i = 0; i < std::size(linkWidths); ++i) {
        std::printf("%8llu %12llu %12llu\n",
                    static_cast<unsigned long long>(linkWidths[i]),
                    static_cast<unsigned long long>(
                        by_width[2 * i].makespan),
                    static_cast<unsigned long long>(
                        by_width[2 * i + 1].makespan));
    }
    std::printf("\n# expected: DW wins completion time at low w "
                "(reads hit locally), GR at high w;\n"
                "# narrow links raise makespan, DW's far more than "
                "GR's (makespan includes the\n"
                "# 100-tick think time per ref).\n"
                "# note: in time (unlike in link bits) the "
                "crossover sits below w1 = 2/(n+2): a\n"
                "# distributed write serializes the writer, while "
                "GR read round trips overlap\n"
                "# across readers.\n");
    return 0;
}
