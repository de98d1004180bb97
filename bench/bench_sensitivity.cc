/**
 * @file
 * Sensitivity extension: the two-mode protocol's traffic as the
 * machine parameters the paper holds fixed are varied - block
 * size, cache capacity (the paper assumes "the cache is big enough
 * for the data structure"), and machine size N.
 *
 * Every configuration is an independent seeded sweep point fanned
 * over the sweep runner's thread pool.
 */

#include <cstdio>
#include <vector>

#include "core/sweep.hh"

using namespace mscp;

namespace
{

core::SweepPoint
point(unsigned ports, unsigned block_words, unsigned sets,
      unsigned assoc, unsigned tasks, double w, unsigned num_blocks)
{
    core::SweepPoint pt;
    pt.engine = core::EngineKind::TwoModeAdaptive;
    pt.numPorts = ports;
    pt.blockWords = block_words;
    pt.sets = sets;
    pt.assoc = assoc;
    pt.tasks = tasks;
    pt.writeFraction = w;
    pt.numBlocks = num_blocks;
    pt.numRefs = 10000;
    return pt;
}

double
value(const core::SweepResult &r)
{
    if (r.valueErrors)
        std::printf("# WARNING: value errors\n");
    return r.bitsPerRef();
}

} // anonymous namespace

int
main()
{
    const std::vector<unsigned> blockSizes{1, 2, 4, 8, 16, 32};
    const std::vector<unsigned> setCounts{2, 4, 8, 16, 32};
    const std::vector<unsigned> machineSizes{16, 32, 64, 128, 256};

    std::vector<core::SweepPoint> points;
    for (unsigned bw : blockSizes)
        points.push_back(point(64, bw, 16, 2, 8, 0.2, 4));
    for (unsigned sets : setCounts)
        points.push_back(point(64, 4, sets, 2, 8, 0.2, 32));
    for (unsigned ports : machineSizes)
        points.push_back(point(ports, 4, 16, 2, 8, 0.2, 4));

    auto results = core::runSweep(points);
    std::size_t idx = 0;

    std::printf("# Sensitivity of two-mode (adaptive) traffic, "
                "bits/reference\n\n");

    std::printf("## block size (N=64, n=8, w=0.2, 4 shared "
                "blocks)\n");
    std::printf("%12s %14s\n", "block words", "bits/ref");
    for (unsigned bw : blockSizes)
        std::printf("%12u %14.1f\n", bw, value(results[idx++]));

    std::printf("\n## cache capacity (N=64, n=8, w=0.2, 32 shared "
                "blocks of 4 words)\n");
    std::printf("%8s %8s %14s\n", "sets", "blocks", "bits/ref");
    for (unsigned sets : setCounts) {
        std::printf("%8u %8u %14.1f\n", sets, sets * 2,
                    value(results[idx++]));
    }

    std::printf("\n## machine size (n=8 tasks, w=0.2, 4 blocks)\n");
    std::printf("%8s %14s\n", "N", "bits/ref");
    for (unsigned ports : machineSizes)
        std::printf("%8u %14.1f\n", ports, value(results[idx++]));

    std::printf("\n# expected: larger blocks cost more per miss "
                "but amortize reads; capacity below the\n"
                "# working set adds replacement and ownership "
                "hand-off traffic (the case the paper's\n"
                "# model excludes); traffic grows ~log N with "
                "machine size (longer paths).\n");

    // Observability capture ($MSCP_TRACE_OUT / $MSCP_METRICS_OUT):
    // the sensitivity grid runs the replay engine, so observe the
    // message-level engine on the baseline shape instead; stdout
    // stays byte-stable.
    core::SweepPoint observed = point(64, 4, 16, 2, 8, 0.2, 4);
    observed.engine = core::EngineKind::Concurrent;
    core::capturePointObservability(observed, "sensitivity/base");
    return 0;
}
