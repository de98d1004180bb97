/**
 * @file
 * mscp_perfbench: run one benchmark workload and print its result.
 *
 *   mscp_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-out <file>]
 *
 * Workloads: paper-grid, conc-hot, conc-wide, verify-3cpu. With
 * --trace 0 the run reports the end-to-end metrics; with --trace 1
 * it records spans around the calls it makes into each layer and
 * reports the per-layer metrics, writing the spans as Chrome
 * trace_event JSON to --trace-out when given.
 *
 * Human-readable lines start with '#'; the last line is
 * "RESULT <json>" with the run identity, the checks and the metrics
 * the workload computed. perfbench/run.py matches those against
 * BENCHMARK.json. Everything runs on this one thread.
 */

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "mscp_perfbench: %s\nusage: mscp_perfbench --workload "
                 "{paper-grid|conc-hot|conc-wide|verify-3cpu} --seed N "
                 "--seconds S --trace {0|1} [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut;
    RunOptions opt;
    bool traced = false;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, nullptr);
            haveSeconds = opt.seconds > 0;
        } else if (a == "--trace") {
            traced = std::strcmp(v, "1") == 0;
            haveTrace = traced || std::strcmp(v, "0") == 0;
        } else if (a == "--trace-out") {
            traceOut = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds (> 0) and --trace (0 or 1) are required");

    Outcome (*run)(const RunOptions &, Spans *) = nullptr;
    if (workload == "paper-grid")
        run = runPaperGrid;
    else if (workload == "conc-hot")
        run = runConcHot;
    else if (workload == "conc-wide")
        run = runConcWide;
    else if (workload == "verify-3cpu")
        run = runVerify;
    else
        usage("unknown workload");

    // A fixed mmap threshold turns off glibc's adaptive one, whose
    // drift between passes would make peak RSS differ run to run.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);

    Spans spans;
    Outcome out = run(opt, traced ? &spans : nullptr);

    for (const auto &[k, v] : out.info)
        std::printf("# %s: %s\n", k.c_str(), v.c_str());
    for (const std::string &f : out.failures)
        std::printf("# FAILED: %s\n", f.c_str());
    if (traced) {
        spans.printSelfTable(stdout);
        for (const auto &[k, v] : out.metrics)
            if (k == "trace.overhead")
                std::printf("# trace.overhead: %.4f\n", v);
        if (!traceOut.empty()) {
            std::ofstream os(traceOut);
            spans.writeChrome(os);
            std::printf("# spans written to %s\n", traceOut.c_str());
        }
    }

    std::string j = "{\"workload\":" + jsonString(workload) +
        ",\"seed\":" + std::to_string(opt.seed) +
        ",\"trace\":" + (traced ? "1" : "0") + ",\"identity\":{" +
        "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ",\"threads\":1" +
        ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
        ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
        ",\"mscp_trace\":" +
        (mscp::traceCompiledIn() ? "true" : "false") +
        ",\"mscp_metrics\":" +
        (mscp::metricsCompiledIn() ? "true" : "false") +
        "},\"attempted\":" + std::to_string(out.attempted) +
        ",\"failed\":" + std::to_string(out.failed) + ",\"info\":{";
    bool first = true;
    for (const auto &[k, v] : out.info) {
        j += (first ? "" : ",") + jsonString(k) + ":" + jsonString(v);
        first = false;
    }
    j += "},\"metrics\":{";
    first = true;
    for (const auto &[k, v] : out.metrics) {
        j += (first ? "" : ",") + jsonString(k) + ":" + jsonNumber(v);
        first = false;
    }
    j += "}}";
    std::printf("RESULT %s\n", j.c_str());
    return out.failed ? 1 : 0;
}
