/**
 * @file
 * Trace-driven simulator front end: replay a reference trace file
 * through the two-mode protocol and print the system report
 * (protocol counters, per-stage link traffic) and the
 * per-message-type breakdown.
 *
 *   ./trace_run <trace-file> [ports] [policy]
 *
 *   trace format:  <cpu> R <addr>  |  <cpu> W <addr> <value>
 *   policy: default | dw | gr | adaptive   (default: adaptive)
 *
 * With no arguments, runs a built-in demonstration trace.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "workload/trace.hh"

using namespace mscp;

int
main(int argc, char **argv)
{
    std::vector<workload::MemRef> refs;
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::cerr << "cannot open trace file " << argv[1]
                      << "\n";
            return 1;
        }
        refs = workload::readTrace(in);
    } else {
        std::istringstream demo(
            "# demo: two producers, two consumers\n"
            "0 W 100 1\n1 R 100\n2 R 100\n3 R 100\n"
            "0 W 100 2\n1 R 100\n2 R 100\n"
            "3 W 108 7\n0 R 108\n1 R 108\n"
            "0 W 100 3\n3 R 100\n");
        refs = workload::readTrace(demo);
        std::cout << "(no trace given: running the built-in demo "
                     "trace; usage: " << argv[0]
                  << " <trace> [ports] [policy])\n\n";
    }

    core::SystemConfig cfg;
    cfg.numPorts = argc > 2
        ? static_cast<unsigned>(std::atoi(argv[2])) : 16;
    cfg.geometry = cache::Geometry{4, 16, 2};
    std::string policy = argc > 3 ? argv[3] : "adaptive";
    if (policy == "dw")
        cfg.policy = core::PolicyKind::ForceDW;
    else if (policy == "gr")
        cfg.policy = core::PolicyKind::ForceGR;
    else if (policy == "default")
        cfg.policy = core::PolicyKind::EngineDefault;
    else
        cfg.policy = core::PolicyKind::Adaptive;

    core::System sys(cfg);

    workload::TracePlayer player(refs, argc > 1 ? argv[1] : "demo");
    auto res = sys.run(player);

    std::cout << "replayed " << res.refs << " references ("
              << res.reads << " reads, " << res.writes
              << " writes), " << res.valueErrors
              << " value errors\n\n";

    sys.report(std::cout);
    std::cout << "\nmessage breakdown:\n";
    core::dumpMessageTable(std::cout,
                           sys.protocol().messageCounters());
    return res.valueErrors ? 2 : 0;
}
