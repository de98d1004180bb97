#include "sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

#include "proto/checker.hh"
#include "proto/concurrent.hh"
#include "proto/dragon.hh"
#include "proto/full_map.hh"
#include "proto/no_cache.hh"
#include "proto/write_once.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

namespace mscp::core
{

const char *
engineKindName(EngineKind k)
{
    switch (k) {
      case EngineKind::NoCache: return "no-cache";
      case EngineKind::WriteOnce: return "write-1x";
      case EngineKind::FullMap: return "full-map";
      case EngineKind::Dragon: return "dragon";
      case EngineKind::TwoModeForceDW: return "force-dw";
      case EngineKind::TwoModeForceGR: return "force-gr";
      case EngineKind::TwoModeAdaptive: return "adaptive";
      case EngineKind::AtomicTwoMode: return "atomic";
      case EngineKind::Concurrent: return "concurrent";
    }
    return "?";
}

namespace
{

workload::SharedBlockWorkload
makeStream(const SweepPoint &pt)
{
    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(pt.tasks);
    p.writeFraction = pt.writeFraction;
    p.numBlocks = pt.numBlocks;
    p.blockWords = pt.blockWords;
    p.baseAddr = static_cast<Addr>(pt.numPorts - pt.numBlocks) *
        pt.blockWords;
    p.numRefs = pt.numRefs;
    p.seed = pt.seed;
    return workload::SharedBlockWorkload(p);
}

/** The sweep's view of an atomic engine's run. */
SweepResult
atomicResult(const proto::RunResult &r)
{
    SweepResult out;
    out.refs = r.refs;
    out.networkBits = r.networkBits;
    out.messages = r.messages;
    out.valueErrors = r.valueErrors;
    return out;
}

template <typename Proto>
SweepResult
runBaseline(const SweepPoint &pt)
{
    net::OmegaNetwork net(pt.numPorts);
    Proto proto(net, proto::MessageSizes{}, pt.blockWords);
    auto stream = makeStream(pt);
    return atomicResult(proto.run(stream));
}

SweepResult
runTwoMode(const SweepPoint &pt, PolicyKind policy)
{
    SystemConfig cfg;
    cfg.numPorts = pt.numPorts;
    cfg.geometry = cache::Geometry{pt.blockWords, pt.sets,
                                   pt.assoc};
    cfg.policy = policy;
    cfg.adaptWindow = pt.adaptWindow;
    System sys(cfg);
    auto stream = makeStream(pt);
    return atomicResult(sys.run(stream));
}

/**
 * Build the recoverable fault plan a soak point describes: drops
 * hit only requests (the class end-to-end retry re-creates),
 * duplicates hit requests and replies (absorbed by sequence
 * numbers and stale-reply guards), random delay hits everything.
 */
FaultPlan
makeFaultPlan(const SweepPoint &pt)
{
    FaultPlan plan;
    plan.seed = pt.faultSeed;
    plan.of(FaultClass::Request).drop = pt.faultDropRate;
    plan.of(FaultClass::Request).duplicate = pt.faultDupRate;
    plan.of(FaultClass::Reply).duplicate = pt.faultDupRate;
    for (FaultRates &r : plan.rates)
        r.delay = pt.faultDelayRate;
    return plan;
}

/** The first line of @p text, without its indent. */
std::string
firstLine(const std::string &text)
{
    const std::size_t from = std::min(text.find_first_not_of(' '),
                                      text.size());
    return text.substr(from, text.find('\n', from) - from);
}

SweepResult
runConcurrent(const SweepPoint &pt, std::ostream *trace_out = nullptr,
              std::ostream *metrics_out = nullptr,
              const char *metrics_label = "")
{
    net::OmegaNetwork net(pt.numPorts);
    proto::ConcurrentParams cp;
    cp.geometry = cache::Geometry{pt.blockWords, pt.sets, pt.assoc};
    cp.faultPlan = makeFaultPlan(pt);
    if (pt.crashNode != invalidNode) {
        cp.crashPlan = CrashPlan::singleNode(
            pt.crashNode, pt.crashTick,
            pt.crashRestartDelta
                ? pt.crashTick + pt.crashRestartDelta : 0);
    }
    cp.timeoutBase = pt.timeoutBase;
    cp.maxRetries = pt.maxRetries;
    cp.jitterSeed = pt.faultSeed ^ 0x7e11;
    cp.watchdogPeriod = pt.watchdogPeriod;
    cp.watchdogAge = pt.watchdogAge;
    cp.traceEnabled = trace_out != nullptr;
    cp.traceCapacity = pt.traceCapacity;
    cp.metricsEnabled = metrics_out != nullptr;
    cp.metricsWindow = pt.metricsWindow;
    proto::ConcurrentProtocol proto(net, cp);
    auto stream = makeStream(pt);
    proto::ConcurrentRunResult r = proto.run(stream);
    if (trace_out)
        exportChromeTrace(*trace_out, proto.tracer().snapshot(),
                          metricsCounterTrackEvents(
                              proto.metricsRegistry(),
                              proto.metricsWindows()));
    if (metrics_out)
        exportMetricsJsonLines(*metrics_out, proto.metricsRegistry(),
                               proto.metricsWindows(), "concurrent",
                               metrics_label);
    SweepResult out;
    out.refs = r.refs;
    out.networkBits = r.networkBits;
    out.messages = proto.messageCounters().totalCount();
    out.valueErrors = r.valueErrors;
    out.makespan = r.makespan;
    out.avgReadLatency = r.avgReadLatency;
    out.avgWriteLatency = r.avgWriteLatency;
    out.homeQueued = proto.counters().homeQueued;
    out.pointerNacks = proto.counters().pointerNacks;
    out.deadlocks = r.deadlocks;
    if (r.deadlocks)
        out.deadlockReport = proto.deadlockReport();
    out.timeouts = proto.counters().timeouts;
    out.retries = proto.counters().retries;
    out.faultDrops = proto.faultCounters().totalDropped();
    out.faultDups = proto.faultCounters().totalDuplicated();
    out.crashes = proto.counters().crashes;
    out.rejoins = proto.counters().rejoins;
    out.suspects = proto.counters().suspects;
    out.rebuilds = proto.counters().rebuilds;
    out.crashMasked = proto.faultCounters().totalCrashMasked();
    out.recoveryRestarts = proto.counters().recoveryRestarts;
    out.refsLost = r.refsLost;
    if (pt.checkEndState && out.deadlocks == 0)
        out.invariantErrors =
            proto::checkInvariants(proto::viewOf(proto)).size();
    return out;
}

} // anonymous namespace

SweepResult
runPoint(const SweepPoint &pt)
{
    switch (pt.engine) {
      case EngineKind::NoCache:
        return runBaseline<proto::NoCacheProtocol>(pt);
      case EngineKind::WriteOnce:
        return runBaseline<proto::WriteOnceProtocol>(pt);
      case EngineKind::FullMap:
        return runBaseline<proto::FullMapProtocol>(pt);
      case EngineKind::Dragon:
        return runBaseline<proto::DragonUpdateProtocol>(pt);
      case EngineKind::TwoModeForceDW:
        return runTwoMode(pt, PolicyKind::ForceDW);
      case EngineKind::TwoModeForceGR:
        return runTwoMode(pt, PolicyKind::ForceGR);
      case EngineKind::TwoModeAdaptive:
        return runTwoMode(pt, PolicyKind::Adaptive);
      case EngineKind::AtomicTwoMode:
        return runTwoMode(pt, PolicyKind::EngineDefault);
      case EngineKind::Concurrent:
        return runConcurrent(pt);
    }
    panic("unknown engine kind");
}

SweepResult
runPointObserved(const SweepPoint &pt, std::ostream *trace_out,
                 std::ostream *metrics_out, const char *metrics_label)
{
    panic_if(pt.engine != EngineKind::Concurrent,
             "runPointObserved: only the concurrent engine is "
             "observable");
    return runConcurrent(pt, trace_out, metrics_out, metrics_label);
}

bool
capturePointObservability(const SweepPoint &pt,
                          const char *metrics_label)
{
    const char *trace_path = std::getenv("MSCP_TRACE_OUT");
    const char *metrics_path = std::getenv("MSCP_METRICS_OUT");
    if (!trace_path && !metrics_path)
        return false;

    std::ofstream trace_file, metrics_file;
    if (trace_path) {
        trace_file.open(trace_path);
        if (!trace_file)
            warn("cannot open trace output file %s", trace_path);
    }
    if (metrics_path) {
        metrics_file.open(metrics_path, std::ios::app);
        if (!metrics_file)
            warn("cannot open metrics output file %s", metrics_path);
    }
    if (!trace_file.is_open() && !metrics_file.is_open())
        return false;

    runPointObserved(pt,
                     trace_file.is_open() ? &trace_file : nullptr,
                     metrics_file.is_open() ? &metrics_file : nullptr,
                     metrics_label);
    return true;
}

std::vector<SweepResult>
runSweep(const std::vector<SweepPoint> &points,
         unsigned num_threads)
{
    std::vector<SweepResult> results(points.size());
    // Each point's failure is caught where it happens, so the other
    // points still run and the report below does not depend on
    // which worker failed first.
    std::vector<std::optional<std::string>> errors(points.size());
    ThreadPool::parallelFor(
        points.size(), num_threads, [&](std::size_t i) {
            try {
                results[i] = runPoint(points[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });

    std::string report;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string &deadlock = results[i].deadlockReport;
        if (!errors[i] && deadlock.empty())
            continue;
        const SweepPoint &pt = points[i];
        const std::string error = errors[i]
            ? *errors[i]
            : "watchdog deadlock: " + firstLine(deadlock);
        const std::string crash = pt.crashNode == invalidNode
            ? std::string("no crash")
            : csprintf("crash node %u at tick %llu", pt.crashNode,
                       static_cast<unsigned long long>(pt.crashTick));
        report += csprintf(
            "\n  point %zu (%s, seed %llu, w=%g, tasks %u, ports %u, "
            "%s): %s",
            i, engineKindName(pt.engine),
            static_cast<unsigned long long>(pt.seed), pt.writeFraction,
            pt.tasks, pt.numPorts, crash.c_str(), error.c_str());
        ++failed;
    }
    if (failed) {
        throw std::runtime_error(
            csprintf("sweep: %zu of %zu points failed:", failed,
                     points.size()) + report);
    }
    return results;
}

} // namespace mscp::core
