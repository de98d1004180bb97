/**
 * @file
 * conc-hot and conc-wide: the message-level ConcurrentProtocol run
 * as a closed loop, one outstanding reference per task (the paper's
 * blocking processor).
 *
 *  - conc-hot: 64 ports, 16 adjacent tasks hammering one block at
 *    w = 0.5 in distributed-write mode, 16x2 caches -- write-heavy
 *    contention through one home.
 *  - conc-wide: 256 ports, 256 tasks over 128 shared blocks at
 *    w = 0.1 in global-read mode, 4-set direct-mapped caches -- a
 *    working set far above the cache size, so evictions dominate
 *    and the event queue runs deep.
 *
 * One pass builds the network, engine and stream and runs the whole
 * stream; passes repeat the same seeded batch.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "net/omega_network.hh"
#include "proto/checker.hh"
#include "proto/concurrent.hh"
#include "sim/eventq.hh"
#include "sim/metrics.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace mscp;

constexpr unsigned blockWords = 4;
constexpr std::size_t numTypes =
    static_cast<std::size_t>(proto::MsgType::NumTypes);

struct Shape
{
    const char *name;
    unsigned ports;
    unsigned tasks;
    unsigned sets;
    unsigned assoc;
    cache::Mode mode;
    bool hotSpot; ///< HotSpotWorkload, else SharedBlockWorkload
    double writeFraction;
    unsigned blocks;
    std::uint64_t refs; ///< per sub-run
    /**
     * Independent sub-runs (own seeds) making up the batch. Their
     * simulated results pool, so write p99 keeps >= 1 000 samples
     * beyond it, while each timed sub-run stays a fraction of a
     * second: short enough for its fastest repeat to fall between
     * bursts of interference from other tenants of the host.
     */
    unsigned subRuns;
    /**
     * The untraced run's host times come from the first timedSubRuns
     * sub-runs, repeated after the batch for the rest of the run. A
     * long batch would leave each sub-run too few repeats for one of
     * them to miss the host's slow spells.
     */
    unsigned timedSubRuns;
};

constexpr Shape hotShape{"conc-hot", 64, 16, 16, 2,
                         cache::Mode::DistributedWrite, true, 0.5, 1,
                         30000, 10, 10};
constexpr Shape wideShape{"conc-wide", 256, 256, 4, 1,
                          cache::Mode::GlobalRead, false, 0.1, 128,
                          64000, 16, 4};

/** Stream seed of sub-run @p k of the batch made from @p seed. */
std::uint64_t
subSeed(std::uint64_t seed, unsigned k)
{
    return seed * 64 + k;
}

/** Completed-reference latencies, split reads / writes. */
struct Samples
{
    std::vector<std::uint64_t> reads;
    std::vector<std::uint64_t> writes;
};

struct Built
{
    std::unique_ptr<net::OmegaNetwork> net;
    std::unique_ptr<proto::ConcurrentProtocol> eng;
    std::unique_ptr<workload::ReferenceStream> stream;
};

/** Observation knobs of the traced pass (off in untraced runs). */
struct Observe
{
    bool on = false;
    Tick metricsWindow = 2048;
};

Built
build(const Shape &s, std::uint64_t seed, Spans *spans, const Observe &obs)
{
    Built b;
    {
        Span p(spans, "setup.net");
        b.net = std::make_unique<net::OmegaNetwork>(s.ports);
    }
    {
        proto::ConcurrentParams cp;
        cp.geometry = cache::Geometry{blockWords, s.sets, s.assoc};
        cp.defaultMode = s.mode;
        cp.traceEnabled = obs.on;
        cp.metricsEnabled = obs.on;
        cp.metricsWindow = obs.metricsWindow;
        cp.metricsCapacity = 1024;
        Span p(spans, "setup.engine");
        b.eng = std::make_unique<proto::ConcurrentProtocol>(*b.net, cp);
    }
    Span p(spans, "setup.stream");
    const Addr base =
        static_cast<Addr>(s.ports - s.blocks) * blockWords;
    if (s.hotSpot) {
        workload::HotSpotParams hp;
        hp.placement = workload::adjacentPlacement(s.tasks);
        hp.writeFraction = s.writeFraction;
        hp.blockWords = blockWords;
        hp.baseAddr = base;
        hp.numRefs = s.refs;
        hp.seed = seed;
        b.stream = std::make_unique<workload::HotSpotWorkload>(hp);
    } else {
        workload::SharedBlockParams sp;
        sp.placement = workload::adjacentPlacement(s.tasks);
        sp.writeFraction = s.writeFraction;
        sp.numBlocks = s.blocks;
        sp.blockWords = blockWords;
        sp.baseAddr = base;
        sp.numRefs = s.refs;
        sp.seed = seed;
        b.stream = std::make_unique<workload::SharedBlockWorkload>(sp);
    }
    return b;
}

/** Outcome of one pass; everything but the host times is simulated. */
struct ConcPass
{
    unsigned subRun = 0;
    double run = 0;
    double wall = 0;
    std::uint64_t runAllocs = 0; ///< heap allocations inside run()
    proto::ConcurrentRunResult r;
    std::uint64_t events = 0;
    std::array<std::uint64_t, numTypes> perType{};
    proto::ConcurrentCounters ctrs;
    Samples samples; ///< reordered by the percentile selection
    std::uint64_t readCount = 0, writeCount = 0;
    std::uint64_t readP50 = 0, readP99 = 0;
    std::uint64_t writeP50 = 0, writeP99 = 0;
    bool quiescent = false;
    std::size_t invariantErrors = 0;
    /** @{ traced pass only: the engine's public metric series */
    double evqDepthMean = 0, evqTombMean = 0, dirBusyMean = 0;
    double linkWait = 0, linkBusy = 0, lastLevelWait = 0;
    double fanoutMean = 0;
    std::uint64_t traceRecords = 0;
    /** @} */

    /** Simulated results that must repeat exactly. */
    bool
    sameSimulation(const ConcPass &o) const
    {
        return r.refs == o.r.refs && r.makespan == o.r.makespan &&
               r.networkBits == o.r.networkBits &&
               r.valueErrors == o.r.valueErrors &&
               events == o.events && perType == o.perType &&
               readCount == o.readCount &&
               writeCount == o.writeCount && readP50 == o.readP50 &&
               readP99 == o.readP99 && writeP50 == o.writeP50 &&
               writeP99 == o.writeP99;
    }
};

std::size_t
checkEndState(const proto::ConcurrentProtocol &eng)
{
    proto::SystemView v;
    v.numCaches = eng.numCaches();
    v.cacheArray = [&eng](NodeId c) -> const cache::CacheArray & {
        return eng.cacheArray(c);
    };
    v.memoryModule = [&eng](unsigned i) -> const mem::MemoryModule & {
        return eng.memoryModule(i);
    };
    v.homeOf = [&eng](BlockId b) { return eng.homeOf(b); };
    v.isLive = [&eng](NodeId c) { return eng.isLive(c); };
    v.isQuiescent = [&eng]() { return eng.isQuiescent(); };
    return proto::checkInvariants(v).size();
}

const MetricSeries *
seriesNamed(const MetricsRegistry &reg, const char *name)
{
    for (const MetricSeries &s : reg.series())
        if (s.name == name)
            return &s;
    return nullptr;
}

/** Read the traced pass's gauges, grids and histogram. */
void
readSeries(const proto::ConcurrentProtocol &eng, ConcPass &cp)
{
    const MetricsRegistry &reg = eng.metricsRegistry();
    const std::vector<MetricsWindow> wins = eng.metricsWindows();
    if (wins.empty())
        return;
    auto gaugeMean = [&](const char *name) {
        const MetricSeries *s = seriesNamed(reg, name);
        if (!s)
            return 0.0;
        double sum = 0;
        for (const MetricsWindow &w : wins)
            sum += static_cast<double>(w.cells[s->slot]);
        return sum / static_cast<double>(wins.size());
    };
    cp.evqDepthMean = gaugeMean("evq.depth");
    cp.evqTombMean = gaugeMean("evq.tombstones");
    cp.dirBusyMean = gaugeMean("dir.busy_blocks");

    // Counter cells are cumulative: the last window holds the run.
    const MetricsWindow &last = wins.back();
    auto gridSum = [&](const char *name, double *last_row) {
        const MetricSeries *s = seriesNamed(reg, name);
        double sum = 0;
        for (std::uint32_t r = 0; s && r < s->rows; ++r) {
            for (std::uint32_t c = 0; c < s->cols; ++c) {
                const double v = static_cast<double>(
                    last.cells[s->slot + r * s->cols + c]);
                sum += v;
                if (last_row && r + 1 == s->rows)
                    *last_row += v;
            }
        }
        return sum;
    };
    cp.linkWait = gridSum("net.link_wait", &cp.lastLevelWait);
    cp.linkBusy = gridSum("net.link_busy", nullptr);

    // log2 buckets: bucket b >= 1 holds [2^(b-1), 2^b); take each
    // bucket's midpoint (exact for bucket 1, a fanout of one).
    if (const MetricSeries *s = seriesNamed(reg, "net.fanout")) {
        double n = 0, sum = 0;
        for (std::uint32_t b = 1; b < MetricHistBuckets; ++b) {
            const auto c = static_cast<double>(last.cells[s->slot + b]);
            const double lo = static_cast<double>(1ull << (b - 1));
            const double hi = static_cast<double>((1ull << b) - 1);
            n += c;
            sum += c * 0.5 * (lo + hi);
        }
        cp.fanoutMean = ratio(sum, n);
    }
}

ConcPass
concPass(const Shape &s, std::uint64_t seed, unsigned sub_run,
         Spans *spans, const Observe &obs)
{
    ConcPass cp;
    cp.subRun = sub_run;
    const double t0 = hostNow();
    Span pass(spans, "pass");
    Built b = build(s, seed, spans, obs);

    // Reserved up front so the sink allocates nothing inside run().
    Samples &smp = cp.samples;
    smp.reads.reserve(s.refs);
    smp.writes.reserve(s.refs);
    b.eng->setLatencySink(proto::ConcurrentProtocol::LatencySink(
        [out = &smp](OpClass c, Tick v) {
            switch (c) {
              case OpClass::ReadHit:
              case OpClass::ReadMiss:
                out->reads.push_back(v);
                break;
              case OpClass::WriteHit:
              case OpClass::WriteMiss:
              case OpClass::Upgrade:
                out->writes.push_back(v);
                break;
              default:
                break; // eviction handshakes are not references
            }
        }));
    const std::uint64_t allocs0 = allocCount();
    {
        Phase p(spans, "proto.conc.run", cp.run);
        if (spans) {
            TimedStream ts(*b.stream, *spans);
            cp.r = b.eng->run(ts);
        } else {
            cp.r = b.eng->run(*b.stream);
        }
    }
    cp.runAllocs = allocCount() - allocs0;
    cp.events = b.eng->executedEvents();
    cp.perType = b.eng->messageCounters().count;
    cp.ctrs = b.eng->counters();
    cp.readCount = smp.reads.size();
    cp.writeCount = smp.writes.size();
    cp.readP50 = quantile(smp.reads, 0.50);
    cp.readP99 = quantile(smp.reads, 0.99);
    cp.writeP50 = quantile(smp.writes, 0.50);
    cp.writeP99 = quantile(smp.writes, 0.99);
    cp.quiescent = b.eng->isQuiescent();
    cp.invariantErrors = checkEndState(*b.eng);
    if (obs.on) {
        readSeries(*b.eng, cp);
        cp.traceRecords = b.eng->tracer().recorded();
    }
    cp.wall = hostNow() - t0;
    return cp;
}

void
checkPass(const Shape &s, const ConcPass &cp, Outcome &out)
{
    const std::string w = s.name;
    out.checkMany(cp.r.refs, cp.r.valueErrors, w + ": value errors");
    out.check(cp.r.deadlocks == 0, w + ": watchdog deadlock");
    out.check(cp.r.refsLost == 0 && cp.r.refs == s.refs,
              w + ": lost references");
    out.check(cp.quiescent && cp.invariantErrors == 0,
              w + ": invariant violation at the end state");
}

/**
 * Host ns per schedule+step of a standalone EventQueue held at
 * @p depth live events (the engine's mean depth).
 */
double
eventQueueNs(double depth)
{
    EventQueue eq;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto delay = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return 1 + (x & 63);
    };
    const auto live = static_cast<std::size_t>(std::max(1.0, depth));
    for (std::size_t i = 0; i < live; ++i)
        eq.schedule([] {}, delay());
    constexpr int iters = 1 << 21;
    const double t0 = hostNow();
    for (int i = 0; i < iters; ++i) {
        eq.schedule([] {}, eq.curTick() + delay());
        eq.step();
    }
    return 1e9 * (hostNow() - t0) / iters;
}

/** Add the ConcurrentCounters fields the metrics read. */
void
addCounters(proto::ConcurrentCounters &a,
            const proto::ConcurrentCounters &b)
{
    a.reads += b.reads;
    a.writes += b.writes;
    a.readHits += b.readHits;
    a.writeHits += b.writeHits;
    a.pointerReads += b.pointerReads;
    a.pointerNacks += b.pointerNacks;
    a.homeQueued += b.homeQueued;
    a.ownershipTransfers += b.ownershipTransfers;
    a.dwUpdates += b.dwUpdates;
    a.evictions += b.evictions;
    a.handoffs += b.handoffs;
    a.handoffNacks += b.handoffNacks;
    a.handoffFallbacks += b.handoffFallbacks;
}

/** One batch (one pass per sub-run) pooled into one result. */
struct Batch
{
    double refs = 0, bits = 0, msgs = 0, makespan = 0, events = 0;
    std::array<double, numTypes> perType{};
    proto::ConcurrentCounters ctrs;
    Samples pooled;
    /** @{ traced passes: sums, or means over the sub-runs */
    double evqDepthMean = 0, evqTombMean = 0, dirBusyMean = 0;
    double linkWait = 0, linkBusy = 0, lastLevelWait = 0;
    double fanoutMean = 0;
    std::uint64_t traceRecords = 0;
    /** @} */
};

Batch
pool(const Shape &s, const std::vector<ConcPass> &passes)
{
    Batch b;
    const double k = s.subRuns;
    auto append = [](std::vector<std::uint64_t> &to,
                     const std::vector<std::uint64_t> &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    // Exact reservations keep peak RSS independent of how the
    // sample counts fall against the vectors' growth steps.
    std::size_t reads = 0, writes = 0;
    for (unsigned i = 0; i < s.subRuns; ++i) {
        reads += passes[i].samples.reads.size();
        writes += passes[i].samples.writes.size();
    }
    b.pooled.reads.reserve(reads);
    b.pooled.writes.reserve(writes);
    for (unsigned i = 0; i < s.subRuns; ++i) {
        const ConcPass &p = passes[i];
        b.refs += static_cast<double>(p.r.refs);
        b.bits += static_cast<double>(p.r.networkBits);
        b.makespan += static_cast<double>(p.r.makespan);
        b.events += static_cast<double>(p.events);
        for (std::size_t t = 0; t < numTypes; ++t) {
            b.perType[t] += static_cast<double>(p.perType[t]);
            b.msgs += static_cast<double>(p.perType[t]);
        }
        addCounters(b.ctrs, p.ctrs);
        append(b.pooled.reads, p.samples.reads);
        append(b.pooled.writes, p.samples.writes);
        b.evqDepthMean += p.evqDepthMean / k;
        b.evqTombMean += p.evqTombMean / k;
        b.dirBusyMean += p.dirBusyMean / k;
        b.fanoutMean += p.fanoutMean / k;
        b.linkWait += p.linkWait;
        b.linkBusy += p.linkBusy;
        b.lastLevelWait += p.lastLevelWait;
        b.traceRecords += p.traceRecords;
    }
    return b;
}

Outcome
runShape(const Shape &s, const RunOptions &opt, Spans *spans)
{
    Outcome out;
    out.note("caches", "cold: every pass starts with empty caches");
    out.note("batch", std::to_string(s.subRuns) + " x " +
                          std::to_string(s.refs) + " refs, " +
                          std::to_string(s.tasks) + " tasks on " +
                          std::to_string(s.ports) + " ports; host " +
                          "times from the first " +
                          std::to_string(s.timedSubRuns));

    // The first subRuns passes run the batch whose simulated results
    // are reported; later passes repeat its sub-runs in turn (the
    // untraced run only its first timedSubRuns).
    std::vector<ConcPass> passes;
    std::vector<double> untracedWall, tracedWall;
    SetupSampler setup(opt.seconds);
    // What one batch builds: every sub-run's network, engine, stream.
    auto buildBatch = [&] {
        std::vector<Built> all;
        for (unsigned k = 0; k < s.subRuns; ++k)
            all.push_back(build(s, subSeed(opt.seed, k), nullptr, {}));
        return all;
    };
    // Untraced twins of the traced passes: the engine's own tracer
    // and windowed metrics are on in the traced passes, so per-event
    // host costs come from these.
    double twinRun = 0, twinEvents = 0, twinAllocs = 0;
    auto keep = [&](ConcPass &&cp) {
        if (passes.size() >= s.subRuns)
            cp.samples = {}; // only the first batch pools its samples
        passes.push_back(std::move(cp));
    };
    if (!spans) {
        repeatFor(opt.seconds, std::max(3u, s.subRuns), [&](unsigned i) {
            const unsigned k =
                i < s.subRuns ? i : (i - s.subRuns) % s.timedSubRuns;
            keep(concPass(s, subSeed(opt.seed, k), k, nullptr, {}));
            checkPass(s, passes.back(), out);
            setup.offer(buildBatch);
        });
    } else {
        repeatFor(opt.seconds, s.subRuns, [&](unsigned i) {
            const unsigned k = i % s.subRuns;
            const std::uint64_t seed = subSeed(opt.seed, k);
            const ConcPass u = concPass(s, seed, k, nullptr, {});
            untracedWall.push_back(u.wall);
            twinRun += u.run;
            twinEvents += static_cast<double>(u.events);
            twinAllocs += static_cast<double>(u.runAllocs);
            checkPass(s, u, out);
            // Keep the window ring from overwriting: about 512
            // windows over the run's makespan.
            Observe obs;
            obs.on = true;
            obs.metricsWindow =
                std::max<Tick>(2048, u.r.makespan / 512 + 1);
            keep(concPass(s, seed, k, spans, obs));
            tracedWall.push_back(passes.back().wall);
            checkPass(s, passes.back(), out);
            out.check(u.sameSimulation(passes.back()),
                      std::string(s.name) +
                          ": traced pass counts differ from untraced");
        });
    }
    for (std::size_t i = s.subRuns; i < passes.size(); ++i)
        out.check(passes[i].sameSimulation(passes[passes[i].subRun]),
                  std::string(s.name) +
                      ": pass results differ across repeats");

    Batch b = pool(s, passes);
    out.note("samples", std::to_string(passes.size()) + " passes");
    out.note("latency_samples",
             "reads " + std::to_string(b.pooled.reads.size()) +
                 ", writes " + std::to_string(b.pooled.writes.size()));

    if (!spans) {
        // A pass is one sub-run: host times sum each timed sub-run's
        // fastest repeat.
        std::vector<std::vector<double>> run(s.timedSubRuns),
            wall(s.timedSubRuns);
        std::vector<double> rps;
        double timedRefs = 0;
        for (const ConcPass &cp : passes) {
            rps.push_back(static_cast<double>(cp.r.refs) / cp.run);
            if (cp.subRun >= s.timedSubRuns)
                continue;
            if (run[cp.subRun].empty())
                timedRefs += static_cast<double>(cp.r.refs);
            run[cp.subRun].push_back(cp.run);
            wall[cp.subRun].push_back(cp.wall);
        }
        out.note("pass_refs_per_s", joined(rps));
        out.note("setup_samples", setup.describe());
        out.set("refs_per_s", timedRefs / sumOfFastest(run));
        out.set("verdict_s", sumOfFastest(wall));
        out.set("setup_s", setup.seconds());
        out.set("peak_rss_mb", peakRssMiB());
        out.set("sim_bits_per_ref", b.bits / b.refs);
        out.set("sim_msgs_per_ref", b.msgs / b.refs);
        out.set("sim_ticks_per_ref", b.makespan / b.refs);
        out.set("sim_read_p50_ticks",
                static_cast<double>(quantile(b.pooled.reads, 0.50)));
        out.set("sim_read_p99_ticks",
                static_cast<double>(quantile(b.pooled.reads, 0.99)));
        out.set("sim_write_p50_ticks",
                static_cast<double>(quantile(b.pooled.writes, 0.50)));
        out.set("sim_write_p99_ticks",
                static_cast<double>(quantile(b.pooled.writes, 0.99)));
        return out;
    }

    // ---- traced run: per-layer metrics ----
    const double perBatch = static_cast<double>(s.subRuns) /
        static_cast<double>(passes.size());
    const double refs = b.refs;
    out.set("setup.net_s", perBatch * spans->totalOf("setup.net"));
    out.set("setup.engine_s", perBatch * spans->totalOf("setup.engine"));
    out.set("setup.stream_s", perBatch * spans->totalOf("setup.stream"));
    const Spans::Agg next = spans->aggregateOf("workload.next");
    out.set("workload.next_ns",
            1e9 * ratio(next.secs, static_cast<double>(next.calls)));

    // Per-event costs come from the untraced twins. Their run()
    // time, less the stream reads the traced passes timed through the
    // decorator (the same calls), is the run's self time.
    out.set("sim.events_per_ref", b.events / refs);
    out.set("sim.evq_depth_mean", b.evqDepthMean);
    out.set("sim.evq_tombstones_mean", b.evqTombMean);
    out.set("sim.eventq_ns_per_event", eventQueueNs(b.evqDepthMean));
    out.set("proto.conc.ns_per_event",
            1e9 * (twinRun - next.secs) / twinEvents);
    out.set("proto.conc.allocs_per_event", twinAllocs / twinEvents);
    for (std::size_t k = 0; k < numTypes; ++k)
        if (b.perType[k] != 0)
            out.set(std::string("proto.msg.") +
                        proto::msgTypeName(static_cast<proto::MsgType>(k)) +
                        "_per_ref",
                    b.perType[k] / refs);

    const proto::ConcurrentCounters &c = b.ctrs;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out.set("proto.conc.home_queued_per_ref", d(c.homeQueued) / refs);
    out.set("proto.conc.ownership_per_ref",
            d(c.ownershipTransfers) / refs);
    out.set("proto.conc.dw_updates_per_ref", d(c.dwUpdates) / refs);
    out.set("proto.conc.pointer_ok_ratio",
            ratio(d(c.pointerReads) - d(c.pointerNacks),
                  d(c.pointerReads)));
    out.set("proto.conc.handoff_ok_ratio",
            ratio(d(c.handoffs) - d(c.handoffNacks) -
                      d(c.handoffFallbacks),
                  d(c.handoffs)));
    out.set("cache.conc.read_hit_ratio",
            ratio(d(c.readHits), d(c.reads)));
    out.set("cache.conc.write_hit_ratio",
            ratio(d(c.writeHits), d(c.writes)));
    out.set("cache.conc.evictions_per_ref", d(c.evictions) / refs);
    out.set("mem.dir_busy_mean", b.dirBusyMean);
    out.set("net.link_wait_per_ref", b.linkWait / refs);
    out.set("net.link_busy_per_ref", b.linkBusy / refs);
    out.set("net.wait_last_level_share",
            ratio(b.lastLevelWait, b.linkWait));
    out.set("net.fanout_mean", b.fanoutMean);
    out.set("trace.overhead", median(tracedWall) / median(untracedWall));
    out.note("engine_trace_records", std::to_string(b.traceRecords));
    return out;
}

} // anonymous namespace

Outcome
runConcHot(const RunOptions &opt, Spans *spans)
{
    return runShape(hotShape, opt, spans);
}

Outcome
runConcWide(const RunOptions &opt, Spans *spans)
{
    return runShape(wideShape, opt, spans);
}

} // namespace perfbench
