/**
 * @file
 * paper-grid: the seven atomic engines over bench_sim_traffic's
 * (n, w) grid -- the paper's own evaluation (Fig. 8, generalised).
 *
 * One pass builds and runs every (n, w, engine) point one after
 * another on one thread. The atomic engines complete each reference
 * in one step of their replay loop, so their simulated time is one
 * step per reference and every latency is one step.
 */

#include <array>
#include <memory>
#include <vector>

#include "core/system.hh"
#include "net/omega_network.hh"
#include "proto/checker.hh"
#include "proto/dragon.hh"
#include "proto/full_map.hh"
#include "proto/no_cache.hh"
#include "proto/write_once.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace mscp;

constexpr unsigned numPorts = 64;
constexpr unsigned blockWords = 4;
constexpr unsigned numBlocks = 4;
constexpr std::uint64_t refsPerPoint = 15000;
constexpr unsigned taskCounts[] = {4, 8, 16, 32};
constexpr double writeFractions[] = {0.02, 0.1,  0.2, 0.35,
                                     0.5,  0.75, 0.95};
constexpr std::size_t numPoints =
    std::size(taskCounts) * std::size(writeFractions);

enum Engine : unsigned
{
    NoCache,
    WriteOnce,
    FullMap,
    Dragon,
    ForceDW,
    ForceGR,
    Adaptive,
    NumEngines,
};

constexpr const char *engineName[NumEngines] = {
    "nocache", "writeonce", "fullmap", "dragon",
    "forcedw", "forcegr",   "adaptive",
};

/** Span name of each engine's run. */
constexpr const char *runSpan[NumEngines] = {
    "proto.nocache.run", "proto.writeonce.run", "proto.fullmap.run",
    "proto.dragon.run",  "proto.forcedw.run",   "proto.forcegr.run",
    "proto.adaptive.run",
};

/** One built grid point: network, engine and input stream. */
struct Built
{
    std::unique_ptr<net::OmegaNetwork> net; ///< baselines only
    std::unique_ptr<proto::CoherenceProtocol> baseline;
    std::unique_ptr<core::System> system;   ///< two-mode engines
    std::unique_ptr<workload::SharedBlockWorkload> stream;

    proto::CoherenceProtocol &
    engine()
    {
        if (system)
            return system->protocol();
        return *baseline;
    }

    proto::RunResult
    run(workload::ReferenceStream &s)
    {
        return system ? system->run(s) : baseline->run(s);
    }
};

Built
build(Engine e, unsigned tasks, double w, std::uint64_t seed,
      Spans *spans)
{
    Built b;
    if (e < ForceDW) {
        {
            Span p(spans, "setup.net");
            b.net = std::make_unique<net::OmegaNetwork>(numPorts);
        }
        Span p(spans, "setup.engine");
        const proto::MessageSizes sz;
        switch (e) {
          case NoCache:
            b.baseline = std::make_unique<proto::NoCacheProtocol>(
                *b.net, sz, blockWords);
            break;
          case WriteOnce:
            b.baseline = std::make_unique<proto::WriteOnceProtocol>(
                *b.net, sz, blockWords);
            break;
          case FullMap:
            b.baseline = std::make_unique<proto::FullMapProtocol>(
                *b.net, sz, blockWords);
            break;
          default:
            b.baseline =
                std::make_unique<proto::DragonUpdateProtocol>(
                    *b.net, sz, blockWords);
            break;
        }
    } else {
        core::SystemConfig cfg;
        cfg.numPorts = numPorts;
        cfg.geometry = cache::Geometry{blockWords, 16, 2};
        cfg.policy = e == ForceDW   ? core::PolicyKind::ForceDW
                     : e == ForceGR ? core::PolicyKind::ForceGR
                                    : core::PolicyKind::Adaptive;
        cfg.adaptWindow = 16;
        Span p(spans, "setup.engine");
        b.system = std::make_unique<core::System>(cfg);
    }
    Span p(spans, "setup.stream");
    workload::SharedBlockParams sp;
    sp.placement = workload::adjacentPlacement(tasks);
    sp.writeFraction = w;
    sp.numBlocks = numBlocks;
    sp.blockWords = blockWords;
    sp.baseAddr = static_cast<Addr>(numPorts - numBlocks) * blockWords;
    sp.numRefs = refsPerPoint;
    sp.seed = seed;
    b.stream = std::make_unique<workload::SharedBlockWorkload>(sp);
    return b;
}

/** Simulated outcome of one (point, engine) run. */
struct PointResult
{
    std::uint64_t refs = 0;
    std::uint64_t reads = 0;
    Bits bits = 0;
    std::uint64_t messages = 0;
    std::uint64_t valueErrors = 0;
    std::size_t invariantErrors = 0;
    proto::StenstromCounters ctrs; ///< two-mode engines only

    bool
    operator==(const PointResult &o) const
    {
        return refs == o.refs && reads == o.reads && bits == o.bits &&
               messages == o.messages &&
               valueErrors == o.valueErrors &&
               invariantErrors == o.invariantErrors;
    }
};

/** Results of one pass, indexed point * NumEngines + engine. */
struct GridPass
{
    double run = 0;   ///< host seconds inside the engines' run()
    double wall = 0;  ///< whole pass, checks included
    /** Per (point, engine): run() seconds, and build + run + checks. */
    std::vector<double> pointRun, pointWall;
    std::vector<PointResult> pts;
    std::array<std::uint64_t, NumEngines> refsOf{};
};

void
forEachPoint(const auto &fn)
{
    for (unsigned tasks : taskCounts)
        for (double w : writeFractions)
            for (unsigned e = 0; e < NumEngines; ++e)
                fn(static_cast<Engine>(e), tasks, w);
}

GridPass
gridPass(std::uint64_t seed, Spans *spans)
{
    GridPass gp;
    gp.pts.reserve(numPoints * NumEngines);
    const double t0 = hostNow();
    Span pass(spans, "pass");
    forEachPoint([&](Engine e, unsigned tasks, double w) {
        const double p0 = hostNow();
        Built b = build(e, tasks, w, seed, spans);
        PointResult pr;
        proto::RunResult r;
        double run = 0;
        {
            Phase p(spans, runSpan[e], run);
            if (spans) {
                TimedStream ts(*b.stream, *spans);
                r = b.run(ts);
            } else {
                r = b.run(*b.stream);
            }
        }
        pr.refs = r.refs;
        pr.reads = r.reads;
        pr.bits = r.networkBits;
        pr.messages = r.messages;
        pr.valueErrors = r.valueErrors;
        if (b.system) {
            pr.ctrs = b.system->protocol().counters();
            pr.invariantErrors =
                proto::checkInvariants(b.system->protocol()).size();
        }
        gp.refsOf[e] += r.refs;
        gp.pts.push_back(pr);
        gp.run += run;
        gp.pointRun.push_back(run);
        gp.pointWall.push_back(hostNow() - p0);
    });
    gp.wall = hostNow() - t0;
    return gp;
}

/** Checks every pass must pass: values and invariants. */
void
checkPass(const GridPass &gp, Outcome &out)
{
    std::size_t i = 0;
    forEachPoint([&](Engine e, unsigned tasks, double w) {
        const PointResult &p = gp.pts[i++];
        const std::string where = std::string(engineName[e]) +
            " n=" + std::to_string(tasks) + " w=" + std::to_string(w);
        out.checkMany(p.refs, p.valueErrors, "value errors: " + where);
        out.check(p.refs == refsPerPoint, "lost refs: " + where);
        if (e >= ForceDW)
            out.check(p.invariantErrors == 0,
                      "invariant violation: " + where);
    });
}

/** Bits per reference of point @p pt under engine @p e. */
double
bitsPerRef(const GridPass &gp, std::size_t pt, Engine e)
{
    const PointResult &p = gp.pts[pt * NumEngines + e];
    return ratio(static_cast<double>(p.bits),
                 static_cast<double>(p.refs));
}

/** Deterministic simulated metrics shared by both run kinds. */
struct GridTotals
{
    double refs = 0, bits = 0, msgs = 0;
    double adaptiveExcess = 0;
    unsigned aboveNoCache = 0;
};

GridTotals
totals(const GridPass &gp)
{
    GridTotals t;
    for (const PointResult &p : gp.pts) {
        t.refs += static_cast<double>(p.refs);
        t.bits += static_cast<double>(p.bits);
        t.msgs += static_cast<double>(p.messages);
    }
    for (std::size_t pt = 0; pt < numPoints; ++pt) {
        const double a = bitsPerRef(gp, pt, Adaptive);
        const double best = std::min(bitsPerRef(gp, pt, ForceDW),
                                     bitsPerRef(gp, pt, ForceGR));
        t.adaptiveExcess += ratio(a, best) - 1.0;
        if (a > bitsPerRef(gp, pt, NoCache))
            ++t.aboveNoCache;
    }
    t.adaptiveExcess /= static_cast<double>(numPoints);
    return t;
}

/** What one pass builds: every point's network, engine and stream. */
std::vector<Built>
buildAll(std::uint64_t seed)
{
    std::vector<Built> all;
    all.reserve(numPoints * NumEngines);
    forEachPoint([&](Engine e, unsigned tasks, double w) {
        all.push_back(build(e, tasks, w, seed, nullptr));
    });
    return all;
}

/**
 * Record every message of one pass through the engines' message
 * recorder and replay it through a fresh OmegaNetwork's public
 * commit calls. The replayed link bits must equal each run's bits.
 */
struct ReplayStats
{
    double secs = 0;
    std::uint64_t netMsgs = 0;    ///< messages that cross the network
    std::uint64_t mcasts = 0;     ///< messages with several dests
    std::uint64_t mcastDests = 0; ///< destinations of those
    /** MessageCounters::count summed over the pass. */
    std::array<std::uint64_t, static_cast<std::size_t>(
                                  proto::MsgType::NumTypes)> perType{};
};

ReplayStats
recordAndReplay(std::uint64_t seed, Outcome &out)
{
    ReplayStats rs;
    std::vector<proto::SentMessage> log;
    forEachPoint([&](Engine e, unsigned tasks, double w) {
        Built b = build(e, tasks, w, seed, nullptr);
        log.clear();
        b.engine().setMessageRecorder(
            [&log](const proto::SentMessage &m) { log.push_back(m); });
        const proto::RunResult r = b.run(*b.stream);
        const auto &count = b.engine().messageCounters().count;
        for (std::size_t k = 0; k < count.size(); ++k)
            rs.perType[k] += count[k];

        net::OmegaNetwork fresh(numPorts);
        const double t0 = hostNow();
        for (const proto::SentMessage &m : log) {
            if (m.dests.size() == 1 &&
                m.scheme == net::Scheme::Unicasts) {
                if (m.src != m.dests[0])
                    fresh.unicastCommit(m.src, m.dests[0], m.bits);
            } else {
                fresh.multicastCommit(m.scheme, m.src, m.dests,
                                      m.bits);
            }
        }
        rs.secs += hostNow() - t0;
        for (const proto::SentMessage &m : log) {
            if (m.dests.size() > 1) {
                ++rs.mcasts;
                rs.mcastDests += m.dests.size();
            }
            if (m.dests.size() > 1 || m.src != m.dests[0])
                ++rs.netMsgs;
        }
        out.check(fresh.linkStats().totalBits() == r.networkBits,
                  std::string("omega replay bits differ: ") +
                      engineName[e] + " n=" + std::to_string(tasks) +
                      " w=" + std::to_string(w));
    });
    return rs;
}

} // anonymous namespace

Outcome
runPaperGrid(const RunOptions &opt, Spans *spans)
{
    Outcome out;
    out.note("caches", "cold: every point starts with empty caches");
    out.note("batch", std::to_string(numPoints) + " points x " +
                          std::to_string(NumEngines) + " engines x " +
                          std::to_string(refsPerPoint) + " refs");

    std::vector<GridPass> passes;
    std::vector<double> untracedWall, tracedWall;
    SetupSampler setup(opt.seconds);
    if (!spans) {
        repeatFor(opt.seconds, 3, [&](unsigned) {
            passes.push_back(gridPass(opt.seed, nullptr));
            checkPass(passes.back(), out);
            setup.offer([&] { return buildAll(opt.seed); });
        });
    } else {
        // Alternate untraced and traced passes: the first times the
        // same work tracing-free, for trace.overhead.
        repeatFor(opt.seconds, 1, [&](unsigned) {
            GridPass u = gridPass(opt.seed, nullptr);
            untracedWall.push_back(u.wall);
            checkPass(u, out);
            passes.push_back(gridPass(opt.seed, spans));
            tracedWall.push_back(passes.back().wall);
            checkPass(passes.back(), out);
            out.check(u.pts == passes.back().pts,
                      "traced pass counts differ from untraced");
        });
    }
    for (const GridPass &gp : passes)
        out.check(gp.pts == passes.front().pts,
                  "pass results differ across repeats of one seed");

    const GridPass &first = passes.front();
    const GridTotals t = totals(first);
    out.note("samples", std::to_string(passes.size()) + " passes");

    // Known deviation, reported and not gated: EXPERIMENTS.md says
    // the adaptive policy stays below no-cache everywhere.
    std::string above;
    std::size_t pt = 0;
    for (unsigned tasks : taskCounts) {
        for (double w : writeFractions) {
            const double a = bitsPerRef(first, pt, Adaptive);
            const double nc = bitsPerRef(first, pt, NoCache);
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "%sn=%u w=%.2f adaptive %.1f > no-cache %.1f",
                          above.empty() ? "" : "; ", tasks, w, a, nc);
            if (a > nc)
                above += buf;
            ++pt;
        }
    }
    if (!above.empty())
        out.note("known_deviation_adaptive_above_nocache", above);

    if (!spans) {
        const std::size_t items = first.pointRun.size();
        std::vector<std::vector<double>> run(items), wall(items);
        std::vector<double> rps;
        for (const GridPass &gp : passes) {
            for (std::size_t i = 0; i < items; ++i) {
                run[i].push_back(gp.pointRun[i]);
                wall[i].push_back(gp.pointWall[i]);
            }
            rps.push_back(t.refs / gp.run);
        }
        out.note("pass_refs_per_s", joined(rps));
        out.note("setup_samples", setup.describe());
        out.set("refs_per_s", t.refs / sumOfFastest(run));
        out.set("verdict_s", sumOfFastest(wall));
        out.set("setup_s", setup.seconds());
        out.set("peak_rss_mb", peakRssMiB());
        out.set("sim_bits_per_ref", t.bits / t.refs);
        out.set("sim_msgs_per_ref", t.msgs / t.refs);
        out.set("sim_ticks_per_ref", 1.0);
        out.set("sim_read_p50_ticks", 1.0);
        out.set("sim_read_p99_ticks", 1.0);
        out.set("sim_write_p50_ticks", 1.0);
        out.set("sim_write_p99_ticks", 1.0);
        out.note("latency_samples",
                 "every reference takes one atomic step");
        return out;
    }

    // ---- traced run: per-layer metrics ----
    const double n = static_cast<double>(passes.size());
    out.set("setup.net_s", spans->totalOf("setup.net") / n);
    out.set("setup.engine_s", spans->totalOf("setup.engine") / n);
    out.set("setup.stream_s", spans->totalOf("setup.stream") / n);
    const Spans::Agg next = spans->aggregateOf("workload.next");
    out.set("workload.next_ns",
            1e9 * ratio(next.secs, static_cast<double>(next.calls)));

    double engineSelf = 0;
    std::uint64_t allocs = 0;
    for (unsigned e = 0; e < NumEngines; ++e) {
        const double self = spans->selfOf(runSpan[e]);
        engineSelf += self;
        allocs += spans->allocsOf(runSpan[e]);
        out.set(std::string("proto.") + engineName[e] + ".ns_per_ref",
                1e9 * self /
                    (n * static_cast<double>(first.refsOf[e])));
    }
    out.set("proto.atomic.allocs_per_ref",
            static_cast<double>(allocs) / (n * t.refs));

    double reads = 0, readHits = 0, repl = 0, twoModeRefs = 0;
    double switches = 0;
    for (std::size_t i = 0; i < first.pts.size(); ++i) {
        const auto e = static_cast<Engine>(i % NumEngines);
        if (e < ForceDW)
            continue;
        const PointResult &p = first.pts[i];
        reads += static_cast<double>(p.ctrs.reads);
        readHits += static_cast<double>(p.ctrs.readHits);
        repl += static_cast<double>(p.ctrs.replacements);
        twoModeRefs += static_cast<double>(p.refs);
        if (e == Adaptive)
            switches += static_cast<double>(p.ctrs.modeSwitches);
    }
    out.set("cache.atomic.read_hit_ratio", ratio(readHits, reads));
    out.set("cache.atomic.repl_per_kref", 1e3 * ratio(repl, twoModeRefs));
    out.set("core.policy.switches_per_kref",
            1e3 * ratio(switches,
                        static_cast<double>(first.refsOf[Adaptive])));
    out.set("core.policy.points_above_nocache", t.aboveNoCache);
    out.set("core.policy.adaptive_excess", t.adaptiveExcess);

    const ReplayStats rs = recordAndReplay(opt.seed, out);
    out.set("net.omega.msgs_per_ref",
            static_cast<double>(rs.netMsgs) / t.refs);
    out.set("net.omega.mcast_share",
            ratio(static_cast<double>(rs.mcasts),
                  static_cast<double>(rs.netMsgs)));
    out.set("net.omega.mcast_dests_mean",
            ratio(static_cast<double>(rs.mcastDests),
                  static_cast<double>(rs.mcasts)));
    out.set("net.omega.commit_ns_per_msg",
            1e9 * ratio(rs.secs, static_cast<double>(rs.netMsgs)));
    out.set("net.omega.share", ratio(rs.secs, engineSelf / n));

    for (std::size_t k = 0; k < rs.perType.size(); ++k)
        if (rs.perType[k] != 0)
            out.set(std::string("proto.msg.") +
                        proto::msgTypeName(static_cast<proto::MsgType>(k)) +
                        "_per_ref",
                    static_cast<double>(rs.perType[k]) / t.refs);

    out.set("trace.overhead", median(tracedWall) / median(untracedWall));
    return out;
}

} // namespace perfbench
