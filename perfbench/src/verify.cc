/**
 * @file
 * verify-3cpu: the model checker (mscp-verify) on the verify_sweep
 * configurations.
 *
 * A pass reaches every verdict -- POR exploration of the seven
 * sweep configs, then full exploration and the liveness check of
 * B-3cpu -- and then drives seeded random schedules of B-3cpu
 * through the checker's EngineGateway to completion. The verdicts
 * do not depend on the seed; the random schedules do, and they give
 * this workload its simulated metrics: one gateway action advances
 * the engine's clock by one tick, and messages are counted at their
 * wire size (the checker delivers them without a network).
 */

#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "verify/explorer.hh"
#include "verify/liveness.hh"
#include "verify/state.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace mscp;
using verify::ExploreResult;
using verify::VerifyConfig;

/** Random schedules per pass, timed in chunks (see sumOfFastest). */
constexpr unsigned walksPerPass = 25000;
constexpr unsigned walksPerChunk = 1000;
/** A schedule longer than this never completes (counted failed). */
constexpr std::uint64_t maxWalkActions = 100000;

/** The seven verify_sweep configurations (bench/verify_sweep.cc). */
std::vector<VerifyConfig>
sweepConfigs()
{
    std::vector<VerifyConfig> cfgs;

    VerifyConfig a;
    a.name = "A-dw";
    a.nodes = 2;
    a.geometry = cache::Geometry{1, 1, 1};
    a.mode = cache::Mode::DistributedWrite;
    a.program = {
        {{0, 0, true, 1}, {0, 0, true, 2}},
        {{1, 0, false, 0}, {1, 0, false, 0}},
    };
    cfgs.push_back(a);

    VerifyConfig ag = a;
    ag.name = "A-gr";
    ag.mode = cache::Mode::GlobalRead;
    cfgs.push_back(ag);

    VerifyConfig b;
    b.name = "B-3cpu";
    b.nodes = 4;
    b.geometry = cache::Geometry{1, 1, 1};
    b.mode = cache::Mode::DistributedWrite;
    b.program = {
        {{0, 0, true, 7}, {0, 0, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0},
         {1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 1, true, 9}, {2, 1, true, 10}},
    };
    b.opt.maxStates = 1u << 20;
    cfgs.push_back(b);

    VerifyConfig bg;
    bg.name = "B-gr2blk";
    bg.nodes = 4;
    bg.geometry = cache::Geometry{1, 1, 1};
    bg.mode = cache::Mode::GlobalRead;
    bg.program = {
        {{0, 0, true, 7}, {0, 1, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 0, false, 0}, {2, 1, false, 0}},
    };
    bg.opt.maxStates = 1u << 20;
    cfgs.push_back(bg);

    VerifyConfig c;
    c.name = "C-evict";
    c.nodes = 2;
    c.geometry = cache::Geometry{1, 1, 1};
    c.mode = cache::Mode::DistributedWrite;
    c.program = {
        {{0, 0, true, 1}, {0, 1, true, 2}, {0, 0, false, 0}},
        {{1, 1, false, 0}},
    };
    cfgs.push_back(c);

    VerifyConfig d;
    d.name = "D-timeout";
    d.nodes = 2;
    d.geometry = cache::Geometry{1, 1, 1};
    d.mode = cache::Mode::DistributedWrite;
    d.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}},
    };
    d.opt.timeoutBase = 1;
    d.opt.maxRetries = 1;
    cfgs.push_back(d);

    VerifyConfig e = d;
    e.name = "E-crash";
    e.opt.crashBudget = 1;
    e.opt.allowRejoin = false;
    e.opt.dedupResends = true;
    cfgs.push_back(e);

    return cfgs;
}

constexpr std::size_t b3cpu = 2; ///< index of B-3cpu in sweepConfigs

bool
clean(const ExploreResult &r)
{
    return r.complete && r.violations.empty();
}

bool
sameCoverage(const ExploreResult &a, const ExploreResult &b)
{
    return a.states == b.states && a.edges == b.edges &&
           a.settledUnique == b.settledUnique &&
           a.settledDigest == b.settledDigest &&
           a.complete == b.complete;
}

/** Seeded random schedules through the checker's gateway. */
struct Walks
{
    std::uint64_t refs = 0;
    std::uint64_t actions = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bits = 0;
    std::uint64_t unfinished = 0;
    std::uint64_t valueErrors = 0;
    std::uint64_t invariantErrors = 0;
    std::uint64_t panics = 0;
    std::vector<std::uint64_t> reads, writes; ///< latencies, ticks
    std::uint64_t readP50 = 0, readP99 = 0;
    std::uint64_t writeP50 = 0, writeP99 = 0;
    /** Host seconds of each chunk of walksPerChunk schedules. */
    std::vector<double> chunkSecs;

    bool
    operator==(const Walks &o) const
    {
        return refs == o.refs && actions == o.actions &&
               msgs == o.msgs && bits == o.bits &&
               readP50 == o.readP50 && readP99 == o.readP99 &&
               writeP50 == o.writeP50 && writeP99 == o.writeP99;
    }
};

/** @p between() runs between chunks, outside their timing. */
Walks
randomWalks(const VerifyConfig &cfg, std::uint64_t seed, Spans *spans,
            const auto &between)
{
    Walks w;
    std::unique_ptr<verify::EngineGateway> gw;
    {
        Span p(spans, "setup.engine");
        gw = std::make_unique<verify::EngineGateway>(cfg);
    }
    // Time a gateway call into its aggregate (traced run only).
    auto timed = [spans](const char *name, auto &&call) {
        if (!spans)
            return call();
        const double t0 = hostNow();
        auto r = call();
        spans->aggregate(name, hostNow() - t0);
        return r;
    };

    std::uint64_t rng = seed;
    std::vector<std::uint64_t> issuedAt(cfg.nodes, 0);
    double chunkStart = hostNow();
    for (unsigned walk = 0; walk < walksPerPass; ++walk) {
        if (walk > 0 && walk % walksPerChunk == 0) {
            w.chunkSecs.push_back(hostNow() - chunkStart);
            between();
            chunkStart = hostNow();
        }
        if (walk > 0)
            timed("verify.reset", [&] { gw->reset(); return 0; });
        std::uint64_t steps = 0;
        try {
            for (;;) {
                const std::vector<verify::Action> acts = timed(
                    "verify.enabled",
                    [&] { return gw->enabledActions(); });
                if (acts.empty() || steps >= maxWalkActions)
                    break;
                if (spans)
                    timed("verify.canon",
                          [&] { return gw->canonical().size(); });
                const verify::Action &a =
                    acts[nextRandom(rng) % acts.size()];
                timed("verify.apply", [&] { gw->apply(a); return 0; });
                ++steps;
                for (const verify::ObsEvent &o :
                     gw->takeObservations()) {
                    if (o.invoke) {
                        issuedAt[o.cpu] = steps;
                        continue;
                    }
                    (o.isWrite ? w.writes : w.reads)
                        .push_back(steps - issuedAt[o.cpu]);
                    ++w.refs;
                }
            }
        } catch (const std::exception &) {
            ++w.panics;
            gw->reset();
            continue;
        }
        w.actions += steps;
        if (gw->refsOutstanding() != 0 || !gw->settled())
            ++w.unfinished;
        else
            w.invariantErrors += gw->checkInvariants().size();
        w.valueErrors += gw->valueErrors();
        const proto::MessageCounters &mc =
            gw->engine().messageCounters();
        w.msgs += mc.totalCount();
        w.bits += mc.totalBits();
    }
    w.chunkSecs.push_back(hostNow() - chunkStart);
    w.readP50 = quantile(w.reads, 0.50);
    w.readP99 = quantile(w.reads, 0.99);
    w.writeP50 = quantile(w.writes, 0.50);
    w.writeP99 = quantile(w.writes, 0.99);
    return w;
}

/** What one pass builds before its first action. */
struct PassBuild
{
    std::vector<std::unique_ptr<verify::Explorer>> explorers;
    std::unique_ptr<verify::EngineGateway> gateway;
};

PassBuild
buildPass(const std::vector<VerifyConfig> &cfgs)
{
    PassBuild pb;
    for (VerifyConfig c : cfgs) {
        c.opt.por = true;
        pb.explorers.push_back(std::make_unique<verify::Explorer>(c));
    }
    pb.explorers.push_back(std::make_unique<verify::Explorer>(cfgs[b3cpu]));
    pb.gateway = std::make_unique<verify::EngineGateway>(cfgs[b3cpu]);
    return pb;
}

struct VerifyPass
{
    double verdict = 0; ///< host seconds until every verdict
    /** Host seconds of each exploration (set-up included). */
    std::vector<double> legs;
    double walk = 0;    ///< host seconds of the random schedules
    double wall = 0;
    std::vector<ExploreResult> por; ///< one per sweep config
    ExploreResult full;             ///< B-3cpu, unreduced
    ExploreResult live;             ///< B-3cpu liveness
    Walks walks;
};

/**
 * One pass. Between its timed legs and schedule chunks it moves to
 * another CPU and offers @p setup (untraced passes only) a set-up
 * sample.
 */
VerifyPass
verifyPass(const std::vector<VerifyConfig> &cfgs, std::uint64_t seed,
           Spans *spans, SetupSampler *setup)
{
    VerifyPass vp;
    auto between = [&] {
        nextCpu();
        if (setup)
            setup->offer([&] { return buildPass(cfgs); });
    };
    const double t0 = hostNow();
    Span pass(spans, "pass");
    {
        Span v(spans, "verify.verdicts");
        // One exploration, timed as one leg of the verdict.
        auto explore = [&](VerifyConfig c, bool por, const char *span) {
            const double l0 = hostNow();
            c.opt.por = por;
            std::unique_ptr<verify::Explorer> ex;
            {
                Span p(spans, "setup.engine");
                ex = std::make_unique<verify::Explorer>(c);
            }
            Span s(spans, span);
            ExploreResult r = ex->explore();
            vp.legs.push_back(hostNow() - l0);
            between();
            return r;
        };
        for (const VerifyConfig &cfg : cfgs)
            vp.por.push_back(explore(cfg, true, "verify.por"));
        vp.full = explore(cfgs[b3cpu], false, "verify.explore");
        const double l0 = hostNow();
        Span s(spans, "verify.liveness");
        vp.live = verify::checkLiveness(cfgs[b3cpu]);
        vp.legs.push_back(hostNow() - l0);
    }
    for (double leg : vp.legs)
        vp.verdict += leg;
    between();
    {
        Phase p(spans, "verify.walks", vp.walk);
        vp.walks = randomWalks(cfgs[b3cpu], seed, spans, between);
    }
    vp.wall = hostNow() - t0;
    return vp;
}

void
checkPass(const std::vector<VerifyConfig> &cfgs, const VerifyPass &vp,
          Outcome &out)
{
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        out.check(clean(vp.por[i]),
                  cfgs[i].name + ": POR exploration not clean");
    out.check(clean(vp.full), "B-3cpu: full exploration not clean");
    out.check(vp.full.settledDigest == vp.por[b3cpu].settledDigest &&
                  vp.full.settledUnique == vp.por[b3cpu].settledUnique,
              "B-3cpu: full and POR settled states disagree");
    out.check(clean(vp.live), "B-3cpu: liveness check not clean");
    const Walks &w = vp.walks;
    out.checkMany(w.refs, w.valueErrors, "walks: value errors");
    out.checkMany(walksPerPass, w.unfinished + w.panics,
                  "walks: schedule did not settle");
    out.check(w.invariantErrors == 0, "walks: invariant violation");
}

bool
sameVerdicts(const VerifyPass &a, const VerifyPass &b)
{
    for (std::size_t i = 0; i < a.por.size(); ++i)
        if (!sameCoverage(a.por[i], b.por[i]))
            return false;
    return sameCoverage(a.full, b.full) &&
           sameCoverage(a.live, b.live) && a.walks == b.walks;
}

} // anonymous namespace

Outcome
runVerify(const RunOptions &opt, Spans *spans)
{
    Outcome out;
    setLogLevel(LogLevel::Silent);
    const std::vector<VerifyConfig> cfgs = sweepConfigs();
    out.note("batch", "POR of 7 sweep configs, full + liveness of "
                      "B-3cpu, " + std::to_string(walksPerPass) +
                          " random B-3cpu schedules");

    std::vector<VerifyPass> passes;
    std::vector<double> untracedWall, tracedWall;
    SetupSampler setup(opt.seconds);
    // Only the first pass's latency samples are reported; dropping
    // the others keeps peak RSS independent of the number of passes.
    auto keep = [&](VerifyPass &&vp) {
        if (!passes.empty()) {
            vp.walks.reads = std::vector<std::uint64_t>();
            vp.walks.writes = std::vector<std::uint64_t>();
        }
        passes.push_back(std::move(vp));
    };
    if (!spans) {
        repeatFor(opt.seconds, 3, [&](unsigned) {
            keep(verifyPass(cfgs, opt.seed, nullptr, &setup));
            checkPass(cfgs, passes.back(), out);
        });
    } else {
        repeatFor(opt.seconds, 1, [&](unsigned) {
            const VerifyPass u =
                verifyPass(cfgs, opt.seed, nullptr, nullptr);
            untracedWall.push_back(u.wall);
            checkPass(cfgs, u, out);
            keep(verifyPass(cfgs, opt.seed, spans, nullptr));
            tracedWall.push_back(passes.back().wall);
            checkPass(cfgs, passes.back(), out);
            out.check(sameVerdicts(u, passes.back()),
                      "traced pass counts differ from untraced");
        });
    }
    for (const VerifyPass &vp : passes)
        out.check(sameVerdicts(vp, passes.front()),
                  "pass results differ across repeats");

    const VerifyPass &f = passes.front();
    const Walks &w = f.walks;
    const auto refs = static_cast<double>(w.refs);
    out.note("samples", std::to_string(passes.size()) + " passes");
    // Seed-independent verdict summary (the self-test compares it
    // across seeds).
    std::string verdicts;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        verdicts += cfgs[i].name + " por " +
            std::to_string(f.por[i].states) +
            (clean(f.por[i]) ? " clean; " : " NOT CLEAN; ");
    verdicts += "B-3cpu full " + std::to_string(f.full.states) +
        (clean(f.full) ? " clean" : " NOT CLEAN") + ", liveness " +
        std::to_string(f.live.states) +
        (clean(f.live) ? " clean" : " NOT CLEAN");
    out.note("verdicts", verdicts);
    out.note("latency_samples", "reads " +
                                    std::to_string(w.reads.size()) +
                                    ", writes " +
                                    std::to_string(w.writes.size()));

    if (!spans) {
        std::vector<std::vector<double>> legs(f.legs.size());
        std::vector<std::vector<double>> walk(w.chunkSecs.size());
        std::vector<double> verdict;
        for (const VerifyPass &vp : passes) {
            for (std::size_t i = 0; i < legs.size(); ++i)
                legs[i].push_back(vp.legs[i]);
            for (std::size_t i = 0; i < walk.size(); ++i)
                walk[i].push_back(vp.walks.chunkSecs[i]);
            verdict.push_back(vp.verdict);
        }
        out.note("pass_verdict_ms", joined(verdict, 1e3));
        out.note("setup_samples", setup.describe());
        out.set("refs_per_s", refs / sumOfFastest(walk));
        out.set("verdict_s", sumOfFastest(legs));
        out.set("setup_s", setup.seconds());
        out.set("peak_rss_mb", peakRssMiB());
        out.set("sim_bits_per_ref", static_cast<double>(w.bits) / refs);
        out.set("sim_msgs_per_ref", static_cast<double>(w.msgs) / refs);
        out.set("sim_ticks_per_ref",
                static_cast<double>(w.actions) / refs);
        out.set("sim_read_p50_ticks", static_cast<double>(w.readP50));
        out.set("sim_read_p99_ticks", static_cast<double>(w.readP99));
        out.set("sim_write_p50_ticks",
                static_cast<double>(w.writeP50));
        out.set("sim_write_p99_ticks",
                static_cast<double>(w.writeP99));
        return out;
    }

    // ---- traced run: per-layer metrics ----
    const double n = static_cast<double>(passes.size());
    out.set("setup.engine_s", spans->totalOf("setup.engine") / n);
    std::uint64_t states = f.full.states + f.live.states;
    for (const ExploreResult &r : f.por)
        states += r.states;
    out.set("verify.states", static_cast<double>(f.full.states));
    out.set("verify.edges", static_cast<double>(f.full.edges));
    out.set("verify.states_per_s",
            static_cast<double>(states) * n /
                spans->totalOf("verify.verdicts"));
    out.set("verify.por_ratio",
            ratio(static_cast<double>(f.full.states),
                  static_cast<double>(f.por[b3cpu].states)));
    out.set("verify.settled_unique",
            static_cast<double>(f.full.settledUnique));
    out.set("verify.max_depth",
            static_cast<double>(f.full.maxDepthReached));
    out.set("verify.explore_s", spans->totalOf("verify.explore") / n);
    out.set("verify.por_s", spans->totalOf("verify.por") / n);
    out.set("verify.liveness_s", spans->totalOf("verify.liveness") / n);
    auto perCall = [&](const char *name) {
        const Spans::Agg a = spans->aggregateOf(name);
        return 1e9 * ratio(a.secs, static_cast<double>(a.calls));
    };
    out.set("verify.reset_ns", perCall("verify.reset"));
    out.set("verify.enabled_ns", perCall("verify.enabled"));
    out.set("verify.apply_ns", perCall("verify.apply"));
    out.set("verify.canon_ns", perCall("verify.canon"));
    out.set("trace.overhead", median(tracedWall) / median(untracedWall));
    return out;
}

} // namespace perfbench
