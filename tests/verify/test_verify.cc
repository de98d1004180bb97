/**
 * @file
 * Model-checker tests over the healthy engine: the acceptance
 * configs must exhaust (or stay within budget) with zero
 * violations, exploration must be deterministic, symmetry
 * reduction must shrink the state count without changing the
 * verdict, and replay must reproduce states exactly. Keying a state
 * (canonical bytes plus their hash, for the explorers and for the
 * refinement checker) and saving or restoring one must allocate
 * nothing once warm, and the state hash is pinned on known answers. The two known
 * defects (ROADMAP items 1 and 2) are pinned as minimized golden
 * counterexamples.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include "verify/canon.hh"
#include "verify/explorer.hh"
#include "verify/liveness.hh"
#include "verify/refine.hh"
#include "verify/state.hh"

using namespace mscp;
using verify::Action;
using verify::ActionKind;
using verify::EngineGateway;
using verify::Explorer;
using verify::ExploreResult;
using verify::VerifyConfig;

// Every allocation in this binary goes through this counter, so a
// test can assert that a stretch of checker work allocated nothing.
// The replacements stay out of line: inlined into a container's
// destructor, their free() would meet a pointer GCC knows came from
// operator new, and -Wmismatched-new-delete would fire.
namespace
{
std::size_t allocations = 0;
} // anonymous namespace

[[gnu::noinline]] void *
operator new(std::size_t sz)
{
    ++allocations;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

/** 2-node, 1-block, 2-ops-per-cpu acceptance config. */
VerifyConfig
smallConfig(cache::Mode mode)
{
    VerifyConfig cfg;
    cfg.name = mode == cache::Mode::DistributedWrite ? "A-dw"
                                                     : "A-gr";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = mode;
    cfg.program = {
        {{0, 0, true, 1}, {0, 0, true, 2}},
        {{1, 0, false, 0}, {1, 0, false, 0}},
    };
    return cfg;
}

} // anonymous namespace

TEST(Verify, ExhaustiveCleanDistributedWrite)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    Explorer ex(cfg);
    ExploreResult res = ex.explore();
    if (!res.violations.empty()) {
        ADD_FAILURE() << Explorer::renderViolation(
            cfg, res.violations[0], res.violations[0]);
    }
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.states, 10u);
    EXPECT_GT(res.settledStates, 0u);
}

TEST(Verify, ExhaustiveCleanGlobalRead)
{
    Explorer ex(smallConfig(cache::Mode::GlobalRead));
    ExploreResult res = ex.explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.states, 10u);
    EXPECT_GT(res.settledStates, 0u);
}

TEST(Verify, ExplorationIsDeterministic)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    ExploreResult a = Explorer(cfg).explore();
    ExploreResult b = Explorer(cfg).explore();
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.prunedSeen, b.prunedSeen);
    EXPECT_EQ(a.settledStates, b.settledStates);
    EXPECT_EQ(a.maxDepthReached, b.maxDepthReached);
}

TEST(Verify, SymmetryShrinksWithoutChangingVerdict)
{
    VerifyConfig sym = smallConfig(cache::Mode::DistributedWrite);
    VerifyConfig nosym = sym;
    nosym.opt.symmetry = false;

    EXPECT_TRUE(EngineGateway(sym).symmetryEligible());

    ExploreResult rs = Explorer(sym).explore();
    ExploreResult rn = Explorer(nosym).explore();
    EXPECT_TRUE(rs.violations.empty());
    EXPECT_TRUE(rn.violations.empty());
    EXPECT_TRUE(rs.complete);
    EXPECT_TRUE(rn.complete);
    // The programs are asymmetric, so the reduction cannot merge
    // everything, but it must never grow the state space.
    EXPECT_LE(rs.states, rn.states);
}

TEST(Verify, EvictionConfigDisablesSymmetry)
{
    // Two blocks contending for a single direct-mapped set force
    // evictions; candidate-list formation is not permutation
    // -equivariant, so the gateway must refuse the reduction.
    VerifyConfig cfg;
    cfg.name = "evict";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 1}, {0, 1, true, 2}, {0, 0, false, 0}},
        {{1, 1, false, 0}},
    };
    EngineGateway gw(cfg);
    EXPECT_FALSE(gw.symmetryEligible());

    ExploreResult res = Explorer(cfg).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
}

TEST(Verify, TimeoutRetryConfigStaysClean)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    cfg.name = "timeout";
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}},
    };
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    ExploreResult res = Explorer(cfg).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_FALSE(res.budgetExhausted);
}

TEST(Verify, CrashConfigStaysClean)
{
    // One budgeted crash with the timeout/suspicion machinery on.
    // The suspect-retry loop makes the full space unbounded, so
    // this explores under depth and state budgets.
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    cfg.name = "crash";
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}},
    };
    cfg.opt.crashBudget = 1;
    cfg.opt.allowRejoin = false;
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    cfg.opt.maxDepth = 40;
    cfg.opt.maxStates = 30000;
    ExploreResult res = Explorer(cfg).explore();
    if (!res.violations.empty()) {
        ADD_FAILURE() << Explorer::renderViolation(
            cfg, res.violations[0], res.violations[0]);
    }
}

namespace
{

/** The sweep's 3-active-cpu acceptance config: two writers on
 *  different blocks, a cross-reader between them, one set so the
 *  blocks contend for the same frame. Previously budget-capped at
 *  20000 states; POR exhausts it. */
VerifyConfig
threeCpuConfig()
{
    VerifyConfig cfg;
    cfg.name = "B-3cpu";
    cfg.nodes = 4; // omega network needs a power of two; cpu3 idle
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 7}, {0, 0, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0},
         {1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 1, true, 9}, {2, 1, true, 10}},
    };
    cfg.opt.maxStates = 1u << 20;
    return cfg;
}

/** verify_sweep's seven configurations, in its row order. */
std::vector<VerifyConfig>
sweepConfigs()
{
    // GR over two blocks in one-entry caches, so evictions,
    // hand-offs and owner announcements run.
    VerifyConfig gr = threeCpuConfig();
    gr.name = "B-gr2blk";
    gr.mode = cache::Mode::GlobalRead;
    gr.program = {
        {{0, 0, true, 7}, {0, 1, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 0, false, 0}, {2, 1, false, 0}},
    };
    VerifyConfig evict = smallConfig(cache::Mode::DistributedWrite);
    evict.name = "C-evict";
    evict.program = {
        {{0, 0, true, 1}, {0, 1, true, 2}, {0, 0, false, 0}},
        {{1, 1, false, 0}},
    };
    VerifyConfig timeout = smallConfig(cache::Mode::DistributedWrite);
    timeout.name = "D-timeout";
    timeout.program = {{{0, 0, true, 1}}, {{1, 0, false, 0}}};
    timeout.opt.timeoutBase = 1;
    timeout.opt.maxRetries = 1;
    // Timeouts, suspicion and one crash.
    VerifyConfig crash = timeout;
    crash.name = "E-crash";
    crash.opt.crashBudget = 1;
    crash.opt.allowRejoin = false;
    crash.opt.dedupResends = true;
    return {smallConfig(cache::Mode::DistributedWrite),
            smallConfig(cache::Mode::GlobalRead),
            threeCpuConfig(),
            gr,
            evict,
            timeout,
            crash};
}

/** The crash-rejoin defect's config (ROADMAP item 1): one block,
 *  GR, a budgeted crash with cold rejoin. */
VerifyConfig
crashRejoinConfig()
{
    VerifyConfig cfg;
    cfg.name = "F-crash-rejoin";
    cfg.nodes = 4;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::GlobalRead;
    cfg.program = {
        {{0, 0, true, 1}, {0, 0, false, 0}},
        {{1, 0, false, 0}, {1, 0, true, 2}},
        {{2, 0, false, 0}},
    };
    cfg.opt.crashBudget = 1;
    cfg.opt.allowRejoin = true;
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    cfg.opt.dedupResends = true;
    return cfg;
}

/** The two-writer false positive's config (ROADMAP item 2). */
VerifyConfig
twoWritersConfig()
{
    VerifyConfig cfg;
    cfg.name = "G-two-writers";
    cfg.nodes = 4;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::GlobalRead;
    cfg.program = {
        {{0, 0, true, 7}, {0, 1, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 0, false, 0}, {2, 1, true, 9}},
    };
    return cfg;
}

/** The sweep's configurations plus the two defect configurations,
 *  which reach rejoin and eviction hand-offs the sweep does not. */
std::vector<VerifyConfig>
snapshotConfigs()
{
    std::vector<VerifyConfig> cfgs = sweepConfigs();
    cfgs.push_back(crashRejoinConfig());
    cfgs.push_back(twoWritersConfig());
    return cfgs;
}

/** Apply @p a; false if the engine panicked. */
bool
applies(EngineGateway &gw, const Action &a)
{
    try {
        gw.apply(a);
        return true;
    } catch (const PanicError &) {
        return false;
    }
}

} // anonymous namespace

TEST(Verify, PorExhaustsThreeCpuConfig)
{
    // The headline POR win: this config overran its former 20000
    // -state budget unreduced (the sweep audits full-vs-reduced and
    // records >= 5x in tests/verify/sweep_baseline.json); reduced,
    // it exhausts well under that budget.
    VerifyConfig cfg = threeCpuConfig();
    cfg.opt.por = true;
    ExploreResult res = Explorer(cfg).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.states, 1000u);
    EXPECT_LT(res.states, 20000u);
}

TEST(Verify, PorAuditMatchesFullExploration)
{
    // The self-check verify_sweep's audit column runs on every
    // config: the reduced exploration must reach the same verdict
    // and the same settled-state invariant coverage as the full
    // one. A lighter two-set 3-cpu variant keeps the full leg fast.
    std::vector<VerifyConfig> cfgs;
    cfgs.push_back(smallConfig(cache::Mode::DistributedWrite));
    cfgs.push_back(smallConfig(cache::Mode::GlobalRead));
    VerifyConfig b = threeCpuConfig();
    b.name = "B-3cpu-2set";
    b.geometry = cache::Geometry{1, 1, 2};
    cfgs.push_back(b);

    for (const VerifyConfig &base : cfgs) {
        VerifyConfig full = base;
        full.opt.por = false;
        VerifyConfig red = base;
        red.opt.por = true;
        ExploreResult rf = Explorer(full).explore();
        ExploreResult rr = Explorer(red).explore();
        EXPECT_EQ(rf.complete, rr.complete) << base.name;
        EXPECT_EQ(rf.violations.empty(), rr.violations.empty())
            << base.name;
        EXPECT_EQ(rf.settledUnique, rr.settledUnique) << base.name;
        EXPECT_EQ(rf.settledDigest, rr.settledDigest) << base.name;
        EXPECT_LE(rr.states, rf.states) << base.name;
    }
}

TEST(Verify, LivenessCleanOnHealthyConfigs)
{
    // "Every issued operation eventually completes" under weak
    // fairness: the healthy engine must have no fair accepting
    // cycle on any exhaustible config.
    std::vector<VerifyConfig> cfgs;
    cfgs.push_back(smallConfig(cache::Mode::DistributedWrite));
    cfgs.push_back(smallConfig(cache::Mode::GlobalRead));
    VerifyConfig t = smallConfig(cache::Mode::DistributedWrite);
    t.name = "timeout";
    t.program = {{{0, 0, true, 1}}, {{1, 0, false, 0}}};
    t.opt.timeoutBase = 1;
    t.opt.maxRetries = 1;
    cfgs.push_back(t);

    for (const VerifyConfig &cfg : cfgs) {
        ExploreResult res = verify::checkLiveness(cfg);
        EXPECT_TRUE(res.complete) << cfg.name;
        if (!res.violations.empty()) {
            ADD_FAILURE() << cfg.name << ":\n"
                          << Explorer::renderViolation(
                                 cfg, res.violations[0],
                                 res.violations[0]);
        }
    }
}

TEST(Verify, RefinementHoldsOnAcceptanceConfigs)
{
    // Trace inclusion in the atomic-register spec == the engine's
    // observable reads/writes are linearizable, in both modes.
    for (cache::Mode mode : {cache::Mode::DistributedWrite,
                             cache::Mode::GlobalRead}) {
        VerifyConfig cfg = smallConfig(mode);
        ExploreResult res = verify::checkRefinement(cfg);
        EXPECT_TRUE(res.complete) << cfg.name;
        EXPECT_TRUE(res.violations.empty()) << cfg.name;
    }
}

TEST(Verify, RefinementHoldsWithTwoWriters)
{
    // Two writers racing on one block: the single-value completion
    // monitor cannot judge these runs (completion order differs
    // from linearization order), but the refinement checker can --
    // and the engine must pass it.
    VerifyConfig cfg;
    cfg.name = "W2-dw";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, true, 2}, {1, 0, false, 0}},
    };
    ExploreResult dw = verify::checkRefinement(cfg);
    EXPECT_TRUE(dw.complete);
    EXPECT_TRUE(dw.violations.empty());

    cfg.name = "W2-gr";
    cfg.mode = cache::Mode::GlobalRead;
    ExploreResult gr = verify::checkRefinement(cfg);
    EXPECT_TRUE(gr.complete);
    EXPECT_TRUE(gr.violations.empty());
}

TEST(Verify, CrashConfigExhaustsWithResendDedup)
{
    // The sweep's E-crash row: folding exact-duplicate resends
    // bounds the retry storm, so one budgeted crash explores to
    // closure (previously capped at depth 40 / 30000 states).
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    cfg.name = "E-crash";
    cfg.program = {{{0, 0, true, 1}}, {{1, 0, false, 0}}};
    cfg.opt.crashBudget = 1;
    cfg.opt.allowRejoin = false;
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    cfg.opt.dedupResends = true;
    cfg.opt.por = true;
    ExploreResult res = Explorer(cfg).explore();
    if (!res.violations.empty()) {
        ADD_FAILURE() << Explorer::renderViolation(
            cfg, res.violations[0], res.violations[0]);
    }
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.budgetExhausted);
}

TEST(Verify, ReplayReproducesCanonicalState)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    EngineGateway gw(cfg);

    // Drive a fixed deterministic prefix: always the first enabled
    // action.
    std::vector<Action> taken;
    for (int i = 0; i < 6; ++i) {
        auto acts = gw.enabledActions();
        if (acts.empty())
            break;
        gw.apply(acts[0]);
        taken.push_back(acts[0]);
    }
    auto bytes = gw.canonical();

    EngineGateway replay(cfg);
    for (const Action &a : taken)
        ASSERT_TRUE(replay.applyIfEnabled(a));
    EXPECT_EQ(bytes, replay.canonical());
}

TEST(Verify, ActionEnumerationIsStable)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    EngineGateway gw(cfg);
    auto a = gw.enabledActions();
    auto b = gw.enabledActions();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].fp, b[i].fp);
    }
    // Initially only the two Issue actions are enabled.
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].kind, ActionKind::Issue);
    EXPECT_EQ(a[1].kind, ActionKind::Issue);
}

TEST(Verify, ApplyStartsAFreshObservationLog)
{
    EngineGateway gw(smallConfig(cache::Mode::DistributedWrite));
    gw.apply(gw.enabledActions().at(0)); // cpu0 issues its write
    Action issue1 = gw.enabledActions().at(0);
    ASSERT_EQ(issue1.kind, ActionKind::Issue);
    ASSERT_EQ(issue1.node, 1u);
    gw.apply(issue1); // without draining cpu0's invoke

    std::vector<verify::ObsEvent> obs = gw.takeObservations();
    ASSERT_EQ(obs.size(), 1u);
    EXPECT_EQ(obs[0].cpu, 1u);
    EXPECT_TRUE(obs[0].invoke);
    EXPECT_FALSE(obs[0].isWrite);
}

TEST(Verify, CanonicalDropsAbsoluteTime)
{
    // Two engines reaching the same protocol state along action
    // sequences of different length (extra enumeration-only churn
    // is impossible, so compare a state to itself after a reset
    // plus replay -- ticks differ, canonical bytes must not).
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    EngineGateway gw(cfg);
    auto first = gw.canonical();
    gw.reset();
    EXPECT_EQ(first, gw.canonical());
}

// ---------------------------------------------------------------
// Golden schedule digest: seeded random schedules through the
// gateway, hashing the canonical state after every action. The
// canonical form carries every field of every pending message and
// every retained request, so an engine refactor that changes any
// sent field -- even one no handler reads -- changes the digest.
//
// Regenerate after an intentional engine or canonicalizer change:
//   MSCP_UPDATE_GOLDEN=1 ./test_verify
// ---------------------------------------------------------------

namespace
{

/** Digest of @p schedules random walks of at most @p max_steps
 *  actions each (splitmix64 choices, FNV-1a over canonical bytes). */
std::string
scheduleDigest(const VerifyConfig &cfg, unsigned schedules,
               unsigned max_steps)
{
    EngineGateway gw(cfg);
    std::uint64_t mix = 0x5eed;
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t actions = 0;
    for (unsigned s = 0; s < schedules; ++s) {
        gw.reset();
        for (unsigned step = 0; step < max_steps; ++step) {
            std::vector<Action> acts = gw.enabledActions();
            if (acts.empty())
                break;
            std::uint64_t z = mix += 0x9e3779b97f4a7c15ull;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            gw.apply(acts[z % acts.size()]);
            ++actions;
            for (std::uint8_t b : gw.canonical()) {
                h ^= b;
                h *= 0x100000001b3ull;
            }
        }
    }
    std::ostringstream os;
    os << cfg.name << " actions=" << actions << " fnv1a=0x" << std::hex
       << h << "\n";
    return os.str();
}

/** Byte-compare @p rendered with golden file @p file, honouring
 *  MSCP_UPDATE_GOLDEN. */
void
expectGolden(const char *file, const std::string &rendered)
{
    const std::string path =
        std::string(MSCP_VERIFY_GOLDEN_DIR) + "/" + file;
    if (std::getenv("MSCP_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        out << rendered;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with MSCP_UPDATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), rendered)
        << file << " drifted from the checked-in golden; if the "
           "change is intentional, regenerate with "
           "MSCP_UPDATE_GOLDEN=1";
}

/** Explore @p cfg with POR and render its first violation,
 *  minimized; empty if it explores clean. */
std::string
minimizedCounterexample(VerifyConfig cfg)
{
    cfg.opt.por = true;
    Explorer ex(cfg);
    ExploreResult res = ex.explore();
    if (res.violations.empty())
        return {};
    return Explorer::renderViolation(cfg, res.violations[0],
                                     ex.minimize(res.violations[0]));
}

} // anonymous namespace

TEST(Verify, RandomSchedulesMatchGoldenDigest)
{
    // The digest was recorded over five of the sweep's configs.
    std::string rendered;
    for (const VerifyConfig &cfg : sweepConfigs())
        if (cfg.name != "C-evict" && cfg.name != "D-timeout")
            rendered += scheduleDigest(cfg, 300, 80);
    expectGolden("golden_schedule_digest.txt", rendered);
}

// ---------------------------------------------------------------
// Snapshot restore against replay: the DFS loops restore states by
// copying them back, so a restored gateway must be indistinguishable
// from one that reached the same state by replaying its path.
// ---------------------------------------------------------------

namespace
{

/** Compare everything the gateway exposes about its state. */
void
expectSameState(const EngineGateway &got, const EngineGateway &want,
                const std::string &where)
{
    SCOPED_TRACE(where);
    EXPECT_TRUE(got.canonical() == want.canonical());
    const std::vector<Action> ga = got.enabledActions();
    const std::vector<Action> wa = want.enabledActions();
    ASSERT_EQ(ga.size(), wa.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
        EXPECT_EQ(ga[i].kind, wa[i].kind);
        EXPECT_EQ(ga[i].node, wa[i].node);
        EXPECT_EQ(ga[i].index, wa[i].index);
        EXPECT_EQ(ga[i].fp, wa[i].fp);
    }
    EXPECT_EQ(got.settled(), want.settled());
    EXPECT_EQ(got.refsOutstanding(), want.refsOutstanding());
    EXPECT_EQ(got.valueErrors(), want.valueErrors());
    EXPECT_EQ(got.pendingSamples(), want.pendingSamples());
    EXPECT_TRUE(got.engine().counters() == want.engine().counters());
    EXPECT_EQ(got.engine().messageCounters().count,
              want.engine().messageCounters().count);
    EXPECT_EQ(got.engine().messageCounters().bits,
              want.engine().messageCounters().bits);
    EXPECT_EQ(got.engine().curTick(), want.engine().curTick());
}

} // anonymous namespace

TEST(Verify, SnapshotRestoreMatchesFreshReplay)
{
    // Seeded random walks. At every step the walking gateway saves
    // the state into its depth's slot, wanders up to three random
    // actions away and restores; a new gateway replays the walk's
    // prefix and must agree, first in the restored state and then
    // after the same wander on both (catching state the canonical
    // form drops but later actions read). Slots are reused across
    // walks, and each walk starts from reset(). The defect configs
    // reach cold rejoin, the crash-recovery tables and eviction
    // hand-offs. An action that panics ends the wander or the walk,
    // and the replaying gateway must panic on it too.
    std::uint64_t rng = 0x5a4e;
    auto next = [&rng](std::size_t n) {
        std::uint64_t z = rng += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>((z ^ (z >> 31)) % n);
    };
    for (const VerifyConfig &cfg : snapshotConfigs()) {
        EngineGateway gw(cfg);
        for (unsigned walk = 0; walk < 12; ++walk) {
            gw.reset();
            std::vector<Action> prefix;
            for (unsigned step = 0; step < 60; ++step) {
                std::vector<Action> acts = gw.enabledActions();
                if (acts.empty())
                    break;
                gw.save(prefix.size());
                std::vector<Action> wander;
                for (unsigned k = 0; k < 3; ++k) {
                    std::vector<Action> here = gw.enabledActions();
                    if (here.empty())
                        break;
                    wander.push_back(here[next(here.size())]);
                    if (!applies(gw, wander.back()))
                        break;
                }
                gw.restore(prefix.size());

                EngineGateway fresh(cfg);
                for (const Action &a : prefix)
                    fresh.apply(a);
                const std::string where =
                    cfg.name + " walk " + std::to_string(walk) +
                    " step " + std::to_string(step);
                expectSameState(gw, fresh, where + " restored");
                for (std::size_t k = 0; k < wander.size(); ++k) {
                    const bool ok = applies(gw, wander[k]);
                    ASSERT_EQ(applies(fresh, wander[k]), ok)
                        << where << " wander " << k;
                    if (!ok)
                        break;
                    expectSameState(gw, fresh,
                                    where + " wander " +
                                        std::to_string(k));
                }
                if (HasFailure())
                    return;

                gw.restore(prefix.size());
                prefix.push_back(acts[next(acts.size())]);
                if (!applies(gw, prefix.back())) {
                    EngineGateway replay(cfg);
                    for (std::size_t i = 0; i + 1 < prefix.size(); ++i)
                        replay.apply(prefix[i]);
                    EXPECT_FALSE(applies(replay, prefix.back()))
                        << where << ": only the restored gateway "
                                    "panicked";
                    break;
                }
            }
        }
    }
}

TEST(Verify, SaveRestoreAllocatesNothingOnceWarm)
{
    // The DFS saves a state per frame and restores it per sibling
    // action. A snapshot is a few flat arrays, so once a warm-up walk
    // has sized the slot and the engine, copying a state either way
    // must allocate nothing.
    std::uint64_t rng = 0x5afe;
    auto next = [&rng](std::size_t n) {
        std::uint64_t z = rng += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>((z ^ (z >> 31)) % n);
    };
    for (const VerifyConfig &cfg : snapshotConfigs()) {
        EngineGateway gw(cfg);
        std::uint64_t copies = 0;
        for (unsigned walk = 0; walk <= 20; ++walk) {
            gw.reset();
            for (unsigned step = 0; step < 200; ++step) {
                const std::size_t before = allocations;
                gw.save(0);
                gw.restore(0);
                const std::size_t spent = allocations - before;
                if (walk > 0) {
                    EXPECT_EQ(spent, 0u) << cfg.name << " walk " << walk
                                         << " step " << step;
                    ++copies;
                }
                std::vector<Action> acts = gw.enabledActions();
                if (acts.empty() || !applies(gw, acts[next(acts.size())]))
                    break;
            }
            if (HasFailure())
                return;
        }
        EXPECT_GT(copies, 100u) << cfg.name;
    }
}

// ---------------------------------------------------------------
// The state key every DFS computes per edge: canonical() serializes
// into storage its gateway owns, and hashBytes reads it in place.
// ---------------------------------------------------------------

TEST(Verify, CanonicalAllocatesNothingOnceWarm)
{
    // One warm-up walk per config grows the gateway's scratch; after
    // that, keying a state along seeded random walks must allocate
    // nothing, under symmetry reduction too (its permutations
    // serialize into a second buffer).
    std::uint64_t rng = 0xca9;
    auto next = [&rng](std::size_t n) {
        std::uint64_t z = rng += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>((z ^ (z >> 31)) % n);
    };
    const std::set<std::string> symmetric = {"A-dw", "A-gr", "D-timeout",
                                             "E-crash"};
    for (const VerifyConfig &cfg : sweepConfigs()) {
        EngineGateway gw(cfg);
        EXPECT_EQ(gw.symmetryEligible(), symmetric.count(cfg.name) > 0)
            << cfg.name;
        std::uint64_t keyed = 0;
        for (unsigned walk = 0; walk <= 20; ++walk) {
            gw.reset();
            for (unsigned step = 0; step < 200; ++step) {
                const std::size_t before = allocations;
                const verify::Hash128 h = verify::hashBytes(gw.canonical());
                const std::size_t spent = allocations - before;
                if (walk > 0) {
                    EXPECT_EQ(spent, 0u) << cfg.name << " walk " << walk
                                         << " step " << step;
                    ++keyed;
                }
                EXPECT_FALSE(h.lo == 0 && h.hi == 0);
                std::vector<Action> acts = gw.enabledActions();
                if (acts.empty())
                    break;
                gw.apply(acts[next(acts.size())]);
            }
            if (HasFailure())
                return;
        }
        EXPECT_GT(keyed, 100u) << cfg.name;
    }

    // The refinement DFS keys each state by its subject's bytes
    // (canonical form plus pending read samples), which the subject
    // keeps in storage of its own.
    for (cache::Mode mode : {cache::Mode::DistributedWrite,
                             cache::Mode::GlobalRead}) {
        verify::GatewaySubject subj(smallConfig(mode));
        std::uint64_t keyed = 0;
        for (unsigned walk = 0; walk <= 20; ++walk) {
            subj.reset();
            for (unsigned step = 0; step < 200; ++step) {
                const std::size_t before = allocations;
                const verify::Hash128 h = verify::hashBytes(subj.stateBytes());
                const std::size_t spent = allocations - before;
                if (walk > 0) {
                    EXPECT_EQ(spent, 0u) << "refine " << walk << " step "
                                         << step;
                    ++keyed;
                }
                EXPECT_FALSE(h.lo == 0 && h.hi == 0);
                std::vector<Action> acts = subj.enabledActions();
                if (acts.empty())
                    break;
                subj.apply(acts[next(acts.size())]);
            }
            if (HasFailure())
                return;
        }
        EXPECT_GT(keyed, 20u);
    }
}

namespace
{

/** @p hex as bytes. */
std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

/** B-3cpu's canonical state after ten last-enabled actions: 545
 *  bytes (68 words and a one-byte tail). */
const char *const b3cpuStateHex =
    "0000000000000200000001000000000000000007000000000000000100000000"
    "0000000008000000000000000000000000000000000000000003000000000100"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0100000000000000000000000000000000000001000000000000000000000002"
    "00ffffffff040000000001000001000000000000000000000000000000000000"
    "000000000000000000000100000001000000000000000201ffffffff04000000"
    "0000010001000000000000000a00000000000000000000000000000000000000"
    "0000000000010100000000000000ffffffff00000000000000ffffffff000000"
    "0000000000000000000000000000000000000000000100000000000000000000"
    "00000000000000000000000000000000000000000000ffffffff000000000000"
    "0002000000000000000000000000000000000000000000000000000000000000"
    "0000000000010000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000010a00000000000000000000000100000019000101000000000000000000"
    "0000000000000000000001000000000000000000000000000000000000000100"
    "000000000000010000ffffffff00000000000000000000000005000000000000"
    "00";

} // anonymous namespace

TEST(Verify, StateHashKnownAnswers)
{
    // Pinned digests: a change to hashBytes moves the seen-set keys
    // and verify_sweep's settled_digest, so it must be deliberate.
    struct Kat
    {
        std::uint64_t lo, hi;
    };
    // Inputs 1, 2, ..., len for len = 0..17: empty, every tail
    // length, one and two whole words.
    const Kat prefixes[] = {
        {0xa4d656a01bd817c6ull, 0x9a825437f13f443cull}, // 0
        {0x319da4f168d38765ull, 0xe3bba9bd2d027c9full}, // 1
        {0x5341db0bd1e82f7eull, 0xd32784e043033ec9ull}, // 2
        {0x96ad4fa8e8230dfeull, 0x56771d92e5861009ull}, // 3
        {0x6ae594960d50b8baull, 0xa1cffaa1493f5106ull}, // 4
        {0x07ab70ebe9965c8aull, 0xcb5d9a925420c700ull}, // 5
        {0x474554b2eb34ce26ull, 0xf7cd17ad57d9ba68ull}, // 6
        {0x6ba56b1a2743ccd7ull, 0x26e0ecdaba0993b3ull}, // 7
        {0xfdf983bd6c5e88bbull, 0x10fced59527036c2ull}, // 8
        {0xb4087e01a852cce8ull, 0xcab4f40ec084d100ull}, // 9
        {0xb7accc427ddfbbdaull, 0x59594abc33a6b192ull}, // 10
        {0xb3f19fc8b5a48dd8ull, 0x3d850f63b13ee44aull}, // 11
        {0x95af0c225504cfeaull, 0xa56ce9748e94b01full}, // 12
        {0x43675af491f416b7ull, 0x8ff1f2034f9952f1ull}, // 13
        {0x788f506cb8b23f6eull, 0x1f734453405fe5aaull}, // 14
        {0xa6dc48ae6a7dce14ull, 0xe35d5f87e1c16b8cull}, // 15
        {0x6a043dc67aa17b0full, 0x6c3653f33065f3f3ull}, // 16
        {0x3585344a1e552fbaull, 0x1b96db64fe5782feull}, // 17
    };
    std::vector<std::vector<std::uint8_t>> inputs;
    for (std::size_t len = 0; len < std::size(prefixes); ++len) {
        std::vector<std::uint8_t> in;
        for (std::size_t k = 0; k < len; ++k)
            in.push_back(static_cast<std::uint8_t>(k + 1));
        const verify::Hash128 h = verify::hashBytes(in);
        EXPECT_EQ(h.lo, prefixes[len].lo) << "length " << len;
        EXPECT_EQ(h.hi, prefixes[len].hi) << "length " << len;
        inputs.push_back(std::move(in));
    }
    const std::vector<std::uint8_t> state = fromHex(b3cpuStateHex);
    ASSERT_EQ(state.size(), 545u);
    const verify::Hash128 sh = verify::hashBytes(state);
    EXPECT_EQ(sh.lo, 0xc8a8f3885e792ec4ull);
    EXPECT_EQ(sh.hi, 0x413da7b56ad4a13bull);
    inputs.push_back(state);

    // Every input, the same input with 1..16 trailing zero bytes and
    // every single-bit flip of it hash to distinct values.
    auto key = [](const std::vector<std::uint8_t> &b) {
        const verify::Hash128 h = verify::hashBytes(b);
        return std::make_pair(h.lo, h.hi);
    };
    for (const std::vector<std::uint8_t> &in : inputs) {
        std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
        seen.insert(key(in));
        std::vector<std::uint8_t> padded = in;
        for (unsigned z = 1; z <= 16; ++z) {
            padded.push_back(0);
            EXPECT_TRUE(seen.insert(key(padded)).second)
                << in.size() << " bytes + " << z << " zeros";
        }
        std::vector<std::uint8_t> flipped = in;
        for (std::size_t bit = 0; bit < 8 * in.size(); ++bit) {
            flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            EXPECT_TRUE(seen.insert(key(flipped)).second)
                << in.size() << " bytes, bit " << bit << " flipped";
            flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }
    std::set<std::pair<std::uint64_t, std::uint64_t>> distinct;
    for (const std::vector<std::uint8_t> &in : inputs)
        distinct.insert(key(in));
    EXPECT_EQ(distinct.size(), inputs.size());
}

// ---------------------------------------------------------------
// Known defects, checked in as minimized counterexamples. Each
// golden pins today's violation; the fix replaces the expectation
// with a clean exhaust (an empty rendering).
// ---------------------------------------------------------------

TEST(Verify, CrashRejoinDefectMinimizesToGolden)
{
    // ROADMAP item 1(b): cpu0 hands ownership to cpu1 and sends
    // cpu2 an OwnerAnnounce, then dies before the announce lands;
    // crashNode's scrub drops cpu2's pointer to cpu0, but cpu1's
    // present vector still names cpu2 (I4).
    expectGolden("golden_crash_rejoin_min.txt",
                 minimizedCounterexample(crashRejoinConfig()));
}

TEST(Verify, TwoWriterFalsePositiveMinimizesToGolden)
{
    // ROADMAP item 2: a write still in its Commit window when
    // ownership moves completes after the next owner's write, and
    // I10 takes the last write to complete as the latest one, so it
    // flags a linearizable run.
    expectGolden("golden_two_writers_min.txt",
                 minimizedCounterexample(twoWritersConfig()));
}
