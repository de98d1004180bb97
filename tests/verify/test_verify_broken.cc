/**
 * @file
 * Model-checker negative test: a deliberately broken engine variant.
 *
 * This binary compiles its own copy of every engine translation
 * unit with MSCP_FAULT_SEAM defined (tests/CMakeLists.txt), which
 * adds a runtime switch (g_faultSeam) that makes a DW-mode owner
 * serving a read forward "forget" to record the reader in its
 * present vector. A later distributed write then skips that copy
 * and the reader observes a stale value. The checker must find
 * this, minimize it, and render a counterexample byte-identical to
 * the checked-in golden file.
 *
 * Compiling the engine sources into this binary (instead of linking
 * libmscp_proto's copy) keeps the production objects seam-free: no
 * archive member is ever pulled because every engine symbol is
 * already defined by the seamed objects. Exploration and
 * minimization are sequential and never consult MSCP_THREADS, so
 * the golden bytes are identical no matter what thread count the
 * surrounding suite runs with.
 *
 * Regenerate the golden after an intentional checker/engine change:
 *   MSCP_UPDATE_GOLDEN=1 ./test_verify_broken
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/trace.hh"
#include "verify/explorer.hh"
#include "verify/liveness.hh"
#include "verify/refine.hh"
#include "verify/state.hh"

namespace mscp::proto
{
/** The seams, defined in concurrent_request.cc when the engine is
 *  compiled with MSCP_FAULT_SEAM. */
extern bool g_faultSeam;
extern bool g_livelockSeam;
} // namespace mscp::proto

using namespace mscp;
using verify::Action;
using verify::Explorer;
using verify::ExploreResult;
using verify::VerifyConfig;

namespace
{

/** RAII for the fault switch (other tests in this binary, if any,
 *  must see a healthy engine). */
class SeamOn
{
  public:
    SeamOn() { proto::g_faultSeam = true; }
    ~SeamOn() { proto::g_faultSeam = false; }
};

/** RAII for the livelock seam: an owner that refuses pointer-bypass
 *  reads it could serve, while the nack path stops counting toward
 *  the home fallback -- request and refusal chase each other
 *  forever without any invariant ever failing. */
class LivelockOn
{
  public:
    LivelockOn() { proto::g_livelockSeam = true; }
    ~LivelockOn() { proto::g_livelockSeam = false; }
};

/** The 2-node acceptance config A (DW): writer cpu0, reader cpu1.
 *  The seam needs a read forward between two writes -- exactly what
 *  interleavings of this program produce. */
VerifyConfig
seamConfig()
{
    VerifyConfig cfg;
    cfg.name = "A-dw-seam";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 1}, {0, 0, true, 2}},
        {{1, 0, false, 0}, {1, 0, false, 0}},
    };
    return cfg;
}

std::string
goldenPath()
{
    return std::string(MSCP_VERIFY_GOLDEN_DIR) +
           "/golden_counterexample.txt";
}

std::string
livelockGoldenPath()
{
    return std::string(MSCP_VERIFY_GOLDEN_DIR) +
           "/golden_livelock.txt";
}

/** GR config whose pointer-bypass read path the livelock seam can
 *  spin: a writer owns the block, a reader's bypass is refused
 *  forever. */
VerifyConfig
spinConfig()
{
    VerifyConfig cfg;
    cfg.name = "L-gr-spin";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::GlobalRead;
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}, {1, 0, false, 0}},
    };
    return cfg;
}

/** Compare rendered output against a golden file, honouring
 *  MSCP_UPDATE_GOLDEN. */
void
expectGolden(const std::string &path, const std::string &rendered)
{
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
        << "counterexample drifted from the checked-in golden; if "
           "the change is intentional, regenerate with "
           "MSCP_UPDATE_GOLDEN=1";
}

/** Explore the seamed config (full or POR-reduced) and render its
 *  minimized counterexample. */
std::string
findAndRender(bool por = false)
{
    VerifyConfig cfg = seamConfig();
    cfg.opt.por = por;
    Explorer ex(cfg);
    ExploreResult res = ex.explore();
    if (res.violations.empty())
        return {};
    verify::Violation min = ex.minimize(res.violations[0]);
    return Explorer::renderViolation(cfg, res.violations[0], min);
}

} // anonymous namespace

TEST(VerifyBroken, SeamOffStaysClean)
{
    // Same binary, switch off: the seam itself must be inert.
    ExploreResult res = Explorer(seamConfig()).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
}

TEST(VerifyBroken, SeamProducesMinimizedGoldenCounterexample)
{
    SeamOn seam;
    std::string rendered = findAndRender();
    ASSERT_FALSE(rendered.empty())
        << "seamed engine explored clean; the checker lost its "
           "ability to catch a dropped present bit";

    expectGolden(goldenPath(), rendered);
}

TEST(VerifyBroken, CounterexampleIsDeterministic)
{
    SeamOn seam;
    std::string a = findAndRender();
    std::string b = findAndRender();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(VerifyBroken, PorFindsSameMinimalCounterexample)
{
    // The reduction must not cost counterexample quality: POR-on
    // and POR-off exploration of the seamed config delta-debug to
    // the identical minimal trace.
    SeamOn seam;
    for (bool por : {false, true}) {
        VerifyConfig cfg = seamConfig();
        cfg.opt.por = por;
        Explorer ex(cfg);
        ExploreResult res = ex.explore();
        ASSERT_FALSE(res.violations.empty()) << "por=" << por;
        verify::Violation min = ex.minimize(res.violations[0]);
        // Render the minimal trace alone (the pre-minimization
        // step counts legitimately differ between the two
        // explorations) and hold both against the same golden.
        expectGolden(std::string(MSCP_VERIFY_GOLDEN_DIR) +
                         "/golden_counterexample_min.txt",
                     Explorer::renderViolation(cfg, min, min));
    }
}

TEST(VerifyBroken, LivelockSeamCaughtUnderWeakFairness)
{
    // Seam off: the spin config terminates, liveness is clean.
    ExploreResult clean = verify::checkLiveness(spinConfig());
    EXPECT_TRUE(clean.complete);
    EXPECT_TRUE(clean.violations.empty());

    // Seam on: every action in the refusal cycle stays enabled or
    // is taken infinitely often, so the cycle is weakly fair and
    // the checker must flag it -- no invariant ever fails on it.
    LivelockOn seam;
    VerifyConfig cfg = spinConfig();
    ExploreResult res = verify::checkLiveness(cfg);
    ASSERT_FALSE(res.violations.empty())
        << "liveness checker missed the seeded livelock";
    const verify::Violation &v = res.violations[0];
    EXPECT_EQ(v.kind, "livelock");
    EXPECT_FALSE(v.cycle.empty());

    // The lasso minimizes deterministically and matches the
    // checked-in golden rendering (cycle block included).
    verify::Violation m1 = verify::minimizeLasso(cfg, v);
    verify::Violation m2 = verify::minimizeLasso(cfg, v);
    std::string r1 = Explorer::renderViolation(cfg, v, m1);
    std::string r2 = Explorer::renderViolation(cfg, v, m2);
    EXPECT_EQ(r1, r2);
    EXPECT_NE(r1.find("repeating forever"), std::string::npos);
    expectGolden(livelockGoldenPath(), r1);
}

TEST(VerifyBroken, LivelockLassoExportsChromeTrace)
{
    LivelockOn seam;
    VerifyConfig cfg = spinConfig();
    ExploreResult res = verify::checkLiveness(cfg);
    ASSERT_FALSE(res.violations.empty());
    verify::Violation min =
        verify::minimizeLasso(cfg, res.violations[0]);

    // The lasso replays through the same Chrome-trace pipeline as
    // a safety counterexample: prefix followed by one unrolling of
    // the cycle.
    std::vector<Action> lasso = min.path;
    lasso.insert(lasso.end(), min.cycle.begin(), min.cycle.end());
    std::ostringstream os;
    Explorer::exportTrace(cfg, lasso, os);
    std::string json = os.str();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    if (traceCompiledIn()) {
        EXPECT_NE(json.find("verify_action"), std::string::npos);
    }
}

TEST(VerifyBroken, StaleValueSeamFailsRefinement)
{
    // The same seam the safety checker catches via I4 also breaks
    // trace inclusion: the reader observes a value the atomic
    // -register spec cannot produce at that point.
    SeamOn seam;
    ExploreResult res = verify::checkRefinement(seamConfig());
    ASSERT_FALSE(res.violations.empty())
        << "refinement checker accepted a stale-read engine";
    EXPECT_EQ(res.violations[0].kind, "refine");
}

TEST(VerifyBroken, CounterexampleReplaysIntoChromeTrace)
{
    SeamOn seam;
    VerifyConfig cfg = seamConfig();
    Explorer ex(cfg);
    ExploreResult res = ex.explore();
    ASSERT_FALSE(res.violations.empty());
    verify::Violation min = ex.minimize(res.violations[0]);

    std::ostringstream os;
    Explorer::exportTrace(cfg, min.path, os);
    std::string json = os.str();
    // Always a syntactically complete trace_event array; the replay
    // markers only exist when tracing is compiled in.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    if (traceCompiledIn()) {
        EXPECT_NE(json.find("verify_action"), std::string::npos);
        EXPECT_NE(json.find("\"ph\""), std::string::npos);
    }
}
