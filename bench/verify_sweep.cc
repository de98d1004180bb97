/**
 * @file
 * Model-checker sweep: exhaust the acceptance configurations and
 * print one coverage row per config, each config analyzed four
 * ways -- full exploration, POR exploration, liveness, refinement.
 *
 * Configs are independent, so they fan out over the thread pool;
 * rows are keyed by config index and printed in order, keeping
 * stdout byte-stable regardless of MSCP_THREADS (the explorer
 * itself is sequential -- parallelism is across configs only).
 *
 * Every config runs both a full and a POR exploration and the two
 * are *audited* against each other: identical verdicts, identical
 * settled-state counts and an identical order-independent digest
 * over the distinct settled states (the invariant-checked
 * coverage). A mismatch is a soundness bug in the reduction and
 * fails the process: the self-check that the ample/sleep-set
 * machinery never trades coverage for speed.
 *
 * Exhaustible configs additionally run the liveness checker
 * (liveness.hh: weakly fair accepting cycles over the full graph)
 * and the 2-node configs run the refinement checker (refine.hh:
 * observable-trace inclusion in the atomic-register spec).
 *
 * A machine-readable per-config coverage summary is written to
 * $MSCP_VERIFY_COVERAGE_OUT when set; tools/check_verify_coverage.py
 * diffs that summary against tests/verify/sweep_baseline.json so a
 * change that silently shrinks coverage (or un-exhausts a config)
 * fails the build. Any violation renders its minimized
 * counterexample to stderr and fails the process: this bench
 * doubles as the CI gate that the healthy engine model-checks
 * clean.
 *
 * The matrix:
 *   A-dw / A-gr  2-node, 1-block, 2-ops-per-cpu, both modes --
 *                exhausted completely, plus liveness + refinement;
 *   B-3cpu       3 active cpus on a 4-port network, two blocks
 *                (writer / cross-reader / writer) -- previously
 *                budget-capped, now exhausted, and the headline
 *                POR reduction demo (>= 5x);
 *   B-gr2blk     the GR-mode variant with two cross-readers; the
 *                widest config (~170k full states, ~30x reduced);
 *   C-evict      two blocks through a 1-way set, forcing evictions
 *                and ownership hand-offs (symmetry auto-disabled);
 *   D-timeout    retry-timer machinery on, timers fire at any
 *                protocol point -- exhausted completely;
 *   E-crash      one budgeted crash with suspicion/recovery on and
 *                resend-dedup folding the retry storms
 *                (VerifyOptions::dedupResends) -- previously under
 *                depth+state budgets, now exhausted.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/pool.hh"
#include "verify/explorer.hh"
#include "verify/liveness.hh"
#include "verify/refine.hh"
#include "verify/state.hh"

using namespace mscp;
using verify::ExploreResult;
using verify::Explorer;
using verify::VerifyConfig;

namespace
{

/** One sweep row: which legs run and everything they produced. */
struct Row
{
    VerifyConfig cfg;
    bool refineLeg = false; ///< run the refinement checker
    ExploreResult full;
    ExploreResult por;
    ExploreResult live;
    ExploreResult refine;
    bool auditOk = false;
    std::string render; ///< first minimized counterexample, if any
};

std::vector<Row>
matrix()
{
    std::vector<Row> rows;

    Row a;
    a.cfg.name = "A-dw";
    a.cfg.nodes = 2;
    a.cfg.geometry = cache::Geometry{1, 1, 1};
    a.cfg.mode = cache::Mode::DistributedWrite;
    a.cfg.program = {
        {{0, 0, true, 1}, {0, 0, true, 2}},
        {{1, 0, false, 0}, {1, 0, false, 0}},
    };
    a.refineLeg = true;
    rows.push_back(a);

    Row ag = a;
    ag.cfg.name = "A-gr";
    ag.cfg.mode = cache::Mode::GlobalRead;
    rows.push_back(ag);

    Row b;
    b.cfg.name = "B-3cpu";
    b.cfg.nodes = 4;
    b.cfg.geometry = cache::Geometry{1, 1, 1};
    b.cfg.mode = cache::Mode::DistributedWrite;
    b.cfg.program = {
        {{0, 0, true, 7}, {0, 0, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0},
         {1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 1, true, 9}, {2, 1, true, 10}},
    };
    b.cfg.opt.maxStates = 1u << 20;
    rows.push_back(b);

    Row bg;
    bg.cfg.name = "B-gr2blk";
    bg.cfg.nodes = 4;
    bg.cfg.geometry = cache::Geometry{1, 1, 1};
    bg.cfg.mode = cache::Mode::GlobalRead;
    bg.cfg.program = {
        {{0, 0, true, 7}, {0, 1, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 0, false, 0}, {2, 1, false, 0}},
    };
    bg.cfg.opt.maxStates = 1u << 20;
    rows.push_back(bg);

    Row c;
    c.cfg.name = "C-evict";
    c.cfg.nodes = 2;
    c.cfg.geometry = cache::Geometry{1, 1, 1};
    c.cfg.mode = cache::Mode::DistributedWrite;
    c.cfg.program = {
        {{0, 0, true, 1}, {0, 1, true, 2}, {0, 0, false, 0}},
        {{1, 1, false, 0}},
    };
    rows.push_back(c);

    Row d;
    d.cfg.name = "D-timeout";
    d.cfg.nodes = 2;
    d.cfg.geometry = cache::Geometry{1, 1, 1};
    d.cfg.mode = cache::Mode::DistributedWrite;
    d.cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}},
    };
    d.cfg.opt.timeoutBase = 1;
    d.cfg.opt.maxRetries = 1;
    rows.push_back(d);

    Row e = d;
    e.cfg.name = "E-crash";
    e.cfg.opt.crashBudget = 1;
    e.cfg.opt.allowRejoin = false;
    e.cfg.opt.dedupResends = true;
    rows.push_back(e);

    return rows;
}

/** Verdict + settled-coverage identity between full and POR runs. */
bool
audit(const ExploreResult &full, const ExploreResult &por)
{
    return full.complete == por.complete &&
           full.violations.empty() == por.violations.empty() &&
           full.settledUnique == por.settledUnique &&
           full.settledDigest == por.settledDigest;
}

void
runRow(Row &row)
{
    VerifyConfig cf = row.cfg;
    cf.opt.por = false;
    Explorer exf(cf);
    row.full = exf.explore();
    if (!row.full.violations.empty()) {
        const auto &v = row.full.violations[0];
        row.render =
            Explorer::renderViolation(cf, v, exf.minimize(v));
    }

    VerifyConfig cp = row.cfg;
    cp.opt.por = true;
    Explorer exp(cp);
    row.por = exp.explore();
    if (row.render.empty() && !row.por.violations.empty()) {
        const auto &v = row.por.violations[0];
        row.render =
            Explorer::renderViolation(cp, v, exp.minimize(v));
    }

    row.auditOk = audit(row.full, row.por);

    if (row.full.complete && row.full.violations.empty()) {
        row.live = verify::checkLiveness(row.cfg);
        if (row.render.empty() && !row.live.violations.empty()) {
            const auto &v = row.live.violations[0];
            row.render = Explorer::renderViolation(
                row.cfg, v, verify::minimizeLasso(row.cfg, v));
        }
    }
    if (row.refineLeg) {
        row.refine = verify::checkRefinement(row.cfg);
        if (row.render.empty() && !row.refine.violations.empty())
            row.render = Explorer::renderViolation(
                row.cfg, row.refine.violations[0],
                row.refine.violations[0]);
    }
}

/** "clean" / "LIVELOCK" / "-" style cell for an optional leg. */
const char *
legCell(const ExploreResult &r, bool ran, const char *bad)
{
    if (!ran)
        return "-";
    if (!r.violations.empty())
        return bad;
    return r.complete ? "clean" : "partial";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    setLogLevel(LogLevel::Silent);

    std::vector<Row> rows = matrix();

    ThreadPool::parallelFor(rows.size(),
                            ThreadPool::defaultThreads(),
                            [&](std::size_t i) {
                                runRow(rows[i]);
                            });

    std::printf("%-10s %9s %9s %6s %8s %6s %9s %8s %7s %s\n",
                "config", "full", "por", "ratio", "settled",
                "depth", "liveness", "refine", "audit", "verdict");
    bool failed = false;
    for (Row &row : rows) {
        const ExploreResult &r = row.full;
        bool liveRan = r.complete && r.violations.empty();
        bool refineRan = row.refineLeg;
        const char *verdict =
            !r.violations.empty() || !row.por.violations.empty()
                ? "VIOLATION"
            : r.complete ? "exhausted"
                         : "budgeted";
        double ratio = row.por.states
                           ? static_cast<double>(r.states) /
                                 static_cast<double>(row.por.states)
                           : 0.0;
        std::printf(
            "%-10s %9llu %9llu %5.2fx %8llu %6u %9s %8s %7s %s\n",
            row.cfg.name.c_str(),
            static_cast<unsigned long long>(r.states),
            static_cast<unsigned long long>(row.por.states), ratio,
            static_cast<unsigned long long>(r.settledUnique),
            r.maxDepthReached,
            legCell(row.live, liveRan, "LIVELOCK"),
            legCell(row.refine, refineRan, "GAP"),
            row.auditOk ? "OK" : "MISMATCH", verdict);
        if (!row.render.empty()) {
            std::fprintf(stderr, "%s", row.render.c_str());
            failed = true;
        }
        if (!row.auditOk) {
            std::fprintf(
                stderr,
                "POR AUDIT MISMATCH on %s: full(complete=%d "
                "settledU=%llu digest=%016llx) != por(complete=%d "
                "settledU=%llu digest=%016llx)\n",
                row.cfg.name.c_str(), row.full.complete ? 1 : 0,
                static_cast<unsigned long long>(
                    row.full.settledUnique),
                static_cast<unsigned long long>(
                    row.full.settledDigest),
                row.por.complete ? 1 : 0,
                static_cast<unsigned long long>(
                    row.por.settledUnique),
                static_cast<unsigned long long>(
                    row.por.settledDigest));
            failed = true;
        }
        if (liveRan && !row.live.violations.empty())
            failed = true;
        if (refineRan && (!row.refine.violations.empty() ||
                          !row.refine.complete))
            failed = true;
    }

    if (const char *out = std::getenv("MSCP_VERIFY_COVERAGE_OUT")) {
        std::ofstream os(out, std::ios::binary);
        os << "{\n  \"configs\": {\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            bool liveRan = row.full.complete &&
                           row.full.violations.empty();
            os << "    \"" << row.cfg.name << "\": {"
               << "\"states_full\": " << row.full.states
               << ", \"states_por\": " << row.por.states
               << ", \"edges_full\": " << row.full.edges
               << ", \"edges_por\": " << row.por.edges
               << ", \"settled_unique\": "
               << row.full.settledUnique
               << ", \"settled_digest\": \""
               << csprintf("%016llx",
                           static_cast<unsigned long long>(
                               row.full.settledDigest))
               << "\""
               << ", \"complete\": "
               << (row.full.complete ? 1 : 0)
               << ", \"audit_ok\": " << (row.auditOk ? 1 : 0)
               << ", \"violations\": "
               << (row.full.violations.empty() &&
                           row.por.violations.empty()
                       ? 0
                       : 1)
               << ", \"liveness_clean\": "
               << (liveRan && row.live.violations.empty() ? 1 : 0)
               << ", \"refine_clean\": "
               << (row.refineLeg && row.refine.complete &&
                           row.refine.violations.empty()
                       ? 1
                       : 0)
               << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        os << "  }\n}\n";
    }

    return failed ? 1 : 0;
}
