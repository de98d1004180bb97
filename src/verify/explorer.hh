/**
 * @file
 * Explicit-state DFS explorer, counterexample minimizer, and
 * counterexample renderers for the model checker.
 */

#ifndef MSCP_VERIFY_EXPLORER_HH
#define MSCP_VERIFY_EXPLORER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "verify/state.hh"

namespace mscp::verify
{

/**
 * Depth-first exploration of the configuration's transition
 * system.
 *
 * The explorer keeps exactly one engine. A DFS frame that will
 * expand more than one action saves its state in the gateway's
 * slot for its depth, and each later action of the frame restores
 * it by copy (EngineGateway::save/restore); counterexample
 * minimization and trace export replay action lists from a reset.
 * The seen-state set stores 128-bit hashes of the canonical
 * serialization; a revisited state prunes the branch. Deadlocks (no enabled action with references
 * outstanding) are reported as violations.
 *
 * explore() checks *safety* only: a cycle of states revisits and
 * stops without a verdict about progress. Livelock detection --
 * "every issued operation eventually completes" under weak
 * fairness on Deliver/Timeout -- is the liveness checker's job
 * (liveness.hh), which rebuilds the full graph and analyzes its
 * SCCs; its counterexamples flow through the same minimizer and
 * renderers as safety violations.
 *
 * With VerifyOptions::por set, exploration is reduced by ample
 * clusters (with the standard cycle proviso) and sleep sets over
 * the independence relation in por.hh; verify_sweep's audit mode
 * cross-checks reduced against full runs per config.
 *
 * After every action the explorer checks for value errors and
 * engine panics; the full I1..I10 invariant suite additionally
 * runs at every *settled* state (no pending work anywhere -- the
 * suite's quiescence precondition). Exploration stops at the first
 * violation.
 */
class Explorer
{
  public:
    explicit Explorer(const VerifyConfig &cfg);

    /** Explore; stops at the first violation or when exhausted. */
    ExploreResult explore();

    /**
     * Delta-debug a violation down to a locally minimal one:
     * single-action removal passes to fixpoint, then a commutation
     * normal form (adjacent swaps toward a canonical action order,
     * each gated on still reproducing) so independent schedules of
     * the same fault -- e.g. a POR and a full run -- minimize to
     * the same counterexample. Livelock lassos minimize prefix and
     * cycle separately (liveness.hh).
     */
    Violation minimize(const Violation &v);

    /**
     * Deterministic text rendering (stable across runs, thread
     * counts and hosts: no ticks, no pointers, no hashes), used
     * for golden-file comparison. @p minimized is the result of
     * minimize(v) (pass @p v itself to render unminimized).
     */
    static std::string renderViolation(const VerifyConfig &cfg,
                                       const Violation &v,
                                       const Violation &minimized);

    /**
     * Replay @p path on a trace-enabled engine and export the
     * recording as Chrome trace_event JSON (Perfetto-loadable).
     * Each action boundary is marked with a VerifyAction instant.
     * For a lasso, pass prefix+cycle concatenated.
     */
    static void exportTrace(const VerifyConfig &cfg,
                            const std::vector<Action> &path,
                            std::ostream &os);

  private:
    /** Violation kind tag: invariant id before the first ':'. */
    static std::string kindOf(const std::string &err);

    /**
     * Replay @p actions on @p gw; @return true when a violation of
     * kind @p kind occurs at any point and every action applies.
     */
    bool reproduces(EngineGateway &gw,
                    const std::vector<Action> &actions,
                    const std::string &kind);

    /** Commutation normal form of a minimal path (see minimize). */
    void normalizeTrace(EngineGateway &gw, std::vector<Action> &cur,
                        const std::string &kind);

    VerifyConfig cfg;
};

} // namespace mscp::verify

#endif // MSCP_VERIFY_EXPLORER_HH
