/**
 * @file
 * Liveness checking: "every issued operation eventually completes"
 * under weak fairness.
 *
 * The safety explorer (explorer.hh) prunes cycles at the seen set
 * without a verdict about progress; a protocol that NACKs forever
 * passes every safety check. checkLiveness() instead materializes
 * the full transition graph (never reduced -- POR's ample sets are
 * not provably cycle-faithful here, and the graph is built once per
 * config), runs Tarjan's SCC algorithm, and hunts for an *accepting
 * cycle*: a nontrivial SCC whose states still have references
 * outstanding and which is consistent with weak fairness.
 *
 * Fairness: an infinite run may only ignore an action that is not
 * continuously enabled. Action identity across states is
 * actionKey() (content fingerprint for Deliver -- the same
 * in-flight message keeps its key until delivered -- and
 * (kind, node) otherwise). An SCC is *fairness-respecting* iff
 * every key enabled at ALL of its states is taken by some edge
 * inside the SCC; a key enabled at every state of a cycle but
 * never taken would make any run looping there unfair, i.e. not a
 * real counterexample. Deliver/Timeout keys carry the interesting
 * obligations (the network eventually delivers, timers eventually
 * fire); Issue/Commit/Retry keys encode scheduler fairness and
 * keep a cycle that merely starves a local step from being
 * misreported as a protocol livelock.
 *
 * A violation is returned as a lasso: Violation::path replays from
 * reset to an anchor state inside the SCC and Violation::cycle is
 * a closed walk back to the anchor that visits every SCC state and
 * every fairness-obligated edge (so the walk itself is weakly
 * fair). Every reported lasso is re-validated by replay
 * (reproducesLasso) before it leaves the checker, and
 * minimizeLasso() delta-debugs prefix and cycle under the same
 * replay check.
 */

#ifndef MSCP_VERIFY_LIVENESS_HH
#define MSCP_VERIFY_LIVENESS_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "verify/state.hh"

namespace mscp::verify
{

/**
 * One slot of the iterative Tarjan DFS stack: the state being
 * expanded and the next outgoing edge to follow. POD with
 * fixed-width members (pinned by the static_asserts below); the
 * stack holds one per open state, so layout is load-bearing on the
 * biggest configs.
 */
struct LivenessFrame
{
    std::uint32_t state = 0;
    std::uint32_t edge = 0;
};

static_assert(sizeof(LivenessFrame) == 8,
              "LivenessFrame layout drifted");
static_assert(std::is_trivially_copyable_v<LivenessFrame>,
              "LivenessFrame must stay trivially copyable");
static_assert(std::has_unique_object_representations_v<LivenessFrame>,
              "LivenessFrame members must stay fixed-width with no "
              "padding");

/**
 * Build the full (unreduced) transition graph and search for a
 * fairness-respecting accepting cycle. On success the result's
 * violations hold one kind=="livelock" Violation with path and
 * cycle filled in; states/edges count the explicit graph and
 * complete is false when cfg.opt.maxStates or maxDepth truncated
 * the build (a truncated graph proves nothing about liveness).
 */
ExploreResult checkLiveness(const VerifyConfig &cfg);

/**
 * Replay @p prefix from reset, then @p cycle, and check the lasso
 * is a genuine weakly fair livelock: every action applies, the
 * cycle returns to the anchor's canonical state, references remain
 * outstanding, and every action key enabled at all states around
 * the cycle is taken by the cycle.
 */
bool reproducesLasso(EngineGateway &gw,
                     const std::vector<Action> &prefix,
                     const std::vector<Action> &cycle);

/**
 * Delta-debug a livelock lasso: single-action removal passes to
 * fixpoint over the prefix and then the cycle, each candidate
 * gated on reproducesLasso(). Explorer::minimize dispatches
 * kind=="livelock" violations here.
 */
Violation minimizeLasso(const VerifyConfig &cfg, const Violation &v);

} // namespace mscp::verify

#endif // MSCP_VERIFY_LIVENESS_HH
