/**
 * @file
 * Partial-order reduction for the controlled-mode explorer.
 *
 * Two actions are independent when neither can enable, disable or
 * change the effect of the other in any state where both are
 * enabled. For this engine that is a static footprint check:
 *
 *  - every non-global action executes inside exactly one *component*
 *    (the cpu it runs at, or the home a memory-bound message is
 *    delivered to) and only appends to message streams *originating*
 *    at that component, so actions on disjoint components can only
 *    interact through the linearizability monitor;
 *  - the monitor is keyed by block: a sampling read and a pending/
 *    completed-write update on the same block do not commute (that
 *    race is exactly what the value check is for), two reads do;
 *  - Sweep/Crash/Rejoin mutate cross-component state (deadNodes,
 *    recovery fences) and are global, i.e. dependent on everything.
 *
 * The explorer uses the relation two ways: *ample sets* (expand only
 * one dependence-closed cluster of the enabled set, with the
 * standard cycle proviso: a reduced state whose successor closes a
 * DFS cycle is re-expanded in full) and *sleep sets* (an action
 * independent of the path taken since its sibling branch explored
 * it is not re-explored), with stored-sleep intersection on revisits
 * so state caching stays exact. Both are heuristics over a
 * hand-derived relation; every `verify_sweep` run also explores
 * each config unreduced and asserts identical verdicts and
 * identical settled-state coverage, so the reduction is
 * self-checking rather than trusted (DESIGN.md 5j).
 */

#ifndef MSCP_VERIFY_POR_HH
#define MSCP_VERIFY_POR_HH

#include <cstdint>
#include <type_traits>
#include <vector>

namespace mscp::verify
{

struct Action;

/**
 * Static read/write footprint of one action. POD with fixed-width
 * members (pinned by the static_asserts below): the explorer
 * stores one per frame slot and per sleep-set entry.
 */
struct ActionFootprint
{
    /** Component bits: cpu role c = bit c, home role h = bit
     *  32 + h (node counts are <= 32 in every verify config). */
    std::uint64_t comps = 0;
    /** Monitor block the action may sample or update. */
    std::uint64_t monBlk = 0;
    std::uint8_t hasMon = 0;   ///< touches the monitor at all
    std::uint8_t monWrite = 0; ///< pending/completed-write update
    std::uint8_t global = 0;   ///< dependent on everything
    std::uint8_t pad0 = 0;
    std::uint32_t pad1 = 0;
};

static_assert(sizeof(ActionFootprint) == 24,
              "ActionFootprint layout drifted");
static_assert(std::is_trivially_copyable_v<ActionFootprint>,
              "ActionFootprint must stay trivially copyable");
static_assert(std::has_unique_object_representations_v<ActionFootprint>,
              "ActionFootprint members must stay fixed-width with no "
              "padding");

/** One sleep-set entry: a not-to-be-re-explored action, identified
 *  by its stable key, plus the footprint that decides whether a
 *  taken action wakes it. */
struct SleepEntry
{
    std::uint64_t key = 0;
    ActionFootprint fp;
};

/** Whether two actions may interfere (see file header). */
bool dependent(const ActionFootprint &a, const ActionFootprint &b);

/**
 * Stable identity of an action across states on one exploration
 * path: content fingerprint for Deliver (the same in-flight message
 * keeps its fingerprint until delivered), (kind, node) otherwise.
 */
std::uint64_t actionKey(const Action &a);

/**
 * Ample-set selection: partition the enabled actions into
 * dependence-connected clusters and pick the smallest (ties to the
 * cluster holding the earliest action, for determinism). Returns
 * the chosen cluster's indices, or an empty vector when no
 * reduction applies (a single cluster, or any global action).
 */
std::vector<std::size_t>
ampleCluster(const std::vector<ActionFootprint> &fps);

} // namespace mscp::verify

#endif // MSCP_VERIFY_POR_HH
