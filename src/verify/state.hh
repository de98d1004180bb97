/**
 * @file
 * Model-checker gateway: the concurrent engine as a guarded-action
 * transition system.
 *
 * The explorer never runs the engine's event loop. Instead the
 * engine is constructed in *controlled mode* (vControlled), where
 * every source of nondeterminism is lifted into an explicit Action
 * the explorer chooses:
 *
 *  - Issue      a cpu starts its next queued reference;
 *  - Commit     a scheduled completion (hit latency window) fires;
 *  - Retry      a deferred access (clearPending / all-ways-pinned
 *               backoff loop) re-runs;
 *  - Timeout    an armed retry timer fires;
 *  - Deliver    one buffered message is delivered -- by default only
 *               per-sender-stream FIFO heads are eligible (see
 *               VerifyOptions::fifoChannels);
 *  - Crash      a cache controller dies (budgeted);
 *  - Rejoin     a dead node cold-restarts;
 *  - Sweep      a dead node's stabilization sweep runs at the homes.
 *
 * Between two actions the controlled engine is plain copyable
 * data: its mutable part (proto::ConcurrentState, a few flat arrays
 * of trivially copyable records) plus the event queue's tick. The
 * gateway saves and restores states by copying exactly that.
 * save(slot) copy-assigns the state into a slot the gateway owns and
 * restore(slot) copies it back; the DFS loops index slots by depth.
 * The engine and every new slot are reserved for the config
 * (ConcurrentState::reserveTables), so a copy allocates nothing
 * unless a state outgrows them.
 * reset() restores the snapshot taken before the first action.
 * Action lists the DFS never held states for (counterexample
 * minimization, lasso validation, the Chrome export) are replayed
 * from a reset through applyIfEnabled(); determinism makes replay
 * exact. The canonical byte serialization (canon.cc) exists only
 * for the seen-state set and for symmetry reduction -- it is never
 * deserialized.
 */

#ifndef MSCP_VERIFY_STATE_HH
#define MSCP_VERIFY_STATE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/omega_network.hh"
#include "proto/concurrent.hh"
#include "verify/canon.hh"
#include "verify/por.hh"
#include "workload/ref_stream.hh"

namespace mscp::verify
{

/** The kinds of transition the explorer can take. */
enum class ActionKind : std::uint8_t
{
    Issue,
    Commit,
    Retry,
    Timeout,
    Deliver,
    Sweep,
    Rejoin,
    Crash,
};

/** Printable action-kind name. */
const char *actionKindName(ActionKind k);

/**
 * One enabled transition. For Deliver, @c index addresses the
 * pending buffer at enumeration time and @c fp fingerprints the
 * message content so a replay from a reset (whose buffer order
 * may differ after minimization) can re-locate it. The
 * remaining fields describe the message for counterexample output.
 */
struct Action
{
    ActionKind kind = ActionKind::Issue;
    NodeId node = 0;         ///< cpu / crashed node (non-Deliver)
    std::uint32_t index = 0; ///< Deliver: pending-buffer position
    std::uint64_t fp = 0;    ///< Deliver: content fingerprint
    std::uint8_t msgType = 0;
    NodeId src = 0;
    NodeId dst = 0;
    bool srcIsMem = false;
    bool toMemory = false;
    std::uint64_t blk = 0;
    std::uint64_t seq = 0;
};

/** Exploration budgets and reductions. */
struct VerifyOptions
{
    /**
     * Deliver only the head of each (src, src-role, dst, dst-role)
     * stream. The real network is FIFO per physical port pair; the
     * per-role-stream relaxation explored here is a strict superset
     * of those orderings (sound: no real behavior is missed) and,
     * unlike port-pair FIFO, is equivariant under the cache-role
     * node permutations symmetry reduction applies. false explores
     * every permutation of the pending buffer.
     */
    bool fifoChannels = true;
    /**
     * Canonicalize states up to permutation of cache roles (home
     * roles are fixed by the block interleaving). Automatically
     * disabled when the configuration can evict (see
     * EngineGateway::symmetryEligible).
     */
    bool symmetry = true;
    /** Unique-state budget; exploration stops expanding beyond it. */
    std::uint64_t maxStates = 1u << 20;
    /** Action-depth bound per path. */
    unsigned maxDepth = 4096;
    /** Crash actions allowed per path (0 = no crash exploration). */
    unsigned crashBudget = 0;
    /** Whether crashed nodes may cold-restart (Rejoin actions). */
    bool allowRejoin = false;
    /** Retry-timer base; > 0 arms (virtual) timers and enables
     *  Timeout actions. */
    Tick timeoutBase = 0;
    unsigned maxRetries = 1;
    /**
     * Partial-order reduction (por.hh): ample clusters with the
     * cycle proviso plus sleep sets. Heuristic over a hand-derived
     * independence relation -- verify_sweep's audit mode re-checks
     * it against full exploration per config.
     */
    bool por = false;
    /**
     * Suppress buffering a controlled-mode send whose exact content
     * is already pending. Timeout resends and suspicion rounds
     * re-send verbatim copies whose delivery every handler absorbs
     * as a duplicate; folding them bounds the otherwise unbounded
     * retry-storm frontier so crash configs become exhaustible.
     * A modeling reduction like fifoChannels: explored behaviors
     * are a subset of the unrestricted interleavings.
     */
    bool dedupResends = false;
};

/** One model-checking configuration. */
struct VerifyConfig
{
    std::string name = "cfg";
    /** Network ports (power of two >= 2); also cpu/home count. */
    unsigned nodes = 2;
    cache::Geometry geometry{1, 1, 1};
    cache::Mode mode = cache::Mode::DistributedWrite;
    /** program[cpu] = that cpu's in-order references. */
    std::vector<std::vector<workload::MemRef>> program;
    VerifyOptions opt;

    /** Block-id universe touched by the programs: max block + 1. */
    std::uint64_t numBlocks() const;
};

/** A property violation plus the action path that reaches it. */
struct Violation
{
    /** "I1".."I10", "NQ", "value", "deadlock", "panic" or
     *  "livelock". */
    std::string kind;
    std::vector<std::string> details;
    std::vector<Action> path;
    /**
     * Livelock lasso cycle: replaying @c path reaches the cycle's
     * anchor state, replaying @c cycle returns to it with
     * references still outstanding and weak fairness respected.
     * Empty for safety violations.
     */
    std::vector<Action> cycle;
};

/** Exploration outcome and coverage statistics. */
struct ExploreResult
{
    std::uint64_t states = 0;      ///< unique canonical states
    std::uint64_t edges = 0;       ///< actions applied
    std::uint64_t prunedSeen = 0;  ///< revisits cut by the seen set
    std::uint64_t prunedDepth = 0; ///< paths cut by maxDepth
    std::uint64_t settledStates = 0; ///< invariant-checked states
    /** Distinct settled canonical states (coverage identity). */
    std::uint64_t settledUnique = 0;
    /** Order-independent digest over the distinct settled states;
     *  the POR audit asserts full and reduced runs agree. */
    std::uint64_t settledDigest = 0;
    unsigned maxDepthReached = 0;
    bool budgetExhausted = false;  ///< maxStates hit
    /** Exhaustive: no violation, no budget/depth truncation. */
    bool complete = false;
    std::vector<Violation> violations; ///< first violation found
};

/**
 * One value-visible event of the implementation: a program
 * reference starting (invoke) or finishing (respond). The
 * refinement harness (refine.hh) checks the sequence of these
 * against the linearizability specification.
 */
struct ObsEvent
{
    NodeId cpu = 0;
    bool invoke = false;  ///< invocation vs response
    bool isWrite = false;
    Addr addr = 0;
    /** Write: the value written (known at invoke). Read: the value
     *  the reference returned (respond only). */
    std::uint64_t value = 0;
};

/**
 * Owns one controlled engine and translates between explorer
 * actions and engine internals (it is the engine's only friend).
 */
class EngineGateway
{
  public:
    /** @param with_trace record engine events for counterexample
     *  replay/export (off during exploration). */
    explicit EngineGateway(const VerifyConfig &cfg,
                           bool with_trace = false);
    ~EngineGateway();

    /** Return to the initial state. A traced gateway also clears
     *  its tracer. */
    void reset();

    /** Save the current state into slot @p slot, overwriting what
     *  the slot held. */
    void save(std::size_t slot);

    /** Return to the state saved in slot @p slot. Panics unless the
     *  engine is in controlled mode with an empty event queue. */
    void restore(std::size_t slot);

    /** Enabled transitions, in a fixed deterministic order. */
    std::vector<Action> enabledActions() const;

    /** Apply an enabled action, starting a fresh observation log.
     *  Engine panics surface as PanicError. */
    void apply(const Action &a);

    /**
     * Replay helper: apply @p a if it is still enabled, matching
     * Deliver actions by fingerprint instead of buffer index.
     * @return false when the action is infeasible in this state.
     */
    bool applyIfEnabled(const Action &a);

    /**
     * Whether the system has no work in flight: all references
     * done or lost, nothing pending in the buffer, no sweeps
     * outstanding and no home busy periods. The invariant suite is
     * meaningful exactly here.
     */
    bool settled() const;

    std::uint64_t refsOutstanding() const;
    std::uint64_t valueErrors() const;

    /** Run the I1..I10 suite over the current (settled) state. */
    std::vector<std::string> checkInvariants() const;

    /**
     * Canonical byte serialization of the current state (canon.cc):
     * absolute ticks dropped, per-space sequence/token/stamp values
     * rank-renumbered, LRU clocks reduced to per-set ranks, pending
     * messages grouped per stream, and (when enabled and eligible)
     * the minimum over all cache-role permutations. The bytes live
     * in the gateway's scratch storage: the reference stays valid
     * until this gateway's next canonical() call, and once that
     * storage is warm a call allocates nothing.
     */
    const std::vector<std::uint8_t> &canonical() const;

    /**
     * Whether cache-role symmetry reduction is sound for this
     * configuration. Candidate lists for ownership hand-offs are
     * materialized in ascending node-id order, which is not
     * permutation-equivariant; the reduction is therefore only
     * applied when no program can overflow a cache set (no
     * evictions => no hand-offs). Larger configs explore with
     * symmetry off.
     */
    bool symmetryEligible() const { return symEligible; }

    /** Record a VerifyAction instant in the engine's tracer (used
     *  by counterexample replays to mark action boundaries). */
    void markAction(const Action &a, std::uint64_t step);

    /**
     * Static independence footprint of an enabled action (por.hh):
     * the component it executes at, plus the monitor block it may
     * sample or update. Must be called in the state the action was
     * enumerated in (Issue inspects the queue head).
     */
    ActionFootprint footprint(const Action &a) const;

    /** Drain the observable events the last apply() emitted
     *  (controlled-mode invoke/respond log). */
    std::vector<ObsEvent> takeObservations();

    /**
     * Auxiliary observable state the canonical serialization omits:
     * the pending read-sample per active read (the value a respond
     * will carry). The refinement harness folds this into its seen
     * key so states differing only in an accepted-but-uncommitted
     * read value stay distinct. The values live in the gateway's
     * scratch storage, valid until its next pendingSamples() call.
     */
    const std::vector<std::uint64_t> &pendingSamples() const;

    const VerifyConfig &config() const { return cfg; }
    const Tracer &tracer() const;
    const proto::ConcurrentProtocol &engine() const { return *eng; }

  private:
    using Engine = proto::ConcurrentProtocol;
    using Msg = Engine::Msg;
    using Pending = Engine::VerifyPending;

    /** One saved state: what a controlled-mode action can change. */
    struct Snapshot
    {
        proto::ConcurrentState state;
        Tick tick = 0;
    };

    void saveInto(Snapshot &snap) const;
    void restoreFrom(const Snapshot &snap);
    /** Advance virtual time by one tick (one sentinel event), so
     *  durable-write stamps and LRU updates of successive actions
     *  stay causally ordered. */
    void advance();
    void applyUnchecked(const Action &a);
    bool enabledNonDeliver(const Action &a) const;
    /** Whether pending entry @p i is the head of its stream. */
    bool isStreamHead(std::size_t i) const;
    /**
     * Whether pending entry @p i may be delivered now: the head of
     * its stream under FIFO, and -- for RecoveryAck -- not before
     * every in-flight message a dead cache sent has drained. The
     * latter encodes the engine's stabilization assumption
     * (DESIGN.md 5f): with uniform network latency, any post-crash
     * purge/ack round trip strictly outlasts the dead node's
     * pre-crash residual traffic, so a reconstruction can never
     * complete while e.g. the victim's last DurableWrite is still
     * in the air. An untimed model must impose that ordering
     * explicitly or it reports unreachable stale-read artifacts.
     */
    bool deliverEligible(std::size_t i) const;
    /** Any pending message sent by a now-dead cache role. */
    bool deadSrcPending(NodeId n = invalidNode) const;
    static Action describeDeliver(const Pending &p,
                                  std::uint32_t index);

    VerifyConfig cfg;
    bool withTrace = false;
    bool symEligible = false;
    std::uint64_t nBlocks = 0;
    std::unique_ptr<net::OmegaNetwork> net;
    std::unique_ptr<Engine> eng;
    /** The initial state, saved by the first apply() so building a
     *  gateway copies nothing; reset() restores it. */
    std::optional<Snapshot> root;
    /** save()/restore() slots. */
    std::vector<Snapshot> slots;
    /** canonical()'s working storage and result; empty until the
     *  first call. */
    mutable CanonScratch canonScratch;
    /** pendingSamples()'s result. */
    mutable std::vector<std::uint64_t> sampleScratch;
};

} // namespace mscp::verify

#endif // MSCP_VERIFY_STATE_HH
