/**
 * @file
 * Message-level concurrent engine for the two-mode protocol.
 *
 * Unlike the atomic engine (stenstrom.hh), transactions here are
 * NOT executed in one step: every protocol action is a message
 * delivered through the timed omega network, transactions from
 * different processors genuinely overlap, and the races the paper
 * does not discuss are resolved with standard directory-protocol
 * machinery (documented in DESIGN.md):
 *
 *  - the home memory module serializes transactions per block with
 *    a busy bit and a pending queue; requesters release it with an
 *    Unblock message once ownership/data has settled;
 *  - the OWNER-pointer bypass keeps its latency advantage but can
 *    race with an ownership transfer: a direct request reaching a
 *    non-owner is NACKed and retried through the home;
 *  - distributed writes collect per-copy acknowledgements before
 *    the write completes (required for coherent visibility on a
 *    multistage network; a bus gets this for free);
 *  - an owner eviction is serialized with an EvictReq/EvictAck
 *    handshake so in-flight forwards never find a half-evicted
 *    owner, and the ownership hand-off transfers state directly
 *    under that eviction's busy period (the paper's nested
 *    re-request would deadlock against the home's serialization);
 *  - entries are pinned while a transaction or an accepted
 *    ownership offer is outstanding on them, so victim selection
 *    never rips an in-flight line out.
 *
 * Each processor has one outstanding reference (blocking, in-order)
 * - the paper's implicit processor model. Reads are checked against
 * a linearizability monitor at their sampling point: a read must
 * return the latest completed write's value or the value of a
 * still-pending write to that address.
 */

#ifndef MSCP_PROTO_CONCURRENT_HH
#define MSCP_PROTO_CONCURRENT_HH

#include <algorithm>
#include <array>
#include <deque>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache_array.hh"
#include "mem/memory_module.hh"
#include "net/timed_network.hh"
#include "proto/message.hh"
#include "sim/bitset.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"
#include "sim/flat.hh"
#include "sim/metrics.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "workload/ref_stream.hh"

namespace mscp::verify
{
/** Model-checker driver (src/verify); befriended below so it can
 *  snapshot engine state and pump buffered actions. */
class EngineGateway;
} // namespace mscp::verify

namespace mscp::proto
{

/** Counters specific to the concurrent engine. */
struct ConcurrentCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readHits = 0;
    std::uint64_t writeHits = 0;      ///< writable without messages
    std::uint64_t pointerReads = 0;   ///< direct owner bypass used
    std::uint64_t pointerNacks = 0;   ///< bypass raced, via home
    std::uint64_t homeQueued = 0;     ///< requests queued on busy
    std::uint64_t ownershipTransfers = 0;
    std::uint64_t dwUpdates = 0;
    std::uint64_t evictions = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t handoffNacks = 0;
    std::uint64_t handoffFallbacks = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t presentClearRetries = 0;
    std::uint64_t selfForwards = 0;   ///< forward met requester==owner
    /** @{ robustness machinery (fault/timeout hardening) */
    std::uint64_t timeouts = 0;       ///< transaction timeouts fired
    std::uint64_t retries = 0;        ///< timed-out requests resent
    std::uint64_t retriesExhausted = 0; ///< gave up after maxRetries
    std::uint64_t staleReplies = 0;   ///< duplicate/superseded replies
    std::uint64_t staleForwards = 0;  ///< forwards for settled requests
    std::uint64_t staleUnblocks = 0;  ///< busy releases with bad token
    std::uint64_t dupRequests = 0;    ///< home-side duplicates dropped
    std::uint64_t watchdogDeadlocks = 0; ///< transactions flagged dead
    /** @} */
    /** @{ crash-stop recovery machinery (zero without a CrashPlan) */
    std::uint64_t crashes = 0;        ///< cache controllers killed
    std::uint64_t rejoins = 0;        ///< cold restarts completed
    std::uint64_t suspects = 0;       ///< dead-anchor suspicions accepted
    std::uint64_t purges = 0;         ///< recovery purges served
    std::uint64_t rebuilds = 0;       ///< directory reconstructions
    std::uint64_t recoveryNacks = 0;  ///< restart hints sent to cpus
    std::uint64_t recoveryRestarts = 0; ///< transactions re-run clean
    std::uint64_t durableWrites = 0;  ///< write-through words to homes
    std::uint64_t refsLost = 0;       ///< references lost to crashes
    /** @} */

    bool operator==(const ConcurrentCounters &) const = default;
};

/** Configuration. */
struct ConcurrentParams
{
    cache::Geometry geometry;
    net::Scheme multicastScheme = net::Scheme::Combined;
    cache::Mode defaultMode = cache::Mode::GlobalRead;
    MessageSizes sizes;
    Bits linkWidthBits = 16;
    Tick hopLatency = 1;
    Tick hitLatency = 1;
    Tick thinkTime = 0;

    /** @{ robustness (all off by default: zero-fault runs are
     *  byte-identical to the unhardened engine) */
    /** Adverse-delivery plan applied by the timed network. */
    FaultPlan faultPlan;
    /**
     * First-retry timeout in ticks; 0 disables timeouts. Retry i
     * waits timeoutBase << i (capped at timeoutCap) plus a jittered
     * quarter drawn from jitterSeed.
     */
    Tick timeoutBase = 0;
    Tick timeoutCap = 1 << 14;
    unsigned maxRetries = 8;
    std::uint64_t jitterSeed = 0x7e11;
    /**
     * Liveness watchdog scan period; 0 disables the watchdog. A
     * transaction older than watchdogAge is flagged as a protocol
     * deadlock: a diagnostic dump is recorded and the run aborts
     * gracefully (run() reports it instead of hanging).
     */
    Tick watchdogPeriod = 0;
    Tick watchdogAge = 50000;
    /**
     * Crash-stop fault schedule (empty = no node ever dies; the
     * engine is then byte-identical to a build without crash
     * support). Kill/restart decisions are a pure function of the
     * plan, never of simulation state, so two runs with the same
     * (plan, workload) crash identically.
     */
    CrashPlan crashPlan;
    /**
     * Failure-detector stabilization window: ticks after a kill
     * before every home sweeps the dead node's anchored blocks into
     * reconstruction. Must exceed the maximum in-flight message
     * latency (see DESIGN.md 5f); requester-side timeouts can still
     * raise a suspicion earlier through SuspectOwner.
     */
    Tick crashSuspectDelay = 2000;
    /** @} */

    /** @{ observability (pure observation: simulation results and
     *  bench stdout are unchanged whether tracing runs or not) */
    /**
     * Runtime tracing enable. The tracer is also switched on
     * whenever the watchdog is armed (watchdogPeriod > 0) so a
     * deadlock report always carries event history.
     */
    bool traceEnabled = false;
    /** Ring capacity in records (rounded up to a power of two). */
    std::size_t traceCapacity = 4096;
    /**
     * Runtime windowed-metrics enable (sim/metrics.hh): per-link
     * contention heatmaps, queue/directory gauges and health
     * counters snapshotted every metricsWindow ticks.
     */
    bool metricsEnabled = false;
    /** Sampling window width in sim ticks. */
    Tick metricsWindow = 2048;
    /** Snapshot ring capacity (rounded up to a power of two). */
    std::size_t metricsCapacity = 1024;
    /** @} */
};

/** Result of a concurrent run. */
struct ConcurrentRunResult
{
    std::uint64_t refs = 0;
    Tick makespan = 0;
    Bits networkBits = 0;
    std::uint64_t valueErrors = 0;
    double avgReadLatency = 0;
    double avgWriteLatency = 0;
    /** Transactions the watchdog declared dead (0 = clean run). */
    std::uint64_t deadlocks = 0;
    /** References discarded because their issuing node crashed. */
    std::uint64_t refsLost = 0;
};

/**
 * Everything a model-checker action can change in the engine.
 *
 * Between two actions the controlled-mode engine (src/verify) is
 * plain copyable data: sends wait in vPending, completions, retries
 * and timers are flags, and the event queue is empty. Its mutable
 * state is gathered here, and ConcurrentProtocol derives from this
 * class so its handlers keep their member names. The checker's
 * gateway saves a state by copy-assigning this base out of the
 * engine and restores it by copy-assigning it back (together with
 * the event queue's tick); a member added here is copied by
 * default. The rest of the engine is configuration (params, the
 * network, the cpus' programs), scratch, or never read by a
 * controlled-mode action (the timed network, fault injector, retry
 * RNG, message slab, watchdog, tracer, metrics and latency sink), so
 * a snapshot leaves it out.
 *
 * The state is a few flat arrays of trivially copyable records, so
 * a copy is a few bulk copies that allocate nothing once the
 * destination's arrays are as large (DESIGN.md 5g): per-cpu and
 * per-home records, the cache arrays, one memory module holding
 * every home's blocks, and block-keyed tables for what a home keeps
 * per block. A block's home is homeOf(blk) = blk % homes.size().
 */
class ConcurrentState
{
  public:
    /**
     * Reserve the variable-length tables for a model-checker run
     * over @p blocks blocks: the bounds the cpu and block counts
     * imply (parked requests, pending writes, reconstructions and
     * their suspecters, sweeps, memory words and owners, per-block
     * home records, completed words) and 64 in-flight messages.
     * Copying a state into a reserved one allocates nothing unless
     * the state outgrows it.
     */
    void reserveTables(std::size_t blocks);

  protected:
    /** @{ inline message payload limits, checked when an engine is
     *  built: one present bit per cache, one word per block word */
    static constexpr unsigned MsgMaxNodes = 256;
    static constexpr unsigned MsgMaxBlockWords = 4;
    /** @} */

    /** A set of caches, one bit per node id. */
    using NodeSet = FixedBitset<MsgMaxNodes>;

    /** A state field in flight: Table 1's field with its present
     *  vector held inline. */
    struct MsgField
    {
        cache::State state = cache::State::Invalid;
        bool modified = false;
        NodeId owner = invalidNode;
        /** Empty (size 0) unless the message carries a state
         *  transfer's present vector. */
        NodeSet present;

        /** Become a copy of @p f, present vector included. */
        void
        assign(const cache::StateField &f)
        {
            state = f.state;
            modified = f.modified;
            owner = f.owner;
            present.assign(f.present);
        }

        /** Write this field into @p f, reusing its storage. */
        void
        copyTo(cache::StateField &f) const
        {
            f.state = state;
            f.modified = modified;
            f.owner = owner;
            present.copyTo(f.present);
        }

        bool operator==(const MsgField &) const = default;
    };

    /** A message in flight. */
    struct Msg
    {
        MsgType type = MsgType::LoadReq;
        NodeId src = 0;
        NodeId dst = 0;
        bool toMemory = false;   ///< handler: memory vs cache side
        BlockId blk = 0;
        NodeId requester = 0;    ///< original requester on forwards
        unsigned offset = 0;
        std::uint64_t value = 0;
        /**
         * Attempt sequence number. Requester-originated requests
         * stamp their current txSeq so the home can drop duplicate
         * and superseded (retried) copies; it is echoed end-to-end
         * on forwards and replies so the requester can match a
         * reply to the exact attempt it answers (a duplicated or
         * superseded serve never completes a newer transaction).
         */
        std::uint64_t seq = 0;
        /**
         * Home-issued busy token. Minted per busy period, carried
         * by forwards/grants and their replies, and consumed by
         * the single Unblock/EvictDone allowed to release that
         * period - stale or duplicated releases carry a dead token.
         */
        std::uint64_t tok = 0;
        bool flag = false;         ///< multi-purpose (e.g. modified)
        /** Block payload words in use (0: no payload). */
        std::uint8_t words = 0;
        MsgField field{};          ///< state transfers
        /** Block payload; words past @c words stay zero, so the
         *  defaulted == and the serializers see content only. */
        std::array<std::uint64_t, MsgMaxBlockWords> data{};

        /** Carry the block @p d as payload. */
        void
        setData(const std::vector<std::uint64_t> &d)
        {
            words = static_cast<std::uint8_t>(d.size());
            std::copy(d.begin(), d.end(), data.begin());
        }

        /** The payload words in use. */
        std::span<const std::uint64_t>
        payload() const
        {
            return {data.data(), words};
        }

        /** Field-wise; the checker's duplicate folding uses it. */
        bool operator==(const Msg &) const = default;
    };
    // Sends, the slab, the retry copy and every snapshot copy a Msg
    // as bytes; a heap-held member would allocate on each.
    static_assert(std::is_trivially_copyable_v<Msg>);
    static_assert(sizeof(Msg) == 144,
                  "Msg changed: update ConcurrentState::fingerprint "
                  "and the verify serializer (verify/canon.cc) to "
                  "match, then this size");

    /** Phases of a processor's outstanding transaction. */
    enum class Phase : std::uint8_t
    {
        Idle,
        WaitHome,       ///< miss sent to the home
        WaitPointer,    ///< direct owner read outstanding
        WaitOwnXfer,    ///< upgrade: waiting for the state field
        WaitDwAcks,     ///< distributed write: collecting acks
        WaitEvictAck,   ///< eviction handshake
        WaitOffer,      ///< hand-off offer outstanding
        WaitInvalAcks,  ///< all-nack fallback invalidations
        /**
         * Reply accepted, completion scheduled a hit-latency away.
         * Distinct from the wait phases so a duplicated reply
         * landing inside that window cannot be accepted twice.
         */
        Commit,
    };

    /** Per-cpu controller state (its cache array is caches[cpu]). */
    struct CpuState
    {
        /** Position of the cpu's next reference in its program
         *  (ConcurrentProtocol::programs). */
        std::size_t next = 0;
        bool active = false;
        workload::MemRef ref;
        Phase phase = Phase::Idle;
        Tick issueTick = 0;
        unsigned pendingAcks = 0;
        unsigned pointerRetries = 0;
        /** @{ robustness: retry bookkeeping */
        /** Generator for per-cpu attempt sequence numbers. */
        std::uint64_t seqGen = 0;
        /** Sequence of the current operation; replies carrying an
         *  older operation's identity are ignored as stale. */
        std::uint64_t txSeq = 0;
        /** Timed-out resends so far for the current reference. */
        unsigned attempts = 0;
        /**
         * Verbatim copy of the outstanding request. A timeout
         * retry resends exactly this message -- same type, same
         * destination, same seq -- so the home's duplicate
         * suppression absorbs a retry whose original was merely
         * slow, and a late serve of the original still matches
         * txSeq. Restarting with a fresh seq is only sound when
         * the old attempt provably died (an explicit NACK):
         * abandoning an attempt whose serve is already in flight
         * would orphan the ownership or present bit it carries.
         */
        Msg lastReq;
        EventId timeoutEv = 0;
        bool timeoutArmed = false;
        /** Busy token of the accepted EvictAck; travels on the
         *  EvictDone (and hand-off StateXfer) that releases it. */
        std::uint64_t evictToken = 0;
        /** @} */
        /** @{ observability */
        /** Per-cpu transaction id: stable across retries (unlike
         *  txSeq, which is per attempt), so trace spans and the
         *  deadlock report can follow one reference end to end. */
        std::uint64_t opId = 0;
        std::uint64_t opGen = 0;
        /** Classification of the current reference, finalized by
         *  startAccess; sampled into the latency histograms. */
        OpClass opClass = OpClass::ReadMiss;
        /** Start tick of an owned-victim eviction handshake. */
        Tick evictStartTick = 0;
        /** @} */
        /** Caches expected to acknowledge (updates/invalidates). */
        NodeSet ackFrom;
        /** Eviction context. */
        bool evicting = false;
        BlockId victimBlk = 0;
        /** Hand-off candidates: the victim's other present bits,
         *  offered in ascending id order; candIdx counts offers. */
        NodeSet candidates;
        std::size_t candIdx = 0;

        /** @{ model-checker controlled mode (inert otherwise) */
        /** An accepted reply's completion awaits an explicit
         *  explorer action instead of a scheduled event. */
        bool vCommitPending = false;
        /** A defer/retry loop (clearPending wait, all-ways-pinned
         *  allocation) awaits an explicit retry action. */
        bool vDeferred = false;
        /** txSeq the armed (virtual) retry timer guards. */
        std::uint64_t vTimeoutSeq = 0;
        /** Value the in-flight read accepted (the one its respond
         *  observation will carry); set at the acceptance sites. */
        std::uint64_t vSample = 0;
        /** @} */
    };

    /**
     * Marks a cpu keeps on a block, in the one (cpu, block) table
     * @c marks. The bit values are the canonical serializer's.
     */
    enum BlockMark : std::uint8_t
    {
        /** Pinned by the cpu's own transaction. */
        PinnedTx = 1,
        /** Pinned by an accepted ownership offer. */
        PinnedOffer = 2,
        /** An unacknowledged PresentClear is in flight;
         *  reacquisition is deferred until the ack arrives. */
        ClearPending = 4,
        /**
         * The cpu's in-flight transaction touches the block and a
         * recovery purge invalidated it mid-transaction. A reply
         * served before the reconstruction fence must not install
         * pre-crash state: marked transactions restart from scratch
         * instead (see the reply handlers).
         */
        Purged = 8,
    };

    /** Per-home-module counters (the home's blocks are kept in the
     *  block-keyed tables below). */
    struct HomeState
    {
        std::uint64_t busyTokenGen = 0;
        /** Blocks with a busy period open. */
        std::uint32_t busyBlocks = 0;
        /** Blocks under a reconstruction fence. */
        std::uint32_t recoveringBlocks = 0;
    };

    /** End of a parked-request list. */
    static constexpr std::uint32_t NoParked = ~std::uint32_t{0};

    /** A request parked behind its busy block. */
    struct Parked
    {
        Msg msg;
        /** The block's next parked request (arrival order), or the
         *  next free slot; NoParked ends either list. */
        std::uint32_t next = NoParked;
    };

    /** What a home keeps per block, besides memory words and the
     *  block-store owner (those are in @c mem). */
    struct HomeBlock
    {
        /** @{ robustness: busy matching */
        /** Token of the block's busy period, 0 when not busy
         *  (tokens start at 1); only the Unblock/EvictDone carrying
         *  it releases the period. */
        std::uint64_t busyToken = 0;
        /** Requests parked behind the busy block, oldest first: a
         *  list through @c parked from parkedHead to parkedTail. */
        std::uint32_t parked = 0;
        std::uint32_t parkedHead = NoParked;
        std::uint32_t parkedTail = NoParked;
        /** @} */
        /** @{ crash recovery (set only under a CrashPlan) */
        /** Node expected to release the busy period (invalidNode:
         *  none); a dead releaser wedges the block and triggers
         *  recovery. */
        NodeId busyReleaser = invalidNode;
        /** Tick the busy period was minted at. A period that
         *  outlives every retry horizon is wedged even when its
         *  anchors look alive (e.g. an ownership hand-off whose
         *  transfer died with the acceptor) and is reconstructed. */
        Tick busySince = 0;
        /** Under an active reconstruction fence. */
        bool recovering = false;
        /** Rebuilt after a crash: served in GR mode, the safe
         *  post-recovery mode (DESIGN.md 5f). */
        bool recoveredGR = false;
        /** Freshness stamp (send tick) of the last durable word
         *  applied per block word, 0 if none; defeats in-flight
         *  reordering. */
        std::array<Tick, MsgMaxBlockWords> durableStamp{};
        /** @} */
    };

    /** One in-progress directory reconstruction at a block's home;
     *  its suspecters are in @c suspecters. */
    struct RecoveryCtx
    {
        BlockId blk = 0;
        /** Live caches whose RecoveryAck is still outstanding. */
        NodeSet pending;
        /** Surviving owner's copy (authoritative if present). */
        bool haveData = false;
        std::array<std::uint64_t, MsgMaxBlockWords> data{};
        /** Acks folded in (diagnostics/trace). */
        unsigned acks = 0;
    };

    /** A requester whose accepted attempt on @c blk died with the
     *  old owner; it gets a RecoveryNack (restart hint) once the
     *  block is rebuilt. */
    struct Suspecter
    {
        BlockId blk = 0;
        NodeId node = 0;
    };

    /** One pending write value of the linearizability monitor. */
    struct PendingWrite
    {
        Addr addr = 0;
        std::uint64_t value = 0;
    };

    /** A controlled-mode send awaiting its Deliver action. */
    struct VerifyPending
    {
        Msg msg;
        /** Sent by a memory-side (home) handler. The canonicalizer
         *  needs the src role: a DataBlock or PresentClearAck can
         *  originate from either a cache or a home, and only
         *  cache-role node ids participate in symmetry reduction. */
        bool srcIsMem = false;
        /** fingerprint(msg, srcIsMem), computed once when parked
         *  (no handler edits a parked message). */
        std::uint64_t fp = 0;
    };
    // The state's records, copied wholesale by every snapshot.
    static_assert(std::is_trivially_copyable_v<CpuState> &&
                  std::is_trivially_copyable_v<Parked> &&
                  std::is_trivially_copyable_v<HomeState> &&
                  std::is_trivially_copyable_v<HomeBlock> &&
                  std::is_trivially_copyable_v<RecoveryCtx> &&
                  std::is_trivially_copyable_v<VerifyPending>);

    /**
     * Content fingerprint of a parked message (one multiply-rotate
     * step per field): the Deliver action's identity, so a replay
     * from a reset can re-locate "the same" message in the buffer.
     */
    static std::uint64_t fingerprint(const Msg &m, bool src_is_mem);

    /** @{ the (cpu, block) mark table */
    static std::uint64_t
    markKey(NodeId cpu, BlockId blk)
    {
        panic_if(blk >> 56, "block %llu beyond the mark table's range",
                 static_cast<unsigned long long>(blk));
        return blk << 8 | cpu;
    }
    /** Whether @p cpu has any of @p mask's marks on @p blk. */
    bool
    marked(NodeId cpu, BlockId blk, std::uint8_t mask) const
    {
        const std::uint8_t *m = marks.find(markKey(cpu, blk));
        return m && (*m & mask);
    }
    void
    mark(NodeId cpu, BlockId blk, BlockMark b)
    {
        marks[markKey(cpu, blk)] |= b;
    }
    void
    unmark(NodeId cpu, BlockId blk, BlockMark b)
    {
        const std::uint64_t key = markKey(cpu, blk);
        if (std::uint8_t *m = marks.find(key)) {
            *m &= static_cast<std::uint8_t>(~b);
            if (!*m)
                marks.erase(key);
        }
    }
    bool
    isPinned(NodeId cpu, BlockId blk) const
    {
        return marked(cpu, blk, PinnedTx | PinnedOffer);
    }
    /** Drop every mark of @p cpu (a crash). */
    void
    unmarkAll(NodeId cpu)
    {
        std::vector<std::uint64_t> keys;
        marks.forEach([&](std::uint64_t key, std::uint8_t) {
            if ((key & 0xff) == cpu)
                keys.push_back(key);
        });
        for (std::uint64_t key : keys)
            marks.erase(key);
    }
    /** Number of blocks @p cpu has mark @p b on (diagnostics). */
    std::size_t
    markCount(NodeId cpu, BlockMark b) const
    {
        std::size_t c = 0;
        marks.forEach([&](std::uint64_t key, std::uint8_t m) {
            if ((key & 0xff) == cpu && (m & b))
                ++c;
        });
        return c;
    }
    /** @} */

    ConcurrentCounters ctrs;
    MessageCounters msgs;

    std::vector<CpuState> cpus;
    /** caches[c]: cpu c's tags, state fields and data. */
    std::vector<cache::CacheArray> caches;
    std::vector<HomeState> homes;

    /**
     * Every home's memory words and block store, in one block-keyed
     * module (the blocks of home h are those with homeOf(blk) == h).
     */
    mem::MemoryModule mem;
    /** Per-block home state of every block a home has served. */
    FlatMap<BlockId, HomeBlock> homeBlocks;
    /** Every home's parked requests, one list per block (see
     *  HomeBlock), in slots reused through a free list from
     *  parkedFree. */
    std::vector<Parked> parked;
    std::uint32_t parkedFree = NoParked;
    /** seqSeen[h * cpus + c]: highest request seq home h accepted
     *  from cpu c (0: none); lower or equal arrivals are
     *  duplicates/superseded retries. */
    std::vector<std::uint64_t> seqSeen;
    /** @{ crash recovery (empty without a CrashPlan) */
    std::vector<RecoveryCtx> recoveries;
    /** Every reconstruction's suspecters, in arrival order. */
    std::vector<Suspecter> suspecters;
    /** @} */
    /** BlockMark bits per (cpu, block); absent means none. */
    FlatMap<std::uint64_t, std::uint8_t> marks;

    /** Caches currently crashed (sized to the node count). */
    NodeSet deadNodes;

    /**
     * Linearizability monitor state. The pending-write multiset is
     * a plain vector: a handful of values at most (one outstanding
     * write per cpu), erased by swap-with-last.
     */
    FlatMap<Addr, std::uint64_t> lastCompleted;
    std::vector<PendingWrite> pendingWrites;
    std::uint64_t _valueErrors = 0;

    /** @{ controlled mode (see ConcurrentProtocol::vControlled):
     *  buffered sends, in send order */
    std::vector<VerifyPending> vPending;
    /** Dead nodes whose stabilization sweep is still pending. */
    std::vector<NodeId> vSweepPending;
    /** @} */

    /** Latency accounting. */
    double readLatSum = 0;
    double writeLatSum = 0;
    std::uint64_t readsDone = 0;
    std::uint64_t writesDone = 0;
    std::uint64_t refsOutstanding = 0;
};

/** The event-driven engine. */
class ConcurrentProtocol : private ConcurrentState
{
  public:
    /**
     * Per-completion latency sink: (operation class, latency in
     * ticks). An inline trivially-copyable callable so attaching
     * one adds no allocation to the completion path; the benchmark
     * (perfbench/) collects its latency percentiles through it.
     */
    using LatencySink = InlineCallback<OpClass, Tick>;
    static_assert(std::is_trivially_copyable_v<LatencySink>,
                  "LatencySink must stay an inline callable: the "
                  "completion path must not allocate");

    ConcurrentProtocol(net::OmegaNetwork &network,
                       ConcurrentParams params);
    ~ConcurrentProtocol();

    /** Install the per-completion latency sink (may be empty). */
    void setLatencySink(LatencySink sink) { latSink = sink; }

    /** The engine's event tracer (empty unless tracing is enabled
     *  via ConcurrentParams or an armed watchdog). */
    const Tracer &tracer() const { return _tracer; }

    /** @{ windowed metrics (empty unless metricsEnabled) */
    const MetricsRegistry &metricsRegistry() const { return mreg; }
    /** The held window series, oldest-first. */
    std::vector<MetricsWindow>
    metricsWindows() const
    {
        return msampler.snapshotWindows();
    }
    /** @} */

    /**
     * Run a reference stream: per-cpu program order, one
     * outstanding reference per cpu, full message-level overlap
     * across cpus.
     */
    ConcurrentRunResult run(workload::ReferenceStream &stream);

    const ConcurrentCounters &counters() const { return ctrs; }
    const MessageCounters &messageCounters() const { return msgs; }
    std::uint64_t valueErrors() const { return _valueErrors; }
    /** Delivery-fault statistics (all zero when injection is off). */
    const FaultCounters &faultCounters() const
    {
        return injector.counters();
    }
    /**
     * Diagnostic dump recorded by the watchdog when it flags a
     * deadlock; empty on a clean run. Lists each wedged transaction
     * (phase, age, attempts) plus home-side busy/queue state and
     * the in-flight message slab.
     */
    const std::string &deadlockReport() const
    {
        return _deadlockReport;
    }
    /** Events executed by the engine's internal queue. */
    std::uint64_t executedEvents() const
    {
        return eq.executedEvents();
    }
    /** Current simulated time. */
    Tick curTick() const { return eq.curTick(); }

    /** @{ introspection (quiescent state only) */
    unsigned numCaches() const
    {
        return static_cast<unsigned>(cpus.size());
    }
    const cache::CacheArray &cacheArray(NodeId c) const
    {
        return caches[c];
    }
    /** The memory holding module @p i's blocks. The engine keeps
     *  every module's words and block store in one block-keyed
     *  module, so this is the same object for every @p i: look
     *  blocks up by id. */
    const mem::MemoryModule &memoryModule(unsigned) const
    {
        return mem;
    }
    NodeId
    homeOf(BlockId blk) const
    {
        return static_cast<NodeId>(blk % homes.size());
    }
    /** Whether @p c's cache controller is currently alive. */
    bool isLive(NodeId c) const { return !deadNodes.test(c); }
    /**
     * Whether the system is quiescent: no references outstanding
     * and no home busy periods (reconstruction fences included).
     * The precondition of proto::checkInvariants.
     */
    bool
    isQuiescent() const
    {
        if (refsOutstanding != 0)
            return false;
        for (const HomeState &h : homes)
            if (h.busyBlocks != 0)
                return false;
        return true;
    }
    /** @} */

  private:
    /**
     * The model checker (src/verify) drives the engine as a guarded
     * -action transition system: with vControlled set it buffers
     * every send and lifts every internal scheduling decision into
     * an explorer-chosen action. The gateway is the only component
     * with that level of access; production code never links it.
     */
    friend class ::mscp::verify::EngineGateway;

    using Entry = cache::Entry;
    using State = cache::State;
    using Mode = cache::Mode;

    /**
     * Slab slot for a message whose deliveries are still pending.
     * The delivery callbacks capture only {engine, slot index}, so
     * they fit net::DeliveryFn and, with their destination and tick,
     * the event queue's InlineFunction: sending a message performs
     * no per-delivery heap allocation.
     */
    static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};
    struct MsgSlot
    {
        Msg msg;
        std::uint32_t refs = 0;
        std::uint32_t nextFree = NoSlot;
    };

    // Each member group below names the translation unit that
    // defines it (one per concern; map in DESIGN.md 5b).

    /** @{ message plumbing, dispatch and run loop (concurrent.cc) */
    void send(const Msg &m);
    /** Multicast to the set @p dests (N bits; nothing if empty). */
    void sendMulticastMsg(MsgType t, NodeId src,
                          const DynamicBitset &dests, Bits payload,
                          BlockId blk, unsigned offset,
                          std::uint64_t value, NodeId aux_owner);
    /** A bare ack/nack: endpoints, block and an echoed seq only. */
    void sendAck(MsgType t, NodeId src, NodeId dst, BlockId blk,
                 std::uint64_t seq = 0);
    void deliver(const Msg &m);
    /** Whether @p cpu's program has a reference left to issue. */
    bool
    hasNextRef(NodeId cpu) const
    {
        return cpus[cpu].next < programs[cpu].size();
    }
    /** Route a delivery to its concern's handler. */
    void handleCacheMsg(const Msg &m);
    void handleMemMsg(const Msg &m);
    Bits payloadBits(const Msg &m) const;
    std::uint32_t allocSlot(const Msg &m);
    void releaseSlot(std::uint32_t slot);
    /** Refcount @p slot by the network's delivery tally. */
    void adoptDeliveries(std::uint32_t slot);
    /** Deliver slot contents to @p dst in place; frees the slot
     *  after its last delivery. */
    void deliverSlot(std::uint32_t slot, NodeId dst);
    /** Self/local delivery after @p delay ticks (no network). */
    void scheduleLocal(const Msg &m, Tick delay);
    /** Controlled-mode buffering (all sends funnel here when
     *  vControlled): parks the message in vPending, folding exact
     *  duplicates when vDedupSends is set. */
    void vBuffer(const Msg &m);
    Entry *findEntry(NodeId cpu, BlockId blk);
    /**
     * Present-vector members other than @p self, in the scratch
     * destination set. Valid until the scratch is next filled; the
     * engine is strictly single-threaded and callers consume the
     * set before any code path that could refill it.
     */
    const DynamicBitset &othersPresent(const Entry &e, NodeId self);
    void maybeExclusive(Entry &e, NodeId self);
    /** @} */

    /** @{ request path and cache-side serves (concurrent_request.cc) */
    void issueNext(NodeId cpu);
    void startAccess(NodeId cpu);
    void performOwnedWrite(NodeId cpu);
    void completeRef(NodeId cpu);
    void beginMissRequest(NodeId cpu, BlockId blk);
    /** Send a fresh-seq request to @p blk's home (or @p owner, for a
     *  pointer-bypass read), keep it for retry, arm the timeout. */
    void sendRequest(NodeId cpu, MsgType t, BlockId blk,
                     unsigned offset = 0, NodeId owner = invalidNode);
    /** Enter Commit; completion follows a hit latency later. */
    void scheduleCommit(NodeId cpu);
    /** Re-run startAccess after @p delay ticks. */
    void deferAccess(NodeId cpu, Tick delay);
    void handleRequestMsg(const Msg &m);
    void serveForward(const Msg &m);
    /** Owner @p e serves a LoadFwd or pointer-bypass LoadReq. */
    void serveRead(NodeId me, Entry &e, const Msg &m);
    /** Release the busy period reply @p m was served under, if any;
     *  @p owner asks the home to register @p requester. */
    void sendUnblock(NodeId me, const Msg &m, NodeId requester,
                     bool owner);
    /** Discard a duplicate/superseded reply, releasing any busy
     *  period it was served under and undoing its registration in
     *  the owner's present vector when no entry backs it. */
    void dropStaleReply(const Msg &m);
    /** @} */

    /** @{ ownership and eviction (concurrent_evict.cc) */
    bool allocateForMiss(NodeId cpu, BlockId blk);
    void continueEviction(NodeId cpu);
    void sendNextOffer(NodeId cpu);
    void finishEviction(NodeId cpu, bool clear_owner,
                        bool write_back);
    /** Close the eviction span and leave the eviction phase. */
    void endEviction(NodeId cpu);
    /** The EvictDone releasing eviction busy period @p tok. */
    Msg evictDone(NodeId cpu, BlockId blk, std::uint64_t tok,
                  bool clear_owner);
    /** Leave @p blk's present vector; reacquire only once acked. */
    void sendPresentClear(NodeId cpu, BlockId blk);
    /** Tell the other pointer holders in @p present that @p owner
     *  owns @p blk. */
    void announceOwner(NodeId from, const DynamicBitset &present,
                       BlockId blk, NodeId owner);
    /** The hand-off candidate @p cs is offering to now. */
    static NodeId
    candidate(const CpuState &cs)
    {
        return static_cast<NodeId>(cs.candidates.findNth(cs.candIdx));
    }
    void expectAcks(CpuState &cs, const DynamicBitset &from);
    /** Count one ack; the last completes the write or eviction. */
    void takeAck(NodeId cpu, NodeId from);
    void handleOwnershipMsg(const Msg &m);
    /** @} */

    /** @{ home directory (concurrent_home.cc); a block's home is
     *  homeOf(blk), the dst of every message a home handles */
    void handleHomeMsg(const Msg &m);
    void processHomeRequest(const Msg &m);
    /** Park @p m behind its busy block, oldest first. */
    void park(const Msg &m);
    /** The parked request of @p requester on @p blk, or nullptr. */
    Msg *findParked(BlockId blk, NodeId requester);
    void drainHomeQueue(BlockId blk);
    /** Whether @p blk has a busy period open. */
    bool
    isBusy(BlockId blk) const
    {
        const HomeBlock *hb = homeBlocks.find(blk);
        return hb && hb->busyToken != 0;
    }
    /** Mint @p blk's busy period and return its token; a crash plan
     *  also records @p releaser (invalidNode: none) and its tick. */
    std::uint64_t openBusy(BlockId blk, NodeId releaser);
    /** End @p blk's busy period and serve what queued behind it. */
    void closeBusy(BlockId blk);
    /** @} */

    /** @{ observability (concurrent.cc) */
    /** Append one trace record stamped with the current tick. */
    void trace(TraceEvent ev, NodeId node, NodeId node2,
               std::uint8_t cls, std::uint64_t seq,
               std::uint64_t arg)
    {
        _tracer.record(ev, eq.curTick(),
                       static_cast<std::uint16_t>(node),
                       static_cast<std::uint16_t>(node2), cls, seq,
                       arg);
    }

    /** Handles of the engine's metric series (see registerMetrics
     *  for the schema). */
    struct EngineMetricIds
    {
        net::NetMetricIds net;     ///< link heatmaps + fanout
        MetricId evqDepth;         ///< gauge: live pending events
        MetricId evqTombstones;    ///< gauge: descheduled heap slots
        MetricId refsOutstanding;  ///< gauge: references in flight
        MetricId refsDone;         ///< counter: completed references
        MetricId retries;          ///< counter: timed-out resends
        MetricId timeouts;         ///< counter: timeouts fired
        MetricId retryBackoff;     ///< histogram: armed timer delays
        MetricId dirEntries;       ///< gauge: directory entries held
        MetricId busyBlocks;       ///< gauge: outstanding busy tokens
        MetricId homeOccupancy;    ///< histogram: per-home busy sizes
        MetricId recoveringBlocks; ///< gauge: reconstruction fences
        MetricId rebuilds;         ///< counter: reconstructions done
        MetricId faultDropped;     ///< counter: injected drops
        MetricId faultDuplicated;  ///< counter: injected duplicates
        MetricId faultDelayed;     ///< counter: injected delays
        MetricId crashMasked;      ///< counter: dead-node sinks
    };

    /** Register every series into mreg, fill mid, return mreg (the
     *  MetricSet member is constructed from the result). */
    const MetricsRegistry &registerMetrics();
    /** Sampler probe: refresh gauges and mirror the plain counters
     *  just before each window snapshot. */
    void metricsProbe();
    /** @} */

    /** @{ linearizability monitor (concurrent.cc) */
    void monitorWritePending(Addr a, std::uint64_t v);
    void monitorWriteComplete(Addr a, std::uint64_t v);
    void checkReadSample(Addr a, std::uint64_t v);
    /** @} */

    /** @{ timeouts, retry, watchdog (concurrent_hardening.cc) */
    /** Delivery-fault class of a message type. */
    static FaultClass classOf(MsgType t);
    /** Human-readable phase name for diagnostics. */
    static const char *phaseName(Phase p);
    /** (Re)arm the retry timer for @p cpu's current attempt. */
    void armTimeout(NodeId cpu);
    void disarmTimeout(NodeId cpu);
    void onTimeout(NodeId cpu, std::uint64_t seq);
    void watchdogTick();
    /** Format the state of every wedged transaction. */
    std::string buildDeadlockReport(const std::vector<NodeId> &dead);
    /** @} */

    /** @{ crash-stop faults and directory reconstruction
     *  (concurrent_recovery.cc) */
    bool crashEnabled() const { return params.crashPlan.enabled(); }
    /** Kill a cache controller: wipe its state, stop its stream,
     *  and let every survivor's failure detector observe it. */
    void crashNode(NodeId n, Tick restart_tick);
    /** Cold restart: the node rejoins all-Invalid, resuming its
     *  reference stream where the crash cut it. */
    void rejoinNode(NodeId n);
    /** Stabilization sweep: reconstruct every block the dead node
     *  still anchors (store ownership or a wedged busy period). */
    void homeSweepDead(NodeId n);
    void startRecovery(BlockId blk, NodeId suspected);
    void finishRecovery(BlockId blk);
    /** @p blk's reconstruction, or nullptr if none is running. */
    RecoveryCtx *findRecovery(BlockId blk);
    /** Restart a purge-marked transaction from scratch, releasing
     *  the busy period the discarded serve @p m may have held. */
    void restartPurgedTx(NodeId cpu, const Msg &m);
    /** Apply a durable word at its home unless a fresher stamp
     *  already landed for the same address. */
    void applyDurableWord(BlockId blk, unsigned off,
                          std::uint64_t value, Tick stamp);
    /** Restart hint to @p r: the block it waited on was rebuilt. */
    void sendRecoveryNack(NodeId r, BlockId blk);
    void handleRecoveryMsg(const Msg &m);
    void handleHomeRecoveryMsg(const Msg &m);
    /** @} */

    ConcurrentParams params;
    net::OmegaNetwork &net;
    /** Each cpu's reference stream in program order; only the
     *  position (CpuState::next) is state. */
    std::vector<std::vector<workload::MemRef>> programs;
    EventQueue eq;
    net::TimedNetwork timedNet;
    /** Delivery-fault injector (interposed on timedNet when the
     *  plan enables any fault). */
    FaultInjector injector;
    /** Jitter source for retry backoff. */
    Random retryRng;
    /** Set by the watchdog: stop rescheduling retry/defer loops so
     *  the event queue can drain and run() can report. */
    bool _aborted = false;
    std::string _deadlockReport;
    EventId watchdogEv = 0;
    bool watchdogArmed = false;
    /** Event tracer; enabled() is false unless switched on at
     *  construction (traceEnabled or an armed watchdog). */
    Tracer _tracer;
    /** Per-completion latency sink (empty = no sampling). */
    LatencySink latSink;

    /** @{ windowed metrics. Declaration order matters: mreg and mid
     *  are populated by registerMetrics() while mx is constructed,
     *  and msampler snapshots mx. Everything below is inert (one
     *  branch per call site) unless params.metricsEnabled. */
    MetricsRegistry mreg;
    EngineMetricIds mid;
    MetricSet mx;
    MetricsSampler msampler;
    /** @} */

    /**
     * In-flight message slab with an intrusive free list. The slots
     * live in msgStore, a deque, so a slot stays put while the
     * handler reading it sends and grows the slab; msgSlab maps a
     * slot index to its slot in one load, where a deque index
     * divides by the slots per deque node.
     */
    std::deque<MsgSlot> msgStore;
    std::vector<MsgSlot *> msgSlab;
    std::uint32_t freeSlot = NoSlot;

    /** Scratch destination set of the multicast being sent (see
     *  othersPresent). */
    DynamicBitset destScratch;

    /** @{ model-checker controlled mode (src/verify). All gates
     *  check vControlled first, so normal runs take the exact same
     *  paths as a build without the hooks. In controlled mode the
     *  timed network and the event queue carry no protocol traffic:
     *  sends are buffered in vPending for the explorer to deliver
     *  in any order it chooses, completions and defer loops become
     *  flags (CpuState::vCommitPending/vDeferred), timers arm
     *  without scheduling, and crash sweeps park in vSweepPending. */
    bool vControlled = false;
    bool vMemSend = false; ///< inside a memory-side send context
    /** Drop a controlled-mode send whose exact content is already
     *  pending (VerifyOptions::dedupResends): timeout resends and
     *  suspicion rounds are verbatim copies every handler absorbs
     *  as duplicates, and folding them bounds the retry-storm
     *  frontier so crash configs become exhaustible. */
    bool vDedupSends = false;
    /** One value-visible event (refine.hh observes these). */
    struct VerifyObs
    {
        NodeId cpu = 0;
        bool invoke = false;
        bool isWrite = false;
        Addr addr = 0;
        std::uint64_t value = 0;
    };
    /** Invoke/respond events of the current action; the gateway
     *  clears it at the start of every apply. */
    std::vector<VerifyObs> vObsLog;
    /** @} */
};

} // namespace mscp::proto

#endif // MSCP_PROTO_CONCURRENT_HH
