/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) core.
 *
 * A single timed run is parallelized by partitioning its event
 * population into shards (nodes and their co-located memory homes
 * are assigned to shards by a static map), giving every shard its
 * own EventQueue, and executing shards on worker threads under a
 * time-window synchronization scheme:
 *
 *   window k:  W_end = min over shards of next-event tick + L
 *
 * where L is the lookahead -- a lower bound, guaranteed by the
 * model, on the timestamp increment of any cross-shard event (for
 * the omega network: the zero-load latency of the smallest message,
 * see net::TimedNetwork::zeroLoadLookahead()). Within a window every
 * shard executes its local events with tick < W_end; events aimed
 * at another shard are enqueued into a lock-free bounded mailbox
 * and become safe to integrate once the window barrier has passed:
 * their timestamps are >= W_end by the lookahead guarantee, so the
 * destination shard cannot have advanced beyond them.
 *
 * Determinism contract (the same one the sweep layer holds across
 * MSCP_THREADS): results are bit-identical for any worker count and
 * identical to a serial run of the same model on one global queue.
 * Two mechanisms deliver it:
 *
 *  - every event carries an explicit ordering key (see
 *    EventQueue::scheduleKeyed); a shard executes same-tick events
 *    in key order, exactly the order the global heap would have;
 *  - mailbox drains sort incoming slots by (tick, key, source
 *    shard) before integration, so cross-shard arrivals are
 *    replayed in a schedule-independent order.
 *
 * Worker threads are spun up per run (the same strategy as
 * sim/pool.hh); MSCP_PDES_THREADS selects the default worker count
 * and is orthogonal to the sweep-level MSCP_THREADS knob.
 */

#ifndef MSCP_SIM_PDES_HH
#define MSCP_SIM_PDES_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/pool.hh"
#include "sim/types.hh"

namespace mscp
{

/**
 * One cross-shard event in flight: timestamp, deterministic
 * ordering key, and an opaque model payload. Exactly one cache line
 * so a mailbox ring never splits a slot across lines and neighbor
 * slots never false-share a producer/consumer boundary.
 */
struct MailboxSlot
{
    Tick tick;
    std::uint64_t key;
    std::uint64_t payload[6];
};

static_assert(sizeof(MailboxSlot) == 64,
              "MailboxSlot must stay one 64-byte cache line");
static_assert(std::is_trivially_copyable_v<MailboxSlot>,
              "MailboxSlot crosses threads by memcpy");
static_assert(std::has_unique_object_representations_v<MailboxSlot>,
              "MailboxSlot members must stay fixed-width with no "
              "padding");

/**
 * Store a trivially-copyable payload struct into a slot's payload
 * words (and the reverse). The payload type must fit the 48-byte
 * payload area; enforced at compile time.
 */
template <typename T>
void
storePayload(MailboxSlot &slot, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= sizeof(slot.payload),
                  "payload exceeds MailboxSlot capacity");
    std::memcpy(slot.payload, &v, sizeof(T));
}

template <typename T>
T
loadPayload(const MailboxSlot &slot)
{
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= sizeof(slot.payload));
    T v;
    std::memcpy(&v, slot.payload, sizeof(T));
    return v;
}

/**
 * Single-producer single-consumer mailbox: a lock-free bounded ring
 * plus an unbounded spill area for bursts.
 *
 * Ring pushes and pops are wait-free (acquire/release indices, no
 * CAS). The spill vector is deliberately unsynchronized: the window
 * executor only drains between barriers, when the producer is
 * quiescent, so spilled slots are published by the barrier itself.
 * Callers using a mailbox outside that discipline must drain only
 * while the producer is stopped.
 */
class SpscMailbox
{
  public:
    /** @param capacity ring slots, rounded up to a power of two. */
    explicit SpscMailbox(std::size_t capacity = 1024)
    {
        std::size_t cap = 16;
        while (cap < capacity)
            cap *= 2;
        ring.resize(cap);
    }

    SpscMailbox(const SpscMailbox &) = delete;
    SpscMailbox &operator=(const SpscMailbox &) = delete;

    /** Producer side. Never blocks; bursts overflow into spill. */
    void
    push(const MailboxSlot &slot)
    {
        const std::size_t h = head.load(std::memory_order_relaxed);
        const std::size_t t = tail.load(std::memory_order_acquire);
        if (h - t < ring.size()) {
            ring[h & (ring.size() - 1)] = slot;
            head.store(h + 1, std::memory_order_release);
        } else {
            spill.push_back(slot);
            ++_spills;
        }
    }

    /**
     * Consumer side: append every queued slot to @p out in push
     * order and empty the mailbox. Spill slots (if any) follow the
     * ring slots they overflowed behind, preserving order.
     */
    void
    drainInto(std::vector<MailboxSlot> &out)
    {
        std::size_t t = tail.load(std::memory_order_relaxed);
        const std::size_t h = head.load(std::memory_order_acquire);
        for (; t != h; ++t)
            out.push_back(ring[t & (ring.size() - 1)]);
        tail.store(t, std::memory_order_release);
        if (!spill.empty()) {
            out.insert(out.end(), spill.begin(), spill.end());
            spill.clear();
        }
    }

    /** Ring-full overflows so far (diagnostic). */
    std::uint64_t spills() const { return _spills; }

    std::size_t ringCapacity() const { return ring.size(); }

  private:
    alignas(64) std::atomic<std::size_t> head{0};
    alignas(64) std::atomic<std::size_t> tail{0};
    std::vector<MailboxSlot> ring;
    std::vector<MailboxSlot> spill;
    std::uint64_t _spills = 0;
};

/**
 * Reusable sense-reversing spin barrier. All parties calling
 * arriveAndWait() synchronize: writes made by any party before its
 * arrival happen-before every party's return.
 */
class WindowBarrier
{
  public:
    explicit WindowBarrier(unsigned num_parties)
        : parties(num_parties)
    {
        panic_if(parties == 0, "barrier needs at least one party");
    }

    void
    arriveAndWait()
    {
        if (parties == 1)
            return;
        const std::uint64_t gen =
            generation.load(std::memory_order_acquire);
        if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties) {
            arrived.store(0, std::memory_order_relaxed);
            generation.store(gen + 1, std::memory_order_release);
        } else {
            unsigned spins = 0;
            while (generation.load(std::memory_order_acquire) ==
                   gen) {
                if (++spins > 1024)
                    std::this_thread::yield();
            }
        }
    }

  private:
    const unsigned parties;
    std::atomic<unsigned> arrived{0};
    std::atomic<std::uint64_t> generation{0};
};

/**
 * Static partition of nodes (processor + co-located memory home)
 * onto shards: contiguous, balanced blocks, so a shard's nodes are
 * a dense range and the map is a pure function of the node and
 * shard counts -- results cannot depend on thread count by
 * construction.
 */
class ShardMap
{
  public:
    ShardMap(unsigned num_nodes, unsigned num_shards)
        : nodes(num_nodes),
          shards(num_shards > num_nodes ? num_nodes : num_shards)
    {
        panic_if(num_nodes == 0 || num_shards == 0,
                 "ShardMap needs nodes and shards");
    }

    unsigned numShards() const { return shards; }

    /** Shard owning node @p n. */
    unsigned
    shardOf(NodeId n) const
    {
        return static_cast<unsigned>(
            static_cast<std::uint64_t>(n) * shards / nodes);
    }

    /** First node of shard @p s. */
    NodeId
    firstNode(unsigned s) const
    {
        // Smallest n with n * shards >= s * nodes.
        return static_cast<NodeId>(
            (static_cast<std::uint64_t>(s) * nodes + shards - 1) /
            shards);
    }

    /** One past the last node of shard @p s. */
    NodeId endNode(unsigned s) const { return firstNode(s + 1); }

  private:
    unsigned nodes;
    unsigned shards;
};

/**
 * Default PDES worker count: MSCP_PDES_THREADS if set, else the
 * hardware concurrency. Orthogonal to MSCP_THREADS: a sweep may fan
 * points across cores while each point's timed run is itself
 * sharded.
 */
inline unsigned
pdesDefaultThreads()
{
    if (unsigned v = ThreadPool::envThreads("MSCP_PDES_THREADS"))
        return v;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/** Model-side interface the window executor drives. */
class PdesClient
{
  public:
    virtual ~PdesClient() = default;

    /** Next local event tick of @p shard, or maxTick if idle. */
    virtual Tick shardNextTick(unsigned shard) = 0;

    /**
     * Execute every local event of @p shard with tick < @p bound.
     * Cross-shard events must go through PdesExecutor::post() and
     * carry timestamps >= bound (the lookahead guarantee).
     */
    virtual void shardExecute(unsigned shard, Tick bound) = 0;

    /**
     * Integrate one cross-shard arrival into @p shard's queue.
     * Called between windows, in (tick, key, src-shard) order.
     */
    virtual void shardIntegrate(unsigned shard,
                                const MailboxSlot &slot) = 0;
};

/** Run diagnostics (deterministic for a given shard count). */
struct PdesDiag
{
    std::uint64_t windows = 0;     ///< synchronization windows run
    std::uint64_t crossShard = 0;  ///< mailbox slots integrated
    std::uint64_t spills = 0;      ///< mailbox ring overflows
};

/**
 * The conservative time-window executor. One instance drives one
 * client across one or more run() calls; post() may only be called
 * from inside shardExecute().
 */
class PdesExecutor
{
  public:
    /**
     * @param client model callbacks
     * @param num_shards shard count (fixed by the model's map)
     * @param lookahead minimum cross-shard timestamp increment, > 0
     * @param mailbox_capacity ring slots per shard pair
     */
    PdesExecutor(PdesClient &client, unsigned num_shards,
                 Tick lookahead, std::size_t mailbox_capacity = 1024);

    /**
     * Send a cross-shard event. The timestamp must respect the
     * lookahead: slot.tick >= the posting shard's current window
     * end (checked, panics on violation -- a model bug that would
     * silently break determinism otherwise).
     */
    void post(unsigned src_shard, unsigned dst_shard,
              const MailboxSlot &slot);

    /**
     * Run windows until every shard is idle and every mailbox is
     * empty. @p num_threads workers (clamped to the shard count)
     * execute shards round-robin; results are identical for any
     * value, including 1.
     */
    PdesDiag run(unsigned num_threads = pdesDefaultThreads());

    Tick lookahead() const { return _lookahead; }
    unsigned numShards() const { return shards; }

  private:
    struct alignas(64) PaddedTick
    {
        Tick v = 0;
    };

    SpscMailbox &mailbox(unsigned src, unsigned dst)
    {
        return *mailboxes[static_cast<std::size_t>(src) * shards +
                          dst];
    }

    /** Drain every mailbox aimed at @p shard and integrate. */
    void drainShard(unsigned shard);

    /** Per-worker window loop; worker w owns shards w, w+T, ... */
    void workerLoop(unsigned worker, unsigned num_workers);

    PdesClient &client;
    const unsigned shards;
    const Tick _lookahead;
    std::vector<std::unique_ptr<SpscMailbox>> mailboxes;
    /** Published next-event ticks, one padded slot per shard. */
    std::vector<PaddedTick> nextTicks;
    /** Current window end per shard (written by the owning worker,
     *  read by its own post() calls -- same thread). */
    std::vector<PaddedTick> windowEnd;
    /** Per-shard drain scratch (owned by the draining worker). */
    std::vector<std::vector<MailboxSlot>> drainScratch;
    WindowBarrier *barrier = nullptr;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorLock;
    /** Per-shard tallies merged into the run diag in shard order. */
    std::vector<std::uint64_t> integrated;
    std::uint64_t windows = 0;
};

} // namespace mscp

#endif // MSCP_SIM_PDES_HH
