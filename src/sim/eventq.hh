/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick fire in schedule order (a
 * monotonically increasing sequence number breaks ties), which keeps
 * simulations reproducible across runs and platforms.
 *
 * Implementation: events fire in (tick, key, seq) order from two
 * stores, and step() takes the earlier of their heads.
 *  - An event due less than WheelSpan ticks ahead goes into its
 *    tick's bucket of a hashed timing wheel (Varghese and Lauck,
 *    SOSP 1987): WheelSpan buckets indexed by the tick's low bits,
 *    each an intrusive ring kept in (key, seq) order, plus an
 *    occupancy bitmap that finds the next non-empty bucket. Every
 *    bucket event lies in [curTick, curTick + WheelSpan), so each
 *    bucket holds one tick and the scan from curTick's bucket meets
 *    them in tick order.
 *  - A later event (long timeouts, the watchdog, crash plans) goes
 *    into a 4-ary min-heap of 32-byte {tick, key, seq, slot} entries.
 * Callbacks (InlineFunctions: trivially copyable captures held
 * inline, so scheduling never touches the heap allocator) are
 * written once, straight into a slab slot that neither store moves;
 * an EventId packs the event's slot and sequence number.
 * deschedule() is O(1): a bucket event is unlinked at once, a heap
 * event frees its slot and leaves its heap entry as a tombstone that
 * is skipped when it reaches the top. A descheduled event never
 * fires, and size() never counts tombstones. When tombstones
 * outnumber live heap entries the heap is compacted in place, so a
 * cancel-heavy timer pattern stays proportional to its live
 * population.
 *
 * Same-tick ordering: schedule() uses the event's own sequence
 * number as its key, so events at one tick fire in schedule order.
 * scheduleKeyed() lets the caller impose an explicit total order on
 * same-tick events instead; the PDES engine uses this to make a
 * partitioned run execute same-tick events in exactly the order the
 * single global queue would have (DESIGN.md 5h).
 */

#ifndef MSCP_SIM_EVENTQ_HH
#define MSCP_SIM_EVENTQ_HH

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace mscp
{

class MetricsSampler;
class Tracer;

/** Opaque handle identifying a scheduled event for descheduling. */
using EventId = std::uint64_t;

/**
 * Discrete-event queue with deterministic same-tick ordering.
 *
 * The queue owns no simulation objects; callbacks are trivially
 * copyable `void()` callables of up to InlineFunction::InlineSize
 * bytes, stored inline. Typical use:
 *
 *     EventQueue eq;
 *     eq.schedule([&]{ ... }, eq.curTick() + 5);
 *     eq.run();
 */
class EventQueue
{
  public:
    /**
     * Ticks ahead covered by the timing wheel's per-tick buckets;
     * later events wait in the heap. A power of two, so a tick's
     * bucket is its low bits.
     */
    static constexpr Tick WheelSpan = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Number of live events waiting in the queue. Descheduled
     * events still occupying tombstone heap slots are not counted.
     */
    std::size_t size() const { return live; }

    /** @return true iff no live events are pending. */
    bool empty() const { return size() == 0; }

    /** Events executed since construction (or the last reset()). */
    std::uint64_t executedEvents() const { return _executed; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param cb callback to invoke (anything InlineFunction holds),
     *        built straight into the event's slab slot
     * @param when absolute tick, must be >= curTick()
     * @return handle usable with deschedule()
     */
    template <typename F>
    EventId
    schedule(F &&cb, Tick when)
    {
        return scheduleKeyed(std::forward<F>(cb), when, nextSeq);
    }

    /**
     * Schedule with an explicit same-tick ordering key. Events at
     * the same tick fire in ascending @p key order (ties broken by
     * schedule order), independently of when they were scheduled.
     * schedule() is equivalent to scheduleKeyed() with the event's
     * own sequence number as the key.
     */
    template <typename F>
    EventId
    scheduleKeyed(F &&cb, Tick when, std::uint64_t key)
    {
        const std::uint32_t s = enqueue(when, key);
        ::new (&slab[s].cb) InlineFunction(std::forward<F>(cb));
        return slab[s].seq << SlotBits | s;
    }

    /**
     * schedule() an @p F brace-initialized from @p fields in its
     * slab slot (InlineFn's in-place constructor): for a hot event
     * whose fields the caller has at hand, such as a network
     * delivery.
     */
    template <typename F, typename... Fields>
    EventId
    scheduleNew(Tick when, Fields &&...fields)
    {
        const std::uint32_t s = enqueue(when, nextSeq);
        ::new (&slab[s].cb) InlineFunction(
            std::in_place_type<F>, std::forward<Fields>(fields)...);
        return slab[s].seq << SlotBits | s;
    }

    /** Schedule a callback @p delay ticks in the future. */
    template <typename F>
    EventId
    scheduleIn(F &&cb, Tick delay)
    {
        return schedule(std::forward<F>(cb), _curTick + delay);
    }

    /**
     * Remove a previously scheduled event.
     *
     * A bucket event is unlinked at once; a heap event leaves a
     * tombstone reclaimed lazily. Either way the event is dead from
     * this call on: it will never fire and no longer counts toward
     * size().
     *
     * @return true if the event was pending and is now removed,
     *         false if it already fired, was already descheduled,
     *         or was never scheduled.
     */
    bool deschedule(EventId id);

    /** Tick at which the next live event fires, or maxTick. */
    Tick nextTick() const;

    /**
     * Execute a single event (the earliest live one), advancing
     * time.
     *
     * @return true if an event was executed.
     */
    bool step();

    /**
     * Run until the queue drains or @p maxTicks is reached.
     *
     * @param maxTicks stop once curTick() would exceed this value
     * @return number of events executed
     */
    std::uint64_t run(Tick maxTicks = maxTick);

    /** Drop every pending event and reset time to zero. */
    void reset();

    /**
     * Set time to @p t, earlier or later, on a queue with nothing
     * pending (a model-checker state restore). Panics if an event
     * is pending.
     */
    void restoreTick(Tick t);

    /**
     * Attach a tracer recording an EvSchedule record per schedule()
     * call. Attach only while tracing is enabled (the owner's job),
     * so the untraced path pays exactly one null-pointer branch.
     * Pass nullptr to detach.
     */
    void setTracer(Tracer *t) { tracer = t; }

    /**
     * Attach a windowed metrics sampler, advanced to each event's
     * tick just before the event executes so every snapshot boundary
     * reflects exactly the events that preceded it (sim/metrics.hh).
     * Attach only while metrics are enabled, as with setTracer();
     * pass nullptr to detach.
     */
    void setMetricsSampler(MetricsSampler *s) { msampler = s; }

    /**
     * Heap slots currently occupied by descheduled events
     * (diagnostic; exercised by the compaction property test).
     * Cancelled bucket events leave none.
     */
    std::size_t tombstoneSlots() const { return tombstones; }

  private:
    static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};
    /** Slot::next of an event held by the heap. */
    static constexpr std::uint32_t InHeap = NoSlot - 1;
    /** An EventId is (seq << SlotBits) | slot. */
    static constexpr unsigned SlotBits = 24;
    static constexpr std::uint64_t SlotMask =
        (std::uint64_t{1} << SlotBits) - 1;
    static constexpr std::uint64_t MaxSeq =
        (std::uint64_t{1} << (64 - SlotBits)) - 1;
    /** Slot::seq of a free slot. */
    static constexpr std::uint64_t NoSeq = ~std::uint64_t{0};
    static constexpr std::size_t WheelWords = WheelSpan / 64;
    static_assert((WheelSpan & (WheelSpan - 1)) == 0 &&
                      WheelWords > 0,
                  "WheelSpan must be a power of two >= 64");

    /** One event's callback and order; reused once it fires. */
    struct Slot
    {
        InlineFunction cb;
        Tick when = 0;
        std::uint64_t key = 0;
        /** The held event's sequence number, NoSeq while free. */
        std::uint64_t seq = NoSeq;
        /** Bucket ring links; next is InHeap for a heap event and
         *  the free-list link while the slot is free. */
        std::uint32_t next = NoSlot;
        std::uint32_t prev = NoSlot;
    };

    /** Heap entry: the firing order and the slot it names. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        before(const HeapEntry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (key != o.key)
                return key < o.key;
            return seq < o.seq;
        }
    };
    // Sifts copy entries, never callbacks.
    static_assert(sizeof(HeapEntry) == 32);
    static_assert(std::is_trivially_copyable_v<HeapEntry>);

    /** The earliest live event, as located by peek(). */
    struct Next
    {
        std::uint32_t slot;
        bool inHeap;
    };

    /**
     * Order an event at (@p when, @p key) with the next sequence
     * number: the slot it takes, linked into its store, whose
     * callback the caller then writes.
     */
    std::uint32_t enqueue(Tick when, std::uint64_t key);
    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t s);

    /** Link slot @p s into its tick's bucket, in (key, seq) order. */
    void bucketInsert(std::uint32_t s);
    void bucketUnlink(std::uint32_t s);
    /** Bucket of the earliest bucket event; false if none. */
    bool firstBucket(std::size_t &b) const;

    void siftUp(std::size_t i);
    /** Place @p e at the hole @p i, moving it down. */
    void siftDown(std::size_t i, HeapEntry e);
    void heapPush(const HeapEntry &e);
    /** Remove the top entry; heap must be non-empty. */
    void heapPop();
    /** Whether @p e's event was descheduled (its slot moved on). */
    bool stale(const HeapEntry &e) const { return slab[e.slot].seq != e.seq; }
    /** Drop tombstoned entries off the top of the heap. */
    void pruneTop();
    /** Rebuild the heap without its tombstoned entries. */
    void compact();

    /** Locate the earliest live event; false if none. */
    bool peek(Next &n);
    /** Remove @p n from the queue and run it. */
    void fire(const Next &n);

    Tracer *tracer = nullptr;
    MetricsSampler *msampler = nullptr;
    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _executed = 0;
    /** Live events, both stores. */
    std::size_t live = 0;
    /** Heap entries whose event was descheduled. */
    std::size_t tombstones = 0;
    std::vector<Slot> slab;
    std::uint32_t freeHead = NoSlot;
    /** Far-future events. */
    std::vector<HeapEntry> heap;
    /** Head slot of each bucket's ring (meaningful only where the
     *  occupancy bit is set); allocated at the first bucket event. */
    std::unique_ptr<std::uint32_t[]> bucketHead;
    std::array<std::uint64_t, WheelWords> occupied{};
};

} // namespace mscp

#endif // MSCP_SIM_EVENTQ_HH
