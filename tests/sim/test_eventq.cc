/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <set>
#include <tuple>
#include <vector>

#include "net/timed_network.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace mscp;

// Every allocation in this binary goes through this counter, so a
// test can assert that a stretch of queue work allocated nothing.
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

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule([&] { order.push_back(3); }, 30);
    eq.schedule([&] { order.push_back(1); }, 10);
    eq.schedule([&] { order.push_back(2); }, 20);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule([&order, i] { order.push_back(i); }, 5);
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule([&] {
        eq.scheduleIn([&] { seen = eq.curTick(); }, 7);
    }, 10);
    eq.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule([&] { fired = true; }, 5);
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id)); // second time: already gone
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, DescheduleAfterFiringFails)
{
    EventQueue eq;
    EventId id = eq.schedule([] {}, 1);
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunRespectsMaxTicks)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule([&] { ++fired; }, 10);
    eq.schedule([&] { ++fired; }, 20);
    eq.schedule([&] { ++fired; }, 30);
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    // Events hold trivially copyable captures only, so each one
    // refers to the chain instead of copying the std::function.
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleIn([&chain] { chain(); }, 1);
    };
    eq.schedule([&chain] { chain(); }, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 4u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule([] {}, 10);
    eq.step();
    EXPECT_THROW(eq.schedule([] {}, 5), PanicError);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule([] {}, 10);
    eq.schedule([] {}, 20);
    eq.step();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueue, NextTickReportsEarliestEvent)
{
    EventQueue eq;
    eq.schedule([] {}, 42);
    eq.schedule([] {}, 17);
    EXPECT_EQ(eq.nextTick(), 17u);
}

TEST(EventQueue, SameTickFifoSurvivesInterleavedScheduling)
{
    // Schedule bursts at several ticks in shuffled tick order; the
    // heap must still replay each tick's burst in schedule order.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> order;
    const Tick ticks[] = {30, 10, 50, 10, 30, 50, 10, 30, 50, 10};
    int perTick[64] = {};
    for (Tick t : ticks) {
        int k = perTick[t]++;
        eq.schedule([&order, t, k] { order.emplace_back(t, k); }, t);
    }
    eq.run();
    ASSERT_EQ(order.size(), std::size(ticks));
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i - 1].first == order[i].first)
            EXPECT_EQ(order[i - 1].second + 1, order[i].second);
        else
            EXPECT_LT(order[i - 1].first, order[i].first);
    }
}

TEST(EventQueue, DescheduledEventNeverFiresUnderStepping)
{
    EventQueue eq;
    int fired = 0;
    bool doomed = false;
    eq.schedule([&] { ++fired; }, 1);
    EventId id = eq.schedule([&] { doomed = true; }, 2);
    eq.schedule([&] { ++fired; }, 3);
    EXPECT_EQ(eq.size(), 3u);

    EXPECT_TRUE(eq.deschedule(id));
    // The tombstone still occupies a heap slot but size() must not
    // count it.
    EXPECT_EQ(eq.size(), 2u);

    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.curTick(), 1u);
    EXPECT_TRUE(eq.step()); // skips the tombstone, fires tick 3
    EXPECT_EQ(eq.curTick(), 3u);
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(doomed);
}

TEST(EventQueue, DescheduleAllLeavesQueueEmpty)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (Tick t = 1; t <= 20; ++t)
        ids.push_back(eq.schedule([] { FAIL(); }, t));
    for (EventId id : ids)
        EXPECT_TRUE(eq.deschedule(id));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, ResetDuringRunDropsRemainingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule([&] {
        ++fired;
        eq.reset();
        // Post-reset time restarts at zero and scheduling works.
        eq.schedule([&] { ++fired; }, 2);
    }, 10);
    eq.schedule([&] { FAIL() << "survived reset"; }, 20);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutedEventsCountsFiringsNotDeschedules)
{
    EventQueue eq;
    eq.schedule([] {}, 1);
    EventId id = eq.schedule([] {}, 2);
    eq.schedule([] {}, 3);
    eq.deschedule(id);
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 2u);
    eq.reset();
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, HeapOrderUnderManyRandomishTicks)
{
    // Deterministic pseudo-random tick pattern: events must come
    // out in nondecreasing tick order whatever the insert order.
    EventQueue eq;
    std::vector<Tick> seen;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        Tick t = x % 97;
        eq.schedule([&seen, &eq] { seen.push_back(eq.curTick()); }, t);
    }
    eq.run();
    ASSERT_EQ(seen.size(), 500u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LE(seen[i - 1], seen[i]);
}

TEST(EventQueue, KeyedEventsFireInKeyOrderWithinOneTick)
{
    // scheduleKeyed() imposes an explicit total order on same-tick
    // events, independent of schedule order -- the mechanism the
    // PDES engine uses to replay a partitioned run in the global
    // queue's order.
    EventQueue eq;
    std::vector<std::uint64_t> order;
    for (std::uint64_t key : {9u, 2u, 7u, 1u, 5u})
        eq.scheduleKeyed([&order, key] { order.push_back(key); },
                         10, key);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 5, 7, 9}));
}

TEST(EventQueue, KeyedTiesBreakInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleKeyed([&order, i] { order.push_back(i); }, 3, 77);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, KeyOrdersOnlyWithinOneTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleKeyed([&] { order.push_back(1); }, 5, 100);
    eq.scheduleKeyed([&] { order.push_back(2); }, 6, 1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CompactionBoundsTombstones)
{
    // Property test for tombstone compaction: under a deterministic
    // pseudo-random schedule/deschedule mix, dead slots never exceed
    // half the heap, live events are never lost, and the surviving
    // events still fire in order. Ticks from 1 land in the wheel's
    // buckets; ticks from WheelSpan land in the heap, whose
    // cancelled entries are the tombstones compaction bounds.
    for (Tick base : {Tick{1}, EventQueue::WheelSpan}) {
        SCOPED_TRACE(base);
        EventQueue eq;
        std::vector<EventId> live;
        std::vector<Tick> fired;
        std::size_t scheduled = 0, descheduled = 0, peak = 0;
        std::uint64_t x = 0x243f6a8885a308d3ull;
        auto rnd = [&x] {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            return x;
        };
        for (int i = 0; i < 4000; ++i) {
            if (live.empty() || rnd() % 3 != 0) {
                Tick t = base + rnd() % 1000;
                live.push_back(eq.schedule(
                    [&fired, &eq] { fired.push_back(eq.curTick()); },
                    t));
                ++scheduled;
            } else {
                std::size_t pick = rnd() % live.size();
                EXPECT_TRUE(eq.deschedule(live[pick]));
                live[pick] = live.back();
                live.pop_back();
                ++descheduled;
            }
            // The compaction invariant: deschedule() rebuilds once
            // tombstones outnumber live events, so at rest dead
            // slots can never exceed the live population (plus one
            // for the pre-compaction peak at tiny sizes).
            EXPECT_LE(eq.tombstoneSlots(), eq.size() + 1);
            EXPECT_EQ(eq.size(), live.size());
            peak = std::max(peak, eq.tombstoneSlots());
        }
        ASSERT_GT(descheduled, 100u);
        if (base >= EventQueue::WheelSpan)
            EXPECT_GT(peak, 0u);
        else
            EXPECT_EQ(peak, 0u); // bucket events unlink at once
        EXPECT_EQ(eq.run(), scheduled - descheduled);
        EXPECT_EQ(fired.size(), scheduled - descheduled);
        for (std::size_t i = 1; i < fired.size(); ++i)
            EXPECT_LE(fired[i - 1], fired[i]);
        EXPECT_EQ(eq.tombstoneSlots(), 0u);
    }
}

TEST(EventQueue, DescheduleHeavyQueueStaysCompact)
{
    // Cancel-everything pattern: every scheduled event is
    // cancelled. Without compaction the heap would grow without
    // bound; with it the heap tracks the live population. Offsets
    // of 0 exercise the buckets, WheelSpan the heap.
    for (Tick base : {Tick{0}, EventQueue::WheelSpan}) {
        SCOPED_TRACE(base);
        EventQueue eq;
        for (int round = 0; round < 100; ++round) {
            std::vector<EventId> ids;
            for (Tick t = 1; t <= 50; ++t)
                ids.push_back(eq.schedule([] { FAIL(); },
                                          base + t + round));
            for (EventId id : ids)
                EXPECT_TRUE(eq.deschedule(id));
            EXPECT_LE(eq.tombstoneSlots(), 51u);
        }
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.run(), 0u);
    }
}

namespace
{

/**
 * Differential model of the queue: the pending set kept sorted by
 * (tick, key, seq), plus every handle issued since the last reset
 * and whether it is still pending.
 */
class ReferenceQueue
{
  public:
    ReferenceQueue(EventQueue &eq, std::uint64_t seed)
        : eq(eq), rng(seed)
    {}

    /** Schedule one random event: near or beyond the wheel's span,
     *  on the current tick or later, keyed or not. */
    void
    scheduleOne()
    {
        Tick delay;
        switch (rng.draw() % 8) {
          case 0:
            delay = 0;
            break;
          case 1:
            delay = EventQueue::WheelSpan - 1 + rng.draw() % 2;
            break;
          case 2:
          case 3:
            delay = EventQueue::WheelSpan + rng.draw() % 3000;
            break;
          default:
            delay = rng.draw() % 64;
            break;
        }
        const bool keyed = rng.draw() % 3 == 0;
        const Ev ev{eq.curTick() + delay, keyed ? rng.draw() % 4 : seq,
                    seq, handles.size()};
        ++seq;
        auto cb = [this, label = ev.label] { fired(label); };
        EventId id = keyed ? eq.scheduleKeyed(cb, ev.when, ev.key)
                           : eq.schedule(cb, ev.when);
        pending.insert(ev);
        handles.push_back({id, ev, true});
    }

    /** Deschedule a random handle: pending, fired or cancelled. */
    void
    descheduleOne()
    {
        if (handles.empty())
            return;
        Handle &h = handles[rng.draw() % handles.size()];
        EXPECT_EQ(eq.deschedule(h.id), h.live);
        if (h.live) {
            pending.erase(h.ev);
            h.live = false;
        }
    }

    /** A random action, as the driver or from inside a callback. */
    void
    act(bool in_callback)
    {
        const unsigned r = rng.draw() % 16;
        if (r < 9 && budget > 0) {
            --budget;
            scheduleOne();
        } else if (r < 12) {
            descheduleOne();
        } else if (r == 12 && in_callback && resets < 3) {
            // reset() from inside a callback drops everything,
            // including the running event's neighbours; handles
            // issued before it are no longer meaningful.
            ++resets;
            eq.reset();
            pending.clear();
            handles.clear();
            seq = 0;
        }
        check();
    }

    void
    check()
    {
        EXPECT_EQ(eq.size(), pending.size());
        EXPECT_LE(eq.tombstoneSlots(), eq.size() + 1);
        EXPECT_EQ(eq.nextTick(),
                  pending.empty() ? maxTick : pending.begin()->when);
    }

    std::size_t budget = 0;
    std::size_t firings = 0;
    unsigned resets = 0;

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
        std::size_t label;

        bool
        operator<(const Ev &o) const
        {
            return std::tie(when, key, seq) <
                std::tie(o.when, o.key, o.seq);
        }
    };
    struct Handle
    {
        EventId id;
        Ev ev;
        bool live;
    };

    void
    fired(std::size_t label)
    {
        ++firings;
        ASSERT_FALSE(pending.empty());
        const Ev expect = *pending.begin();
        ASSERT_EQ(label, expect.label);
        EXPECT_EQ(eq.curTick(), expect.when);
        pending.erase(pending.begin());
        handles[label].live = false;
        for (unsigned i = rng.draw() % 3; i-- > 0;)
            act(true);
    }

    EventQueue &eq;
    Random rng;
    std::set<Ev> pending;
    std::vector<Handle> handles;
    /** The queue's sequence number of the next schedule. */
    std::uint64_t seq = 0;
};

} // anonymous namespace

TEST(EventQueue, MatchesSortedReferenceUnderRandomMix)
{
    // Differential property test: events inside and beyond the
    // wheel's span, same-tick bursts, keyed and unkeyed events,
    // schedules and deschedules from inside callbacks, deschedules
    // of pending, fired and cancelled ids, and reset() inside a
    // callback. Every firing must be the reference's earliest
    // (tick, key, seq) pending event.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        EventQueue eq;
        ReferenceQueue ref(eq, seed);
        ref.budget = 6000;
        for (int i = 0; i < 300; ++i)
            ref.scheduleOne();
        while (!eq.empty() || ref.budget > 0) {
            ref.act(false);
            eq.step();
            ref.check();
        }
        EXPECT_GT(ref.firings, 3000u);
        EXPECT_FALSE(eq.step());
    }
}

TEST(EventQueue, DeliveryShapedEventsAllocateNothing)
{
    // The network's delivery events, as TimedNetwork::sendUnicast
    // builds them in their slots: a DeliveryFn plus its destination
    // and arrival tick. Once the queue has grown to its working
    // size, sending and firing must not allocate, whether a delivery
    // lands in a bucket or, behind a message that holds its links
    // for more than the wheel's span, in the heap.
    net::OmegaNetwork net(64);
    EventQueue eq;
    net::TimedNetwork tn(net, eq, 16, 1);
    std::uint64_t arrivals = 0;
    const net::DeliveryFn onDelivery = [&arrivals](NodeId, Tick) {
        ++arrivals;
    };
    auto send = [&](int i) {
        const auto src = static_cast<NodeId>(i % 64);
        const auto dst = static_cast<NodeId>((i * 7 + 3) % 64);
        const Bits payload =
            i % 5 == 0 ? 16 * EventQueue::WheelSpan : 32 + i % 7;
        tn.sendUnicast(src, dst, payload, onDelivery);
    };
    constexpr int N = 20000;
    for (int i = 0; i < 64; ++i)
        send(i);
    for (int i = 0; i < N; ++i) {
        send(i);
        eq.step();
    }
    const std::size_t before = allocations;
    for (int i = 0; i < N; ++i) {
        send(i);
        eq.step();
    }
    EXPECT_EQ(allocations - before, 0u);
    EXPECT_EQ(arrivals, 2u * N);
}
