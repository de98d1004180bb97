#include "eventq.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

namespace mscp
{

namespace
{

constexpr std::size_t Arity = 4;

} // anonymous namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != NoSlot) {
        std::uint32_t s = freeHead;
        freeHead = slab[s].next;
        return s;
    }
    panic_if(slab.size() > SlotMask,
             "event queue: more than %llu live events",
             static_cast<unsigned long long>(SlotMask + 1));
    slab.emplace_back();
    return static_cast<std::uint32_t>(slab.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t s)
{
    slab[s].seq = NoSeq;
    slab[s].next = freeHead;
    freeHead = s;
}

void
EventQueue::bucketInsert(std::uint32_t s)
{
    if (!bucketHead)
        bucketHead = std::make_unique_for_overwrite<std::uint32_t[]>(
            WheelSpan);
    Slot &n = slab[s];
    const std::size_t b = n.when & (WheelSpan - 1);
    std::uint64_t &word = occupied[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if (!(word & bit)) {
        word |= bit;
        bucketHead[b] = s;
        n.next = n.prev = s;
        return;
    }
    // The newest event has the largest seq, so it goes after every
    // event with a key <= its own: walk back from the tail. Plain
    // schedule()s stop at once.
    const std::uint32_t head = bucketHead[b];
    std::uint32_t after = slab[head].prev;
    while (slab[after].key > n.key) {
        if (after == head) {
            // Smallest key: link in before the head.
            after = slab[head].prev;
            bucketHead[b] = s;
            break;
        }
        after = slab[after].prev;
    }
    const std::uint32_t before = slab[after].next;
    n.prev = after;
    n.next = before;
    slab[after].next = s;
    slab[before].prev = s;
}

void
EventQueue::bucketUnlink(std::uint32_t s)
{
    Slot &n = slab[s];
    const std::size_t b = n.when & (WheelSpan - 1);
    if (n.next == s) {
        occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        return;
    }
    slab[n.prev].next = n.next;
    slab[n.next].prev = n.prev;
    if (bucketHead[b] == s)
        bucketHead[b] = n.next;
}

bool
EventQueue::firstBucket(std::size_t &b) const
{
    // Scan circularly from curTick's bucket: every bucket event lies
    // in [curTick, curTick + WheelSpan), so the first occupied
    // bucket holds the earliest tick. The start word is visited
    // twice: first above curTick's bit, then (after wrapping) whole.
    const std::size_t start = _curTick & (WheelSpan - 1);
    std::size_t w = start / 64;
    std::uint64_t bits = occupied[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t i = 0; i <= WheelWords; ++i) {
        if (bits) {
            b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            return true;
        }
        w = (w + 1) % WheelWords;
        bits = occupied[w];
    }
    return false;
}

void
EventQueue::siftUp(std::size_t i)
{
    const HeapEntry e = heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / Arity;
        if (!e.before(heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i, HeapEntry e)
{
    const std::size_t n = heap.size();
    while (true) {
        std::size_t first = i * Arity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t last = std::min(first + Arity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (heap[c].before(heap[best]))
                best = c;
        }
        if (!heap[best].before(e))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = e;
}

void
EventQueue::heapPush(const HeapEntry &e)
{
    heap.push_back(e);
    siftUp(heap.size() - 1);
}

void
EventQueue::heapPop()
{
    const HeapEntry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, last);
}

void
EventQueue::pruneTop()
{
    while (!heap.empty() && stale(heap.front())) {
        heapPop();
        --tombstones;
    }
}

std::uint32_t
EventQueue::enqueue(Tick when, std::uint64_t key)
{
    panic_if(when < _curTick,
             "scheduling event in the past (when=%llu cur=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(_curTick));
    panic_if(nextSeq > MaxSeq, "event queue: sequence numbers "
             "exhausted after %llu events",
             static_cast<unsigned long long>(MaxSeq));
    const std::uint64_t seq = nextSeq++;
    if (tracer) {
        tracer->record(TraceEvent::EvSchedule, _curTick, 0, 0, 0,
                       seq, when);
    }
    const std::uint32_t s = allocSlot();
    Slot &n = slab[s];
    n.when = when;
    n.key = key;
    n.seq = seq;
    if (when - _curTick < WheelSpan) {
        bucketInsert(s);
    } else {
        n.next = InHeap;
        heapPush({when, key, seq, s});
    }
    ++live;
    return s;
}

bool
EventQueue::deschedule(EventId id)
{
    const std::uint64_t s = id & SlotMask;
    if (s >= slab.size() || slab[s].seq != id >> SlotBits)
        return false;
    const auto slot = static_cast<std::uint32_t>(s);
    if (slab[slot].next == InHeap)
        ++tombstones;
    else
        bucketUnlink(slot);
    freeSlot(slot);
    --live;
    // Cancel-heavy users (long timeouts, the per-shard PDES queues)
    // would otherwise let dead entries dominate the heap and every
    // sift pay for them; rebuilding at the half-full mark keeps the
    // amortized cost per deschedule constant.
    if (tombstones > heap.size() / 2)
        compact();
    return true;
}

void
EventQueue::compact()
{
    std::erase_if(heap, [this](const HeapEntry &e) {
        return stale(e);
    });
    tombstones = 0;
    if (heap.size() > 1) {
        for (std::size_t i = (heap.size() - 2) / Arity + 1; i-- > 0;)
            siftDown(i, heap[i]);
    }
}

bool
EventQueue::peek(Next &n)
{
    pruneTop();
    std::size_t b;
    if (!firstBucket(b)) {
        if (heap.empty())
            return false;
        n = {heap.front().slot, true};
        return true;
    }
    const Slot &head = slab[bucketHead[b]];
    n = {bucketHead[b], false};
    if (!heap.empty() &&
        heap.front().before({head.when, head.key, head.seq, 0}))
        n = {heap.front().slot, true};
    return true;
}

void
EventQueue::fire(const Next &n)
{
    if (n.inHeap)
        heapPop();
    else
        bucketUnlink(n.slot);
    // The callback leaves the slab before it runs: it may schedule
    // (growing the slab or reusing its slot), deschedule or reset()
    // the queue.
    Slot &s = slab[n.slot];
    const InlineFunction cb = s.cb;
    const Tick when = s.when;
    freeSlot(n.slot);
    --live;
    _curTick = when;
    ++_executed;
    // Window boundaries snapshot *before* the event at the boundary
    // tick executes, so each window holds exactly the events whose
    // ticks precede it.
    if (msampler)
        msampler->advanceTo(when);
    cb();
}

Tick
EventQueue::nextTick() const
{
    // peek() only drops tombstones off the heap top, which changes
    // no observable state.
    Next n;
    auto *self = const_cast<EventQueue *>(this);
    return self->peek(n) ? slab[n.slot].when : maxTick;
}

bool
EventQueue::step()
{
    Next n;
    if (!peek(n))
        return false;
    fire(n);
    return true;
}

std::uint64_t
EventQueue::run(Tick max_ticks)
{
    std::uint64_t executed = 0;
    Next n;
    while (peek(n) && slab[n.slot].when <= max_ticks) {
        fire(n);
        ++executed;
    }
    return executed;
}

void
EventQueue::restoreTick(Tick t)
{
    panic_if(live != 0,
             "event queue: restoreTick with %zu event(s) pending", live);
    _curTick = t;
}

void
EventQueue::reset()
{
    slab.clear();
    freeHead = NoSlot;
    heap.clear();
    occupied.fill(0);
    live = 0;
    tombstones = 0;
    _curTick = 0;
    nextSeq = 0;
    _executed = 0;
}

} // namespace mscp
