/**
 * @file
 * Binary ring-buffer event tracer for the protocol engines.
 *
 * A Tracer owns a fixed-size ring of 32-byte POD TraceRecords and is
 * attached to one engine (engines are single-threaded; the sweep
 * runner gives each worker thread its own engine, so each Tracer is
 * effectively per-thread and needs no locking). Recording is guarded
 * by a compile-time kill switch (the MSCP_TRACE CMake option; OFF
 * defines MSCP_TRACE_DISABLED and compiles record() to nothing) and a
 * runtime enable, so the disabled path costs a single predictable
 * branch per call site.
 *
 * The ring overwrites its oldest record when full (overflow is
 * accounted, and the first overwrite is reported once through the
 * logging layer at warn level). exportChromeTrace() renders a
 * snapshot as Chrome trace_event JSON — async spans per node for
 * transaction lifecycles, instants for everything else — loadable in
 * about://tracing or Perfetto.
 */

#ifndef MSCP_SIM_TRACE_HH
#define MSCP_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mscp
{

/**
 * Operation classes for latency accounting. Lives here (not in
 * core/latency.hh) so the protocol engines can classify completions
 * without depending on the core library, which links against proto.
 */
enum class OpClass : std::uint8_t
{
    ReadHit,
    ReadMiss,
    WriteHit,
    WriteMiss,
    Upgrade,
    Eviction,
    NumClasses,
};

/** @return a stable short name for an operation class. */
const char *opClassName(OpClass c);

/** Event kinds recorded by the tracer. */
enum class TraceEvent : std::uint8_t
{
    Issue,         ///< cpu starts a reference (seq = opId, arg = blk)
    Send,          ///< engine sends a message (cls = MsgType)
    Deliver,       ///< engine receives a message (cls = MsgType)
    HomeAccept,    ///< home accepted a request (goes busy)
    HomeQueue,     ///< home busy; request parked on the wait queue
    HomeDup,       ///< home suppressed a duplicate request
    Forward,       ///< cache served a forwarded request
    Nack,          ///< NackNotOwner bounced a forwarded request
    Timeout,       ///< transaction timeout fired
    Retry,         ///< timed-out request resent verbatim
    Commit,        ///< transaction reached Phase::Commit
    Complete,      ///< reference completed (cls = OpClass, arg = lat)
    EvictStart,    ///< owned-victim eviction handshake started
    EvictEnd,      ///< eviction finished (arg = latency)
    FaultDrop,     ///< injector dropped a delivery (cls = FaultClass)
    FaultDup,      ///< injector duplicated a delivery
    NetDeliver,    ///< TimedNetwork delivery callback ran
    EvSchedule,    ///< EventQueue scheduled an event (arg = when)
    WatchdogFlag,  ///< watchdog flagged an over-age transaction
    Crash,         ///< node's cache controller died (arg = restart)
    Rejoin,        ///< crashed node rejoined cold
    Suspect,       ///< home starts reconstruction (seq = blk)
    Purge,         ///< recovery purge delivered (seq = blk)
    Rebuild,       ///< reconstruction finished (seq = blk)
    CrashMask,     ///< delivery sunk: destination cache dead
    VerifyAction,  ///< model-checker action boundary (counterexample
                   ///< replays; cls = verify::ActionKind, arg = step)
    NumEvents,
};

/** @return a stable short name for a trace event kind. */
const char *traceEventName(TraceEvent e);

/**
 * One trace record: fixed 32-byte POD so the ring is a flat binary
 * buffer with no per-record allocation or indirection.
 *
 * Field meaning varies by kind (see TraceEvent): @c seq carries the
 * per-cpu transaction id for lifecycle events and the message seq for
 * send/deliver; @c cls carries a MsgType, OpClass or FaultClass;
 * @c arg is the payload (block id, latency, scheduled tick, ...).
 */
struct TraceRecord
{
    Tick tick;
    std::uint64_t seq;
    std::uint64_t arg;
    std::uint16_t node;
    std::uint16_t node2;
    std::uint8_t kind;
    std::uint8_t cls;
    std::uint16_t _pad;
};

static_assert(sizeof(TraceRecord) == 32,
              "TraceRecord must stay a packed 32-byte POD");

/** @return true iff tracing support is compiled in (MSCP_TRACE=ON). */
constexpr bool
traceCompiledIn()
{
#ifdef MSCP_TRACE_DISABLED
    return false;
#else
    return true;
#endif
}

class Tracer
{
  public:
    /** @param capacity ring size in records; rounded up to a power
     *  of two (minimum 16). The ring is allocated by the first
     *  setEnabled(true), so a tracer never enabled allocates
     *  nothing. */
    explicit Tracer(std::size_t capacity = 4096);

    /** Runtime enable; recording is a no-op while disabled. */
    void setEnabled(bool on);

    /**
     * Whether the first ring overwrite logs a warning (default on).
     * Turn off when the ring is deliberately used as a sliding
     * history window (e.g. watchdog-armed runs), where overwriting
     * the oldest record is the designed steady state; dropped()
     * still accounts the loss either way.
     */
    void setOverflowWarn(bool on);

    bool
    enabled() const
    {
        return traceCompiledIn() && _enabled;
    }

    /**
     * Append one record. When tracing is compiled out this is an
     * empty inline function; when compiled in but disabled it is a
     * single branch.
     */
    void
    record(TraceEvent kind, Tick tick, std::uint16_t node,
           std::uint16_t node2, std::uint8_t cls, std::uint64_t seq,
           std::uint64_t arg)
    {
#ifndef MSCP_TRACE_DISABLED
        if (!_enabled)
            return;
        if (head >= capacity() && !warnedOverflow)
            warnOverflow();
        TraceRecord &r = ring[head & mask];
        r.tick = tick;
        r.seq = seq;
        r.arg = arg;
        r.node = node;
        r.node2 = node2;
        r.kind = static_cast<std::uint8_t>(kind);
        r.cls = cls;
        r._pad = 0;
        ++head;
#else
        (void)kind; (void)tick; (void)node; (void)node2;
        (void)cls; (void)seq; (void)arg;
#endif
    }

    /** Total records ever recorded (including overwritten ones). */
    std::uint64_t recorded() const { return head; }

    /** Records lost to ring overwrite. */
    std::uint64_t
    dropped() const
    {
        return head > capacity() ? head - capacity() : 0;
    }

    /** Records currently held in the ring. */
    std::size_t
    size() const
    {
        return head < capacity() ? static_cast<std::size_t>(head)
                                 : capacity();
    }

    std::size_t capacity() const { return mask + 1; }

    /** Drop all records (capacity and enable state unchanged). */
    void clear();

    /**
     * Visit the held records oldest-first.
     * @param fn callable taking (const TraceRecord &).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::uint64_t first = dropped();
        for (std::uint64_t i = first; i < head; ++i)
            fn(ring[static_cast<std::size_t>(i & mask)]);
    }

    /** Copy the held records oldest-first. */
    std::vector<TraceRecord> snapshot() const;

  private:
    void warnOverflow();

    std::vector<TraceRecord> ring;
    /** capacity() - 1; fixed at construction. */
    std::uint64_t mask = 0;
    std::uint64_t head = 0;
    bool _enabled = false;
    bool warnedOverflow = false;
    bool warnOnOverflow = true;
};

/**
 * Render records as Chrome trace_event JSON (the array form, which
 * both about://tracing and Perfetto accept).
 *
 * Issue/Complete and EvictStart/EvictEnd become async "b"/"e" span
 * pairs keyed by (node, transaction seq) with the node as pid, so
 * each node renders as a process row of transaction spans; every
 * other record becomes an instant event. Begins whose end was lost
 * (ring overwrite, aborted run) are re-emitted as instants so the
 * output always contains matched begin/end pairs. Ticks are written
 * as microseconds.
 */
void exportChromeTrace(std::ostream &os,
                       const std::vector<TraceRecord> &records);

/**
 * A preformatted Chrome trace_event object (no trailing comma) to
 * splice into an exportChromeTrace() stream at tick @c ts. The
 * metrics layer renders counter-track events this way
 * (sim/metrics.hh) so counters and transaction spans share one
 * Perfetto timeline.
 */
struct ChromeExtraEvent
{
    Tick ts = 0;
    std::string json;
};

/**
 * Export records with extra preformatted events merged in tick
 * order. @p extras must be sorted by ts; ties emit the extra first
 * (a window's counters describe time *before* its boundary).
 */
void exportChromeTrace(std::ostream &os,
                       const std::vector<TraceRecord> &records,
                       const std::vector<ChromeExtraEvent> &extras);

/** Convenience overload exporting a tracer's current snapshot. */
void exportChromeTrace(std::ostream &os, const Tracer &tracer);

/**
 * Merge several tracers' held records into one time-ordered stream.
 * A PDES run gives every shard its own ring (recording stays
 * single-threaded and lock-free); this splices them back into the
 * single timeline the serial engine would have produced. The sort
 * is stable with tracers visited in index order, so ties at one
 * tick keep (shard, ring) order and the merged stream is
 * deterministic for any worker count.
 */
std::vector<TraceRecord>
mergeTraceRecords(const std::vector<const Tracer *> &tracers);

/** Convenience overload exporting several rings as one timeline. */
void exportChromeTrace(std::ostream &os,
                       const std::vector<const Tracer *> &tracers);

} // namespace mscp

#endif // MSCP_SIM_TRACE_HH
