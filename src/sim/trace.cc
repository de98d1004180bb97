#include "trace.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "sim/logging.hh"

namespace mscp
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::ReadHit: return "read_hit";
      case OpClass::ReadMiss: return "read_miss";
      case OpClass::WriteHit: return "write_hit";
      case OpClass::WriteMiss: return "write_miss";
      case OpClass::Upgrade: return "upgrade";
      case OpClass::Eviction: return "eviction";
      default: return "unknown";
    }
}

const char *
traceEventName(TraceEvent e)
{
    switch (e) {
      case TraceEvent::Issue: return "issue";
      case TraceEvent::Send: return "send";
      case TraceEvent::Deliver: return "deliver";
      case TraceEvent::HomeAccept: return "home_accept";
      case TraceEvent::HomeQueue: return "home_queue";
      case TraceEvent::HomeDup: return "home_dup";
      case TraceEvent::Forward: return "forward";
      case TraceEvent::Nack: return "nack";
      case TraceEvent::Timeout: return "timeout";
      case TraceEvent::Retry: return "retry";
      case TraceEvent::Commit: return "commit";
      case TraceEvent::Complete: return "complete";
      case TraceEvent::EvictStart: return "evict_start";
      case TraceEvent::EvictEnd: return "evict_end";
      case TraceEvent::FaultDrop: return "fault_drop";
      case TraceEvent::FaultDup: return "fault_dup";
      case TraceEvent::NetDeliver: return "net_deliver";
      case TraceEvent::EvSchedule: return "ev_schedule";
      case TraceEvent::WatchdogFlag: return "watchdog_flag";
      case TraceEvent::Crash: return "crash";
      case TraceEvent::Rejoin: return "rejoin";
      case TraceEvent::Suspect: return "suspect";
      case TraceEvent::Purge: return "purge";
      case TraceEvent::Rebuild: return "rebuild";
      case TraceEvent::CrashMask: return "crash_mask";
      case TraceEvent::VerifyAction: return "verify_action";
      default: return "unknown";
    }
}

Tracer::Tracer(std::size_t capacity)
{
    std::size_t cap = 16;
    while (cap < capacity)
        cap <<= 1;
    mask = cap - 1;
}

void
Tracer::setEnabled(bool on)
{
    if (on && ring.empty())
        ring.resize(capacity());
    _enabled = on;
}

void
Tracer::setOverflowWarn(bool on)
{
    warnOnOverflow = on;
}

void
Tracer::clear()
{
    head = 0;
    warnedOverflow = false;
}

void
Tracer::warnOverflow()
{
    warnedOverflow = true;
    if (!warnOnOverflow)
        return;
    warn("tracer: ring full after %llu records; overwriting oldest "
         "(raise traceCapacity to keep more history)",
         static_cast<unsigned long long>(head));
}

std::vector<TraceRecord>
Tracer::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(size());
    forEach([&](const TraceRecord &r) { out.push_back(r); });
    return out;
}

namespace
{

/**
 * Span categories. Issue/Complete, EvictStart/EvictEnd and
 * Suspect/Rebuild (directory reconstruction, keyed by the home node
 * and the recovered block) form async begin/end pairs; everything
 * else renders as an instant.
 */
enum SpanRole : char { RoleInstant = 0, RoleBegin = 1, RoleEnd = 2 };

const char *
spanCat(TraceEvent e)
{
    if (e == TraceEvent::Issue || e == TraceEvent::Complete)
        return "txn";
    if (e == TraceEvent::Suspect || e == TraceEvent::Rebuild)
        return "recovery";
    return "evict";
}

std::uint64_t
spanId(const TraceRecord &r)
{
    return (static_cast<std::uint64_t>(r.node) << 48) | r.seq;
}

void
emitCommonTail(std::ostream &os, const TraceRecord &r)
{
    os << csprintf(",\"pid\":%u,\"tid\":0,\"ts\":%llu",
                   static_cast<unsigned>(r.node),
                   static_cast<unsigned long long>(r.tick));
}

} // anonymous namespace

void
exportChromeTrace(std::ostream &os,
                  const std::vector<TraceRecord> &records)
{
    exportChromeTrace(os, records, {});
}

void
exportChromeTrace(std::ostream &os,
                  const std::vector<TraceRecord> &records,
                  const std::vector<ChromeExtraEvent> &extras)
{
    // Pass 1: pair begins with ends by (category, node, seq) so the
    // output only ever contains matched "b"/"e" pairs. A begin whose
    // end was lost (ring overwrite, aborted run) or an end whose
    // begin was overwritten degrades to an instant.
    std::vector<char> role(records.size(), RoleInstant);
    std::map<std::tuple<char, std::uint16_t, std::uint64_t>,
             std::size_t> open;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto kind = static_cast<TraceEvent>(records[i].kind);
        const bool isBegin = kind == TraceEvent::Issue ||
                             kind == TraceEvent::EvictStart ||
                             kind == TraceEvent::Suspect;
        const bool isEnd = kind == TraceEvent::Complete ||
                           kind == TraceEvent::EvictEnd ||
                           kind == TraceEvent::Rebuild;
        if (!isBegin && !isEnd)
            continue;
        const char catKey = spanCat(kind)[0];
        const auto key = std::make_tuple(catKey, records[i].node,
                                         records[i].seq);
        if (isBegin) {
            // A re-begin orphans the earlier begin (stays instant).
            open[key] = i;
        } else {
            auto it = open.find(key);
            if (it != open.end()) {
                role[it->second] = RoleBegin;
                role[i] = RoleEnd;
                open.erase(it);
            }
        }
    }

    os << "[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Name each node's process row.
    std::map<std::uint16_t, bool> nodes;
    for (const auto &r : records)
        nodes[r.node] = true;
    for (const auto &[node, unused] : nodes) {
        sep();
        os << csprintf("{\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                       "\"name\":\"process_name\","
                       "\"args\":{\"name\":\"node %u\"}}",
                       static_cast<unsigned>(node),
                       static_cast<unsigned>(node));
    }

    // Splice preformatted extras (metrics counter tracks) into the
    // stream in tick order. Ties emit the extra first: a window's
    // counters describe time strictly before its boundary tick.
    std::size_t ei = 0;
    auto flushExtras = [&](Tick upTo) {
        while (ei < extras.size() && extras[ei].ts <= upTo) {
            sep();
            os << extras[ei].json;
            ++ei;
        }
    };

    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        const auto kind = static_cast<TraceEvent>(r.kind);
        flushExtras(r.tick);
        sep();
        if (role[i] == RoleBegin || role[i] == RoleEnd) {
            const char *cat = spanCat(kind);
            os << csprintf("{\"name\":\"%s %llu\",\"cat\":\"%s\","
                           "\"ph\":\"%s\",\"id\":\"0x%llx\"",
                           cat,
                           static_cast<unsigned long long>(r.seq),
                           cat, role[i] == RoleBegin ? "b" : "e",
                           static_cast<unsigned long long>(spanId(r)));
            emitCommonTail(os, r);
            if (kind == TraceEvent::Suspect) {
                os << csprintf(",\"args\":{\"blk\":%llu,"
                               "\"suspect\":%u}",
                               static_cast<unsigned long long>(r.seq),
                               static_cast<unsigned>(r.node2));
            } else if (kind == TraceEvent::Rebuild) {
                // Reconstruction end carries the number of purge
                // acks the rebuild collected.
                os << csprintf(",\"args\":{\"blk\":%llu,"
                               "\"acks\":%llu}",
                               static_cast<unsigned long long>(r.seq),
                               static_cast<unsigned long long>(r.arg));
            } else if (role[i] == RoleEnd) {
                // Completion records carry the operation class and
                // the measured latency.
                os << csprintf(",\"args\":{\"op\":\"%s\","
                               "\"latency\":%llu}",
                               opClassName(static_cast<OpClass>(r.cls)),
                               static_cast<unsigned long long>(r.arg));
            } else {
                os << csprintf(",\"args\":{\"blk\":%llu}",
                               static_cast<unsigned long long>(r.arg));
            }
            os << "}";
        } else {
            os << csprintf("{\"name\":\"%s\",\"cat\":\"ev\","
                           "\"ph\":\"i\",\"s\":\"t\"",
                           traceEventName(kind));
            emitCommonTail(os, r);
            os << csprintf(",\"args\":{\"node2\":%u,\"cls\":%u,"
                           "\"seq\":%llu,\"arg\":%llu}}",
                           static_cast<unsigned>(r.node2),
                           static_cast<unsigned>(r.cls),
                           static_cast<unsigned long long>(r.seq),
                           static_cast<unsigned long long>(r.arg));
        }
    }
    flushExtras(maxTick);
    os << "\n]\n";
}

void
exportChromeTrace(std::ostream &os, const Tracer &tracer)
{
    exportChromeTrace(os, tracer.snapshot());
}

std::vector<TraceRecord>
mergeTraceRecords(const std::vector<const Tracer *> &tracers)
{
    std::vector<TraceRecord> merged;
    std::size_t total = 0;
    for (const Tracer *t : tracers)
        total += t ? t->size() : 0;
    merged.reserve(total);
    for (const Tracer *t : tracers) {
        if (t)
            t->forEach([&](const TraceRecord &r) {
                merged.push_back(r);
            });
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.tick < b.tick;
                     });
    return merged;
}

void
exportChromeTrace(std::ostream &os,
                  const std::vector<const Tracer *> &tracers)
{
    exportChromeTrace(os, mergeTraceRecords(tracers));
}

} // namespace mscp
