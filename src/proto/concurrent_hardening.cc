/**
 * @file
 * ConcurrentProtocol fault hardening: delivery-fault classes,
 * per-transaction timeouts with bounded jittered backoff and
 * verbatim retry, the liveness watchdog and its deadlock report.
 */

#include "concurrent.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::proto
{

FaultClass
ConcurrentProtocol::classOf(MsgType t)
{
    switch (t) {
      case MsgType::LoadReq:
      case MsgType::LoadOwnReq:
      case MsgType::OwnReq:
      case MsgType::EvictReq:
        return FaultClass::Request;
      case MsgType::LoadFwd:
      case MsgType::LoadOwnFwd:
      case MsgType::OwnFwd:
      case MsgType::PresentClear:
        return FaultClass::Forward;
      case MsgType::DataBlock:
      case MsgType::Datum:
      case MsgType::StateXfer:
      case MsgType::StateCopyXfer:
      case MsgType::EvictAck:
        return FaultClass::Reply;
      case MsgType::DwAck:
      case MsgType::InvalAck:
      case MsgType::OfferAck:
      case MsgType::OfferNack:
      case MsgType::PresentClearAck:
      case MsgType::NackNotOwner:
        return FaultClass::Ack;
      case MsgType::SuspectOwner:
      case MsgType::RecoveryPurge:
      case MsgType::RecoveryAck:
      case MsgType::RecoveryNack:
      case MsgType::DurableWrite:
        return FaultClass::Recovery;
      default:
        return FaultClass::Control;
    }
}

const char *
ConcurrentProtocol::phaseName(Phase p)
{
    switch (p) {
      case Phase::Idle: return "Idle";
      case Phase::WaitHome: return "WaitHome";
      case Phase::WaitPointer: return "WaitPointer";
      case Phase::WaitOwnXfer: return "WaitOwnXfer";
      case Phase::WaitDwAcks: return "WaitDwAcks";
      case Phase::WaitEvictAck: return "WaitEvictAck";
      case Phase::WaitOffer: return "WaitOffer";
      case Phase::WaitInvalAcks: return "WaitInvalAcks";
      case Phase::Commit: return "Commit";
    }
    return "?";
}

void
ConcurrentProtocol::armTimeout(NodeId cpu)
{
    if (params.timeoutBase == 0 || _aborted)
        return;
    CpuState &cs = cpus[cpu];
    if (vControlled) {
        // The timer never reaches the event queue (nor the jitter
        // RNG): firing is an explorer action guarded by the seq.
        cs.timeoutArmed = true;
        cs.vTimeoutSeq = cs.txSeq;
        return;
    }
    if (cs.timeoutArmed)
        eq.deschedule(cs.timeoutEv);
    // Bounded exponential backoff with jitter: retry i waits
    // timeoutBase << i (capped), plus up to a quarter extra so
    // synchronized retry storms decorrelate.
    unsigned shift = std::min(cs.attempts, 20u);
    Tick delay = std::min(params.timeoutBase << shift,
                          params.timeoutCap);
    delay += retryRng.uniform(0, delay / 4);
    mx.sample(mid.retryBackoff, delay);
    std::uint64_t seq = cs.txSeq;
    auto timeout = [this, cpu, seq] { onTimeout(cpu, seq); };
    static_assert(InlineFunction::fitsInline<decltype(timeout)>);
    cs.timeoutEv = eq.scheduleIn(timeout, delay);
    cs.timeoutArmed = true;
}

void
ConcurrentProtocol::disarmTimeout(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    if (vControlled) {
        cs.timeoutArmed = false;
        return;
    }
    if (cs.timeoutArmed) {
        eq.deschedule(cs.timeoutEv);
        cs.timeoutArmed = false;
    }
}

void
ConcurrentProtocol::onTimeout(NodeId cpu, std::uint64_t seq)
{
    CpuState &cs = cpus[cpu];
    cs.timeoutArmed = false;
    // A timer for a superseded attempt (or a settled transaction)
    // is a no-op: accepting a late reply is always preferred over
    // retrying.
    if (_aborted || !cs.active || cs.txSeq != seq)
        return;
    ++ctrs.timeouts;
    trace(TraceEvent::Timeout, cpu, cpu,
          static_cast<std::uint8_t>(cs.phase), cs.opId, cs.attempts);
    if (cs.attempts >= params.maxRetries) {
        if (crashEnabled() && cs.phase == Phase::WaitPointer) {
            // The pointed-at owner is unreachable (likely dead):
            // fall back to the home exactly like a pointer NACK
            // would. A late Datum of the abandoned attempt is
            // absorbed by the stale-reply machinery.
            cs.pointerRetries = 2;
            unmark(cpu, params.geometry.blockOf(cs.ref.addr), PinnedTx);
            cs.phase = Phase::Idle;
            cs.attempts = 0;
            startAccess(cpu);
            return;
        }
        if (crashEnabled() &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitOwnXfer ||
             cs.phase == Phase::WaitEvictAck)) {
            // Retries exhausted on a request the home has seen:
            // raise a suspicion so the home can check whether the
            // block's anchor (owner or busy releaser) died, and
            // keep retrying while it investigates.
            BlockId sblk = cs.phase == Phase::WaitEvictAck
                ? cs.victimBlk
                : params.geometry.blockOf(cs.ref.addr);
            send({.type = MsgType::SuspectOwner, .src = cpu,
                  .dst = homeOf(sblk), .toMemory = true, .blk = sblk,
                  .requester = cpu});
            cs.attempts = 0;
            armTimeout(cpu);
            return;
        }
        ++ctrs.retriesExhausted;
        return; // wedged for good: the watchdog reports it
    }
    ++cs.attempts;
    BlockId blk = params.geometry.blockOf(cs.ref.addr);

    switch (cs.phase) {
      case Phase::WaitPointer:
      case Phase::WaitHome:
      case Phase::WaitOwnXfer:
      case Phase::WaitEvictAck:
        // Resend the outstanding request verbatim (same seq). If
        // the original merely crawled -- still in flight, queued
        // behind a busy period, or its serve already under way --
        // the duplicate is suppressed at the home and the late
        // serve still matches txSeq. Only a request that truly
        // vanished makes the resend visible. Never restart with a
        // fresh seq here: abandoning an attempt whose serve is in
        // flight would orphan the ownership or present bit that
        // serve carries.
        ++ctrs.retries;
        trace(TraceEvent::Retry, cpu, cs.lastReq.dst,
              static_cast<std::uint8_t>(cs.lastReq.type), cs.opId,
              cs.attempts);
        send(cs.lastReq);
        armTimeout(cpu);
        return;

      case Phase::WaitDwAcks:
      case Phase::WaitInvalAcks: {
        // Re-send to the copies that have not answered. Updates
        // and invalidations are idempotent and the ack filter
        // (ackFrom) absorbs duplicate acknowledgements.
        ++ctrs.retries;
        trace(TraceEvent::Retry, cpu, cpu,
              static_cast<std::uint8_t>(cs.phase), cs.opId,
              cs.attempts);
        std::vector<NodeId> &rest = presentScratch;
        rest.clear();
        const NodeSet &a = cs.ackFrom;
        for (std::size_t i = a.findFirst(); i < a.size();
             i = a.findNext(i)) {
            rest.push_back(static_cast<NodeId>(i));
        }
        if (cs.phase == Phase::WaitDwAcks) {
            sendMulticastMsg(MsgType::DwUpdate, cpu, rest,
                             params.sizes.wordBits, blk,
                             params.geometry.offsetOf(cs.ref.addr),
                             cs.ref.value, cpu);
        } else {
            sendMulticastMsg(MsgType::Invalidate, cpu, rest, 0,
                             cs.victimBlk, 0, 0, cpu);
        }
        armTimeout(cpu);
        return;
      }

      default:
        // WaitOffer (re-offering could strand an accepted pin) and
        // deferred Idle states have nothing safe to re-send; keep
        // the timer running so coverage resumes on a phase change.
        armTimeout(cpu);
        return;
    }
}

void
ConcurrentProtocol::watchdogTick()
{
    watchdogArmed = false;
    if (_aborted || refsOutstanding == 0)
        return;
    Tick now = eq.curTick();
    std::vector<NodeId> dead;
    for (NodeId c = 0; c < cpus.size(); ++c) {
        const CpuState &cs = cpus[c];
        if (cs.active && now - cs.issueTick > params.watchdogAge)
            dead.push_back(c);
    }
    if (dead.empty()) {
        auto scan = [this] { watchdogTick(); };
        static_assert(InlineFunction::fitsInline<decltype(scan)>);
        watchdogEv = eq.scheduleIn(scan, params.watchdogPeriod);
        watchdogArmed = true;
        return;
    }
    ctrs.watchdogDeadlocks += dead.size();
    for (NodeId c : dead) {
        trace(TraceEvent::WatchdogFlag, c, c,
              static_cast<std::uint8_t>(cpus[c].phase), cpus[c].opId,
              now - cpus[c].issueTick);
    }
    _deadlockReport = buildDeadlockReport(dead);
    warn("concurrent watchdog: %zu transaction(s) exceeded age "
         "%llu at tick %llu - protocol deadlock\n%s",
         dead.size(),
         static_cast<unsigned long long>(params.watchdogAge),
         static_cast<unsigned long long>(now),
         _deadlockReport.c_str());
    // Abort gracefully: every self-rescheduling path checks the
    // flag, so the event queue drains and run() reports instead of
    // spinning forever.
    _aborted = true;
}

std::string
ConcurrentProtocol::buildDeadlockReport(
    const std::vector<NodeId> &dead)
{
    Tick now = eq.curTick();
    std::string out;
    if (crashEnabled()) {
        out += "  crashed nodes:";
        bool any = false;
        for (std::size_t n = deadNodes.findFirst();
             n < deadNodes.size(); n = deadNodes.findNext(n)) {
            out += csprintf(" %zu", n);
            any = true;
        }
        if (!any)
            out += " none";
        std::size_t rec = 0;
        for (const HomeState &h : homes)
            rec += h.recoveringBlocks;
        out += csprintf(" (reconstructions in flight: %zu)\n", rec);
    }
    for (NodeId c : dead) {
        const CpuState &cs = cpus[c];
        BlockId blk = params.geometry.blockOf(cs.ref.addr);
        out += csprintf(
            "  cpu%u: %c @%llu blk=%llu phase=%s age=%llu "
            "attempts=%u seq=%llu evicting=%d victim=%llu "
            "pendingAcks=%u pinsTx=%zu pinsOffer=%zu "
            "clearPending=%zu\n",
            c, cs.ref.isWrite ? 'W' : 'R',
            static_cast<unsigned long long>(cs.ref.addr),
            static_cast<unsigned long long>(blk),
            phaseName(cs.phase),
            static_cast<unsigned long long>(now - cs.issueTick),
            cs.attempts,
            static_cast<unsigned long long>(cs.txSeq),
            cs.evicting,
            static_cast<unsigned long long>(cs.victimBlk),
            cs.pendingAcks, markCount(c, PinnedTx),
            markCount(c, PinnedOffer), markCount(c, ClearPending));
        const Entry *e = findEntry(c, blk);
        if (e) {
            out += csprintf(
                "        entry: state=%s owner=%u modified=%d "
                "present=%zu\n",
                cache::stateName(e->field.state), e->field.owner,
                e->field.modified, e->field.present.count());
        } else {
            out += "        entry: none\n";
        }
        const HomeBlock *hb = homeBlocks.find(blk);
        const std::uint64_t tok = hb ? hb->busyToken : 0;
        out += csprintf(
            "        home%u: busy=%d token=%llu queued=%u "
            "bsOwner=%u\n",
            homeOf(blk), tok != 0,
            static_cast<unsigned long long>(tok),
            hb ? hb->parked : 0, mem.blockStore().owner(blk));
        // Replay the last trace records touching this cpu: the
        // state snapshot says where the transaction is stuck, the
        // timeline says how it got there. An armed watchdog always
        // runs with the tracer on (see the constructor).
        constexpr std::size_t HistN = 16;
        std::vector<TraceRecord> hist;
        _tracer.forEach([&](const TraceRecord &r) {
            if (r.node == c || r.node2 == c) {
                if (hist.size() == HistN)
                    hist.erase(hist.begin());
                hist.push_back(r);
            }
        });
        out += csprintf("        last %zu event(s):\n",
                        hist.size());
        for (const TraceRecord &r : hist) {
            const auto ev = static_cast<TraceEvent>(r.kind);
            const char *cls = "";
            switch (ev) {
              case TraceEvent::Send:
              case TraceEvent::Deliver:
              case TraceEvent::Forward:
              case TraceEvent::Nack:
              case TraceEvent::Retry:
              case TraceEvent::HomeAccept:
              case TraceEvent::HomeQueue:
              case TraceEvent::HomeDup:
                cls = msgTypeName(static_cast<MsgType>(r.cls));
                break;
              case TraceEvent::Issue:
              case TraceEvent::Commit:
              case TraceEvent::Complete:
              case TraceEvent::EvictEnd:
                cls = opClassName(static_cast<OpClass>(r.cls));
                break;
              case TraceEvent::Timeout:
              case TraceEvent::WatchdogFlag:
                cls = phaseName(static_cast<Phase>(r.cls));
                break;
              default:
                break;
            }
            out += csprintf(
                "          t=%llu %s %u->%u %s seq=%llu "
                "arg=%llu\n",
                static_cast<unsigned long long>(r.tick),
                traceEventName(ev), r.node, r.node2, cls,
                static_cast<unsigned long long>(r.seq),
                static_cast<unsigned long long>(r.arg));
        }
    }
    std::size_t inflight = 0;
    for (const MsgSlot &s : msgSlab) {
        if (s.refs > 0)
            ++inflight;
    }
    out += csprintf("  in-flight message slots: %zu (slab %zu)\n",
                    inflight, msgSlab.size());
    // Health tail: how much history the diagnosis above rests on
    // (a saturated ring means the timeline replays are partial),
    // which message classes the dead-node sink swallowed, and a
    // fresh scalar-metrics snapshot of the wedged system.
    out += csprintf(
        "  trace ring: %llu recorded, %llu lost to overwrite\n",
        static_cast<unsigned long long>(_tracer.recorded()),
        static_cast<unsigned long long>(_tracer.dropped()));
    if (crashEnabled()) {
        const FaultCounters &fc = injector.counters();
        out += "  crash-masked deliveries:";
        for (std::size_t c = 0; c < FaultCounters::N; ++c) {
            out += csprintf(
                " %s=%llu",
                faultClassName(static_cast<FaultClass>(c)),
                static_cast<unsigned long long>(fc.crashMasked[c]));
        }
        out += "\n";
    }
    if (mx.enabled()) {
        metricsProbe();
        out += csprintf("  metrics @%llu:",
                        static_cast<unsigned long long>(now));
        for (const MetricSeries &s : mreg.series()) {
            if (s.kind != MetricKind::Counter &&
                s.kind != MetricKind::Gauge) {
                continue;
            }
            out += csprintf(" %s=%llu", s.name.c_str(),
                            static_cast<unsigned long long>(
                                mx.values()[s.slot]));
        }
        out += "\n";
    }
    return out;
}

} // namespace mscp::proto
