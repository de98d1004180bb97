/**
 * @file
 * ConcurrentProtocol plumbing: construction, message sending
 * (unicast, multicast, slab, local delivery, controlled-mode
 * buffering), per-concern dispatch, the linearizability monitor
 * and the run loop. The protocol steps live in the other
 * concurrent_*.cc files (map in DESIGN.md 5b).
 */

#include "concurrent.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mscp::proto
{

ConcurrentProtocol::ConcurrentProtocol(net::OmegaNetwork &network,
                                       ConcurrentParams p)
    : params(p), net(network),
      timedNet(network, eq, p.linkWidthBits, p.hopLatency),
      injector(p.faultPlan, p.crashPlan), retryRng(p.jitterSeed),
      _tracer(p.traceCapacity), mx(registerMetrics()),
      msampler(mx, p.metricsWindow, p.metricsCapacity)
{
    params.geometry.check();
    // Self-gating: a disabled plan detaches and the delivery path
    // is byte-identical to a build without injection.
    timedNet.setFaultInjector(&injector);
    // Tracing is switched on explicitly or piggybacks on an armed
    // watchdog (so deadlock reports always carry history). The
    // queue and network tracers stay detached otherwise, keeping
    // their untraced paths to a single branch.
    if (params.traceEnabled || params.watchdogPeriod > 0) {
        _tracer.setEnabled(true);
        // When the tracer rides along only as the watchdog's
        // history buffer, ring overwrite is its designed steady
        // state - don't warn about it.
        _tracer.setOverflowWarn(params.traceEnabled);
        eq.setTracer(&_tracer);
        timedNet.setTracer(&_tracer);
    }
    // Metrics follow the same attach discipline as the tracer: the
    // sampler and the network's heatmap hooks are only installed
    // while enabled, so a metrics-off run pays one branch per call
    // site and is byte-identical in results and output.
    if (params.metricsEnabled) {
        mx.setEnabled(true);
        msampler.setProbe([this] { metricsProbe(); });
        msampler.arm();
        if (msampler.armed()) {
            eq.setMetricsSampler(&msampler);
            timedNet.setMetrics(&mx, mid.net);
        }
    }
    unsigned n = network.numPorts();
    // Messages carry present vectors and block payloads inline.
    panic_if(n > MsgMaxNodes,
             "concurrent engine: %u ports exceed MsgMaxNodes (%u), "
             "the inline message limit", n, MsgMaxNodes);
    panic_if(params.geometry.blockWords() > MsgMaxBlockWords,
             "concurrent engine: %u-word blocks exceed "
             "MsgMaxBlockWords (%u), the inline message limit",
             params.geometry.blockWords(), MsgMaxBlockWords);
    CpuState cs;
    cs.ackFrom = NodeSet(n);
    cs.candidates = NodeSet(n);
    cpus.assign(n, cs);
    caches.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        caches.emplace_back(params.geometry, n);
    homes.assign(n, HomeState{});
    // Room for a few marks per cpu: most lookups miss (no pending
    // clear on the block), and at a low load a miss probes one or
    // two slots.
    marks.reserve(4 * std::size_t{n});
    programs.resize(n);
    mem = mem::MemoryModule(invalidNode, params.geometry.blockWords());
    seqSeen.assign(std::size_t{n} * n, 0);
    deadNodes = NodeSet(n);
    destScratch.resizeCleared(n);
}

const MetricsRegistry &
ConcurrentProtocol::registerMetrics()
{
    const auto levels = net.topology().numLinkLevels();
    const auto ports = net.numPorts();
    mid.net.linkWait = mreg.grid("net.link_wait", levels, ports);
    mid.net.linkBusy = mreg.grid("net.link_busy", levels, ports);
    mid.net.fanout = mreg.histogram("net.fanout");
    mid.evqDepth = mreg.gauge("evq.depth");
    mid.evqTombstones = mreg.gauge("evq.tombstones");
    mid.refsOutstanding = mreg.gauge("proto.refs_outstanding");
    mid.refsDone = mreg.counter("proto.refs_done");
    mid.retries = mreg.counter("proto.retries");
    mid.timeouts = mreg.counter("proto.timeouts");
    mid.retryBackoff = mreg.histogram("proto.retry_backoff");
    mid.dirEntries = mreg.gauge("dir.entries");
    mid.busyBlocks = mreg.gauge("dir.busy_blocks");
    mid.homeOccupancy = mreg.histogram("dir.occupancy");
    mid.recoveringBlocks = mreg.gauge("recovery.blocks");
    mid.rebuilds = mreg.counter("recovery.rebuilds");
    mid.faultDropped = mreg.counter("fault.dropped");
    mid.faultDuplicated = mreg.counter("fault.duplicated");
    mid.faultDelayed = mreg.counter("fault.delayed");
    mid.crashMasked = mreg.counter("fault.crash_masked");
    return mreg;
}

void
ConcurrentProtocol::metricsProbe()
{
    mx.set(mid.evqDepth, eq.size());
    mx.set(mid.evqTombstones, eq.tombstoneSlots());
    mx.set(mid.refsOutstanding, refsOutstanding);
    mx.set(mid.refsDone, readsDone + writesDone);
    mx.set(mid.retries, ctrs.retries);
    mx.set(mid.timeouts, ctrs.timeouts);
    mx.set(mid.rebuilds, ctrs.rebuilds);
    std::uint64_t busy = 0, recovering = 0;
    for (const HomeState &h : homes) {
        busy += h.busyBlocks;
        recovering += h.recoveringBlocks;
        mx.sample(mid.homeOccupancy, h.busyBlocks);
    }
    mx.set(mid.dirEntries, mem.blockStore().size());
    mx.set(mid.busyBlocks, busy);
    mx.set(mid.recoveringBlocks, recovering);
    const FaultCounters &fc = injector.counters();
    mx.set(mid.faultDropped, fc.totalDropped());
    mx.set(mid.faultDuplicated, fc.totalDuplicated());
    mx.set(mid.faultDelayed, fc.totalDelayed());
    mx.set(mid.crashMasked, fc.totalCrashMasked());
}

ConcurrentProtocol::~ConcurrentProtocol() = default;

cache::Entry *
ConcurrentProtocol::findEntry(NodeId cpu, BlockId blk)
{
    return caches[cpu].find(blk);
}

const DynamicBitset &
ConcurrentProtocol::othersPresent(const Entry &e, NodeId self)
{
    destScratch = e.field.present;
    destScratch.reset(self);
    return destScratch;
}

void
ConcurrentProtocol::maybeExclusive(Entry &e, NodeId self)
{
    if (e.field.present.count() == 1 && e.field.present.test(self)) {
        e.field.state = cache::ownedState(
            cache::modeOf(e.field.state), true);
    }
}

// ---------------------------------------------------------------
// Message plumbing
// ---------------------------------------------------------------

Bits
ConcurrentProtocol::payloadBits(const Msg &m) const
{
    unsigned n = numCaches();
    unsigned bw = params.geometry.blockWords();
    switch (m.type) {
      case MsgType::DataBlock:
      case MsgType::WriteBack:
        return params.sizes.blockPayload(bw);
      case MsgType::Datum:
        return params.sizes.wordBits +
            params.sizes.ownerIdPayload(n);
      case MsgType::StateXfer:
        return params.sizes.statePayload(n);
      case MsgType::StateCopyXfer:
        return params.sizes.statePayload(n) +
            params.sizes.blockPayload(bw);
      case MsgType::DwUpdate:
        return params.sizes.wordBits;
      case MsgType::OwnerAnnounce:
        return params.sizes.ownerIdPayload(n);
      case MsgType::EvictDone:
      case MsgType::RecoveryAck:
        return m.words == 0 ? 0 : params.sizes.blockPayload(bw);
      case MsgType::DurableWrite:
        return params.sizes.wordBits;
      default:
        return 0;
    }
}

std::uint32_t
ConcurrentProtocol::allocSlot(const Msg &m)
{
    if (freeSlot != NoSlot) {
        std::uint32_t slot = freeSlot;
        MsgSlot &s = *msgSlab[slot];
        freeSlot = s.nextFree;
        s.msg = m;
        s.refs = 0;
        return slot;
    }
    std::uint32_t slot = static_cast<std::uint32_t>(msgSlab.size());
    msgSlab.push_back(&msgStore.emplace_back());
    msgSlab.back()->msg = m;
    return slot;
}

void
ConcurrentProtocol::releaseSlot(std::uint32_t slot)
{
    MsgSlot &s = *msgSlab[slot];
    s.refs = 0;
    s.nextFree = freeSlot;
    freeSlot = slot;
}

void
ConcurrentProtocol::adoptDeliveries(std::uint32_t slot)
{
    // Deliveries fire strictly after the send returns, so the
    // refcount can be installed from the network's tally (scheme 3
    // can deliver to more ports than requested). Injected drops can
    // eat every delivery; reclaim the slot then or it would leak
    // for the rest of the run.
    auto refs = static_cast<std::uint32_t>(timedNet.lastDeliveries());
    if (refs == 0)
        releaseSlot(slot);
    else
        msgSlab[slot]->refs = refs;
}

void
ConcurrentProtocol::deliverSlot(std::uint32_t slot, NodeId dst)
{
    // The handler reads the message in its slot: the slot stays
    // live until the handler returns, and msgStore never moves it
    // when handler sends grow the slab (only the msgSlab index
    // reallocates, and this reference does not go through it).
    MsgSlot &s = *msgSlab[slot];
    s.msg.dst = dst;
    deliver(s.msg);
    if (--s.refs == 0)
        releaseSlot(slot);
}

void
ConcurrentState::reserveTables(std::size_t blocks)
{
    const std::size_t n = cpus.size();
    const std::size_t words = caches.front().geometry().blockWords();
    vPending.reserve(64);
    // One live request per (cpu, block); one outstanding write per
    // cpu; one reconstruction per block.
    parked.reserve(n * blocks);
    pendingWrites.reserve(n);
    recoveries.reserve(blocks);
    suspecters.reserve(n * blocks);
    vSweepPending.reserve(n);
    mem.reserve(blocks);
    homeBlocks.reserve(blocks);
    lastCompleted.reserve(blocks * words);
}

std::uint64_t
ConcurrentState::fingerprint(const Msg &m, bool src_is_mem)
{
    // One multiply-rotate step per field over the full message
    // content. Used to re-locate "the same" message in the pending
    // buffer during counterexample replay; exploration itself never
    // compares fingerprints across paths.
    constexpr std::uint64_t c1 = 0x87c37b91114253d5ull;
    constexpr std::uint64_t c2 = 0x4cf5ad432745937full;
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = std::rotl(h ^ (v * c1), 31) * c2;
    };
    mix(static_cast<std::uint64_t>(m.type));
    mix(m.src);
    mix(m.dst);
    mix(src_is_mem ? 1 : 0);
    mix(m.toMemory ? 1 : 0);
    mix(m.blk);
    mix(m.requester);
    mix(m.offset);
    mix(m.value);
    mix(m.seq);
    mix(m.tok);
    mix(m.flag ? 1 : 0);
    mix(static_cast<std::uint64_t>(m.field.state));
    mix(m.field.modified ? 1 : 0);
    mix(m.field.owner);
    for (std::size_t b = 0; b < m.field.present.size(); ++b)
        mix(m.field.present.test(b) ? 1 : 0);
    mix(m.words);
    for (std::uint64_t w : m.payload())
        mix(w);
    return h;
}

void
ConcurrentProtocol::vBuffer(const Msg &m)
{
    const std::uint64_t fp = fingerprint(m, vMemSend);
    if (vDedupSends) {
        for (const VerifyPending &p : vPending) {
            if (p.fp == fp && p.srcIsMem == vMemSend && p.msg == m)
                return; // verbatim copy already in flight: fold
        }
    }
    vPending.push_back({m, vMemSend, fp});
}

void
ConcurrentProtocol::scheduleLocal(const Msg &m, Tick delay)
{
    if (vControlled) {
        vBuffer(m);
        return;
    }
    NodeId dst = m.dst;
    std::uint32_t slot = allocSlot(m);
    msgSlab[slot]->refs = 1;
    eq.scheduleIn([this, slot, dst] { deliverSlot(slot, dst); }, delay);
}

void
ConcurrentProtocol::send(const Msg &m)
{
    Bits total = params.sizes.control() + payloadBits(m);
    msgs.record(m.type, total);
    trace(TraceEvent::Send, m.src, m.dst,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
    if (vControlled) {
        // Delivery order is the explorer's choice, not the
        // network's: park the message until an action picks it.
        vBuffer(m);
        return;
    }
    if (m.src == m.dst) {
        // Co-located processor-memory element: local exchange.
        scheduleLocal(m, 1);
        return;
    }
    NodeId src = m.src;
    NodeId dst = m.dst;
    injector.setMessageClass(classOf(m.type), m.toMemory);
    std::uint32_t slot = allocSlot(m);
    timedNet.sendUnicast(src, dst, total,
                         [this, slot](NodeId d, Tick) {
                             deliverSlot(slot, d);
                         });
    adoptDeliveries(slot);
}

void
ConcurrentProtocol::sendMulticastMsg(MsgType t, NodeId src,
                                     const DynamicBitset &dests,
                                     Bits payload, BlockId blk,
                                     unsigned offset,
                                     std::uint64_t value,
                                     NodeId aux_owner)
{
    if (dests.none())
        return;
    Bits total = params.sizes.control() + payload;
    msgs.record(t, total);
    // node2 carries the destination count for multicasts.
    trace(TraceEvent::Send, src,
          static_cast<NodeId>(dests.count()),
          static_cast<std::uint8_t>(t), 0, blk);
    Msg proto_msg{.type = t, .src = src, .blk = blk,
                  .requester = aux_owner, .offset = offset,
                  .value = value};
    if (vControlled) {
        // One pending entry per requested destination. Scheme-3
        // subcube overshoot is not modeled: overshoot deliveries
        // are ignored by every handler, so the explored behavior
        // is that of an exact multicast.
        for (std::size_t d = dests.findFirst(); d < dests.size();
             d = dests.findNext(d)) {
            Msg copy = proto_msg;
            copy.dst = static_cast<NodeId>(d);
            vBuffer(copy);
        }
        return;
    }
    injector.setMessageClass(classOf(t));
    std::uint32_t slot = allocSlot(proto_msg);
    timedNet.sendMulticast(
        params.multicastScheme, src, dests, total,
        [this, slot](NodeId dst, Tick) {
            deliverSlot(slot, dst);
        });
    adoptDeliveries(slot);
}

void
ConcurrentProtocol::sendAck(MsgType t, NodeId src, NodeId dst,
                            BlockId blk, std::uint64_t seq)
{
    send({.type = t, .src = src, .dst = dst, .blk = blk, .seq = seq});
}

void
ConcurrentProtocol::deliver(const Msg &m)
{
    DPRINTF("Concurrent", "t=%llu %s %u->%u blk=%llu req=%u "
            "off=%u val=%llu flag=%d %s",
            static_cast<unsigned long long>(eq.curTick()),
            msgTypeName(m.type), m.src, m.dst,
            static_cast<unsigned long long>(m.blk), m.requester,
            m.offset, static_cast<unsigned long long>(m.value),
            m.flag, m.toMemory ? "mem" : "cache");
    trace(TraceEvent::Deliver, m.src, m.dst,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
    if (_aborted)
        return; // watchdog fired: freeze state, let the queue drain
    if (!m.toMemory && deadNodes.test(m.dst)) {
        // Local-path dead-node sink (network deliveries are sunk by
        // the injector before they are scheduled): a crashed cache
        // neither receives nor acknowledges. Memory-bound messages
        // pass - the co-located module survives its cache.
        injector.recordCrashMasked(classOf(m.type));
        trace(TraceEvent::CrashMask, m.dst, m.src,
              static_cast<std::uint8_t>(m.type), m.seq, m.blk);
        return;
    }
    if (m.toMemory) {
        // Messages sent while a home handler runs carry the memory
        // src role (see VerifyPending::srcIsMem); inert otherwise.
        bool saved = vMemSend;
        vMemSend = true;
        handleMemMsg(m);
        vMemSend = saved;
    } else {
        handleCacheMsg(m);
    }
}

void
ConcurrentProtocol::handleCacheMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::Invalidate:
      case MsgType::InvalAck:
      case MsgType::OwnerAnnounce:
      case MsgType::PresentClear:
      case MsgType::PresentClearAck:
      case MsgType::OfferOwner:
      case MsgType::OfferAck:
      case MsgType::OfferNack:
      case MsgType::EvictAck:
        handleOwnershipMsg(m);
        return;
      case MsgType::RecoveryPurge:
      case MsgType::RecoveryNack:
        handleRecoveryMsg(m);
        return;
      default:
        // Panics on a type no cache handles.
        handleRequestMsg(m);
        return;
    }
}

void
ConcurrentProtocol::handleMemMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::SuspectOwner:
      case MsgType::RecoveryAck:
      case MsgType::DurableWrite:
        handleHomeRecoveryMsg(m);
        return;
      default:
        // Panics on a type no home handles.
        handleHomeMsg(m);
        return;
    }
}

// ---------------------------------------------------------------
// Linearizability monitor
// ---------------------------------------------------------------

void
ConcurrentProtocol::monitorWritePending(Addr a, std::uint64_t v)
{
    pendingWrites.push_back({a, v});
}

void
ConcurrentProtocol::monitorWriteComplete(Addr a, std::uint64_t v)
{
    lastCompleted[a] = v;
    auto pw = std::find_if(pendingWrites.begin(), pendingWrites.end(),
                           [a, v](const PendingWrite &w) {
                               return w.addr == a && w.value == v;
                           });
    if (pw != pendingWrites.end()) {
        *pw = pendingWrites.back();
        pendingWrites.pop_back();
    }
}

void
ConcurrentProtocol::checkReadSample(Addr a, std::uint64_t v)
{
    const std::uint64_t *lc = lastCompleted.find(a);
    std::uint64_t completed = lc ? *lc : 0;
    if (v == completed)
        return;
    if (std::any_of(pendingWrites.begin(), pendingWrites.end(),
                    [a, v](const PendingWrite &w) {
                        return w.addr == a && w.value == v;
                    }))
        return;
    ++_valueErrors;
    warn("concurrent: read @%llu sampled %llu (completed %llu, "
         "no matching pending write)",
         static_cast<unsigned long long>(a),
         static_cast<unsigned long long>(v),
         static_cast<unsigned long long>(completed));
}

// ---------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------

ConcurrentRunResult
ConcurrentProtocol::run(workload::ReferenceStream &stream)
{
    workload::MemRef ref;
    std::uint64_t total = 0;
    while (stream.next(ref)) {
        panic_if(ref.cpu >= cpus.size(), "cpu out of range");
        programs[ref.cpu].push_back(ref);
        ++total;
    }
    refsOutstanding = total;

    if (crashEnabled()) {
        for (const auto &ev : params.crashPlan.events) {
            if (ev.node >= cpus.size())
                continue;
            NodeId n = ev.node;
            eq.schedule([this, n, restart = ev.restartTick] {
                crashNode(n, restart);
            }, ev.killTick);
            if (ev.restartTick > ev.killTick)
                eq.schedule([this, n] { rejoinNode(n); },
                            ev.restartTick);
        }
    }

    Bits start_bits = net.linkStats().totalBits();
    for (NodeId c = 0; c < cpus.size(); ++c)
        issueNext(c);

    if (params.watchdogPeriod > 0 && refsOutstanding > 0) {
        watchdogEv = eq.scheduleIn([this] { watchdogTick(); },
                                   params.watchdogPeriod);
        watchdogArmed = true;
    }

    eq.run();
    // Close the final (possibly partial) metrics window so short
    // runs and the report tool always see the full series.
    msampler.finish(eq.curTick());

    // A watchdog abort is a *reported* deadlock: the result carries
    // it and the caller decides. Anything else left hanging is an
    // engine bug.
    panic_if(refsOutstanding != 0 && !_aborted,
             "deadlock: %llu references never completed",
             static_cast<unsigned long long>(refsOutstanding));

    ConcurrentRunResult res;
    res.refs = total;
    res.makespan = eq.curTick();
    res.networkBits = net.linkStats().totalBits() - start_bits;
    res.valueErrors = _valueErrors;
    res.deadlocks = ctrs.watchdogDeadlocks;
    res.refsLost = ctrs.refsLost;
    res.avgReadLatency = readsDone
        ? readLatSum / static_cast<double>(readsDone) : 0;
    res.avgWriteLatency = writesDone
        ? writeLatSum / static_cast<double>(writesDone) : 0;
    return res;
}

} // namespace mscp::proto
