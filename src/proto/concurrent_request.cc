/**
 * @file
 * ConcurrentProtocol request path: issue, access, miss and upgrade
 * requests, owned writes and completion, plus the cache-side serves
 * and replies (forwards, pointer-bypass reads, Datum/DataBlock/
 * StateXfer acceptance, distributed-write updates).
 */

#include "concurrent.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

#ifdef MSCP_FAULT_SEAM
/**
 * Deliberate-bug seam for the model-checker test matrix: when set,
 * a DW-mode owner serving a read forward "forgets" to register the
 * reader in its present vector, so a later distributed write skips
 * that copy and the reader can observe a stale value. Compiled only
 * into the test binary that builds every engine translation unit
 * with MSCP_FAULT_SEAM defined; the production objects never
 * define the macro and are byte-identical to a build without it.
 */
bool g_faultSeam = false;
/**
 * Deliberate-livelock seam for the liveness checker: when set, an
 * owner NACKs every direct pointer-bypass read it could serve, and
 * the nacked requester does not advance its pointer-retry counter
 * -- so a reader holding a stale-but-correct owner hint ping-pongs
 * LoadReq/NackNotOwner forever without making progress. Every
 * message of the cycle is delivered (the cycle is weakly fair), so
 * this is a genuine livelock, not a starved schedule.
 */
bool g_livelockSeam = false;
#endif

void
ConcurrentProtocol::issueNext(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    if (_aborted || cs.active || !hasNextRef(cpu) ||
        deadNodes.test(cpu))
        return;
    cs.ref = programs[cpu][cs.next++];
    cs.active = true;
    cs.issueTick = eq.curTick();
    cs.attempts = 0;
    DPRINTF("Concurrent", "t=%llu cpu%u issues %c @%llu val=%llu",
            static_cast<unsigned long long>(eq.curTick()), cpu,
            cs.ref.isWrite ? 'W' : 'R',
            static_cast<unsigned long long>(cs.ref.addr),
            static_cast<unsigned long long>(cs.ref.value));
    cs.phase = Phase::Idle;
    cs.pointerRetries = 0;
    if (cs.ref.isWrite) {
        ++ctrs.writes;
        monitorWritePending(cs.ref.addr, cs.ref.value);
    } else {
        ++ctrs.reads;
    }
    cs.opId = ++cs.opGen;
    if (vControlled)
        vObsLog.push_back({cpu, /*invoke=*/true, cs.ref.isWrite,
                           cs.ref.addr, cs.ref.value});
    cs.opClass = cs.ref.isWrite ? OpClass::WriteMiss
        : OpClass::ReadMiss;
    trace(TraceEvent::Issue, cpu, cpu,
          static_cast<std::uint8_t>(cs.opClass), cs.opId,
          params.geometry.blockOf(cs.ref.addr));
    startAccess(cpu);
}

void
ConcurrentProtocol::completeRef(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    if (crashEnabled() && !cs.active) {
        // The cpu crashed between scheduling this completion and
        // now; the reference was already accounted as lost.
        return;
    }
    panic_if(!cs.active, "completing an idle cpu");
    Tick latency = eq.curTick() - cs.issueTick;
    if (latSink)
        latSink(cs.opClass, latency);
    trace(TraceEvent::Complete, cpu, cpu,
          static_cast<std::uint8_t>(cs.opClass), cs.opId, latency);
    if (cs.ref.isWrite) {
        monitorWriteComplete(cs.ref.addr, cs.ref.value);
        writeLatSum += static_cast<double>(latency);
        ++writesDone;
    } else {
        readLatSum += static_cast<double>(latency);
        ++readsDone;
    }
    if (vControlled)
        vObsLog.push_back({cpu, /*invoke=*/false, cs.ref.isWrite,
                           cs.ref.addr,
                           cs.ref.isWrite ? cs.ref.value
                                          : cs.vSample});
    unmark(cpu, params.geometry.blockOf(cs.ref.addr), PinnedTx);
    unmark(cpu, params.geometry.blockOf(cs.ref.addr), Purged);
    cs.active = false;
    cs.phase = Phase::Idle;
    cs.vCommitPending = false;
    disarmTimeout(cpu);
    --refsOutstanding;
    if (refsOutstanding == 0 && watchdogArmed) {
        // Keep the makespan clean: no trailing watchdog scans.
        eq.deschedule(watchdogEv);
        watchdogArmed = false;
    }
    if (vControlled)
        return; // the next reference issues as an explorer action
    eq.scheduleIn([this, cpu] { issueNext(cpu); },
                  params.thinkTime + 1);
}

void
ConcurrentProtocol::startAccess(NodeId cpu)
{
    if (_aborted)
        return; // stop the defer/retry loops so the queue drains
    CpuState &cs = cpus[cpu];
    if (!cs.active)
        return; // a crash cut the transaction out from under us
    BlockId blk = params.geometry.blockOf(cs.ref.addr);
    unsigned off = params.geometry.offsetOf(cs.ref.addr);

    if (marked(cpu, blk, ClearPending)) {
        // A PresentClear for this block is still in flight; do not
        // re-register at the owner until it is acknowledged (the
        // clear could bounce via a NACK re-forward and erase the
        // fresh registration).
        deferAccess(cpu, 20);
        return;
    }
    Entry *e = findEntry(cpu, blk);

    if (!cs.ref.isWrite) {
        if (e && cache::isValid(e->field.state)) {
            ++ctrs.readHits;
            caches[cpu].touch(*e);
            cs.vSample = e->data[off];
            checkReadSample(cs.ref.addr, e->data[off]);
            cs.opClass = OpClass::ReadHit;
            scheduleCommit(cpu);
            return;
        }
        if (e && e->field.owner != invalidNode &&
            cs.pointerRetries < 2) {
            // OWNER-pointer bypass; may race and be NACKed. After
            // two races the transaction falls back to the home.
            ++ctrs.pointerReads;
            mark(cpu, blk, PinnedTx);
            cs.phase = Phase::WaitPointer;
            sendRequest(cpu, MsgType::LoadReq, blk, off,
                        e->field.owner);
            return;
        }
    } else if (e && cache::isValid(e->field.state)) {
        caches[cpu].touch(*e);
        if (cache::isOwned(e->field.state)) {
            ++ctrs.writeHits;
            cs.opClass = OpClass::WriteHit;
            performOwnedWrite(cpu);
            return;
        }
        // UnOwned: acquire ownership through the home.
        cs.opClass = OpClass::Upgrade;
        mark(cpu, blk, PinnedTx);
        cs.phase = Phase::WaitOwnXfer;
        sendRequest(cpu, MsgType::OwnReq, blk);
        return;
    }
    // A miss. No entry yet means an eviction or a deferred retry
    // now carries the access.
    if (allocateForMiss(cpu, blk))
        beginMissRequest(cpu, blk);
}

void
ConcurrentProtocol::performOwnedWrite(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    BlockId blk = params.geometry.blockOf(cs.ref.addr);
    unsigned off = params.geometry.offsetOf(cs.ref.addr);
    Entry *e = findEntry(cpu, blk);
    panic_if(!e || !cache::isOwned(e->field.state),
             "owned write without ownership");

    e->data[off] = cs.ref.value;
    e->field.modified = true;

    if (crashEnabled()) {
        // Write-through under a crash plan: a committed write must
        // survive the writer's own crash, because the memory copy
        // is the root a reconstruction rebuilds from. The send-tick
        // stamp keeps a delayed older word from clobbering a newer
        // one at the home (ownership hand-offs order the stamps
        // causally).
        ++ctrs.durableWrites;
        send({.type = MsgType::DurableWrite, .src = cpu,
              .dst = homeOf(blk), .toMemory = true, .blk = blk,
              .requester = cpu, .offset = off, .value = cs.ref.value,
              .seq = eq.curTick()});
    }

    if (e->field.state == State::OwnedNonExclDW) {
        const DynamicBitset &dests = othersPresent(*e, cpu);
        if (dests.any()) {
            ++ctrs.dwUpdates;
            expectAcks(cs, dests);
            mark(cpu, blk, PinnedTx);
            cs.phase = Phase::WaitDwAcks;
            sendMulticastMsg(MsgType::DwUpdate, cpu, dests,
                             params.sizes.wordBits, blk, off,
                             cs.ref.value, cpu);
            armTimeout(cpu);
            return;
        }
    }
    scheduleCommit(cpu);
}

void
ConcurrentProtocol::beginMissRequest(NodeId cpu, BlockId blk)
{
    CpuState &cs = cpus[cpu];
    cs.phase = Phase::WaitHome;
    sendRequest(cpu,
                cs.ref.isWrite ? MsgType::LoadOwnReq : MsgType::LoadReq,
                blk, params.geometry.offsetOf(cs.ref.addr));
}

void
ConcurrentProtocol::sendRequest(NodeId cpu, MsgType t, BlockId blk,
                                unsigned offset, NodeId owner)
{
    CpuState &cs = cpus[cpu];
    bool to_home = owner == invalidNode;
    cs.lastReq = {.type = t, .src = cpu,
                  .dst = to_home ? homeOf(blk) : owner,
                  .toMemory = to_home, .blk = blk, .requester = cpu,
                  .offset = offset, .seq = cs.txSeq = ++cs.seqGen};
    send(cs.lastReq);
    armTimeout(cpu);
}

void
ConcurrentProtocol::scheduleCommit(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    cs.phase = Phase::Commit;
    trace(TraceEvent::Commit, cpu, cpu,
          static_cast<std::uint8_t>(cs.opClass), cs.opId, 0);
    if (vControlled) {
        // Completion is a separate action so the explorer covers
        // the Commit-window dup races.
        cs.vCommitPending = true;
        return;
    }
    eq.scheduleIn([this, cpu] { completeRef(cpu); }, params.hitLatency);
}

void
ConcurrentProtocol::deferAccess(NodeId cpu, Tick delay)
{
    if (vControlled) {
        cpus[cpu].vDeferred = true; // retried by an explorer action
        return;
    }
    eq.scheduleIn([this, cpu] { startAccess(cpu); }, delay);
}

// ---------------------------------------------------------------
// Cache-side serves and replies
// ---------------------------------------------------------------

void
ConcurrentProtocol::handleRequestMsg(const Msg &m)
{
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    Entry *e = findEntry(me, m.blk);

    switch (m.type) {
      case MsgType::LoadFwd:
      case MsgType::LoadOwnFwd:
      case MsgType::OwnFwd:
        serveForward(m);
        return;

      case MsgType::LoadReq: {
        // Direct pointer-bypass read.
        if (crashEnabled() && deadNodes.test(m.requester))
            return; // requester died with its request in flight
        bool canServe = e && cache::isOwned(e->field.state);
#ifdef MSCP_FAULT_SEAM
        if (g_livelockSeam)
            canServe = false; // refuse reads we own (livelock seam)
#endif
        if (canServe) {
            e->field.present.set(m.requester);
            serveRead(me, *e, m);
            return;
        }
        trace(TraceEvent::Nack, me, m.requester,
              static_cast<std::uint8_t>(MsgType::NackNotOwner),
              m.seq, m.blk);
        sendAck(MsgType::NackNotOwner, me, m.requester, m.blk, m.seq);
        return;
      }

      case MsgType::NackNotOwner: {
        // Our pointer bypass raced with a transfer: fall back to
        // the home, re-running the access (the entry may be gone).
        if (!cs.active || m.seq != cs.txSeq ||
            cs.phase != Phase::WaitPointer ||
            params.geometry.blockOf(cs.ref.addr) != m.blk) {
            ++ctrs.staleReplies; // duplicate of a handled nack
            return;
        }
        ++ctrs.pointerNacks;
#ifdef MSCP_FAULT_SEAM
        if (!g_livelockSeam) // seam: never fall back to the home
            ++cs.pointerRetries;
#else
        ++cs.pointerRetries;
#endif
        unmark(me, m.blk, PinnedTx);
        cs.phase = Phase::Idle;
        disarmTimeout(me);
        startAccess(me);
        return;
      }

      case MsgType::Datum: {
        bool mine = cs.active && m.seq == cs.txSeq &&
            !cs.ref.isWrite &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitPointer);
        if (!mine) {
            dropStaleReply(m);
            return;
        }
        if (crashEnabled() && marked(me, m.blk, Purged)) {
            // Served before the reconstruction fence: the value and
            // the owner hint predate the crash. Re-run the access
            // against the rebuilt directory.
            restartPurgedTx(me, m);
            return;
        }
        disarmTimeout(me);
        // The value was checked at its sampling point (the owner).
        if (cs.phase == Phase::WaitHome) {
            panic_if(!e, "datum reply without an entry");
            e->field.state = State::Invalid;
            e->field.owner = m.src;
            sendUnblock(me, m, /*requester=*/0, false);
        } else if (e && e->field.owner == invalidNode) {
            // Our pointer entry was invalidated (and replaced by a
            // placeholder) while the request was in flight: the
            // owner registration is gone, so drop the stale hint
            // instead of resurrecting it.
            caches[me].evict(*e);
        } else if (e) {
            e->field.owner = m.src;
        }
        cs.vSample = m.value;
        completeRef(me);
        return;
      }

      case MsgType::DataBlock: {
        // A write transaction can only be completed by an owning
        // grant (from memory, or a StateCopyXfer); an UnOwned copy
        // reaching it is a stale duplicate of an earlier read's
        // serve that must not be mistaken for the reply.
        // WaitOwnXfer is a valid receiving phase: an upgrade whose
        // previous owner fully evicted is served from memory with
        // a DataBlock, not a transfer.
        //
        // A stale owning grant (its attempt superseded by a
        // recovery restart) is NOT accepted: its payload is
        // memory's value as of the old serve, and recovery may
        // have let another write complete since. dropStaleReply
        // releases the serve's busy period with flag=false, so the
        // home never registers the refuser as owner.
        bool grant = cache::isOwned(m.field.state);
        bool mine = cs.active && m.seq == cs.txSeq &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitPointer ||
             cs.phase == Phase::WaitOwnXfer) &&
            (!cs.ref.isWrite || grant);
        if (mine && crashEnabled() && marked(me, m.blk, Purged)) {
            if (grant) {
                // An owning grant comes straight from memory, and a
                // fenced home serves nothing: this is the rebuilt
                // block, not pre-crash state. Accept it and drop
                // the restart marker.
                unmark(me, m.blk, Purged);
            } else {
                // A non-owning copy could have been served before
                // the fence; restart against the rebuilt directory.
                restartPurgedTx(me, m);
                return;
            }
        }
        if (!mine || !e) {
            dropStaleReply(m);
            return;
        }
        disarmTimeout(me);
        e->data.assign(m.payload().begin(), m.payload().end());
        e->field.state = m.field.state;
        if (grant) {
            // From memory: we are the (exclusive) owner now.
            e->field.present.clear();
            e->field.present.set(me);
            e->field.modified = false;
        }
        e->field.owner = invalidNode;
        // An owning grant from memory is confirmed here: the home
        // registers us as owner only on this release, so a refused
        // grant leaves the directory unowned.
        sendUnblock(me, m, me, grant);
        if (cs.ref.isWrite) {
            performOwnedWrite(me);
        } else {
            // The value was checked at its sampling point (owner
            // or home); the reply payload is authoritative.
            cs.vSample =
                m.data[params.geometry.offsetOf(cs.ref.addr)];
            completeRef(me);
        }
        return;
      }

      case MsgType::StateXfer:
      case MsgType::StateCopyXfer: {
        // Continue our own transaction only if this transfer is
        // the reply to it (requester tag): an ownership hand-off
        // can land while our upgrade request is still queued at
        // the home, and that request's eventual (self-)forward is
        // the transaction's real completion point.
        bool mine = cs.active && m.requester == me &&
            m.seq == cs.txSeq && cs.ref.isWrite &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitOwnXfer ||
             cs.phase == Phase::WaitHome);
        bool handoff = m.requester == invalidNode &&
            marked(me, m.blk, PinnedOffer);
        if (!mine && !handoff) {
            // Duplicate of an accepted transfer. Mirror the unblock
            // the accepted copy sent (flag=true): the token is
            // single-use at the home, so whichever release arrives
            // first records the same ownership change and the other
            // is discarded.
            ++ctrs.staleReplies;
            sendUnblock(me, m, me, true);
            return;
        }
        if (mine && crashEnabled() && marked(me, m.blk, Purged)) {
            // Unlike an owning DataBlock grant (memory only serves
            // those after the rebuild), a transfer comes from
            // another cache and can have been launched before the
            // reconstruction fence -- its field and present vector
            // are pre-crash state. Hand the busy token back and
            // re-run against the rebuilt directory; memory plus
            // the durable-write log is authoritative after a
            // crash, so the in-flight copy may be dropped.
            restartPurgedTx(me, m);
            return;
        }
        panic_if(!e, "state transfer without an entry");
        panic_if(m.type == MsgType::StateXfer &&
                 e->field.state != State::UnOwned,
                 "data-less state transfer onto a %s entry",
                 cache::stateName(e->field.state));
        if (mine)
            disarmTimeout(me);
        m.field.copyTo(e->field);
        e->field.owner = invalidNode;
        if (crashEnabled()) {
            // A transfer carries the old owner's present vector;
            // never inherit a registration for a crashed cache.
            for (std::size_t i = deadNodes.findFirst();
                 i < deadNodes.size(); i = deadNodes.findNext(i))
                e->field.present.reset(i);
        }
        panic_if(!e->field.present.test(me),
                 "transferred present vector misses the new owner");
        if (m.type == MsgType::StateCopyXfer)
            e->data.assign(m.payload().begin(), m.payload().end());
        maybeExclusive(*e, me);
        caches[me].touch(*e);
        sendUnblock(me, m, me, true); // record the ownership change
        if (mine) {
            performOwnedWrite(me);
        } else {
            // Accepted hand-off: unpin the offer.
            unmark(me, m.blk, PinnedOffer);
        }
        return;
      }

      case MsgType::DwUpdate:
        if (e && e->field.state == State::UnOwned)
            e->data[m.offset] = m.value;
        sendAck(MsgType::DwAck, me, m.src, m.blk);
        return;

      case MsgType::DwAck:
        // Anything else is an overshoot delivery or a duplicate.
        if (cs.phase == Phase::WaitDwAcks &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            cs.ackFrom.test(m.src))
            takeAck(me, m.src);
        return;

      default:
        panic("cache %u got unexpected message %s", me,
              msgTypeName(m.type));
    }
}

void
ConcurrentProtocol::serveForward(const Msg &m)
{
    // LoadFwd / LoadOwnFwd / OwnFwd arriving at the current owner.
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    NodeId r = m.requester;
    Entry *e = findEntry(me, m.blk);

    if (crashEnabled() && deadNodes.test(r)) {
        // The requester died while its forward was in flight.
        // Serving would re-register its present bit (or worse,
        // transfer ownership into the void); sink the forward and
        // let the home's dead-releaser sweep reclaim any busy
        // period the request holds.
        return;
    }

    if (r == me) {
        // Either the requester became owner while its request was
        // queued (hand-off overtook it), or a superseded retry of
        // an already-settled request drained behind us. Only the
        // former completes the transaction; the latter just has to
        // release the busy period it holds.
        bool mine = cs.active && m.seq == cs.txSeq &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitOwnXfer) &&
            (m.type == MsgType::LoadFwd) == !cs.ref.isWrite;
        if (!mine || !e || !cache::isOwned(e->field.state)) {
            ++ctrs.staleForwards;
            sendUnblock(me, m, me, false);
            return;
        }
        ++ctrs.selfForwards;
        disarmTimeout(me);
        sendUnblock(me, m, me, false); // ownership already recorded
        if (m.type == MsgType::LoadFwd) {
            unsigned off = params.geometry.offsetOf(cs.ref.addr);
            cs.vSample = e->data[off];
            checkReadSample(cs.ref.addr, e->data[off]);
            completeRef(me);
        } else {
            performOwnedWrite(me);
        }
        return;
    }

    panic_if(!e || !cache::isOwned(e->field.state),
             "forward reached non-owner %u for block %llu", me,
             static_cast<unsigned long long>(m.blk));
    trace(TraceEvent::Forward, me, r,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
    Mode mode = cache::modeOf(e->field.state);

    if (m.type == MsgType::LoadFwd) {
#ifdef MSCP_FAULT_SEAM
        if (!(g_faultSeam && mode == Mode::DistributedWrite))
            e->field.present.set(r);
#else
        e->field.present.set(r);
#endif
        serveRead(me, *e, m);
        return;
    }

    // Ownership transfer (LoadOwnFwd or OwnFwd).
    ++ctrs.ownershipTransfers;
    // An upgrade (OwnFwd) from a cache absent from the present
    // vector lost its copy while the request was queued (an
    // invalidation under a previous busy period); ship the data
    // too. Evaluate before registering the requester.
    bool requester_has_copy = e->field.present.test(r);
    e->field.present.set(r);

    bool send_copy = (m.type == MsgType::LoadOwnFwd) ||
        mode == Mode::GlobalRead || !requester_has_copy;
    // requester = r marks this as the requester's own reply.
    Msg xfer{.type = send_copy ? MsgType::StateCopyXfer
                               : MsgType::StateXfer,
             .src = me, .dst = r, .blk = m.blk, .requester = r,
             .seq = m.seq, .tok = m.tok, .flag = m.flag};
    xfer.field.assign(e->field);
    xfer.field.owner = invalidNode;
    xfer.field.state = (mode == Mode::DistributedWrite)
        ? State::OwnedNonExclDW : State::OwnedNonExclGR;
    if (send_copy)
        xfer.setData(e->data);
    send(xfer);

    if (mode == Mode::GlobalRead) {
        announceOwner(me, e->field.present, m.blk, r);
        e->field.state = State::Invalid;
        e->field.owner = r;
    } else {
        e->field.state = State::UnOwned;
    }
    e->field.modified = false;
    e->field.present.clear();
}

void
ConcurrentProtocol::serveRead(NodeId me, Entry &e, const Msg &m)
{
    // seq echoes the requester's attempt; flag and tok carry the
    // forward's busy period on to the Unblock (a pointer-bypass
    // LoadReq has neither).
    Msg reply{.type = MsgType::Datum, .src = me, .dst = m.requester,
              .blk = m.blk, .seq = m.seq, .tok = m.tok,
              .flag = m.flag};
    if (cache::modeOf(e.field.state) == Mode::DistributedWrite) {
        e.field.state = State::OwnedNonExclDW;
        reply.type = MsgType::DataBlock;
        reply.field.state = State::UnOwned;
        reply.setData(e.data);
    } else {
        e.field.state = State::OwnedNonExclGR;
        reply.offset = m.offset;
        reply.value = e.data[m.offset];
    }
    send(reply);
    // The served value is this read's linearization point.
    checkReadSample(params.geometry.baseOf(m.blk) + m.offset,
                    e.data[m.offset]);
}

void
ConcurrentProtocol::sendUnblock(NodeId me, const Msg &m,
                                NodeId requester, bool owner)
{
    if (!m.flag)
        return; // not served under a busy period
    send({.type = MsgType::Unblock, .src = me, .dst = homeOf(m.blk),
          .toMemory = true, .blk = m.blk, .requester = requester,
          .tok = m.tok, .flag = owner});
}

void
ConcurrentProtocol::dropStaleReply(const Msg &m)
{
    NodeId me = m.dst;
    ++ctrs.staleReplies;
    // Served under a busy period: the home still waits for the
    // release (a no-op there if the accepted copy already sent it
    // - the token is single-use).
    sendUnblock(me, m, me, false);
    if (!findEntry(me, m.blk) && !marked(me, m.blk, ClearPending)) {
        // The serve registered us in the owner's present vector but
        // we keep no entry: deregister, or the directory invariants
        // break at quiescence.
        sendPresentClear(me, m.blk);
    }
}

} // namespace mscp::proto
