/**
 * @file
 * ConcurrentProtocol ownership and eviction: victim allocation,
 * the EvictReq/EvictAck handshake, ownership hand-off offers with
 * their invalidation fallback, owner announcements, present-flag
 * clears and acknowledgement collection.
 */

#include "concurrent.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

bool
ConcurrentProtocol::allocateForMiss(NodeId cpu, BlockId blk)
{
    CpuState &cs = cpus[cpu];
    cache::CacheArray &ca = caches[cpu];
    if (Entry *e = ca.find(blk)) {
        ca.touch(*e);
        mark(cpu, blk, PinnedTx);
        return true;
    }
    Entry *victim = ca.pickVictimFiltered(
        blk, [this, cpu](const Entry &e) {
            return !isPinned(cpu, e.block);
        });
    if (!victim) {
        // Every way pinned by in-flight work: retry shortly.
        deferAccess(cpu, 10);
        return false;
    }
    if (!victim->occupied) {
        ca.install(*victim, blk);
        mark(cpu, blk, PinnedTx);
        return true;
    }

    // Eviction needed.
    ++ctrs.evictions;
    cs.evicting = true;
    cs.victimBlk = victim->block;
    switch (victim->field.state) {
      case State::UnOwned:
      case State::Invalid:
        // Fire-and-forget present-flag clear via the home.
        sendPresentClear(cpu, cs.victimBlk);
        ca.evict(*victim);
        cs.evicting = false;
        ca.install(*ca.pickVictim(blk), blk);
        mark(cpu, blk, PinnedTx);
        return true;
      default:
        // Owned victim: serialize the eviction with the home.
        cs.phase = Phase::WaitEvictAck;
        cs.evictStartTick = eq.curTick();
        trace(TraceEvent::EvictStart, cpu, homeOf(cs.victimBlk), 0,
              cs.opId, cs.victimBlk);
        sendRequest(cpu, MsgType::EvictReq, cs.victimBlk);
        return false;
    }
}

void
ConcurrentProtocol::endEviction(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    Tick lat = eq.curTick() - cs.evictStartTick;
    if (latSink)
        latSink(OpClass::Eviction, lat);
    trace(TraceEvent::EvictEnd, cpu, cpu,
          static_cast<std::uint8_t>(OpClass::Eviction), cs.opId,
          lat);
    cs.evicting = false;
    cs.phase = Phase::Idle;
}

void
ConcurrentProtocol::continueEviction(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    Entry *ve = findEntry(cpu, cs.victimBlk);
    if (!ve) {
        // The victim was invalidated while the eviction waited in
        // the home's queue (an all-nack fallback elsewhere):
        // nothing to hand over, just release the busy period.
        send(evictDone(cpu, cs.victimBlk, cs.evictToken, false));
        endEviction(cpu);
        startAccess(cpu);
        return;
    }

    switch (ve->field.state) {
      case State::OwnedExclDW:
      case State::OwnedExclGR:
        finishEviction(cpu, true, ve->field.modified);
        break;
      case State::OwnedNonExclDW:
      case State::OwnedNonExclGR:
        ++ctrs.handoffs;
        cs.candidates.assign(ve->field.present);
        cs.candidates.reset(cpu);
        cs.candIdx = 0;
        cs.phase = Phase::WaitOffer;
        sendNextOffer(cpu);
        break;
      default:
        // Lost ownership while the eviction was queued: the entry
        // is now UnOwned/Invalid; release the busy and notify.
        sendPresentClear(cpu, cs.victimBlk);
        finishEviction(cpu, false, false);
        break;
    }
}

void
ConcurrentProtocol::sendNextOffer(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    Entry *ve = findEntry(cpu, cs.victimBlk);
    panic_if(!ve, "offer for a vanished victim");

    const std::size_t ncand = cs.candidates.count();
    if (crashEnabled()) {
        // Never offer ownership to a dead node: the offer would
        // sink and the hand-off would spin on timeouts.
        while (cs.candIdx < ncand && deadNodes.test(candidate(cs)))
            ++cs.candIdx;
    }

    if (cs.candIdx >= ncand) {
        // Everyone declined: invalidate the remaining copies, then
        // write back and clear the block store (terminal rule).
        const DynamicBitset &dests = othersPresent(*ve, cpu);
        if (dests.none()) {
            finishEviction(cpu, true, ve->field.modified);
            return;
        }
        ++ctrs.handoffFallbacks;
        expectAcks(cs, dests);
        cs.phase = Phase::WaitInvalAcks;
        sendMulticastMsg(MsgType::Invalidate, cpu, dests, 0,
                         cs.victimBlk, 0, 0, cpu);
        armTimeout(cpu);
        return;
    }

    send({.type = MsgType::OfferOwner, .src = cpu,
          .dst = candidate(cs), .blk = cs.victimBlk,
          .requester = cpu});
    armTimeout(cpu);
}

void
ConcurrentProtocol::finishEviction(NodeId cpu, bool clear_owner,
                                   bool write_back)
{
    CpuState &cs = cpus[cpu];
    Entry *ve = findEntry(cpu, cs.victimBlk);
    panic_if(!ve, "finishing eviction without a victim");

    Msg m = evictDone(cpu, cs.victimBlk, cs.evictToken, clear_owner);
    if (write_back) {
        m.setData(ve->data);
        ++ctrs.writeBacks;
    }
    if (crashEnabled()) {
        // Stamp the write-back so it cannot clobber a fresher
        // durable word at the home (see applyDurableWord).
        m.seq = eq.curTick();
    }
    send(m);

    caches[cpu].evict(*ve);
    endEviction(cpu);
    // Resume the original access from scratch.
    startAccess(cpu);
}

ConcurrentProtocol::Msg
ConcurrentProtocol::evictDone(NodeId cpu, BlockId blk,
                              std::uint64_t tok, bool clear_owner)
{
    return {.type = MsgType::EvictDone, .src = cpu,
            .dst = homeOf(blk), .toMemory = true, .blk = blk,
            .tok = tok, .flag = clear_owner};
}

void
ConcurrentProtocol::sendPresentClear(NodeId cpu, BlockId blk)
{
    send({.type = MsgType::PresentClear, .src = cpu,
          .dst = homeOf(blk), .toMemory = true, .blk = blk,
          .requester = cpu});
    mark(cpu, blk, ClearPending);
}

void
ConcurrentProtocol::announceOwner(NodeId from,
                                  const DynamicBitset &p,
                                  BlockId blk, NodeId owner)
{
    destScratch = p;
    destScratch.reset(owner);
    destScratch.reset(from);
    sendMulticastMsg(MsgType::OwnerAnnounce, from, destScratch,
                     params.sizes.ownerIdPayload(numCaches()), blk, 0,
                     owner, owner);
}

void
ConcurrentProtocol::expectAcks(CpuState &cs, const DynamicBitset &from)
{
    cs.ackFrom.assign(from);
    cs.pendingAcks = static_cast<unsigned>(from.count());
}

void
ConcurrentProtocol::takeAck(NodeId cpu, NodeId from)
{
    CpuState &cs = cpus[cpu];
    cs.ackFrom.reset(from);
    if (--cs.pendingAcks != 0)
        return;
    if (cs.phase == Phase::WaitDwAcks) {
        completeRef(cpu);
    } else {
        Entry *ve = findEntry(cpu, cs.victimBlk);
        finishEviction(cpu, true, ve && ve->field.modified);
    }
}

void
ConcurrentProtocol::handleOwnershipMsg(const Msg &m)
{
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    Entry *e = findEntry(me, m.blk);

    switch (m.type) {
      case MsgType::Invalidate:
        if (e) {
            cache::CacheArray &ca = caches[me];
            bool pinned = isPinned(me, m.blk);
            ca.evict(*e);
            if (pinned) {
                // Keep a placeholder for the in-flight reply.
                ca.install(*ca.pickVictim(m.blk), m.blk);
            }
        }
        sendAck(MsgType::InvalAck, me, m.src, m.blk);
        return;

      case MsgType::InvalAck:
        if (cs.phase == Phase::WaitInvalAcks &&
            cs.victimBlk == m.blk && cs.ackFrom.test(m.src))
            takeAck(me, m.src);
        return;

      case MsgType::OwnerAnnounce:
        // Never resurrect a pointer to a dead owner: the announce
        // was in flight when its subject crashed.
        if (e && e->field.state == State::Invalid &&
            !deadNodes.test(static_cast<NodeId>(m.value)))
            e->field.owner = static_cast<NodeId>(m.value);
        return;

      case MsgType::PresentClear:
        // Forwarded from the home: clear the leaver's flag and
        // confirm to the leaver so it may re-acquire the block.
        if (e && cache::isOwned(e->field.state)) {
            e->field.present.reset(m.requester);
            maybeExclusive(*e, me);
            sendAck(MsgType::PresentClearAck, me, m.requester, m.blk);
        } else {
            send({.type = MsgType::NackNotOwner, .src = me,
                  .dst = homeOf(m.blk), .toMemory = true,
                  .blk = m.blk, .requester = m.requester});
        }
        return;

      case MsgType::PresentClearAck:
        unmark(me, m.blk, ClearPending);
        return;

      case MsgType::OfferOwner: {
        if (crashEnabled() && deadNodes.test(m.src)) {
            // A dead evictor's offer: accepting would pin the
            // block for a transfer that can never come.
            return;
        }
        bool acceptable = e && !isPinned(me, m.blk) &&
            (e->field.state == State::UnOwned ||
             (e->field.state == State::Invalid &&
              e->field.owner != invalidNode));
        if (acceptable)
            mark(me, m.blk, PinnedOffer); // reserved for transfer
        sendAck(acceptable ? MsgType::OfferAck : MsgType::OfferNack,
                me, m.src, m.blk);
        return;
      }

      case MsgType::OfferAck:
      case MsgType::OfferNack: {
        if (cs.phase != Phase::WaitOffer || !cs.evicting ||
            m.blk != cs.victimBlk ||
            m.src != candidate(cs)) {
            // A stale OfferAck leaves the offeree pinned for a
            // transfer that is not coming; only its own eviction
            // unpins it. Possible only under plans faulting control
            // messages - the watchdog's department, not worth a
            // revoke handshake.
            ++ctrs.staleReplies;
            return;
        }
        if (m.type == MsgType::OfferNack) {
            ++ctrs.handoffNacks;
            ++cs.candIdx;
            sendNextOffer(me);
            return;
        }
        Entry *ve = findEntry(me, cs.victimBlk);
        panic_if(!ve, "offer ack without a victim");
        ++ctrs.ownershipTransfers;

        bool gr = cache::modeOf(ve->field.state) == Mode::GlobalRead;
        // A hand-off, not a request reply (requester invalidNode):
        // the new owner releases the eviction's busy period with
        // the eviction's token.
        Msg xfer{.type = gr ? MsgType::StateCopyXfer
                            : MsgType::StateXfer,
                 .src = me, .dst = m.src, .blk = cs.victimBlk,
                 .requester = invalidNode, .tok = cs.evictToken,
                 .flag = true};
        xfer.field.assign(ve->field);
        xfer.field.present.reset(me); // we are leaving
        xfer.field.owner = invalidNode;
        xfer.field.state = gr ? State::OwnedNonExclGR
                              : State::OwnedNonExclDW;
        if (gr) {
            xfer.setData(ve->data);
            // The announce skips the sender, so the entry's present
            // vector (still naming us) lists the same holders.
            announceOwner(me, ve->field.present, cs.victimBlk, m.src);
        }
        send(xfer);

        caches[me].evict(*ve);
        endEviction(me);
        startAccess(me);
        return;
      }

      case MsgType::EvictAck:
        if (cs.phase == Phase::WaitEvictAck && cs.evicting &&
            m.blk == cs.victimBlk && m.seq == cs.txSeq) {
            cs.evictToken = m.tok;
            disarmTimeout(me);
            continueEviction(me);
            return;
        }
        ++ctrs.staleReplies;
        if (cs.evicting && m.blk == cs.victimBlk &&
            m.tok == cs.evictToken)
            return; // duplicate of the grant we are acting on
        // Grant for an eviction that already finished (a retried
        // EvictReq drained after the original completed): the home
        // holds a fresh busy period for it; release it, touching
        // nothing.
        send(evictDone(me, m.blk, m.tok, false));
        return;

      default:
        return; // handleCacheMsg routes only the types above here
    }
}

} // namespace mscp::proto
