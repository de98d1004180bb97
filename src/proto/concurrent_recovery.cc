/**
 * @file
 * ConcurrentProtocol crash-stop failures and directory
 * reconstruction: node kill and cold rejoin, the stabilization
 * sweep, suspicion handling, the purge/ack reconstruction round,
 * restart hints and the durable-write log (DESIGN.md 5f).
 */

#include "concurrent.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::proto
{

void
ConcurrentProtocol::crashNode(NodeId n, Tick restart_tick)
{
    if (_aborted || deadNodes.test(n))
        return;
    ++ctrs.crashes;
    trace(TraceEvent::Crash, n, n, 0, 0, restart_tick);
    deadNodes.set(n);

    // The failed controller loses everything instantly: tags,
    // state fields, data, and whatever transaction it was running.
    CpuState &cs = cpus[n];
    disarmTimeout(n);
    caches[n].reset();
    std::uint64_t lost = cs.active ? 1 : 0;
    if (restart_tick == 0) {
        // Never coming back: its queued references are lost too.
        lost += programs[n].size() - cs.next;
        cs.next = programs[n].size();
    }
    cs.active = false;
    cs.phase = Phase::Idle;
    cs.attempts = 0;
    cs.pointerRetries = 0;
    cs.pendingAcks = 0;
    cs.ackFrom.clear();
    cs.evicting = false;
    cs.candidates.clear();
    cs.candIdx = 0;
    unmarkAll(n);
    // seqGen/opGen deliberately survive: the homes' duplicate
    // filters are monotone, so a cold rejoin must not reuse
    // sequence numbers.
    ctrs.refsLost += lost;
    refsOutstanding -= lost;
    if (refsOutstanding == 0 && watchdogArmed) {
        eq.deschedule(watchdogEv);
        watchdogArmed = false;
    }

    // Perfect-failure-detector half of the model (DESIGN.md 5f):
    // survivors learn of the death at once and scrub their local
    // references to it - present bits, dangling OWNER pointers,
    // and ack/hand-off waits that would otherwise spin on a node
    // that can no longer answer.
    for (NodeId c = 0; c < cpus.size(); ++c) {
        if (c == n || deadNodes.test(c))
            continue;
        CpuState &lc = cpus[c];
        cache::CacheArray &ca = caches[c];
        ca.forEachOccupied([&](Entry &e) {
            if (cache::isOwned(e.field.state) &&
                e.field.present.test(n)) {
                e.field.present.reset(n);
                maybeExclusive(e, c);
            } else if (e.field.state == State::Invalid &&
                       e.field.owner == n) {
                ca.evict(e);
            }
        });
        if ((lc.phase == Phase::WaitDwAcks ||
             lc.phase == Phase::WaitInvalAcks) &&
            lc.ackFrom.test(n)) {
            takeAck(c, n);
        } else if (lc.phase == Phase::WaitOffer && lc.evicting &&
                   lc.candIdx < lc.candidates.count() &&
                   candidate(lc) == n) {
            ++ctrs.handoffNacks;
            ++lc.candIdx;
            sendNextOffer(c);
        }
    }

    cs.vCommitPending = false;
    cs.vDeferred = false;

    // An in-flight reconstruction must not wait for the newly dead
    // node's purge answer. (Controlled mode: the RecoveryNacks a
    // finished reconstruction sends originate at homes.)
    bool saved_role = vMemSend;
    vMemSend = true;
    std::vector<BlockId> done;
    for (RecoveryCtx &ctx : recoveries) {
        if (ctx.pending.test(n)) {
            ctx.pending.reset(n);
            if (ctx.pending.none())
                done.push_back(ctx.blk);
        }
    }
    // Home by home, each home's blocks in ascending order.
    std::sort(done.begin(), done.end(), [this](BlockId a, BlockId b) {
        return homeOf(a) != homeOf(b) ? homeOf(a) < homeOf(b) : a < b;
    });
    for (BlockId blk : done)
        finishRecovery(blk);
    vMemSend = saved_role;

    // The homes sweep the dead node's ownerships one stabilization
    // window later - late enough that everything it sent before
    // dying has drained, so reconstruction sees a settled picture.
    if (vControlled) {
        // The sweep fires as an explicit action so the explorer
        // covers pre- and post-stabilization interleavings.
        if (std::find(vSweepPending.begin(), vSweepPending.end(),
                      n) == vSweepPending.end())
            vSweepPending.push_back(n);
        return;
    }
    eq.scheduleIn([this, n] { homeSweepDead(n); },
                  params.crashSuspectDelay);
}

void
ConcurrentProtocol::rejoinNode(NodeId n)
{
    if (_aborted || !deadNodes.test(n))
        return;
    ++ctrs.rejoins;
    deadNodes.reset(n);
    trace(TraceEvent::Rejoin, n, n, 0, 0, 0);
    // The node comes back cold (all-Invalid cache) and simply
    // resumes its reference stream; every block it owned is being
    // (or has been) reconstructed by its home.
    issueNext(n);
}

void
ConcurrentProtocol::homeSweepDead(NodeId n)
{
    if (_aborted)
        return;
    // Runs even if the node already rejoined: it came back cold,
    // so its pre-crash ownerships are orphaned either way. Home by
    // home, each home's blocks in ascending order.
    const std::vector<BlockId> owned = mem.blockStore().ownedBy(n);
    for (NodeId h = 0; h < homes.size(); ++h) {
        for (BlockId blk : owned)
            if (homeOf(blk) == h)
                startRecovery(blk, n);
        std::vector<BlockId> stuck;
        homeBlocks.forEach([&](BlockId blk, const HomeBlock &hb) {
            if (homeOf(blk) == h && hb.busyReleaser == n)
                stuck.push_back(blk);
        });
        std::sort(stuck.begin(), stuck.end());
        for (BlockId blk : stuck)
            startRecovery(blk, n);
    }
}

ConcurrentState::RecoveryCtx *
ConcurrentProtocol::findRecovery(BlockId blk)
{
    for (RecoveryCtx &ctx : recoveries)
        if (ctx.blk == blk)
            return &ctx;
    return nullptr;
}

void
ConcurrentProtocol::startRecovery(BlockId blk, NodeId suspected)
{
    HomeBlock &hb = homeBlocks[blk];
    if (hb.recovering)
        return;
    hb.recovering = true;
    NodeId home = homeOf(blk);
    ++homes[home].recoveringBlocks;
    trace(TraceEvent::Suspect, home, suspected, 0, blk, 0);

    // Fence: usurp the busy period with a fresh token so anything
    // the wedged transaction still has in flight can no longer
    // commit here, and park new requests behind the busy period. A
    // live former releaser is remembered - it is stalled on a
    // serve that will never land and needs a restart hint. The
    // fence itself has no releaser.
    if (hb.busyReleaser != invalidNode) {
        if (!deadNodes.test(hb.busyReleaser))
            suspecters.push_back({blk, hb.busyReleaser});
        hb.busyReleaser = invalidNode;
    }
    openBusy(blk, invalidNode);

    // Probe every live cache (including the home's own): each one
    // drops its copy / stale pointer and acknowledges; a surviving
    // owner ships its copy back.
    RecoveryCtx ctx;
    ctx.blk = blk;
    ctx.pending = NodeSet(cpus.size());
    DynamicBitset &dests = destScratch;
    dests.clear();
    for (NodeId c = 0; c < cpus.size(); ++c) {
        if (deadNodes.test(c))
            continue;
        ctx.pending.set(c);
        if (c != home)
            dests.set(c);
    }
    recoveries.push_back(ctx);
    sendMulticastMsg(MsgType::RecoveryPurge, home, dests, 0, blk,
                     0, 0, home);
    if (!deadNodes.test(home)) {
        send({.type = MsgType::RecoveryPurge, .src = home,
              .dst = home, .blk = blk, .requester = home});
    }
}

void
ConcurrentProtocol::finishRecovery(BlockId blk)
{
    RecoveryCtx *found = findRecovery(blk);
    if (!found)
        return;
    RecoveryCtx ctx = *found;
    recoveries.erase(recoveries.begin() + (found - recoveries.data()));
    NodeId home = homeOf(blk);

    ++ctrs.rebuilds;
    trace(TraceEvent::Rebuild, home, 0, 0, blk, ctx.acks);

    if (ctx.haveData) {
        // A surviving owner's copy wins over memory, subject to
        // per-word durable stamps (a DurableWrite racing ahead of
        // the purge may carry a fresher word).
        for (unsigned off = 0; off < params.geometry.blockWords(); ++off)
            applyDurableWord(blk, off, ctx.data[off], eq.curTick());
    }

    // Rebuild the directory root: no cached copies anywhere, so
    // the block store entry is simply cleared. The block re-enters
    // circulation in GR mode - the safe degraded mode, since a GR
    // owner never has to trust remote copies it did not create.
    mem.blockStore().clear(blk);
    HomeBlock &hb = homeBlocks[blk];
    hb.recoveredGR = true;
    if (hb.recovering) {
        hb.recovering = false;
        --homes[home].recoveringBlocks;
    }

    for (const Suspecter &s : suspecters) {
        NodeId r = s.node;
        if (s.blk != blk || deadNodes.test(r))
            continue;
        // A suspecter whose request queued behind the fence needs
        // no restart hint: the drain below serves that request at
        // its current sequence number. Nacking it too would race
        // the restart against the serve - the serve would arrive
        // stale and be dropped while the block store already names
        // the suspecter as owner.
        if (findParked(blk, r))
            continue;
        sendRecoveryNack(r, blk);
    }
    std::erase_if(suspecters,
                  [blk](const Suspecter &s) { return s.blk == blk; });

    // Release the fence and serve whatever queued behind it.
    closeBusy(blk);
}

void
ConcurrentProtocol::restartPurgedTx(NodeId cpu, const Msg &m)
{
    CpuState &cs = cpus[cpu];
    ++ctrs.recoveryRestarts;
    // If the intercepted serve carried a busy period, hand its
    // (stale) token back so the release is an explicit no-op at
    // the home rather than a leak.
    sendUnblock(cpu, m, cpu, false);
    unmark(cpu, m.blk, Purged);
    cs.attempts = 0;
    cs.pointerRetries = 0;
    cs.phase = Phase::Idle;
    disarmTimeout(cpu);
    startAccess(cpu);
}

void
ConcurrentProtocol::applyDurableWord(BlockId blk, unsigned off,
                                     std::uint64_t value,
                                     Tick stamp)
{
    // Last-writer-wins by send tick. Within one owner the stamps
    // are its local commit order; across an ownership transfer the
    // new owner's first write is sent after the transfer arrived,
    // hence after every stamp the old owner issued.
    Tick &s = homeBlocks[blk].durableStamp[off];
    if (s > stamp)
        return;
    s = stamp;
    mem.writeWord(blk, off, value);
}

void
ConcurrentProtocol::sendRecoveryNack(NodeId r, BlockId blk)
{
    ++ctrs.recoveryNacks;
    send({.type = MsgType::RecoveryNack, .src = homeOf(blk),
          .dst = r, .blk = blk, .requester = r});
}

void
ConcurrentProtocol::handleRecoveryMsg(const Msg &m)
{
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    Entry *e = findEntry(me, m.blk);

    switch (m.type) {
      case MsgType::RecoveryPurge: {
        // Directory reconstruction probe (m.src = the recovering
        // home): drop any copy or stale OWNER pointer of the block
        // and acknowledge; a surviving owner ships its copy back,
        // since that copy - not memory - is authoritative when the
        // crashed node wedged the block mid-transfer.
        ++ctrs.purges;
        trace(TraceEvent::Purge, me, m.src, 0, m.blk, 0);
        Msg ack{.type = MsgType::RecoveryAck, .src = me, .dst = m.src,
                .toMemory = true, .blk = m.blk, .requester = me};
        if (e) {
            if (cache::isOwned(e->field.state)) {
                ack.flag = e->field.modified;
                ack.setData(e->data);
            }
            caches[me].evict(*e);
        }
        unmark(me, m.blk, PinnedOffer);
        unmark(me, m.blk, ClearPending);
        if (cs.evicting && cs.victimBlk == m.blk) {
            // The victim vanished with the reconstruction: nothing
            // left to hand over. Abandon the eviction and re-run
            // the access that triggered it.
            cs.pendingAcks = 0;
            cs.ackFrom.clear();
            disarmTimeout(me);
            endEviction(me);
            cs.attempts = 0;
            send(ack);
            startAccess(me);
            return;
        }
        if (cs.active && cs.phase != Phase::Commit &&
            params.geometry.blockOf(cs.ref.addr) == m.blk) {
            // A serve issued before the fence may still be in
            // flight; mark the transaction so such a reply
            // restarts it instead of installing pre-crash state,
            // and keep a placeholder entry for it to land in.
            mark(me, m.blk, Purged);
            if (!findEntry(me, m.blk)) {
                Entry *fresh = caches[me].pickVictim(m.blk);
                if (!fresh->occupied)
                    caches[me].install(*fresh, m.blk);
            }
        }
        send(ack);
        return;
      }

      case MsgType::RecoveryNack:
        // The home rebuilt the block our stalled attempt was
        // anchored to: restart with a fresh sequence number. Safe
        // because the reconstruction fence discarded whatever
        // serve the old attempt had in flight.
        if (!cs.active) {
            ++ctrs.staleReplies;
            return;
        }
        if (cs.evicting && cs.phase == Phase::WaitEvictAck &&
            cs.victimBlk == m.blk) {
            // Re-issue the eviction handshake from scratch.
            cs.attempts = 0;
            sendRequest(me, MsgType::EvictReq, m.blk);
            return;
        }
        if (params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitPointer ||
             cs.phase == Phase::WaitOwnXfer)) {
            restartPurgedTx(me, m);
            return;
        }
        ++ctrs.staleReplies;
        return;

      default:
        return; // handleCacheMsg routes only the types above here
    }
}

void
ConcurrentProtocol::handleHomeRecoveryMsg(const Msg &m)
{
    BlockId blk = m.blk;

    switch (m.type) {
      case MsgType::SuspectOwner: {
        if (!crashEnabled())
            return;
        const HomeBlock *hb = homeBlocks.find(blk);
        if (!hb || !hb->recovering) {
            NodeId owner = mem.blockStore().owner(blk);
            NodeId rel = hb ? hb->busyReleaser : invalidNode;
            bool busy = hb && hb->busyToken != 0;
            bool owner_dead =
                owner != invalidNode && deadNodes.test(owner);
            bool releaser_dead = busy && rel != invalidNode &&
                deadNodes.test(rel);
            if (!owner_dead && !releaser_dead) {
                if (!busy) {
                    // Orphaned waiter: its request was consumed (so
                    // retries are duplicate-suppressed) but whatever
                    // served it died with the crash, and with no
                    // busy period there is no forward still in
                    // flight that a restart could orphan. Hand it a
                    // direct restart hint.
                    sendRecoveryNack(m.requester, blk);
                    return;
                }
                // Busy with live anchors. A healthy busy period
                // lasts a few round trips; one that has outlived
                // the suspecter's whole retry ladder is wedged even
                // though nobody died on paper - e.g. an eviction
                // hand-off whose ownership transfer was destined
                // for a node that crashed with it in flight
                // (neither the evictor nor the block store ever
                // names the acceptor). Otherwise the ordinary
                // retry/stale machinery wins: restarting an
                // attempt whose serve may still be in flight would
                // orphan what that serve carries.
                bool wedged = eq.curTick() - hb->busySince >
                    params.crashSuspectDelay;
                if (!wedged) {
                    ++ctrs.staleReplies;
                    return;
                }
            }
            ++ctrs.suspects;
            startRecovery(blk, owner_dead ? owner
                               : rel != invalidNode ? rel : owner);
        }
        // Remember the suspecter so it gets its restart hint when
        // the rebuild finishes.
        if (!findRecovery(blk)) {
            RecoveryCtx ctx;
            ctx.blk = blk;
            ctx.pending = NodeSet(cpus.size());
            recoveries.push_back(ctx);
        }
        if (std::none_of(suspecters.begin(), suspecters.end(),
                         [&m](const Suspecter &s) {
                             return s.blk == m.blk &&
                                    s.node == m.requester;
                         }))
            suspecters.push_back({blk, m.requester});
        return;
      }

      case MsgType::RecoveryAck: {
        RecoveryCtx *ctx = findRecovery(blk);
        if (!ctx || !ctx->pending.test(m.requester))
            return; // duplicate or multicast-overshoot echo
        ctx->pending.reset(m.requester);
        ++ctx->acks;
        if (m.words != 0) {
            // At most one surviving cache can have held the block
            // owned; its copy is the authoritative one.
            std::copy(m.data.begin(), m.data.end(), ctx->data.begin());
            ctx->haveData = true;
        }
        if (ctx->pending.none())
            finishRecovery(blk);
        return;
      }

      case MsgType::DurableWrite:
        // Crash-mode write-through: commit the word at the home so
        // an owner crash cannot lose a committed write. The stamp
        // (send tick) keeps a delayed older word from overwriting
        // a newer one; ownership hand-offs order stamps causally.
        applyDurableWord(blk, m.offset, m.value, m.seq);
        return;

      default:
        return; // handleMemMsg routes only the types above here
    }
}

} // namespace mscp::proto
