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
    cs.array.reset();
    std::uint64_t lost = cs.active ? 1 : 0;
    if (restart_tick == 0) {
        // Never coming back: its queued references are lost too.
        lost += cs.queue.size();
        cs.queue.clear();
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
    cs.pinnedTx.clear();
    cs.pinnedOffer.clear();
    cs.clearPending.clear();
    cs.purged.clear();
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
        lc.array.forEachOccupied([&](Entry &e) {
            if (cache::isOwned(e.field.state) &&
                e.field.present.test(n)) {
                e.field.present.reset(n);
                maybeExclusive(e, c);
            } else if (e.field.state == State::Invalid &&
                       e.field.owner == n) {
                lc.array.evict(e);
            }
        });
        if ((lc.phase == Phase::WaitDwAcks ||
             lc.phase == Phase::WaitInvalAcks) &&
            lc.ackFrom.test(n)) {
            takeAck(c, n);
        } else if (lc.phase == Phase::WaitOffer && lc.evicting &&
                   lc.candIdx < lc.candidates.size() &&
                   lc.candidates[lc.candIdx] == n) {
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
    for (HomeState &h : homes) {
        std::vector<BlockId> done;
        for (auto &[blk, ctx] : h.recoveryCtx) {
            if (ctx.pending.contains(n)) {
                ctx.pending.erase(n);
                if (ctx.pending.empty())
                    done.push_back(blk);
            }
        }
        for (BlockId blk : done)
            finishRecovery(h, blk);
    }
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
    auto sweep = [this, n] { homeSweepDead(n); };
    static_assert(InlineFunction::fitsInline<decltype(sweep)>);
    eq.scheduleIn(sweep, params.crashSuspectDelay);
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
    // so its pre-crash ownerships are orphaned either way.
    for (HomeState &h : homes) {
        for (BlockId blk : h.mem.blockStore().ownedBy(n))
            startRecovery(h, blk, n);
        std::vector<BlockId> stuck;
        for (const auto &[blk, rel] : h.busyReleaser) {
            if (rel == n)
                stuck.push_back(blk);
        }
        for (BlockId blk : stuck)
            startRecovery(h, blk, n);
    }
}

void
ConcurrentProtocol::startRecovery(HomeState &h, BlockId blk,
                                  NodeId suspected)
{
    if (h.recovering.contains(blk))
        return;
    h.recovering.insert(blk);
    NodeId home = h.mem.port();
    trace(TraceEvent::Suspect, home, suspected, 0, blk, 0);

    RecoveryCtx ctx;
    // Fence: usurp the busy period with a fresh token so anything
    // the wedged transaction still has in flight can no longer
    // commit here, and park new requests behind the busy period. A
    // live former releaser is remembered - it is stalled on a
    // serve that will never land and needs a restart hint. The
    // fence itself has no releaser.
    auto rel = h.busyReleaser.find(blk);
    if (rel != h.busyReleaser.end()) {
        if (!deadNodes.test(rel->second))
            ctx.suspecters.push_back(rel->second);
        h.busyReleaser.erase(rel);
    }
    openBusy(h, blk, invalidNode);

    // Probe every live cache (including the home's own): each one
    // drops its copy / stale pointer and acknowledges; a surviving
    // owner ships its copy back.
    std::vector<NodeId> dests;
    for (NodeId c = 0; c < cpus.size(); ++c) {
        if (deadNodes.test(c))
            continue;
        ctx.pending.insert(c);
        if (c != home)
            dests.push_back(c);
    }
    h.recoveryCtx[blk] = std::move(ctx);
    sendMulticastMsg(MsgType::RecoveryPurge, home, dests, 0, blk,
                     0, 0, home);
    if (!deadNodes.test(home)) {
        send({.type = MsgType::RecoveryPurge, .src = home,
              .dst = home, .blk = blk, .requester = home});
    }
}

void
ConcurrentProtocol::finishRecovery(HomeState &h, BlockId blk)
{
    auto it = h.recoveryCtx.find(blk);
    if (it == h.recoveryCtx.end())
        return;
    RecoveryCtx ctx = std::move(it->second);
    h.recoveryCtx.erase(it);

    ++ctrs.rebuilds;
    trace(TraceEvent::Rebuild, h.mem.port(), 0, 0, blk, ctx.acks);

    if (ctx.haveData) {
        // A surviving owner's copy wins over memory, subject to
        // per-word durable stamps (a DurableWrite racing ahead of
        // the purge may carry a fresher word).
        for (unsigned off = 0;
             off < static_cast<unsigned>(ctx.data.size()); ++off)
            applyDurableWord(h, blk, off, ctx.data[off],
                             eq.curTick());
    }

    // Rebuild the directory root: no cached copies anywhere, so
    // the block store entry is simply cleared. The block re-enters
    // circulation in GR mode - the safe degraded mode, since a GR
    // owner never has to trust remote copies it did not create.
    h.mem.blockStore().clear(blk);
    h.recoveredGR.insert(blk);
    h.recovering.erase(blk);

    for (NodeId r : ctx.suspecters) {
        if (deadNodes.test(r))
            continue;
        // A suspecter whose request queued behind the fence needs
        // no restart hint: the drain below serves that request at
        // its current sequence number. Nacking it too would race
        // the restart against the serve - the serve would arrive
        // stale and be dropped while the block store already names
        // the suspecter as owner.
        const std::vector<Msg> *q = h.waiting.find(blk);
        if (q && std::any_of(q->begin(), q->end(),
                             [r](const Msg &w) {
                                 return w.requester == r;
                             }))
            continue;
        sendRecoveryNack(h, r, blk);
    }

    // Release the fence and serve whatever queued behind it.
    closeBusy(h, blk);
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
    cs.purged.erase(m.blk);
    cs.attempts = 0;
    cs.pointerRetries = 0;
    cs.phase = Phase::Idle;
    disarmTimeout(cpu);
    startAccess(cpu);
}

void
ConcurrentProtocol::applyDurableWord(HomeState &h, BlockId blk,
                                     unsigned off,
                                     std::uint64_t value,
                                     Tick stamp)
{
    // Last-writer-wins by send tick. Within one owner the stamps
    // are its local commit order; across an ownership transfer the
    // new owner's first write is sent after the transfer arrived,
    // hence after every stamp the old owner issued.
    Addr a = params.geometry.baseOf(blk) + off;
    Tick *s = h.durableStamp.find(a);
    if (s && *s > stamp)
        return;
    h.durableStamp[a] = stamp;
    h.mem.writeWord(blk, off, value);
}

void
ConcurrentProtocol::sendRecoveryNack(HomeState &h, NodeId r,
                                     BlockId blk)
{
    ++ctrs.recoveryNacks;
    send({.type = MsgType::RecoveryNack, .src = h.mem.port(),
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
                ack.data = e->data;
            }
            cs.array.evict(*e);
        }
        cs.pinnedOffer.erase(m.blk);
        cs.clearPending.erase(m.blk);
        if (cs.evicting && cs.victimBlk == m.blk) {
            // The victim vanished with the reconstruction: nothing
            // left to hand over. Abandon the eviction and re-run
            // the access that triggered it.
            cs.pendingAcks = 0;
            cs.ackFrom.clear();
            disarmTimeout(me);
            endEviction(me);
            cs.attempts = 0;
            send(std::move(ack));
            startAccess(me);
            return;
        }
        if (cs.active && cs.phase != Phase::Commit &&
            params.geometry.blockOf(cs.ref.addr) == m.blk) {
            // A serve issued before the fence may still be in
            // flight; mark the transaction so such a reply
            // restarts it instead of installing pre-crash state,
            // and keep a placeholder entry for it to land in.
            cs.purged.insert(m.blk);
            if (!findEntry(me, m.blk)) {
                Entry *fresh = cs.array.pickVictim(m.blk);
                if (!fresh->occupied)
                    cs.array.install(*fresh, m.blk);
            }
        }
        send(std::move(ack));
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
ConcurrentProtocol::handleHomeRecoveryMsg(HomeState &h, const Msg &m)
{
    BlockId blk = m.blk;

    switch (m.type) {
      case MsgType::SuspectOwner: {
        if (!crashEnabled())
            return;
        if (!h.recovering.contains(blk)) {
            NodeId owner = h.mem.blockStore().owner(blk);
            auto rel = h.busyReleaser.find(blk);
            bool busy = h.busyToken.contains(blk);
            bool owner_dead =
                owner != invalidNode && deadNodes.test(owner);
            bool releaser_dead = busy &&
                rel != h.busyReleaser.end() &&
                deadNodes.test(rel->second);
            if (!owner_dead && !releaser_dead) {
                if (!busy) {
                    // Orphaned waiter: its request was consumed (so
                    // retries are duplicate-suppressed) but whatever
                    // served it died with the crash, and with no
                    // busy period there is no forward still in
                    // flight that a restart could orphan. Hand it a
                    // direct restart hint.
                    sendRecoveryNack(h, m.requester, blk);
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
                auto since = h.busySince.find(blk);
                bool wedged = since != h.busySince.end() &&
                    eq.curTick() - since->second >
                        params.crashSuspectDelay;
                if (!wedged) {
                    ++ctrs.staleReplies;
                    return;
                }
            }
            ++ctrs.suspects;
            startRecovery(h, blk,
                          owner_dead ? owner
                                     : rel != h.busyReleaser.end()
                                           ? rel->second : owner);
        }
        // Remember the suspecter so it gets its restart hint when
        // the rebuild finishes.
        RecoveryCtx &ctx = h.recoveryCtx[blk];
        if (std::find(ctx.suspecters.begin(), ctx.suspecters.end(),
                      m.requester) == ctx.suspecters.end())
            ctx.suspecters.push_back(m.requester);
        return;
      }

      case MsgType::RecoveryAck: {
        auto it = h.recoveryCtx.find(blk);
        if (it == h.recoveryCtx.end() ||
            !it->second.pending.contains(m.requester))
            return; // duplicate or multicast-overshoot echo
        RecoveryCtx &ctx = it->second;
        ctx.pending.erase(m.requester);
        ++ctx.acks;
        if (!m.data.empty()) {
            // At most one surviving cache can have held the block
            // owned; its copy is the authoritative one.
            ctx.data = m.data;
            ctx.haveData = true;
        }
        if (ctx.pending.empty())
            finishRecovery(h, blk);
        return;
      }

      case MsgType::DurableWrite:
        // Crash-mode write-through: commit the word at the home so
        // an owner crash cannot lose a committed write. The stamp
        // (send tick) keeps a delayed older word from overwriting
        // a newer one; ownership hand-offs order stamps causally.
        applyDurableWord(h, blk, m.offset, m.value, m.seq);
        return;

      default:
        return; // handleMemMsg routes only the types above here
    }
}

} // namespace mscp::proto
