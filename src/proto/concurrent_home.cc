/**
 * @file
 * ConcurrentProtocol home directory: per-block serialization of
 * requests (duplicate suppression, busy periods and their wait
 * queues), memory serves, forwards to the owner, busy-period
 * releases and present-clear routing.
 */

#include "concurrent.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::proto
{

void
ConcurrentProtocol::handleHomeMsg(const Msg &m)
{
    BlockId blk = m.blk;
    NodeId home = m.dst;

    switch (m.type) {
      case MsgType::LoadReq:
      case MsgType::LoadOwnReq:
      case MsgType::OwnReq:
      case MsgType::EvictReq: {
        // Per-requester duplicate suppression: each operation
        // carries a fresh sequence number, operations from one cpu
        // are serialized, and timeout retries resend the same seq,
        // so an older-or-equal arrival can only be an injected
        // duplicate, a timeout resend whose original got through,
        // or a superseded operation's late copy -- all safe to drop.
        std::uint64_t &seen =
            seqSeen[std::size_t{home} * cpus.size() + m.requester];
        if (m.seq <= seen) {
            ++ctrs.dupRequests;
            trace(TraceEvent::HomeDup, m.dst, m.requester,
                  static_cast<std::uint8_t>(m.type), m.seq, blk);
            return;
        }
        seen = m.seq;
        processHomeRequest(m);
        return;
      }

      case MsgType::Unblock:
      case MsgType::EvictDone: {
        // Only the release carrying the busy period's own token
        // counts; duplicates and releases from superseded serves
        // carry a dead token and must not unlock a later period. A
        // dead EvictDone's write-back or clear already happened:
        // touching memory again could clobber a newer owner's state.
        if (!isBusy(blk) || homeBlocks.find(blk)->busyToken != m.tok) {
            ++ctrs.staleUnblocks;
            return;
        }
        if (m.type == MsgType::Unblock) {
            if (m.flag)
                mem.blockStore().setOwner(blk, m.requester);
        } else {
            if (m.words != 0) {
                if (crashEnabled()) {
                    // Respect per-word durable stamps: a write-back
                    // must not clobber a fresher durable word that
                    // raced past it.
                    for (unsigned off = 0; off < m.words; ++off)
                        applyDurableWord(blk, off, m.data[off], m.seq);
                } else {
                    mem.writeBlock(blk, m.payload());
                }
            }
            if (m.flag)
                mem.blockStore().clear(blk);
        }
        closeBusy(blk);
        return;
      }

      case MsgType::PresentClear: {
        NodeId owner = mem.blockStore().owner(blk);
        if (owner == invalidNode) {
            // Block fully evicted meanwhile: nothing to clear, but
            // the leaver still waits for its acknowledgement.
            sendAck(MsgType::PresentClearAck, home, m.requester, blk);
            return;
        }
        Msg fwd = m;
        fwd.src = home;
        fwd.dst = owner;
        fwd.toMemory = false;
        send(fwd);
        return;
      }

      case MsgType::NackNotOwner:
        // A PresentClear forward missed (ownership moved): retry
        // against the current owner after a short delay.
        ++ctrs.presentClearRetries;
        scheduleLocal({.type = MsgType::PresentClear, .src = m.dst,
                       .dst = m.dst, .toMemory = true, .blk = blk,
                       .requester = m.requester},
                      20);
        return;

      default:
        panic("memory %u got unexpected message %s", m.dst,
              msgTypeName(m.type));
    }
}

void
ConcurrentProtocol::processHomeRequest(const Msg &m)
{
    BlockId blk = m.blk;
    NodeId home = homeOf(blk);
    if (crashEnabled() && deadNodes.test(m.requester)) {
        // The requester died with this request in flight (or
        // queued). Accepting it would mint a busy period nobody
        // can ever release; serving it would be answered into the
        // void. Drop it - a restarted node never reuses sequence
        // numbers, so nothing downstream expects this request.
        return;
    }
    if (isBusy(blk)) {
        if (Msg *w = findParked(blk, m.requester)) {
            // A retry superseding its still-queued original (a cpu
            // has one transaction, hence at most one live request
            // per block): replace in place so the request is never
            // served twice from the queue.
            *w = m;
            ++ctrs.dupRequests;
            trace(TraceEvent::HomeDup, m.dst, m.requester,
                  static_cast<std::uint8_t>(m.type), m.seq, blk);
            return;
        }
        park(m);
        return;
    }

    trace(TraceEvent::HomeAccept, m.dst, m.requester,
          static_cast<std::uint8_t>(m.type), m.seq, blk);

    if (m.type == MsgType::EvictReq) {
        std::uint64_t token = openBusy(blk, m.src);
        send({.type = MsgType::EvictAck, .src = home, .dst = m.src,
              .blk = blk, .seq = m.seq, .tok = token});
        return;
    }

    NodeId owner = mem.blockStore().owner(blk);
    NodeId r = m.requester;

    if (crashEnabled() && owner != invalidNode &&
        deadNodes.test(owner)) {
        // The registered owner is dead: park the request and
        // reconstruct the block instead of forwarding into the
        // void. (The stabilization sweep would get here anyway;
        // this reacts at first touch.)
        park(m);
        startRecovery(blk, owner);
        return;
    }

    if (owner == invalidNode) {
        // No cached copy anywhere: serve from memory under this
        // block's busy period. Ownership is registered only when
        // the requester's Unblock (flag=true) confirms it accepted
        // the grant: a requester that a recovery restart already
        // moved past refuses the grant and releases the busy with
        // flag=false, leaving the directory unowned instead of
        // pointing at a cache with no copy (the liveness checker
        // finds that dangling registration as a weakly fair
        // forward/suspect/restart cycle on the crash config).
        std::uint64_t token = openBusy(blk, r);
        if (m.type == MsgType::LoadReq) {
            checkReadSample(params.geometry.baseOf(blk) + m.offset,
                            mem.readWord(blk, m.offset));
        }
        // The busy period is held until the requester unblocks.
        Msg reply{.type = MsgType::DataBlock, .src = home, .dst = r,
                  .blk = blk, .seq = m.seq, .tok = token,
                  .flag = true};
        reply.words =
            static_cast<std::uint8_t>(params.geometry.blockWords());
        mem.readBlock(blk, {reply.data.data(), reply.words});
        // GR is the safe post-recovery mode: its owner never has
        // to trust pre-crash remote copies (DESIGN.md 5f).
        reply.field.state = cache::ownedState(
            (crashEnabled() && homeBlocks.find(blk)->recoveredGR)
                ? Mode::GlobalRead : params.defaultMode,
            true);
        send(reply);
        return;
    }

    // Forward to the owner under this block's busy period, held
    // until the requester unblocks; seq is echoed end-to-end back
    // to the requester.
    MsgType fwd;
    switch (m.type) {
      case MsgType::LoadReq:
        fwd = MsgType::LoadFwd;
        break;
      case MsgType::LoadOwnReq:
        fwd = MsgType::LoadOwnFwd;
        break;
      case MsgType::OwnReq:
        fwd = MsgType::OwnFwd;
        break;
      default:
        panic("unexpected home request %s", msgTypeName(m.type));
    }
    std::uint64_t token = openBusy(blk, r);
    send({.type = fwd, .src = home, .dst = owner, .blk = blk,
          .requester = r, .offset = m.offset, .seq = m.seq,
          .tok = token, .flag = true});
}

void
ConcurrentProtocol::park(const Msg &m)
{
    std::uint32_t slot = parkedFree;
    if (slot != NoParked) {
        parkedFree = parked[slot].next;
        parked[slot] = {m, NoParked};
    } else {
        slot = static_cast<std::uint32_t>(parked.size());
        parked.push_back({m, NoParked});
    }
    HomeBlock &hb = homeBlocks[m.blk];
    if (hb.parkedTail != NoParked)
        parked[hb.parkedTail].next = slot;
    else
        hb.parkedHead = slot;
    hb.parkedTail = slot;
    ++hb.parked;
    ++ctrs.homeQueued;
    trace(TraceEvent::HomeQueue, m.dst, m.requester,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
}

ConcurrentState::Msg *
ConcurrentProtocol::findParked(BlockId blk, NodeId requester)
{
    const HomeBlock *hb = homeBlocks.find(blk);
    for (std::uint32_t s = hb ? hb->parkedHead : NoParked;
         s != NoParked; s = parked[s].next)
        if (parked[s].msg.requester == requester)
            return &parked[s].msg;
    return nullptr;
}

void
ConcurrentProtocol::drainHomeQueue(BlockId blk)
{
    // Re-check after every request: processing can park onto this
    // block again or reopen its busy period.
    while (true) {
        HomeBlock *hb = homeBlocks.find(blk);
        if (!hb || hb->parked == 0 || hb->busyToken != 0)
            return;
        const std::uint32_t slot = hb->parkedHead;
        Msg m = parked[slot].msg;
        hb->parkedHead = parked[slot].next;
        if (hb->parkedHead == NoParked)
            hb->parkedTail = NoParked;
        --hb->parked;
        parked[slot].next = parkedFree;
        parkedFree = slot;
        processHomeRequest(m);
    }
}

std::uint64_t
ConcurrentProtocol::openBusy(BlockId blk, NodeId releaser)
{
    HomeState &h = homes[homeOf(blk)];
    std::uint64_t token = ++h.busyTokenGen;
    HomeBlock &hb = homeBlocks[blk];
    if (hb.busyToken == 0)
        ++h.busyBlocks;
    hb.busyToken = token;
    if (crashEnabled()) {
        if (releaser != invalidNode)
            hb.busyReleaser = releaser;
        hb.busySince = eq.curTick();
    }
    return token;
}

void
ConcurrentProtocol::closeBusy(BlockId blk)
{
    if (HomeBlock *hb = homeBlocks.find(blk)) {
        if (hb->busyToken != 0) {
            hb->busyToken = 0;
            --homes[homeOf(blk)].busyBlocks;
        }
        hb->busyReleaser = invalidNode;
        hb->busySince = 0;
    }
    drainHomeQueue(blk);
}

} // namespace mscp::proto
