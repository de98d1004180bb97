/**
 * @file
 * ConcurrentProtocol home directory: per-block serialization of
 * requests (duplicate suppression, busy periods and their wait
 * queues), memory serves, forwards to the owner, busy-period
 * releases and present-clear routing.
 */

#include "concurrent.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

void
ConcurrentProtocol::handleHomeMsg(HomeState &h, const Msg &m)
{
    BlockId blk = m.blk;

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
        std::uint64_t &seen = h.seqSeen[m.requester];
        if (m.seq <= seen) {
            ++ctrs.dupRequests;
            trace(TraceEvent::HomeDup, m.dst, m.requester,
                  static_cast<std::uint8_t>(m.type), m.seq, blk);
            return;
        }
        seen = m.seq;
        processHomeRequest(h, m);
        return;
      }

      case MsgType::Unblock:
      case MsgType::EvictDone: {
        // Only the release carrying the busy period's own token
        // counts; duplicates and releases from superseded serves
        // carry a dead token and must not unlock a later period. A
        // dead EvictDone's write-back or clear already happened:
        // touching memory again could clobber a newer owner's state.
        const std::uint64_t *tok = h.busyToken.find(blk);
        if (!tok || *tok != m.tok) {
            ++ctrs.staleUnblocks;
            return;
        }
        if (m.type == MsgType::Unblock) {
            if (m.flag)
                h.mem.blockStore().setOwner(blk, m.requester);
        } else {
            if (!m.data.empty()) {
                if (crashEnabled()) {
                    // Respect per-word durable stamps: a write-back
                    // must not clobber a fresher durable word that
                    // raced past it.
                    for (unsigned off = 0;
                         off < static_cast<unsigned>(m.data.size());
                         ++off)
                        applyDurableWord(h, blk, off, m.data[off],
                                         m.seq);
                } else {
                    h.mem.writeBlock(blk, m.data);
                }
            }
            if (m.flag)
                h.mem.blockStore().clear(blk);
        }
        closeBusy(h, blk);
        return;
      }

      case MsgType::PresentClear: {
        NodeId owner = h.mem.blockStore().owner(blk);
        if (owner == invalidNode) {
            // Block fully evicted meanwhile: nothing to clear, but
            // the leaver still waits for its acknowledgement.
            sendAck(MsgType::PresentClearAck, h.mem.port(),
                    m.requester, blk);
            return;
        }
        Msg fwd = m;
        fwd.src = h.mem.port();
        fwd.dst = owner;
        fwd.toMemory = false;
        send(std::move(fwd));
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
ConcurrentProtocol::processHomeRequest(HomeState &h, const Msg &m)
{
    BlockId blk = m.blk;
    if (crashEnabled() && deadNodes.test(m.requester)) {
        // The requester died with this request in flight (or
        // queued). Accepting it would mint a busy period nobody
        // can ever release; serving it would be answered into the
        // void. Drop it - a restarted node never reuses sequence
        // numbers, so nothing downstream expects this request.
        return;
    }
    if (h.busyToken.contains(blk)) {
        std::vector<Msg> &q = h.waiting[blk];
        for (Msg &w : q) {
            if (w.requester == m.requester) {
                // A retry superseding its still-queued original (a
                // cpu has one transaction, hence at most one live
                // request per block): replace in place so the
                // request is never served twice from the queue.
                w = m;
                ++ctrs.dupRequests;
                trace(TraceEvent::HomeDup, m.dst, m.requester,
                      static_cast<std::uint8_t>(m.type), m.seq, blk);
                return;
            }
        }
        q.push_back(m);
        ++ctrs.homeQueued;
        trace(TraceEvent::HomeQueue, m.dst, m.requester,
              static_cast<std::uint8_t>(m.type), m.seq, blk);
        return;
    }

    trace(TraceEvent::HomeAccept, m.dst, m.requester,
          static_cast<std::uint8_t>(m.type), m.seq, blk);

    if (m.type == MsgType::EvictReq) {
        std::uint64_t token = openBusy(h, blk, m.src);
        send({.type = MsgType::EvictAck, .src = h.mem.port(),
              .dst = m.src, .blk = blk, .seq = m.seq, .tok = token});
        return;
    }

    NodeId owner = h.mem.blockStore().owner(blk);
    NodeId r = m.requester;

    if (crashEnabled() && owner != invalidNode &&
        deadNodes.test(owner)) {
        // The registered owner is dead: park the request and
        // reconstruct the block instead of forwarding into the
        // void. (The stabilization sweep would get here anyway;
        // this reacts at first touch.)
        h.waiting[blk].push_back(m);
        ++ctrs.homeQueued;
        trace(TraceEvent::HomeQueue, m.dst, m.requester,
              static_cast<std::uint8_t>(m.type), m.seq, blk);
        startRecovery(h, blk, owner);
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
        std::uint64_t token = openBusy(h, blk, r);
        if (m.type == MsgType::LoadReq) {
            checkReadSample(params.geometry.baseOf(blk) + m.offset,
                            h.mem.readWord(blk, m.offset));
        }
        // The busy period is held until the requester unblocks.
        Msg reply{.type = MsgType::DataBlock, .src = h.mem.port(),
                  .dst = r, .blk = blk, .seq = m.seq, .tok = token,
                  .flag = true, .data = h.mem.readBlock(blk)};
        // GR is the safe post-recovery mode: its owner never has
        // to trust pre-crash remote copies (DESIGN.md 5f).
        reply.field.state = cache::ownedState(
            (crashEnabled() && h.recoveredGR.contains(blk))
                ? Mode::GlobalRead : params.defaultMode,
            true);
        send(std::move(reply));
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
    std::uint64_t token = openBusy(h, blk, r);
    send({.type = fwd, .src = h.mem.port(), .dst = owner, .blk = blk,
          .requester = r, .offset = m.offset, .seq = m.seq,
          .tok = token, .flag = true});
}

void
ConcurrentProtocol::drainHomeQueue(HomeState &h, BlockId blk)
{
    // Re-find after every request: processing can queue onto this
    // block again and rehash the waiting table.
    std::vector<Msg> *q = h.waiting.find(blk);
    while (q && !q->empty() && !h.busyToken.contains(blk)) {
        Msg m = std::move(q->front());
        q->erase(q->begin());
        processHomeRequest(h, m);
        q = h.waiting.find(blk);
    }
}

std::uint64_t
ConcurrentProtocol::openBusy(HomeState &h, BlockId blk,
                             NodeId releaser)
{
    std::uint64_t token = ++h.busyTokenGen;
    h.busyToken[blk] = token;
    if (crashEnabled()) {
        if (releaser != invalidNode)
            h.busyReleaser[blk] = releaser;
        h.busySince[blk] = eq.curTick();
    }
    return token;
}

void
ConcurrentProtocol::closeBusy(HomeState &h, BlockId blk)
{
    h.busyToken.erase(blk);
    if (crashEnabled()) {
        h.busyReleaser.erase(blk);
        h.busySince.erase(blk);
    }
    drainHomeQueue(h, blk);
}

} // namespace mscp::proto
