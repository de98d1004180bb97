/**
 * @file
 * Canonical state serialization for the model checker.
 *
 * The serialization abstracts everything that distinguishes
 * behaviorally equivalent engine states reached along different
 * action prefixes:
 *
 *  - absolute ticks never appear; tick-valued freshness stamps
 *    (durable writes, crash-stamped write-backs) and LRU use
 *    clocks are replaced by order-preserving ranks within their
 *    comparison space (equal values share a rank, so relative
 *    order -- the only thing the engine ever reads -- survives);
 *  - per-cpu attempt sequence numbers and per-home busy tokens are
 *    rank-renumbered the same way (the duplicate filters compare
 *    within one space only);
 *  - generators (seqGen, busyTokenGen, opId/opGen) and pure
 *    observability state (issueTick, opClass, latency sums,
 *    counters) are excluded;
 *  - fields that are only meaningful in some states (an inactive
 *    cpu's stale ref, a disarmed timer's seq, a non-evicting
 *    victim) are normalized away. Normalization is only applied
 *    where the field is provably never read again, so it can only
 *    merge behaviorally identical states;
 *  - pending messages are grouped by delivery stream and listed in
 *    FIFO order within each stream, erasing irrelevant buffer
 *    interleavings.
 *
 * When symmetry reduction is enabled (and sound for the config,
 * see EngineGateway::symmetryEligible), the canonical form is the
 * lexicographic minimum of the serialization over all cache-role
 * permutations: every node id that denotes a *cache role* (cache
 * message endpoints, present bits, owner fields, ack sets) is
 * permuted, while *home role* ids (fixed by the block
 * interleaving) stay put. Remaining program queues are part of the
 * serialization, so two states only merge when one really is a
 * role-renaming of the other, programs included.
 */

#include <algorithm>
#include <map>

#include "verify/canon.hh"
#include "verify/state.hh"

namespace mscp::verify
{

namespace
{

using proto::MsgType;

/** Marker for invalidNode in serialized role fields. */
constexpr std::uint32_t NodeMarker = 0xffffffffu;

/** Space a message's seq field lives in. */
enum class SeqSpace : std::uint8_t
{
    None,      ///< unset (constant 0); emitted raw
    Requester, ///< requester cpu's attempt-seq space
    Dst,       ///< echo to the requester at dst
    Stamp,     ///< home freshness-stamp space (send tick)
};

SeqSpace
seqSpaceOf(MsgType t)
{
    switch (t) {
      case MsgType::LoadReq:
      case MsgType::LoadOwnReq:
      case MsgType::OwnReq:
      case MsgType::EvictReq:
      case MsgType::LoadFwd:
      case MsgType::LoadOwnFwd:
      case MsgType::OwnFwd:
        return SeqSpace::Requester;
      case MsgType::DataBlock:
      case MsgType::Datum:
      case MsgType::StateXfer:
      case MsgType::StateCopyXfer:
      case MsgType::NackNotOwner:
      case MsgType::EvictAck:
        return SeqSpace::Dst;
      case MsgType::DurableWrite:
      case MsgType::EvictDone:
        return SeqSpace::Stamp;
      default:
        return SeqSpace::None;
    }
}

/** Order-preserving rank map: value -> dense rank from 1 (0 stays
 *  0 = unset; equal values share a rank). */
using RankMap = std::map<std::uint64_t, std::uint64_t>;

void
note(RankMap &space, std::uint64_t v)
{
    if (v)
        space.emplace(v, 0);
}

void
assignRanks(RankMap &space)
{
    std::uint64_t r = 0;
    for (auto &[v, rank] : space) {
        (void)v;
        rank = ++r;
    }
}

std::uint64_t
rankOf(const RankMap &space, std::uint64_t v)
{
    if (!v)
        return 0;
    auto it = space.find(v);
    return it == space.end() ? ~std::uint64_t{0} : it->second;
}

} // anonymous namespace

std::vector<std::uint8_t>
EngineGateway::canonical() const
{
    const Engine *e = eng.get();
    const unsigned n = static_cast<unsigned>(e->cpus.size());
    const auto &g = e->params.geometry;
    const std::uint64_t nb = nBlocks;
    const unsigned bw = g.blockWords;
    const bool timeouts = cfg.opt.timeoutBase > 0;

    auto homeOfBlk = [n](BlockId b) {
        return static_cast<NodeId>(b % n);
    };

    // ------------------------------------------------------------
    // Pass 1: collect the value spaces that get rank-renumbered.
    // ------------------------------------------------------------
    std::vector<RankMap> cpuSeq(n), homeTok(n), homeStamp(n);

    auto noteMsg = [&](const Msg &m) {
        switch (seqSpaceOf(m.type)) {
          case SeqSpace::Requester:
            if (m.requester < n)
                note(cpuSeq[m.requester], m.seq);
            break;
          case SeqSpace::Dst:
            if (m.dst < n)
                note(cpuSeq[m.dst], m.seq);
            break;
          case SeqSpace::Stamp:
            note(homeStamp[homeOfBlk(m.blk)], m.seq);
            break;
          case SeqSpace::None:
            break;
        }
        note(homeTok[homeOfBlk(m.blk)], m.tok);
    };

    for (unsigned c = 0; c < n; ++c) {
        const auto &cs = e->cpus[c];
        if (cs.active) {
            note(cpuSeq[c], cs.txSeq);
            if (cs.timeoutArmed)
                note(cpuSeq[c], cs.vTimeoutSeq);
            if (timeouts)
                noteMsg(cs.lastReq);
        }
        if (cs.evicting)
            note(homeTok[homeOfBlk(cs.victimBlk)], cs.evictToken);
    }
    for (unsigned h = 0; h < n; ++h) {
        const auto &hs = e->homes[h];
        for (BlockId blk = h; blk < nb; blk += n) {
            if (const std::uint64_t *t = hs.busyToken.find(blk))
                note(homeTok[h], *t);
            if (const auto *q = hs.waiting.find(blk))
                for (const Msg &m : *q)
                    noteMsg(m);
            for (unsigned off = 0; off < bw; ++off) {
                Addr a = static_cast<Addr>(blk) * bw + off;
                if (const Tick *st = hs.durableStamp.find(a))
                    note(homeStamp[h], *st);
            }
        }
        for (unsigned c = 0; c < n; ++c) {
            if (const std::uint64_t *s = hs.seqSeen.find(c))
                note(cpuSeq[c], *s);
        }
    }
    for (const auto &p : e->vPending)
        noteMsg(p.msg);

    for (unsigned c = 0; c < n; ++c)
        assignRanks(cpuSeq[c]);
    for (unsigned h = 0; h < n; ++h) {
        assignRanks(homeTok[h]);
        assignRanks(homeStamp[h]);
    }

    // ------------------------------------------------------------
    // Pass 2: serialize under one cache-role permutation.
    // inv[newId] = oldId.
    // ------------------------------------------------------------
    auto serializeUnder =
        [&](const std::vector<NodeId> &inv) {
            std::vector<NodeId> toNew(n);
            for (unsigned j = 0; j < n; ++j)
                toNew[inv[j]] = static_cast<NodeId>(j);

            auto mapNode = [&](NodeId c) -> std::uint32_t {
                if (c == invalidNode)
                    return NodeMarker;
                return c < n ? toNew[c] : c;
            };

            ByteSink out;

            auto writeBits = [&](const DynamicBitset &bits) {
                out.u32(static_cast<std::uint32_t>(bits.size()));
                for (unsigned j = 0; j < n && j < bits.size(); ++j)
                    out.u8(bits.test(inv[j]) ? 1 : 0);
            };

            auto writeMsg = [&](const Msg &m, bool src_is_mem) {
                out.u8(static_cast<std::uint8_t>(m.type));
                out.u8(src_is_mem ? 1 : 0);
                out.u8(m.toMemory ? 1 : 0);
                out.u32(src_is_mem ? m.src : mapNode(m.src));
                out.u32(m.toMemory ? m.dst : mapNode(m.dst));
                out.u64(m.blk);
                out.u32(m.offset);
                // requester is a cache role except on RecoveryPurge
                // (the probing home) and the hand-off transfers
                // (invalidNode sentinel, covered by mapNode).
                out.u32(m.type == MsgType::RecoveryPurge
                            ? m.requester : mapNode(m.requester));
                // value is a node id only on OwnerAnnounce.
                out.u64(m.type == MsgType::OwnerAnnounce
                            ? mapNode(static_cast<NodeId>(m.value))
                            : m.value);
                switch (seqSpaceOf(m.type)) {
                  case SeqSpace::Requester:
                    out.u64(m.requester < n
                                ? rankOf(cpuSeq[m.requester], m.seq)
                                : m.seq);
                    break;
                  case SeqSpace::Dst:
                    out.u64(m.dst < n
                                ? rankOf(cpuSeq[m.dst], m.seq)
                                : m.seq);
                    break;
                  case SeqSpace::Stamp:
                    out.u64(rankOf(homeStamp[homeOfBlk(m.blk)],
                                   m.seq));
                    break;
                  case SeqSpace::None:
                    out.u64(m.seq);
                    break;
                }
                out.u64(rankOf(homeTok[homeOfBlk(m.blk)], m.tok));
                out.u8(m.flag ? 1 : 0);
                out.u8(static_cast<std::uint8_t>(m.field.state));
                out.u8(m.field.modified ? 1 : 0);
                out.u32(mapNode(m.field.owner));
                writeBits(m.field.present);
                out.u32(static_cast<std::uint32_t>(m.data.size()));
                for (std::uint64_t w : m.data)
                    out.u64(w);
            };

            auto writeRef = [&](const workload::MemRef &r) {
                out.u8(r.isWrite ? 1 : 0);
                out.u64(r.addr);
                out.u64(r.value);
            };

            // ---- cpu sections, new-id order --------------------
            for (unsigned j = 0; j < n; ++j) {
                const auto &cs = e->cpus[inv[j]];
                const unsigned c = inv[j];
                out.u8(e->deadNodes.test(c) ? 1 : 0);
                out.u8(cs.active ? 1 : 0);
                out.u8(static_cast<std::uint8_t>(cs.phase));
                out.u8(cs.vCommitPending ? 1 : 0);
                out.u8(cs.vDeferred ? 1 : 0);
                out.u8(cs.timeoutArmed ? 1 : 0);
                if (cs.active) {
                    out.u32(cs.attempts);
                    out.u32(cs.pointerRetries);
                    out.u32(cs.pendingAcks);
                    writeRef(cs.ref);
                    out.u64(rankOf(cpuSeq[c], cs.txSeq));
                    out.u64(cs.timeoutArmed
                                ? rankOf(cpuSeq[c], cs.vTimeoutSeq)
                                : 0);
                    if (cs.phase == Engine::Phase::WaitDwAcks ||
                        cs.phase == Engine::Phase::WaitInvalAcks)
                        writeBits(cs.ackFrom);
                    if (timeouts)
                        writeMsg(cs.lastReq, false);
                }
                out.u32(static_cast<std::uint32_t>(
                    cs.queue.size()));
                for (const auto &r : cs.queue)
                    writeRef(r);
                out.u8(cs.evicting ? 1 : 0);
                if (cs.evicting) {
                    out.u64(cs.victimBlk);
                    out.u64(rankOf(homeTok[homeOfBlk(cs.victimBlk)],
                                   cs.evictToken));
                    out.u32(static_cast<std::uint32_t>(cs.candIdx));
                    out.u32(static_cast<std::uint32_t>(
                        cs.candidates.size()));
                    for (NodeId cand : cs.candidates)
                        out.u32(mapNode(cand));
                }
                for (BlockId blk = 0; blk < nb; ++blk) {
                    std::uint8_t flags = 0;
                    if (cs.pinnedTx.contains(blk))
                        flags |= 1;
                    if (cs.pinnedOffer.contains(blk))
                        flags |= 2;
                    if (cs.clearPending.contains(blk))
                        flags |= 4;
                    if (cs.purged.contains(blk))
                        flags |= 8;
                    out.u8(flags);
                }

                // Cache entries, per set, block order, with the LRU
                // use clock reduced to a per-set rank.
                auto occ = cs.array.occupiedEntries();
                for (unsigned s = 0; s < g.numSets; ++s) {
                    std::vector<const cache::Entry *> setEntries;
                    for (const cache::Entry *en : occ)
                        if (g.setOf(en->block) == s)
                            setEntries.push_back(en);
                    std::sort(setEntries.begin(), setEntries.end(),
                              [](const cache::Entry *a,
                                 const cache::Entry *b) {
                                  return a->block < b->block;
                              });
                    RankMap lru;
                    for (const cache::Entry *en : setEntries)
                        note(lru, en->lastUse);
                    assignRanks(lru);
                    out.u32(static_cast<std::uint32_t>(
                        setEntries.size()));
                    for (const cache::Entry *en : setEntries) {
                        out.u64(en->block);
                        out.u8(static_cast<std::uint8_t>(
                            en->field.state));
                        out.u8(en->field.modified ? 1 : 0);
                        out.u32(mapNode(en->field.owner));
                        writeBits(en->field.present);
                        out.u64(rankOf(lru, en->lastUse));
                        for (std::uint64_t w : en->data)
                            out.u64(w);
                    }
                }
            }

            // ---- home sections, raw order ----------------------
            for (unsigned h = 0; h < n; ++h) {
                const auto &hs = e->homes[h];
                for (BlockId blk = h; blk < nb; blk += n) {
                    const std::uint64_t *tok =
                        hs.busyToken.find(blk);
                    out.u8(tok ? 1 : 0);
                    out.u64(tok ? rankOf(homeTok[h], *tok) : 0);
                    auto rel = hs.busyReleaser.find(blk);
                    out.u32(rel == hs.busyReleaser.end()
                                ? NodeMarker
                                : mapNode(rel->second));
                    out.u8(hs.recovering.contains(blk) ? 1 : 0);
                    out.u8(hs.recoveredGR.contains(blk) ? 1 : 0);

                    const auto *q = hs.waiting.find(blk);
                    out.u32(q ? static_cast<std::uint32_t>(
                                    q->size())
                              : 0);
                    if (q)
                        for (const Msg &m : *q)
                            writeMsg(m, false);

                    auto ctx = hs.recoveryCtx.find(blk);
                    out.u8(ctx != hs.recoveryCtx.end() ? 1 : 0);
                    if (ctx != hs.recoveryCtx.end()) {
                        for (unsigned j = 0; j < n; ++j)
                            out.u8(ctx->second.pending.contains(
                                       inv[j])
                                       ? 1 : 0);
                        out.u32(static_cast<std::uint32_t>(
                            ctx->second.suspecters.size()));
                        for (NodeId s : ctx->second.suspecters)
                            out.u32(mapNode(s));
                        out.u8(ctx->second.haveData ? 1 : 0);
                        out.u32(static_cast<std::uint32_t>(
                            ctx->second.data.size()));
                        for (std::uint64_t w : ctx->second.data)
                            out.u64(w);
                    }

                    out.u32(mapNode(
                        hs.mem.blockStore().owner(blk)));
                    for (std::uint64_t w : hs.mem.readBlock(blk))
                        out.u64(w);
                    for (unsigned off = 0; off < bw; ++off) {
                        Addr a = static_cast<Addr>(blk) * bw + off;
                        const Tick *st = hs.durableStamp.find(a);
                        out.u64(st ? rankOf(homeStamp[h], *st) : 0);
                    }
                }
                for (unsigned j = 0; j < n; ++j) {
                    const std::uint64_t *s =
                        hs.seqSeen.find(inv[j]);
                    out.u64(s ? rankOf(cpuSeq[inv[j]], *s) : 0);
                }
            }

            // ---- linearizability monitor -----------------------
            for (Addr a = 0; a < nb * bw; ++a) {
                const std::uint64_t *lc = e->lastCompleted.find(a);
                out.u8(lc ? 1 : 0);
                out.u64(lc ? *lc : 0);
                const auto *pw = e->pendingWrites.find(a);
                if (!pw || pw->empty()) {
                    out.u32(0);
                } else {
                    // The per-address multiset erases by swap-with
                    // -last: order is path noise, so sort.
                    std::vector<std::uint64_t> vals(*pw);
                    std::sort(vals.begin(), vals.end());
                    out.u32(static_cast<std::uint32_t>(
                        vals.size()));
                    for (std::uint64_t v : vals)
                        out.u64(v);
                }
            }

            // ---- pending messages, grouped per stream ----------
            struct Keyed
            {
                std::uint32_t src;
                std::uint8_t srcIsMem;
                std::uint32_t dst;
                std::uint8_t toMemory;
                std::size_t idx;
            };
            std::vector<Keyed> order;
            order.reserve(e->vPending.size());
            for (std::size_t i = 0; i < e->vPending.size(); ++i) {
                const auto &p = e->vPending[i];
                order.push_back(
                    {p.srcIsMem ? p.msg.src : mapNode(p.msg.src),
                     static_cast<std::uint8_t>(p.srcIsMem ? 1 : 0),
                     p.msg.toMemory ? p.msg.dst
                                    : mapNode(p.msg.dst),
                     static_cast<std::uint8_t>(
                         p.msg.toMemory ? 1 : 0),
                     i});
            }
            // Stable: FIFO order within a stream is behavior, the
            // interleaving across streams is not.
            std::stable_sort(
                order.begin(), order.end(),
                [](const Keyed &a, const Keyed &b) {
                    if (a.src != b.src)
                        return a.src < b.src;
                    if (a.srcIsMem != b.srcIsMem)
                        return a.srcIsMem < b.srcIsMem;
                    if (a.dst != b.dst)
                        return a.dst < b.dst;
                    return a.toMemory < b.toMemory;
                });
            out.u32(static_cast<std::uint32_t>(order.size()));
            for (const Keyed &k : order)
                writeMsg(e->vPending[k.idx].msg,
                         e->vPending[k.idx].srcIsMem);

            // ---- pending sweeps, crash budget ------------------
            std::vector<std::uint32_t> sweeps;
            for (NodeId d : e->vSweepPending)
                sweeps.push_back(mapNode(d));
            std::sort(sweeps.begin(), sweeps.end());
            out.u32(static_cast<std::uint32_t>(sweeps.size()));
            for (std::uint32_t d : sweeps)
                out.u32(d);
            if (cfg.opt.crashBudget > 0)
                out.u64(e->ctrs.crashes);
            out.u64(e->refsOutstanding);

            return out.take();
        };

    std::vector<NodeId> inv(n);
    for (unsigned j = 0; j < n; ++j)
        inv[j] = static_cast<NodeId>(j);
    std::vector<std::uint8_t> best = serializeUnder(inv);

    if (cfg.opt.symmetry && symEligible && n <= 5) {
        while (std::next_permutation(inv.begin(), inv.end())) {
            std::vector<std::uint8_t> cand = serializeUnder(inv);
            if (cand < best)
                best = std::move(cand);
        }
    }
    return best;
}

} // namespace mscp::verify
