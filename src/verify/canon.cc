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
#include <tuple>

#include "sim/logging.hh"
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

} // anonymous namespace

void
RankSpaces::seal()
{
    std::sort(vals.begin(), vals.end());
    std::size_t kept = 0;
    for (const Value &x : vals) {
        if (kept > 0 && vals[kept - 1].space == x.space) {
            if (vals[kept - 1].v == x.v)
                continue;
            vals[kept] = {x.space, x.v, vals[kept - 1].rank + 1};
        } else {
            vals[kept] = {x.space, x.v, 1};
        }
        ++kept;
    }
    vals.resize(kept);
}

std::uint64_t
RankSpaces::rankOf(RankKind kind, unsigned owner, std::uint64_t v) const
{
    if (!v)
        return 0;
    const Value key{spaceOf(kind, owner), v};
    auto it = std::lower_bound(vals.begin(), vals.end(), key);
    if (it == vals.end() || it->space != key.space || it->v != v) {
        static const char *const names[] = {
            "attempt-seq space of cpu", "busy-token space of home",
            "durable-stamp space of home", "LRU space of cache set"};
        panic("canonical: %llu was never collected into the %s %u",
              static_cast<unsigned long long>(v),
              names[static_cast<unsigned>(kind)], owner);
    }
    return it->rank;
}

void
CanonScratch::reserveOnce()
{
    if (reserved)
        return;
    reserved = true;
    ranks.reserve(256);
    lru.reserve(16);
    entries.reserve(16);
    writes.reserve(16);
    streams.reserve(64);
    sweeps.reserve(16);
    best.reserve(4096);
    cand.reserve(4096);
}

const std::vector<std::uint8_t> &
EngineGateway::canonical() const
{
    const Engine *e = eng.get();
    const unsigned n = static_cast<unsigned>(e->cpus.size());
    const auto &g = e->params.geometry;
    const std::uint64_t nb = nBlocks;
    const unsigned bw = g.blockWords();
    const bool timeouts = cfg.opt.timeoutBase > 0;
    CanonScratch &sc = canonScratch;
    sc.reserveOnce();

    auto homeOfBlk = [n](BlockId b) {
        return static_cast<NodeId>(b % n);
    };

    // ------------------------------------------------------------
    // Pass 1: collect the value spaces that get rank-renumbered.
    // ------------------------------------------------------------
    RankSpaces &ranks = sc.ranks;
    ranks.clear();
    using enum RankKind;

    auto noteMsg = [&](const Msg &m) {
        switch (seqSpaceOf(m.type)) {
          case SeqSpace::Requester:
            if (m.requester < n)
                ranks.note(CpuSeq, m.requester, m.seq);
            break;
          case SeqSpace::Dst:
            if (m.dst < n)
                ranks.note(CpuSeq, m.dst, m.seq);
            break;
          case SeqSpace::Stamp:
            ranks.note(HomeStamp, homeOfBlk(m.blk), m.seq);
            break;
          case SeqSpace::None:
            break;
        }
        ranks.note(HomeToken, homeOfBlk(m.blk), m.tok);
    };

    for (unsigned c = 0; c < n; ++c) {
        const auto &cs = e->cpus[c];
        if (cs.active) {
            ranks.note(CpuSeq, c, cs.txSeq);
            if (cs.timeoutArmed)
                ranks.note(CpuSeq, c, cs.vTimeoutSeq);
            if (timeouts)
                noteMsg(cs.lastReq);
        }
        if (cs.evicting)
            ranks.note(HomeToken, homeOfBlk(cs.victimBlk),
                       cs.evictToken);
    }
    // Unset values (token, stamp or seq 0) are never noted.
    for (unsigned h = 0; h < n; ++h) {
        for (BlockId blk = h; blk < nb; blk += n) {
            const auto *hb = e->homeBlocks.find(blk);
            if (!hb)
                continue;
            ranks.note(HomeToken, h, hb->busyToken);
            for (unsigned off = 0; off < bw; ++off)
                ranks.note(HomeStamp, h, hb->durableStamp[off]);
        }
        for (unsigned c = 0; c < n; ++c)
            ranks.note(CpuSeq, c, e->seqSeen[h * n + c]);
    }
    for (BlockId blk = 0; blk < nb; ++blk)
        if (const auto *hb = e->homeBlocks.find(blk))
            for (std::uint32_t s = hb->parkedHead; s != Engine::NoParked;
                 s = e->parked[s].next)
                noteMsg(e->parked[s].msg);
    for (const auto &p : e->vPending)
        noteMsg(p.msg);

    ranks.seal();

    // ------------------------------------------------------------
    // Pass 2: serialize under one cache-role permutation
    // (sc.inv[newId] = oldId) into @p out.
    // ------------------------------------------------------------
    auto serializeUnder =
        [&](ByteSink &out) {
            const std::vector<NodeId> &inv = sc.inv;
            std::vector<NodeId> &toNew = sc.toNew;
            toNew.resize(n);
            for (unsigned j = 0; j < n; ++j)
                toNew[inv[j]] = static_cast<NodeId>(j);

            auto mapNode = [&](NodeId c) -> std::uint32_t {
                if (c == invalidNode)
                    return NodeMarker;
                return c < n ? toNew[c] : c;
            };

            out.clear();

            // The writers take the sink as a parameter: captured, it
            // would be reloaded after every byte store.
            auto writeBits = [&](ByteSink &o, const auto &bits) {
                o.u32(static_cast<std::uint32_t>(bits.size()));
                for (unsigned j = 0; j < n && j < bits.size(); ++j)
                    o.u8(bits.test(inv[j]) ? 1 : 0);
            };

            auto writeMsg = [&](ByteSink &o, const Msg &m,
                                bool src_is_mem) {
                o.u8(static_cast<std::uint8_t>(m.type));
                o.u8(src_is_mem ? 1 : 0);
                o.u8(m.toMemory ? 1 : 0);
                o.u32(src_is_mem ? m.src : mapNode(m.src));
                o.u32(m.toMemory ? m.dst : mapNode(m.dst));
                o.u64(m.blk);
                o.u32(m.offset);
                // requester is a cache role except on RecoveryPurge
                // (the probing home) and the hand-off transfers
                // (invalidNode sentinel, covered by mapNode).
                o.u32(m.type == MsgType::RecoveryPurge
                          ? m.requester : mapNode(m.requester));
                // value is a node id only on OwnerAnnounce.
                o.u64(m.type == MsgType::OwnerAnnounce
                          ? mapNode(static_cast<NodeId>(m.value))
                          : m.value);
                switch (seqSpaceOf(m.type)) {
                  case SeqSpace::Requester:
                    o.u64(m.requester < n
                              ? ranks.rankOf(CpuSeq, m.requester, m.seq)
                              : m.seq);
                    break;
                  case SeqSpace::Dst:
                    o.u64(m.dst < n
                              ? ranks.rankOf(CpuSeq, m.dst, m.seq)
                              : m.seq);
                    break;
                  case SeqSpace::Stamp:
                    o.u64(ranks.rankOf(HomeStamp, homeOfBlk(m.blk),
                                       m.seq));
                    break;
                  case SeqSpace::None:
                    o.u64(m.seq);
                    break;
                }
                o.u64(ranks.rankOf(HomeToken, homeOfBlk(m.blk), m.tok));
                o.u8(m.flag ? 1 : 0);
                o.u8(static_cast<std::uint8_t>(m.field.state));
                o.u8(m.field.modified ? 1 : 0);
                o.u32(mapNode(m.field.owner));
                writeBits(o, m.field.present);
                o.u32(m.words);
                for (std::uint64_t w : m.payload())
                    o.u64(w);
            };

            auto writeRef = [&](ByteSink &o, const workload::MemRef &r) {
                o.u8(r.isWrite ? 1 : 0);
                o.u64(r.addr);
                o.u64(r.value);
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
                    writeRef(out, cs.ref);
                    out.u64(ranks.rankOf(CpuSeq, c, cs.txSeq));
                    out.u64(cs.timeoutArmed
                                ? ranks.rankOf(CpuSeq, c, cs.vTimeoutSeq)
                                : 0);
                    if (cs.phase == Engine::Phase::WaitDwAcks ||
                        cs.phase == Engine::Phase::WaitInvalAcks)
                        writeBits(out, cs.ackFrom);
                    if (timeouts)
                        writeMsg(out, cs.lastReq, false);
                }
                const auto &prog = e->programs[c];
                out.u32(static_cast<std::uint32_t>(
                    prog.size() - cs.next));
                for (std::size_t r = cs.next; r < prog.size(); ++r)
                    writeRef(out, prog[r]);
                out.u8(cs.evicting ? 1 : 0);
                if (cs.evicting) {
                    out.u64(cs.victimBlk);
                    out.u64(ranks.rankOf(HomeToken,
                                         homeOfBlk(cs.victimBlk),
                                         cs.evictToken));
                    out.u32(static_cast<std::uint32_t>(cs.candIdx));
                    const auto &cands = cs.candidates;
                    out.u32(static_cast<std::uint32_t>(cands.count()));
                    for (std::size_t i = cands.findFirst();
                         i < cands.size(); i = cands.findNext(i))
                        out.u32(mapNode(static_cast<NodeId>(i)));
                }
                // Per block, the cpu's BlockMark bits. The table is
                // usually empty; skip its lookups then.
                for (BlockId blk = 0; blk < nb; ++blk) {
                    const std::uint8_t *mk = e->marks.empty()
                        ? nullptr
                        : e->marks.find(Engine::markKey(c, blk));
                    out.u8(mk ? *mk : 0);
                }

                // Cache entries, per set in block order, with the
                // LRU use clock reduced to a per-set rank.
                sc.entries.clear();
                e->caches[c].forEachOccupied([&](const cache::Entry &en) {
                    sc.entries.push_back(&en);
                });
                std::sort(sc.entries.begin(), sc.entries.end(),
                          [&g](const cache::Entry *a,
                               const cache::Entry *b) {
                              const unsigned sa = g.setOf(a->block);
                              const unsigned sb = g.setOf(b->block);
                              return sa != sb ? sa < sb
                                              : a->block < b->block;
                          });
                std::size_t k = 0;
                for (unsigned s = 0; s < g.numSets(); ++s) {
                    const std::size_t first = k;
                    sc.lru.clear();
                    for (; k < sc.entries.size() &&
                           g.setOf(sc.entries[k]->block) == s;
                         ++k)
                        sc.lru.note(SetLru, s, sc.entries[k]->lastUse);
                    sc.lru.seal();
                    out.u32(static_cast<std::uint32_t>(k - first));
                    for (std::size_t i = first; i < k; ++i) {
                        const cache::Entry *en = sc.entries[i];
                        out.u64(en->block);
                        out.u8(static_cast<std::uint8_t>(
                            en->field.state));
                        out.u8(en->field.modified ? 1 : 0);
                        out.u32(mapNode(en->field.owner));
                        writeBits(out, en->field.present);
                        out.u64(sc.lru.rankOf(SetLru, s, en->lastUse));
                        for (std::uint64_t w : en->data)
                            out.u64(w);
                    }
                }
            }

            // ---- home sections, raw order ----------------------
            // A block the home never served has no HomeBlock and
            // reads as a default one: not busy, nothing parked.
            const Engine::HomeBlock idle{};
            for (unsigned h = 0; h < n; ++h) {
                for (BlockId blk = h; blk < nb; blk += n) {
                    const auto *found = e->homeBlocks.find(blk);
                    const Engine::HomeBlock &hb = found ? *found : idle;
                    const std::uint64_t tok = hb.busyToken;
                    out.u8(tok ? 1 : 0);
                    out.u64(ranks.rankOf(HomeToken, h, tok));
                    out.u32(mapNode(hb.busyReleaser));
                    out.u8(hb.recovering ? 1 : 0);
                    out.u8(hb.recoveredGR ? 1 : 0);

                    out.u32(hb.parked);
                    for (std::uint32_t s = hb.parkedHead;
                         s != Engine::NoParked; s = e->parked[s].next)
                        writeMsg(out, e->parked[s].msg, false);

                    const Engine::RecoveryCtx *ctx = nullptr;
                    for (const auto &r : e->recoveries)
                        if (r.blk == blk)
                            ctx = &r;
                    out.u8(ctx ? 1 : 0);
                    if (ctx) {
                        for (unsigned j = 0; j < n; ++j)
                            out.u8(ctx->pending.test(inv[j]) ? 1 : 0);
                        std::uint32_t nsus = 0;
                        for (const auto &s : e->suspecters)
                            nsus += s.blk == blk;
                        out.u32(nsus);
                        for (const auto &s : e->suspecters)
                            if (s.blk == blk)
                                out.u32(mapNode(s.node));
                        out.u8(ctx->haveData ? 1 : 0);
                        out.u32(ctx->haveData ? bw : 0);
                        if (ctx->haveData)
                            for (unsigned off = 0; off < bw; ++off)
                                out.u64(ctx->data[off]);
                    }

                    out.u32(mapNode(e->mem.blockStore().owner(blk)));
                    for (unsigned off = 0; off < bw; ++off)
                        out.u64(e->mem.readWord(blk, off));
                    for (unsigned off = 0; off < bw; ++off)
                        out.u64(ranks.rankOf(HomeStamp, h,
                                             hb.durableStamp[off]));
                }
                for (unsigned j = 0; j < n; ++j)
                    out.u64(ranks.rankOf(CpuSeq, inv[j],
                                         e->seqSeen[h * n + inv[j]]));
            }

            // ---- linearizability monitor -----------------------
            for (Addr a = 0; a < nb * bw; ++a) {
                const std::uint64_t *lc = e->lastCompleted.find(a);
                out.u8(lc ? 1 : 0);
                out.u64(lc ? *lc : 0);
                // The multiset erases by swap-with-last: order is
                // path noise, so sort.
                sc.writes.clear();
                for (const auto &pw : e->pendingWrites)
                    if (pw.addr == a)
                        sc.writes.push_back(pw.value);
                std::sort(sc.writes.begin(), sc.writes.end());
                out.u32(static_cast<std::uint32_t>(sc.writes.size()));
                for (std::uint64_t v : sc.writes)
                    out.u64(v);
            }

            // ---- pending messages, grouped per stream ----------
            using StreamKey = CanonScratch::StreamKey;
            sc.streams.clear();
            for (std::size_t i = 0; i < e->vPending.size(); ++i) {
                const auto &p = e->vPending[i];
                sc.streams.push_back(
                    {p.srcIsMem ? p.msg.src : mapNode(p.msg.src),
                     static_cast<std::uint8_t>(p.srcIsMem ? 1 : 0),
                     p.msg.toMemory ? p.msg.dst
                                    : mapNode(p.msg.dst),
                     static_cast<std::uint8_t>(
                         p.msg.toMemory ? 1 : 0),
                     i});
            }
            // FIFO order within a stream is behavior, the
            // interleaving across streams is not; the buffer index
            // breaks ties, so the order is the stable one.
            std::sort(sc.streams.begin(), sc.streams.end(),
                      [](const StreamKey &a, const StreamKey &b) {
                          return std::tie(a.src, a.srcIsMem, a.dst,
                                          a.toMemory, a.idx) <
                                 std::tie(b.src, b.srcIsMem, b.dst,
                                          b.toMemory, b.idx);
                      });
            out.u32(static_cast<std::uint32_t>(sc.streams.size()));
            for (const StreamKey &k : sc.streams)
                writeMsg(out, e->vPending[k.idx].msg,
                         e->vPending[k.idx].srcIsMem);

            // ---- pending sweeps, crash budget ------------------
            sc.sweeps.clear();
            for (NodeId d : e->vSweepPending)
                sc.sweeps.push_back(mapNode(d));
            std::sort(sc.sweeps.begin(), sc.sweeps.end());
            out.u32(static_cast<std::uint32_t>(sc.sweeps.size()));
            for (std::uint32_t d : sc.sweeps)
                out.u32(d);
            if (cfg.opt.crashBudget > 0)
                out.u64(e->ctrs.crashes);
            out.u64(e->refsOutstanding);

            out.finish();
        };

    sc.inv.resize(n);
    for (unsigned j = 0; j < n; ++j)
        sc.inv[j] = static_cast<NodeId>(j);
    serializeUnder(sc.best);

    if (cfg.opt.symmetry && symEligible && n <= 5) {
        while (std::next_permutation(sc.inv.begin(), sc.inv.end())) {
            serializeUnder(sc.cand);
            if (sc.cand.finish() < sc.best.finish())
                std::swap(sc.cand, sc.best);
        }
    }
    return sc.best.finish();
}

} // namespace mscp::verify
