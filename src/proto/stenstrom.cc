#include "stenstrom.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::proto
{

using cache::Mode;
using cache::State;

StenstromProtocol::StenstromProtocol(net::OmegaNetwork &network,
                                     StenstromParams p)
    : CoherenceProtocol(network, p.sizes, p.geometry.blockWords()),
      params(p), destScratch(network.numPorts())
{
    params.geometry.check();
    unsigned n = network.numPorts();
    caches.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        caches.emplace_back(params.geometry, n);
}

cache::Entry &
StenstromProtocol::ownerEntry(NodeId owner, BlockId blk)
{
    Entry *e = caches[owner].find(blk);
    panic_if(!e, "cache %u registered as owner of block %llu but has "
             "no entry", owner,
             static_cast<unsigned long long>(blk));
    panic_if(!cache::isOwned(e->field.state),
             "cache %u registered as owner of block %llu but entry "
             "is %s", owner, static_cast<unsigned long long>(blk),
             cache::stateName(e->field.state));
    return *e;
}

const DynamicBitset &
StenstromProtocol::othersPresent(const Entry &e, NodeId self)
{
    destScratch = e.field.present;
    destScratch.reset(self);
    return destScratch;
}

void
StenstromProtocol::maybeExclusive(Entry &e, NodeId self)
{
    if (e.field.present.count() == 1 && e.field.present.test(self)) {
        e.field.state = cache::ownedState(
            cache::modeOf(e.field.state), true);
    }
}

cache::Entry &
StenstromProtocol::allocateEntry(NodeId cpu, BlockId blk)
{
    auto &ca = caches[cpu];
    if (Entry *e = ca.find(blk)) {
        // Reuse an Invalid (OWNER-pointer) entry in place.
        ca.touch(*e);
        return *e;
    }
    Entry *victim = ca.pickVictim(blk);
    if (victim->occupied) {
        replaceVictim(cpu, *victim);
        ca.evict(*victim);
    }
    ca.install(*victim, blk);
    return *victim;
}

std::uint64_t
StenstromProtocol::read(NodeId cpu, Addr addr)
{
    panic_if(cpu >= caches.size(), "cpu out of range");
    BlockId blk = params.geometry.blockOf(addr);
    unsigned off = params.geometry.offsetOf(addr);

    ++ctrs.reads;
    DPRINTF("Stenstrom", "cpu%u R @%llu (block %llu)", cpu,
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(blk));
    auto &ca = caches[cpu];
    Entry *e = ca.find(blk);

    std::uint64_t value;
    if (e && cache::isValid(e->field.state)) {
        // 1. Read hit: carried out locally.
        ++ctrs.readHits;
        ca.touch(*e);
        value = e->data[off];
    } else if (e && e->field.owner != invalidNode) {
        // 2. Read miss, state = Invalid: OWNER-pointer bypass.
        value = readMissPointer(cpu, *e, blk, off);
    } else {
        // 2. Read miss, copy nonexistent: via the memory module.
        value = readMissNoEntry(cpu, blk, off);
    }
    goldenRead(addr, value);
    return value;
}

std::uint64_t
StenstromProtocol::readMissPointer(NodeId cpu, Entry &e, BlockId blk,
                                   unsigned off)
{
    NodeId o = e.field.owner;
    sendUnicast(MsgType::LoadReq, cpu, o, 0);
    Entry &oe = ownerEntry(o, blk);
    oe.field.present.set(cpu);
    caches[cpu].touch(e);
    caches[o].touch(oe);

    if (cache::modeOf(oe.field.state) == Mode::DistributedWrite) {
        // 2-Invalid-(a): owner replies with a copy; requester's
        // entry becomes a valid UnOwned copy. (Unreachable while
        // GR->DW switches drop pointers, kept for fidelity.)
        return copyFromOwner(cpu, &e, o, oe, blk, off);
    }
    // 2-Invalid-(b): owner replies with the datum only.
    sendUnicast(MsgType::Datum, o, cpu, sizes.wordBits);
    oe.field.state = State::OwnedNonExclGR;
    ++ctrs.readMissPointerGR;
    return oe.data[off];
}

std::uint64_t
StenstromProtocol::readMissNoEntry(NodeId cpu, BlockId blk,
                                   unsigned off)
{
    NodeId home = homeOf(blk);
    sendUnicast(MsgType::LoadReq, cpu, home, 0);
    auto &mm = memories[home];

    if (!mm.blockStore().hasOwner(blk)) {
        // 2-nonexistent-(a): no other copy; load from memory and
        // become exclusive owner.
        ++ctrs.readMissUncached;
        return fillUncached(cpu, blk).data[off];
    }

    // 2-nonexistent-(b): forward to the owner.
    NodeId o = mm.blockStore().owner(blk);
    panic_if(o == cpu, "owner %u read-missed its own block", cpu);
    sendUnicast(MsgType::LoadFwd, home, o, 0);
    Entry &oe = ownerEntry(o, blk);
    oe.field.present.set(cpu);

    if (cache::modeOf(oe.field.state) == Mode::DistributedWrite) {
        // (b)-i: owner sends a copy; requester becomes UnOwned.
        return copyFromOwner(cpu, nullptr, o, oe, blk, off);
    }
    // (b)-ii: owner sends the datum and its identification only;
    // requester reserves an Invalid entry caching the OWNER.
    sendUnicast(MsgType::Datum, o, cpu,
                sizes.wordBits + sizes.ownerIdPayload(numCaches()));
    oe.field.state = State::OwnedNonExclGR;
    Entry &e = allocateEntry(cpu, blk);
    e.field.state = State::Invalid;
    e.field.owner = o;
    ++ctrs.readMissOwnedGR;
    return oe.data[off];
}

void
StenstromProtocol::write(NodeId cpu, Addr addr, std::uint64_t value)
{
    panic_if(cpu >= caches.size(), "cpu out of range");
    BlockId blk = params.geometry.blockOf(addr);
    unsigned off = params.geometry.offsetOf(addr);

    ++ctrs.writes;
    DPRINTF("Stenstrom", "cpu%u W @%llu (block %llu)", cpu,
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(blk));
    auto &ca = caches[cpu];
    Entry *e = ca.find(blk);

    if (e && cache::isValid(e->field.state)) {
        // 3. Write hit.
        ca.touch(*e);
        switch (e->field.state) {
          case State::OwnedExclDW:
          case State::OwnedExclGR:
            ++ctrs.writeHitExcl;
            break;
          case State::OwnedNonExclDW:
            ++ctrs.writeHitNonExclDW;
            break;
          case State::OwnedNonExclGR:
            ++ctrs.writeHitNonExclGR;
            break;
          case State::UnOwned:
            // 3-(d): acquire ownership first.
            ++ctrs.writeHitUnOwned;
            acquireFromUnOwned(cpu, *e, blk);
            break;
          default:
            panic("write hit in state %s",
                  cache::stateName(e->field.state));
        }
        writeOwned(cpu, *e, blk, off, value);
    } else {
        // 4. Write miss: load with ownership.
        Entry &ne = writeMissAcquire(cpu, blk);
        writeOwned(cpu, ne, blk, off, value);
    }
    goldenWrite(addr, value);
}

void
StenstromProtocol::writeOwned(NodeId cpu, Entry &e, BlockId blk,
                              unsigned off, std::uint64_t value)
{
    panic_if(!cache::isOwned(e.field.state),
             "writeOwned in state %s",
             cache::stateName(e.field.state));

    if (e.field.state == State::OwnedNonExclDW) {
        // 3-(b): distribute the write to every present copy.
        const DynamicBitset &dests = othersPresent(e, cpu);
        multicast(MsgType::DwUpdate, cpu, dests, sizes.wordBits);
        ++ctrs.dwUpdates;
        for (std::size_t d = dests.findFirst(); d < dests.size();
             d = dests.findNext(d)) {
            Entry *de = caches[d].find(blk);
            panic_if(!de, "present flag set for cache %zu with no "
                     "entry", d);
            // Invalid (pointer) entries ignore the update; valid
            // UnOwned copies apply it.
            if (de->field.state == State::UnOwned)
                de->data[off] = value;
        }
    }
    e.data[off] = value;
    e.field.modified = true;
}

void
StenstromProtocol::acquireFromUnOwned(NodeId cpu, Entry &e,
                                      BlockId blk)
{
    NodeId home = homeOf(blk);
    sendUnicast(MsgType::OwnReq, cpu, home, 0);
    auto &mm = memories[home];
    NodeId o = mm.blockStore().owner(blk);
    panic_if(o == invalidNode, "UnOwned copy with ownerless block");
    panic_if(o == cpu, "UnOwned copy at the registered owner");
    mm.blockStore().setOwner(blk, cpu);
    sendUnicast(MsgType::OwnFwd, home, o, 0);
    Entry &oe = ownerEntry(o, blk);
    ++ctrs.ownershipTransfers;
    DPRINTF("Stenstrom", "block %llu ownership %u -> %u (upgrade)",
            static_cast<unsigned long long>(blk), o, cpu);

    if (cache::modeOf(oe.field.state) == Mode::DistributedWrite) {
        // 3-(d)-i: state field only; old owner's copy stays valid.
        sendUnicast(MsgType::StateXfer, o, cpu,
                    sizes.statePayload(numCaches()));
        e.field.present = oe.field.present;
        e.field.modified = oe.field.modified;
        e.field.owner = invalidNode;
    } else {
        // 3-(d)-ii: copy + state field; old owner announces the
        // new owner to the invalid copies and invalidates itself.
        copyState(o, oe, cpu, e);
    }
    e.field.present.set(cpu);
    retireOwner(o, oe, cpu, e, blk);
}

cache::Entry &
StenstromProtocol::writeMissAcquire(NodeId cpu, BlockId blk)
{
    NodeId home = homeOf(blk);
    sendUnicast(MsgType::LoadOwnReq, cpu, home, 0);
    auto &mm = memories[home];

    if (!mm.blockStore().hasOwner(blk)) {
        // 4-(a): no other copy; paper sets Owned Exclusively
        // Global Read (the configured default mode).
        ++ctrs.writeMissUncached;
        return fillUncached(cpu, blk);
    }

    // 4-(b): other copies exist (or our entry is Invalid).
    ++ctrs.writeMissOwned;
    ++ctrs.ownershipTransfers;
    NodeId o = mm.blockStore().owner(blk);
    panic_if(o == cpu, "owner %u write-missed its own block", cpu);
    mm.blockStore().setOwner(blk, cpu);
    sendUnicast(MsgType::LoadOwnFwd, home, o, 0);
    Entry &oe = ownerEntry(o, blk);
    oe.field.present.set(cpu);

    // 4-(b)-i/ii: copy + state field; in DW the old owner's copy
    // becomes UnOwned, in GR it announces the new owner and
    // invalidates itself. The victim evicted here holds another
    // block, so oe keeps its mode.
    Entry &e = allocateEntry(cpu, blk);
    copyState(o, oe, cpu, e);
    retireOwner(o, oe, cpu, e, blk);
    return e;
}

cache::Entry &
StenstromProtocol::fillUncached(NodeId cpu, BlockId blk)
{
    NodeId home = homeOf(blk);
    auto &mm = memories[home];
    mm.blockStore().setOwner(blk, cpu);
    sendUnicast(MsgType::DataBlock, home, cpu,
                sizes.blockPayload(blockWords));
    Entry &e = allocateEntry(cpu, blk);
    mm.readBlock(blk, e.data);
    e.field.state = cache::ownedState(params.defaultMode, true);
    e.field.modified = false;
    e.field.present.clear();
    e.field.present.set(cpu);
    return e;
}

std::uint64_t
StenstromProtocol::copyFromOwner(NodeId cpu, Entry *e, NodeId o,
                                 Entry &oe, BlockId blk, unsigned off)
{
    sendUnicast(MsgType::DataBlock, o, cpu,
                sizes.blockPayload(blockWords));
    oe.field.state = State::OwnedNonExclDW;
    Entry &ce = e ? *e : allocateEntry(cpu, blk);
    ce.data = oe.data;
    ce.field.state = State::UnOwned;
    ce.field.owner = invalidNode;
    ++ctrs.readMissOwnedDW;
    return ce.data[off];
}

void
StenstromProtocol::copyState(NodeId from, const Entry &src, NodeId to,
                             Entry &dst)
{
    sendUnicast(MsgType::StateCopyXfer, from, to,
                sizes.statePayload(numCaches()) +
                sizes.blockPayload(blockWords));
    dst.data = src.data;
    dst.field.present = src.field.present;
    dst.field.modified = src.field.modified;
    dst.field.owner = invalidNode;
}

void
StenstromProtocol::retireOwner(NodeId o, Entry &oe, NodeId cpu,
                               Entry &e, BlockId blk)
{
    if (cache::modeOf(oe.field.state) == Mode::DistributedWrite) {
        oe.field.state = State::UnOwned;
        e.field.state = State::OwnedNonExclDW;
    } else {
        announceOwner(o, cpu, blk, e.field.present);
        oe.field.state = State::Invalid;
        oe.field.owner = cpu;
        e.field.state = State::OwnedNonExclGR;
    }
    oe.field.modified = false;
    oe.field.present.clear();
}

void
StenstromProtocol::announceOwner(NodeId old_owner, NodeId new_owner,
                                 BlockId blk,
                                 const DynamicBitset &present)
{
    destScratch = present;
    destScratch.reset(new_owner);
    destScratch.reset(old_owner);
    const DynamicBitset &dests = destScratch;
    if (dests.none())
        return;
    multicast(MsgType::OwnerAnnounce, old_owner, dests,
              sizes.ownerIdPayload(numCaches()));
    ++ctrs.ownerAnnounces;
    for (std::size_t d = dests.findFirst(); d < dests.size();
         d = dests.findNext(d)) {
        Entry *de = caches[d].find(blk);
        if (de && de->field.state == State::Invalid)
            de->field.owner = new_owner;
    }
}

void
StenstromProtocol::releaseExclusive(NodeId cpu, const Entry &victim)
{
    BlockId vb = victim.block;
    NodeId home = homeOf(vb);
    auto &mm = memories[home];
    if (victim.field.modified) {
        sendUnicast(MsgType::WriteBack, cpu, home,
                    sizes.blockPayload(blockWords));
        mm.writeBlock(vb, victim.data);
        ++ctrs.writeBacks;
    } else {
        sendUnicast(MsgType::BsClear, cpu, home, 0);
    }
    mm.blockStore().clear(vb);
}

void
StenstromProtocol::replaceVictim(NodeId cpu, Entry &victim)
{
    BlockId vb = victim.block;
    NodeId home = homeOf(vb);
    auto &mm = memories[home];
    ++ctrs.replacements;
    DPRINTF("Stenstrom", "cpu%u evicts block %llu (%s)", cpu,
            static_cast<unsigned long long>(vb),
            cache::stateName(victim.field.state));

    switch (victim.field.state) {
      case State::OwnedExclDW:
      case State::OwnedExclGR:
        // 5-(a): exclude from the block store, write back if dirty.
        ++ctrs.replOwnedExcl;
        releaseExclusive(cpu, victim);
        break;

      case State::OwnedNonExclDW:
      case State::OwnedNonExclGR:
        // 5-(b): hand ownership to a present cache.
        ++ctrs.replOwnedNonExcl;
        if (!handoffOwnership(cpu, victim))
            allNackFallback(cpu, victim);
        break;

      case State::UnOwned:
      case State::Invalid: {
        // 5-(c): ask the owner (via memory) to clear our P flag.
        if (victim.field.state == State::UnOwned)
            ++ctrs.replUnOwned;
        else
            ++ctrs.replInvalid;
        sendUnicast(MsgType::PresentClear, cpu, home, 0);
        NodeId o = mm.blockStore().owner(vb);
        panic_if(o == invalidNode,
                 "non-owner copy of ownerless block %llu",
                 static_cast<unsigned long long>(vb));
        sendUnicast(MsgType::PresentClear, home, o, 0);
        Entry &oe = ownerEntry(o, vb);
        oe.field.present.reset(cpu);
        maybeExclusive(oe, o);
        break;
      }
    }
}

bool
StenstromProtocol::handoffOwnership(NodeId cpu, Entry &victim)
{
    BlockId vb = victim.block;
    NodeId home = homeOf(vb);
    auto &mm = memories[home];
    Mode m = cache::modeOf(victim.field.state);

    // Offer in ascending order. The loop reads the victim's present
    // vector itself: announceOwner() below refills the scratch set.
    const DynamicBitset &present = victim.field.present;
    for (std::size_t jj = present.findFirst(); jj < present.size();
         jj = present.findNext(jj)) {
        const auto j = static_cast<NodeId>(jj);
        if (j == cpu)
            continue;
        sendUnicast(MsgType::OfferOwner, cpu, j, 0);
        Entry *je = caches[j].find(vb);
        bool nack = !je ||
            (nackInjector && nackInjector(j, vb));
        if (nack) {
            sendUnicast(MsgType::OfferNack, j, cpu, 0);
            ++ctrs.handoffNacks;
            continue;
        }
        sendUnicast(MsgType::OfferAck, j, cpu, 0);

        // The accepting cache requests ownership per the protocol.
        ++ctrs.ownershipTransfers;
        sendUnicast(MsgType::OwnReq, j, home, 0);
        mm.blockStore().setOwner(vb, j);
        sendUnicast(MsgType::OwnFwd, home, cpu, 0);

        if (m == Mode::DistributedWrite) {
            panic_if(je->field.state != State::UnOwned,
                     "DW hand-off target in state %s",
                     cache::stateName(je->field.state));
            sendUnicast(MsgType::StateXfer, cpu, j,
                        sizes.statePayload(numCaches()));
            je->field.present = victim.field.present;
            je->field.modified = victim.field.modified;
            je->field.state = State::OwnedNonExclDW;
        } else {
            panic_if(je->field.state != State::Invalid,
                     "GR hand-off target in state %s",
                     cache::stateName(je->field.state));
            copyState(cpu, victim, j, *je);
            je->field.state = State::OwnedNonExclGR;
            announceOwner(cpu, j, vb, victim.field.present);
        }
        // The departing cache has the new owner clear its P flag.
        sendUnicast(MsgType::PresentClear, cpu, j, 0);
        je->field.present.reset(cpu);
        maybeExclusive(*je, j);
        caches[j].touch(*je);
        return true;
    }
    return false;
}

void
StenstromProtocol::allNackFallback(NodeId cpu, Entry &victim)
{
    // Terminal rule (paper leaves the all-nack case open): the
    // evicting owner invalidates the remaining copies, writes back
    // if modified and clears the block store entry.
    ++ctrs.handoffFallbacks;
    BlockId vb = victim.block;
    const DynamicBitset &dests = othersPresent(victim, cpu);
    if (dests.any()) {
        multicast(MsgType::Invalidate, cpu, dests, 0);
        ++ctrs.invalidations;
        for (std::size_t d = dests.findFirst(); d < dests.size();
             d = dests.findNext(d)) {
            Entry *de = caches[d].find(vb);
            if (de)
                caches[d].evict(*de);
        }
    }
    releaseExclusive(cpu, victim);
}

void
StenstromProtocol::setMode(NodeId cpu, Addr addr, cache::Mode mode)
{
    BlockId blk = params.geometry.blockOf(addr);
    Entry *e = caches[cpu].find(blk);

    // 6/7: acquiring ownership first, per the regular actions.
    if (!e || !cache::isValid(e->field.state)) {
        e = &writeMissAcquire(cpu, blk);
    } else if (e->field.state == State::UnOwned) {
        acquireFromUnOwned(cpu, *e, blk);
    }
    panic_if(!cache::isOwned(e->field.state),
             "setMode without ownership");
    caches[cpu].touch(*e);

    Mode cur = cache::modeOf(e->field.state);
    if (cur == mode)
        return;
    ++ctrs.modeSwitches;
    DPRINTF("Stenstrom", "block %llu mode %s -> %s (cpu%u)",
            static_cast<unsigned long long>(blk),
            cache::modeName(cur), cache::modeName(mode), cpu);

    if (mode == Mode::GlobalRead) {
        // 7: invalidate every copy; holders keep OWNER pointers, so
        // the present vector now tracks invalid copies.
        if (e->field.state == State::OwnedNonExclDW) {
            const DynamicBitset &dests = othersPresent(*e, cpu);
            multicast(MsgType::Invalidate, cpu, dests,
                      sizes.ownerIdPayload(numCaches()));
            ++ctrs.invalidations;
            for (std::size_t d = dests.findFirst(); d < dests.size();
                 d = dests.findNext(d)) {
                Entry *de = caches[d].find(blk);
                panic_if(!de, "present copy vanished");
                de->field.state = State::Invalid;
                de->field.owner = cpu;
            }
            e->field.state = State::OwnedNonExclGR;
        } else {
            e->field.state = State::OwnedExclGR;
        }
    } else {
        // 6: switch to distributed write. Documented decision: the
        // OWNER pointers of the invalid copies are dropped so the
        // present vector again tracks valid copies only.
        if (e->field.state == State::OwnedNonExclGR) {
            const DynamicBitset &dests = othersPresent(*e, cpu);
            multicast(MsgType::DropPointer, cpu, dests, 0);
            for (std::size_t d = dests.findFirst(); d < dests.size();
                 d = dests.findNext(d)) {
                Entry *de = caches[d].find(blk);
                if (de)
                    caches[d].evict(*de);
            }
            e->field.present.clear();
            e->field.present.set(cpu);
        }
        e->field.state = State::OwnedExclDW;
    }
}

void
StenstromProtocol::multicast(MsgType t, NodeId src,
                             const DynamicBitset &dests, Bits payload)
{
    net::Scheme scheme = params.schemePolicy
        ? params.schemePolicy(static_cast<unsigned>(dests.count()))
        : params.multicastScheme;
    sendMulticast(t, scheme, src, dests, payload);
}

NodeId
StenstromProtocol::ownerOf(Addr addr) const
{
    BlockId blk = params.geometry.blockOf(addr);
    return memories[homeOf(blk)].blockStore().owner(blk);
}

unsigned
StenstromProtocol::presentCount(Addr addr) const
{
    NodeId o = ownerOf(addr);
    if (o == invalidNode)
        return 0;
    BlockId blk = params.geometry.blockOf(addr);
    const Entry *e = caches[o].find(blk);
    panic_if(!e, "block store points at a cache without an entry");
    return static_cast<unsigned>(e->field.present.count());
}

bool
StenstromProtocol::blockMode(Addr addr, cache::Mode &mode) const
{
    BlockId blk = params.geometry.blockOf(addr);
    const auto &mm = memories[homeOf(blk)];
    NodeId o = mm.blockStore().owner(blk);
    if (o == invalidNode)
        return false;
    const Entry *e = caches[o].find(blk);
    panic_if(!e || !cache::isOwned(e->field.state),
             "block store points at a non-owner");
    mode = cache::modeOf(e->field.state);
    return true;
}

} // namespace mscp::proto
