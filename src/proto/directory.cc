#include "directory.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

DirectoryProtocol::DirectoryProtocol(net::OmegaNetwork &network,
                                     MessageSizes sizes,
                                     unsigned block_words,
                                     net::Scheme scheme)
    : CoherenceProtocol(network, sizes, block_words), scheme(scheme),
      caches(network.numPorts()), destScratch(network.numPorts())
{}

DirectoryProtocol::DirEntry &
DirectoryProtocol::dir(BlockId block)
{
    if (DirEntry *d = directory.find(block))
        return *d;
    DirEntry &d = directory[block];
    d.sharers.resizeCleared(caches.size());
    return d;
}

const DirectoryProtocol::DirEntry *
DirectoryProtocol::dirEntry(BlockId block) const
{
    return directory.find(block);
}

DirectoryProtocol::Line *
DirectoryProtocol::findLine(NodeId cpu, BlockId blk)
{
    Line *l = caches[cpu].find(blk);
    return l && l->valid ? l : nullptr;
}

const DynamicBitset &
DirectoryProtocol::otherSharers(const DirEntry &d, NodeId except)
{
    destScratch = d.sharers;
    destScratch.reset(except);
    return destScratch;
}

void
DirectoryProtocol::invalidateSharers(BlockId blk, DirEntry &d,
                                     NodeId except)
{
    const DynamicBitset &dests = otherSharers(d, except);
    if (dests.none())
        return;
    sendMulticast(MsgType::Invalidate, scheme, homeOf(blk), dests, 0);
    ++ctrs.invalidations;
    for (std::size_t s = dests.findFirst(); s < dests.size();
         s = dests.findNext(s)) {
        if (Line *l = findLine(static_cast<NodeId>(s), blk))
            l->valid = false;
        d.sharers.reset(s);
    }
}

DirectoryProtocol::Line &
DirectoryProtocol::fetchBlock(NodeId cpu, BlockId blk, LineState state)
{
    const bool exclusive = state != LineState::Shared;
    NodeId home = homeOf(blk);
    sendUnicast(exclusive ? MsgType::LoadOwnReq : MsgType::LoadReq, cpu,
                home, 0);
    DirEntry &d = dir(blk);

    // Recall the exclusive copy through the home: a Dirty one is
    // written back, a Reserved one (write-once) only acks, as memory
    // is already consistent. The copy stays as a Shared line.
    if (NodeId o = d.dirtyOwner; o != invalidNode) {
        ++ctrs.recalls;
        sendUnicast(MsgType::LoadFwd, home, o, 0);
        Line *ol = findLine(o, blk);
        panic_if(!ol, "directory dirty owner lost its line");
        if (ol->state == LineState::Dirty) {
            sendUnicast(MsgType::WriteBack, o, home,
                        sizes.blockPayload(blockWords));
            memories[home].writeBlock(blk, ol->data);
            ++ctrs.writeBacks;
        } else {
            sendUnicast(MsgType::OfferAck, o, home, 0);
        }
        ol->state = LineState::Shared;
        d.dirtyOwner = invalidNode;
    }
    if (exclusive)
        invalidateSharers(blk, d, cpu);

    sendUnicast(MsgType::DataBlock, home, cpu,
                sizes.blockPayload(blockWords));
    Line &l = caches[cpu][blk];
    l.valid = true;
    l.state = state;
    l.data.resize(blockWords);
    memories[home].readBlock(blk, l.data);
    d.sharers.set(cpu);
    if (exclusive)
        d.dirtyOwner = cpu;
    return l;
}

std::uint64_t
DirectoryProtocol::read(NodeId cpu, Addr addr)
{
    BlockId blk = addr / blockWords;
    auto off = static_cast<unsigned>(addr % blockWords);
    ++ctrs.reads;

    std::uint64_t v;
    if (Line *l = findLine(cpu, blk)) {
        ++ctrs.readHits;
        v = l->data[off];
    } else {
        ++ctrs.readMisses;
        v = fetchBlock(cpu, blk, LineState::Shared).data[off];
    }
    goldenRead(addr, v);
    return v;
}

} // namespace mscp::proto
