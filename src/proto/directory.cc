#include "directory.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

DirectoryProtocol::DirectoryProtocol(net::OmegaNetwork &network,
                                     MessageSizes sizes,
                                     unsigned block_words,
                                     net::Scheme scheme)
    : CoherenceProtocol(network, sizes, block_words), scheme(scheme),
      caches(network.numPorts())
{}

DirectoryProtocol::DirEntry &
DirectoryProtocol::dir(BlockId block)
{
    auto it = directory.find(block);
    if (it == directory.end()) {
        DirEntry d;
        d.sharers = DynamicBitset(
            static_cast<unsigned>(caches.size()));
        it = directory.emplace(block, std::move(d)).first;
    }
    return it->second;
}

const DirectoryProtocol::DirEntry *
DirectoryProtocol::dirEntry(BlockId block) const
{
    auto it = directory.find(block);
    return it == directory.end() ? nullptr : &it->second;
}

DirectoryProtocol::Line *
DirectoryProtocol::findLine(NodeId cpu, BlockId blk)
{
    auto it = caches[cpu].find(blk);
    return it == caches[cpu].end() ? nullptr : &it->second;
}

std::vector<NodeId>
DirectoryProtocol::otherSharers(const DirEntry &d, NodeId except)
{
    std::vector<NodeId> out;
    for (auto s : d.sharers.setBits())
        if (s != except)
            out.push_back(s);
    return out;
}

void
DirectoryProtocol::invalidateSharers(BlockId blk, DirEntry &d,
                                     NodeId except)
{
    std::vector<NodeId> dests = otherSharers(d, except);
    if (dests.empty())
        return;
    sendMulticast(MsgType::Invalidate, scheme, homeOf(blk), dests, 0);
    ++ctrs.invalidations;
    for (NodeId s : dests) {
        caches[s].erase(blk);
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
    l.state = state;
    l.data = memories[home].readBlock(blk);
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
