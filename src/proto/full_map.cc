#include "full_map.hh"

namespace mscp::proto
{

void
FullMapProtocol::write(NodeId cpu, Addr addr, std::uint64_t value)
{
    BlockId blk = addr / blockWords;
    auto off = static_cast<unsigned>(addr % blockWords);
    ++ctrs.writes;

    Line *l = findLine(cpu, blk);
    if (l && l->state == LineState::Dirty) {
        ++ctrs.writeHits;
    } else if (l) {
        // Upgrade: ask the home to invalidate the other copies.
        ++ctrs.writeHits;
        NodeId home = homeOf(blk);
        sendUnicast(MsgType::OwnReq, cpu, home, 0);
        DirEntry &d = dir(blk);
        invalidateSharers(blk, d, cpu);
        sendUnicast(MsgType::OfferAck, home, cpu, 0);
        l->state = LineState::Dirty;
        d.dirtyOwner = cpu;
    } else {
        ++ctrs.writeMisses;
        l = &fetchBlock(cpu, blk, LineState::Dirty);
    }
    l->data[off] = value;
    goldenWrite(addr, value);
}

} // namespace mscp::proto
