#include "dragon.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

void
DragonUpdateProtocol::write(NodeId cpu, Addr addr,
                            std::uint64_t value)
{
    BlockId blk = addr / blockWords;
    auto off = static_cast<unsigned>(addr % blockWords);
    NodeId home = homeOf(blk);
    ++ctrs.writes;

    Line *l = findLine(cpu, blk);
    if (!l) {
        // Write miss: join the sharers first.
        ++ctrs.writeMisses;
        l = &fetchBlock(cpu, blk, LineState::Shared);
    } else {
        ++ctrs.writeHits;
    }

    // The datum goes to the home (memory stays fresh) and the home
    // distributes it to the other sharers.
    sendUnicast(MsgType::MemWrite, cpu, home, sizes.wordBits);
    memories[home].writeWord(blk, off, value);
    ++ctrs.writeThroughs;

    const DynamicBitset &dests = otherSharers(dir(blk), cpu);
    if (dests.any()) {
        sendMulticast(MsgType::DwUpdate, scheme, home, dests,
                      sizes.wordBits);
        ++ctrs.updates;
        for (std::size_t s = dests.findFirst(); s < dests.size();
             s = dests.findNext(s)) {
            Line *sl = findLine(static_cast<NodeId>(s), blk);
            panic_if(!sl, "sharer lost its line");
            sl->data[off] = value;
        }
    }
    l->data[off] = value;
    goldenWrite(addr, value);
}

} // namespace mscp::proto
