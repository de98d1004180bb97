#include "write_once.hh"

namespace mscp::proto
{

void
WriteOnceProtocol::write(NodeId cpu, Addr addr, std::uint64_t value)
{
    BlockId blk = addr / blockWords;
    auto off = static_cast<unsigned>(addr % blockWords);
    NodeId home = homeOf(blk);
    ++ctrs.writes;

    Line *l = findLine(cpu, blk);
    if (l && l->state != LineState::Shared) {
        // Reserved/Dirty: write locally, line becomes Dirty.
        ++ctrs.writeHits;
        l->data[off] = value;
        l->state = LineState::Dirty;
    } else if (l) {
        // First write to a Valid line: write the datum through to
        // memory and invalidate the other copies (shared ->
        // exclusive of Fig. 7).
        ++ctrs.writeHits;
        ++ctrs.writeThroughs;
        sendUnicast(MsgType::MemWrite, cpu, home, sizes.wordBits);
        memories[home].writeWord(blk, off, value);
        DirEntry &d = dir(blk);
        invalidateSharers(blk, d, cpu);
        l->data[off] = value;
        l->state = LineState::Reserved;
        d.dirtyOwner = cpu;
    } else {
        // Write miss: fetch with ownership, then treat like the
        // first write (write-through + invalidations).
        ++ctrs.writeMisses;
        ++ctrs.writeThroughs;
        fetchBlock(cpu, blk, LineState::Reserved).data[off] = value;
        sendUnicast(MsgType::MemWrite, cpu, home, sizes.wordBits);
        memories[home].writeWord(blk, off, value);
    }
    goldenWrite(addr, value);
}

} // namespace mscp::proto
