#include "no_cache.hh"

namespace mscp::proto
{

std::uint64_t
NoCacheProtocol::read(NodeId cpu, Addr addr)
{
    BlockId blk = addr / blockWords;
    auto off = static_cast<unsigned>(addr % blockWords);
    NodeId home = homeOf(blk);
    sendUnicast(MsgType::MemRead, cpu, home, 0);
    std::uint64_t v = memories[home].readWord(blk, off);
    sendUnicast(MsgType::MemReadReply, home, cpu, sizes.wordBits);
    goldenRead(addr, v);
    return v;
}

void
NoCacheProtocol::write(NodeId cpu, Addr addr, std::uint64_t value)
{
    BlockId blk = addr / blockWords;
    auto off = static_cast<unsigned>(addr % blockWords);
    NodeId home = homeOf(blk);
    sendUnicast(MsgType::MemWrite, cpu, home, sizes.wordBits);
    memories[home].writeWord(blk, off, value);
    goldenWrite(addr, value);
}

} // namespace mscp::proto
