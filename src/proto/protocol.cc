#include "protocol.hh"

#include "sim/logging.hh"

namespace mscp::proto
{

CoherenceProtocol::CoherenceProtocol(net::OmegaNetwork &network,
                                     MessageSizes sizes,
                                     unsigned block_words)
    : net(network), sizes(sizes), blockWords(block_words)
{
    memories.reserve(network.numPorts());
    for (unsigned i = 0; i < network.numPorts(); ++i)
        memories.emplace_back(static_cast<NodeId>(i), blockWords);
}

void
CoherenceProtocol::sendUnicast(MsgType t, NodeId src, NodeId dst,
                               Bits payload)
{
    Bits total = sizes.control() + payload;
    msgs.record(t, total);
    if (recorder)
        recorder({t, src, {dst}, total, net::Scheme::Unicasts});
    if (src == dst)
        return; // co-located processor-memory element
    net.unicastCommit(src, dst, total);
}

void
CoherenceProtocol::sendMulticast(MsgType t, net::Scheme scheme,
                                 NodeId src,
                                 const DynamicBitset &dests,
                                 Bits payload)
{
    if (dests.none())
        return;
    Bits total = sizes.control() + payload;
    msgs.record(t, total);
    if (recorder) {
        SentMessage m{t, src, {}, total, scheme};
        for (std::size_t d = dests.findFirst(); d < dests.size();
             d = dests.findNext(d))
            m.dests.push_back(static_cast<NodeId>(d));
        recorder(m);
    }
    net.multicastCommit(scheme, src, dests, total);
}

void
CoherenceProtocol::goldenWrite(Addr addr, std::uint64_t value)
{
    golden[addr] = value;
}

void
CoherenceProtocol::goldenRead(Addr addr, std::uint64_t value)
{
    const std::uint64_t *known = golden.find(addr);
    std::uint64_t expect = known ? *known : 0;
    if (value != expect) {
        ++_valueErrors;
        warn("%s: read @%llu returned %llu, expected %llu",
             protoName().c_str(),
             static_cast<unsigned long long>(addr),
             static_cast<unsigned long long>(value),
             static_cast<unsigned long long>(expect));
    }
}

RunResult
CoherenceProtocol::run(workload::ReferenceStream &stream)
{
    RunResult res;
    Bits start_bits = net.linkStats().totalBits();
    std::uint64_t start_msgs = msgs.totalCount();
    std::uint64_t start_errors = _valueErrors;

    workload::MemRef ref;
    while (stream.next(ref)) {
        ++res.refs;
        if (ref.isWrite) {
            ++res.writes;
            write(ref.cpu, ref.addr, ref.value);
        } else {
            ++res.reads;
            read(ref.cpu, ref.addr);
        }
    }

    res.networkBits = net.linkStats().totalBits() - start_bits;
    res.messages = msgs.totalCount() - start_msgs;
    res.valueErrors = _valueErrors - start_errors;
    return res;
}

} // namespace mscp::proto
