/**
 * @file
 * Common interface of every atomic coherence engine.
 *
 * Engines process one processor operation at a time to completion
 * (the paper's evaluation model is likewise race-free) and route all
 * protocol messages through a shared OmegaNetwork, so communication
 * cost is measured with the paper's link-bit metric. Every engine
 * runs on the paper's machine: one processor-memory element per
 * port, with blocks interleaved across the co-located memory
 * modules. Value-level correctness is checked against a golden
 * memory image.
 */

#ifndef MSCP_PROTO_PROTOCOL_HH
#define MSCP_PROTO_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/memory_module.hh"
#include "net/omega_network.hh"
#include "proto/message.hh"
#include "sim/bitset.hh"
#include "sim/flat.hh"
#include "sim/types.hh"
#include "workload/ref_stream.hh"

namespace mscp::proto
{

/** One message an engine sent (for timing replay and analysis). */
struct SentMessage
{
    MsgType type;
    NodeId src;
    std::vector<NodeId> dests; ///< one entry for unicasts
    Bits bits;                 ///< control + payload
    net::Scheme scheme = net::Scheme::Unicasts;
};

/** Result of running a reference stream through an engine. */
struct RunResult
{
    std::uint64_t refs = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    Bits networkBits = 0;       ///< CC accumulated during the run
    std::uint64_t messages = 0; ///< protocol messages sent
    std::uint64_t valueErrors = 0; ///< golden-memory mismatches
};

/** Base class of the atomic protocol engines. */
class CoherenceProtocol
{
  public:
    /**
     * @param network shared omega network (all traffic accounted
     *        there); endpoints are processor-memory elements, one
     *        per port
     * @param sizes wire-size model
     * @param block_words words per block
     */
    CoherenceProtocol(net::OmegaNetwork &network, MessageSizes sizes,
                      unsigned block_words);

    virtual ~CoherenceProtocol() = default;

    CoherenceProtocol(const CoherenceProtocol &) = delete;
    CoherenceProtocol &operator=(const CoherenceProtocol &) = delete;

    /** Perform a processor read to completion; returns the value. */
    virtual std::uint64_t read(NodeId cpu, Addr addr) = 0;

    /** Perform a processor write to completion. */
    virtual void write(NodeId cpu, Addr addr, std::uint64_t value) = 0;

    /** Engine name for reports. */
    virtual std::string protoName() const = 0;

    net::OmegaNetwork &network() { return net; }
    const net::OmegaNetwork &network() const { return net; }

    const MessageSizes &messageSizes() const { return sizes; }
    const MessageCounters &messageCounters() const { return msgs; }

    /** Reads that disagreed with the golden memory image. */
    std::uint64_t valueErrors() const { return _valueErrors; }

    /** Home memory module (co-located port) of a block. */
    NodeId
    homeOf(BlockId block) const
    {
        return static_cast<NodeId>(block % memories.size());
    }

    /** Memory module at port @p i (for checkers and tests). */
    const mem::MemoryModule &memoryModule(unsigned i) const
    {
        return memories[i];
    }

    /**
     * Observe every message the engine sends (timing replay, message
     * analysis). Pass nullptr to stop recording.
     */
    using MessageRecorder = std::function<void(const SentMessage &)>;
    void setMessageRecorder(MessageRecorder fn)
    {
        recorder = std::move(fn);
    }

    /**
     * Drive a whole reference stream through the engine.
     */
    RunResult run(workload::ReferenceStream &stream);

  protected:
    /**
     * Send a point-to-point message. Co-located endpoints (s == d,
     * the RP3-style processor-memory element) exchange messages
     * locally at zero network cost; the message is still counted.
     */
    void sendUnicast(MsgType t, NodeId src, NodeId dst, Bits payload);

    /** Multicast to the set @p dests (N bits, possibly empty) with
     *  a given scheme. */
    void sendMulticast(MsgType t, net::Scheme scheme, NodeId src,
                       const DynamicBitset &dests, Bits payload);

    /** Record a golden write / check a read. */
    void goldenWrite(Addr addr, std::uint64_t value);
    void goldenRead(Addr addr, std::uint64_t value);

    net::OmegaNetwork &net;
    MessageSizes sizes;
    MessageCounters msgs;
    const unsigned blockWords;
    /** One module per port; block b lives at homeOf(b). */
    std::vector<mem::MemoryModule> memories;

  private:
    std::uint64_t _valueErrors = 0;
    FlatMap<Addr, std::uint64_t> golden;
    MessageRecorder recorder;
};

} // namespace mscp::proto

#endif // MSCP_PROTO_PROTOCOL_HH
