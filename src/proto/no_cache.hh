/**
 * @file
 * No-cache baseline (paper eq. 9).
 *
 * Every reference crosses the network to the block's home memory
 * module: a read is a request/reply round trip (cost 2 messages),
 * a write a single request carrying the datum (cost 1), matching
 * the paper's "communication cost for a read is twice that for a
 * write" assumption.
 */

#ifndef MSCP_PROTO_NO_CACHE_HH
#define MSCP_PROTO_NO_CACHE_HH

#include "proto/protocol.hh"

namespace mscp::proto
{

/** Shared memory with no private caches. */
class NoCacheProtocol : public CoherenceProtocol
{
  public:
    using CoherenceProtocol::CoherenceProtocol;

    std::uint64_t read(NodeId cpu, Addr addr) override;
    void write(NodeId cpu, Addr addr, std::uint64_t value) override;
    std::string protoName() const override { return "no-cache"; }
};

} // namespace mscp::proto

#endif // MSCP_PROTO_NO_CACHE_HH
