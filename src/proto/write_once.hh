/**
 * @file
 * Write-once baseline (Goodman 1983), the protocol of the paper's
 * Fig. 7 Markov model, adapted from bus snooping to a directory
 * multicast on the multistage network.
 *
 * Per-cache line states: Valid (clean, shared; the directory's
 * Shared), Reserved (written once, memory consistent, sole copy)
 * and Dirty (written more than once, memory stale); absence of a
 * line is Invalid. The first write to a Valid line writes the datum
 * through to memory and invalidates the other copies (the shared ->
 * exclusive transition of Fig. 7); a remote miss on a Reserved/Dirty
 * line pulls the block back and re-shares it (exclusive -> shared,
 * proto/directory.hh).
 */

#ifndef MSCP_PROTO_WRITE_ONCE_HH
#define MSCP_PROTO_WRITE_ONCE_HH

#include "proto/directory.hh"

namespace mscp::proto
{

/** Goodman's write-once protocol over a directory. */
class WriteOnceProtocol : public DirectoryProtocol
{
  public:
    using DirectoryProtocol::DirectoryProtocol;

    void write(NodeId cpu, Addr addr, std::uint64_t value) override;
    std::string protoName() const override { return "write-once"; }
};

} // namespace mscp::proto

#endif // MSCP_PROTO_WRITE_ONCE_HH
