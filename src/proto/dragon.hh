/**
 * @file
 * Distributed-write (update) baseline in the style of the Dragon
 * protocol, adapted from bus snooping to a directory multicast:
 * the paper's "distributed write protocol" of eq. 11 without the
 * global-read escape hatch.
 *
 * Copies are never invalidated. A write to a shared block sends the
 * datum to the home module, which updates memory and multicasts the
 * update to the other sharers, so every read after the first miss
 * is a local hit - the behaviour eq. 11 models with CC_DW = w CC4.
 * Memory stays fresh, so every miss is served by the home.
 */

#ifndef MSCP_PROTO_DRAGON_HH
#define MSCP_PROTO_DRAGON_HH

#include "proto/directory.hh"

namespace mscp::proto
{

/** Update-based (distributed-write) directory protocol. */
class DragonUpdateProtocol : public DirectoryProtocol
{
  public:
    using DirectoryProtocol::DirectoryProtocol;

    void write(NodeId cpu, Addr addr, std::uint64_t value) override;
    std::string protoName() const override { return "dragon-update"; }
};

} // namespace mscp::proto

#endif // MSCP_PROTO_DRAGON_HH
