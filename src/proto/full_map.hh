/**
 * @file
 * Memory-resident full-map directory baseline (Censier & Feautrier
 * 1978), the O(NM)-state contrast of the paper's introduction.
 *
 * A write to a shared copy asks the home to invalidate the other
 * copies; the writer then holds the one Dirty copy, which a remote
 * miss recalls through the home (proto/directory.hh).
 */

#ifndef MSCP_PROTO_FULL_MAP_HH
#define MSCP_PROTO_FULL_MAP_HH

#include "proto/directory.hh"

namespace mscp::proto
{

/** Invalidation-based full-map directory protocol. */
class FullMapProtocol : public DirectoryProtocol
{
  public:
    using DirectoryProtocol::DirectoryProtocol;

    void write(NodeId cpu, Addr addr, std::uint64_t value) override;
    std::string protoName() const override { return "full-map"; }
};

} // namespace mscp::proto

#endif // MSCP_PROTO_FULL_MAP_HH
