/**
 * @file
 * Top-level system builder: network + protocol + mode policy.
 *
 * This is the library's main entry point. A SystemConfig describes
 * the multiprocessor (ports, cache geometry, multicast scheme, mode
 * policy); System wires an omega network, the two-mode protocol
 * engine and the chosen policy together and drives reference
 * streams through them.
 */

#ifndef MSCP_CORE_SYSTEM_HH
#define MSCP_CORE_SYSTEM_HH

#include <memory>
#include <ostream>

#include "core/mode_policy.hh"
#include "core/scheme_select.hh"
#include "net/omega_network.hh"
#include "proto/stenstrom.hh"
#include "workload/ref_stream.hh"

namespace mscp::core
{

/** Which mode policy the system runs. */
enum class PolicyKind : std::uint8_t
{
    EngineDefault, ///< no policy intervention
    ForceDW,       ///< every block pinned to distributed write
    ForceGR,       ///< every block pinned to global read
    Adaptive,      ///< Sec. 5 counter policy
};

/** Printable policy name. */
const char *policyKindName(PolicyKind k);

/** Complete system description. */
struct SystemConfig
{
    unsigned numPorts = 16;          ///< N: caches/memories/ports
    cache::Geometry geometry;        ///< per-cache shape
    net::Scheme multicastScheme = net::Scheme::Combined;
    cache::Mode defaultMode = cache::Mode::GlobalRead;
    proto::MessageSizes sizes;
    PolicyKind policy = PolicyKind::EngineDefault;
    std::uint64_t adaptWindow = 32;  ///< refs/block per decision
    /**
     * When true, multicasts use the Sec. 5 break-even registers
     * computed for @p clusterSize instead of the configured scheme.
     */
    bool useSchemeRegisters = false;
    unsigned clusterSize = 0;        ///< n1 for the registers
};

/** A built multiprocessor. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    net::OmegaNetwork &network() { return *net; }
    proto::StenstromProtocol &protocol() { return *proto; }
    const proto::StenstromProtocol &protocol() const
    {
        return *proto;
    }
    ModePolicy &policy() { return *modePolicy; }
    const SystemConfig &config() const { return cfg; }

    /**
     * Drive a reference stream to completion, applying the mode
     * policy after each reference.
     */
    proto::RunResult run(workload::ReferenceStream &stream);

    /**
     * Summary report: protocol counters, write-backs, network bits
     * (total, per reference, hottest link) and per-level traffic.
     */
    void report(std::ostream &os) const;

  private:
    SystemConfig cfg;
    SchemeRegisters regs;
    std::unique_ptr<net::OmegaNetwork> net;
    std::unique_ptr<proto::StenstromProtocol> proto;
    std::unique_ptr<ModePolicy> modePolicy;
};

/** Print a per-message-type count/bits table for any engine. */
void dumpMessageTable(std::ostream &os,
                      const proto::MessageCounters &counters);

} // namespace mscp::core

#endif // MSCP_CORE_SYSTEM_HH
