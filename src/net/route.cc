#include "route.hh"

#include <bit>

#include "net/radix_topology.hh"
#include "sim/logging.hh"

namespace mscp::net
{

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Unicasts: return "scheme1";
      case Scheme::VectorRouting: return "scheme2";
      case Scheme::BroadcastTag: return "scheme3";
      case Scheme::Combined: return "combined";
    }
    return "unknown";
}

unsigned
Subcube::size() const
{
    return 1u << std::popcount(mask);
}

std::vector<NodeId>
Subcube::members(unsigned num_ports) const
{
    std::vector<NodeId> out;
    out.reserve(size());
    for (unsigned a = 0; a < num_ports; ++a)
        if (contains(a))
            out.push_back(a);
    return out;
}

Subcube
Subcube::enclosing(const std::vector<NodeId> &dests)
{
    panic_if(dests.empty(), "enclosing subcube of empty set");
    unsigned base = dests.front();
    unsigned mask = 0;
    for (NodeId d : dests)
        mask |= (d ^ base);
    return Subcube{base & ~mask, mask};
}

namespace
{

unsigned
digitOf(const RadixOmegaTopology &topo, unsigned value,
        unsigned position)
{
    return (value / topo.powRadix(position)) % topo.radix();
}

} // anonymous namespace

std::vector<NodeId>
RadixSubcube::members(const RadixOmegaTopology &topo) const
{
    std::vector<NodeId> out;
    for (unsigned addr = 0; addr < topo.numPorts(); ++addr)
        if (contains(topo, addr))
            out.push_back(addr);
    return out;
}

unsigned
RadixSubcube::size(const RadixOmegaTopology &topo) const
{
    unsigned free_digits = static_cast<unsigned>(
        std::popcount(mask));
    unsigned s = 1;
    for (unsigned i = 0; i < free_digits; ++i)
        s *= topo.radix();
    return s;
}

bool
RadixSubcube::contains(const RadixOmegaTopology &topo,
                       unsigned addr) const
{
    for (unsigned d = 0; d < topo.numStages(); ++d) {
        if ((mask >> d) & 1)
            continue;
        if (digitOf(topo, addr, d) != digitOf(topo, base, d))
            return false;
    }
    return true;
}

RadixSubcube
RadixSubcube::enclosing(const RadixOmegaTopology &topo,
                        const std::vector<NodeId> &dests)
{
    panic_if(dests.empty(), "enclosing cube of empty set");
    RadixSubcube cube;
    cube.base = dests.front();
    for (NodeId v : dests) {
        for (unsigned d = 0; d < topo.numStages(); ++d) {
            if (digitOf(topo, v, d) != digitOf(topo, cube.base, d))
                cube.mask |= 1u << d;
        }
    }
    return cube;
}

} // namespace mscp::net
