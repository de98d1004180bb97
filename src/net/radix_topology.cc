#include "radix_topology.hh"

#include "sim/logging.hh"

namespace mscp::net
{

RadixOmegaTopology::RadixOmegaTopology(unsigned num_ports,
                                       unsigned radix)
    : n(num_ports), a(radix)
{
    fatal_if(radix < 2, "radix must be >= 2");
    // N must be an exact power of the radix.
    m = 0;
    unsigned v = 1;
    pow_a.push_back(1);
    while (v < num_ports) {
        fatal_if(v > num_ports / radix,
                 "port count %u is not a power of radix %u",
                 num_ports, radix);
        v *= radix;
        ++m;
        pow_a.push_back(v);
    }
    fatal_if(v != num_ports || m == 0,
             "port count %u is not a positive power of radix %u",
             num_ports, radix);

    _digitBits = 0;
    while ((1u << _digitBits) < radix)
        ++_digitBits;
}

std::vector<unsigned>
RadixOmegaTopology::path(unsigned src, unsigned dst) const
{
    panic_if(src >= n || dst >= n, "port out of range");
    std::vector<unsigned> lines;
    lines.reserve(m + 1);
    unsigned line = src;
    lines.push_back(line);
    for (unsigned stage = 0; stage < m; ++stage) {
        line = nextLine(line, destDigit(dst, stage));
        lines.push_back(line);
    }
    panic_if(line != dst, "radix omega routing invariant violated");
    return lines;
}

} // namespace mscp::net
