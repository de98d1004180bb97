#include "topology.hh"

#include "sim/logging.hh"

namespace mscp::net
{

OmegaTopology::OmegaTopology(unsigned num_ports)
    : n(num_ports), m(log2Exact(num_ports))
{
    fatal_if(num_ports < 2 || !isPowerOfTwo(num_ports),
             "omega network needs a power-of-two port count >= 2, "
             "got %u", num_ports);
}

std::vector<unsigned>
OmegaTopology::path(unsigned src, unsigned dst) const
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
    panic_if(line != dst, "omega routing invariant violated");
    return lines;
}

void
OmegaTopology::reachable(unsigned level, unsigned line,
                         unsigned &lo, unsigned &hi) const
{
    panic_if(level > m || line >= n, "bad link coordinates");
    lo = reachFirst(level, line);
    hi = lo + span(level);
}

} // namespace mscp::net
