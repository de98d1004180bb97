#include "link_stats.hh"

#include <algorithm>
#include <numeric>

namespace mscp::net
{

Bits
LinkStats::levelBits(unsigned level) const
{
    const auto first = perLink.begin() + index(level, 0);
    return std::accumulate(first, first + lines, Bits{0});
}

Bits
LinkStats::totalBits() const
{
    return std::accumulate(perLink.begin(), perLink.end(), Bits{0});
}

Bits
LinkStats::maxLinkBits() const
{
    Bits best = 0;
    for (Bits b : perLink)
        best = std::max(best, b);
    return best;
}

void
LinkStats::reset()
{
    std::fill(perLink.begin(), perLink.end(), 0);
    _traversals = 0;
}

} // namespace mscp::net
