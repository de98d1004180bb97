#include "link_stats.hh"

#include <algorithm>

namespace mscp::net
{

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
    std::fill(perLevel.begin(), perLevel.end(), 0);
    _totalBits = 0;
    _traversals = 0;
}

} // namespace mscp::net
