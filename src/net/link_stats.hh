/**
 * @file
 * Per-link traffic accounting implementing the paper's cost metric.
 *
 * Communication cost (paper eq. 1) is the amount of information (in
 * bits) crossing each link, summed over all links:
 *
 *     CC = sum_{i=0}^{m} L_i
 *
 * where L_i is the traffic on links *to* stage i. LinkStats keeps a
 * per-(level, line) bit counter so both the aggregate CC and per-link
 * hot-spot profiles can be extracted. Recording a link touches only
 * its counter; L_i and CC are summed from the counters when read,
 * which callers do at run boundaries.
 */

#ifndef MSCP_NET_LINK_STATS_HH
#define MSCP_NET_LINK_STATS_HH

#include <vector>

#include "sim/types.hh"

namespace mscp::net
{

/** Bit counters for every link of an omega network. */
class LinkStats
{
  public:
    /**
     * @param num_levels number of link levels (m + 1)
     * @param num_lines links per level (N)
     */
    LinkStats(unsigned num_levels, unsigned num_lines)
        : levels(num_levels), lines(num_lines),
          perLink(static_cast<std::size_t>(num_levels) * num_lines, 0)
    {}

    /** Record @p bits crossing link (@p level, @p line). */
    void
    add(unsigned level, unsigned line, Bits bits)
    {
        perLink[index(level, line)] += bits;
        ++_traversals;
    }

    /**
     * @{ Bulk recording for a walk that visits many links
     * (TimedNetwork): the per-link counters, indexed level * N +
     * line, and the traversals added once per walk.
     */
    Bits *linkBits() { return perLink.data(); }
    void addTraversals(std::uint64_t n) { _traversals += n; }
    /** @} */

    /** L_i: total traffic on links to stage @p level. */
    Bits levelBits(unsigned level) const;

    /** CC: total bits summed over every link. */
    Bits totalBits() const;

    /** Number of individual link traversals recorded. */
    std::uint64_t traversals() const { return _traversals; }

    /** Highest single-link bit count (hot-spot measure). */
    Bits maxLinkBits() const;

    unsigned numLevels() const { return levels; }

    /** Zero every counter. */
    void reset();

    /** Same shape and the same bits on every link. */
    bool operator==(const LinkStats &) const = default;

  private:
    std::size_t
    index(unsigned level, unsigned line) const
    {
        return static_cast<std::size_t>(level) * lines + line;
    }

    unsigned levels;
    unsigned lines;
    std::vector<Bits> perLink;
    std::uint64_t _traversals = 0;
};

} // namespace mscp::net

#endif // MSCP_NET_LINK_STATS_HH
