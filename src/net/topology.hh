/**
 * @file
 * Geometry of an N x N omega network built from 2 x 2 switches.
 *
 * Terminology follows the paper (Sec. 3): switch stages are numbered
 * i = 0 .. m-1 with m = log2 N; "stage m" denotes the destination
 * endpoints. Links are grouped into m+1 levels: level i carries
 * traffic *into* stage i (level 0 = source injection links, level m =
 * links into the destinations). Every level has exactly N links,
 * identified by the line number they occupy.
 *
 * Routing invariant (Lawrie): starting from any source line, applying
 * a perfect shuffle and then replacing the low line bit with
 * destination bit d_i (MSB first) at each stage lands on destination
 * D = <d_0 d_1 ... d_(m-1)> after m stages.
 */

#ifndef MSCP_NET_TOPOLOGY_HH
#define MSCP_NET_TOPOLOGY_HH

#include <bit>
#include <vector>

#include "net/route.hh"
#include "sim/types.hh"

namespace mscp::net
{

/**
 * Static geometry helper for omega networks of 2x2 switches. Its
 * interface is the one BasicOmegaNetwork walks (shared with
 * RadixOmegaTopology), specialized to a = 2 so every step is a
 * shift or a mask.
 */
class OmegaTopology
{
  public:
    /** Scheme-3 destination sets: subcubes of the address bits. */
    using Cube = Subcube;

    /**
     * @param num_ports number of network ports N; must be a power of
     *        two and at least 2
     */
    explicit OmegaTopology(unsigned num_ports);

    /** Number of ports N. */
    unsigned numPorts() const { return n; }

    /** Number of switch stages m = log2 N. */
    unsigned numStages() const { return m; }

    /** Number of link levels = m + 1. */
    unsigned numLinkLevels() const { return m + 1; }

    /** Switches per stage (N / 2). */
    unsigned switchesPerStage() const { return n / 2; }

    /** Switch degree a. */
    static constexpr unsigned radix() { return 2; }

    /** Bits of one routing digit. */
    static constexpr unsigned digitBits() { return 1; }

    /**
     * Destinations reachable from one level-@p level link: 2^(m -
     * level), which is also the length of the scheme-2 vector the
     * link carries.
     */
    unsigned span(unsigned level) const { return 1u << (m - level); }

    /**
     * First destination reachable from link (@p level, @p line): at
     * level i the destination's top i bits are already fixed by the
     * line's low i bits. The reachable range holds span(level)
     * destinations.
     */
    unsigned
    reachFirst(unsigned level, unsigned line) const
    {
        return (line & ((1u << level) - 1u)) << (m - level);
    }

    /** Perfect shuffle: rotate the m-bit line number left by one. */
    unsigned
    shuffle(unsigned line) const
    {
        return ((line << 1) | (line >> (m - 1))) & (n - 1);
    }

    /** Inverse shuffle: rotate right by one. */
    unsigned
    unshuffle(unsigned line) const
    {
        return ((line >> 1) | ((line & 1) << (m - 1))) & (n - 1);
    }

    /**
     * Destination-tag bit consumed at switch stage @p stage for
     * destination @p dest (MSB first: stage 0 uses bit m-1).
     */
    unsigned
    destDigit(unsigned dest, unsigned stage) const
    {
        return (dest >> (m - 1 - stage)) & 1;
    }

    /**
     * Line occupied after traversing switch stage @p stage, given the
     * line on which the message *entered* the stage (i.e. the level-
     * @p stage link) and the chosen output bit.
     */
    unsigned
    nextLine(unsigned line_in, unsigned out_bit) const
    {
        return (shuffle(line_in) & ~1u) | (out_bit & 1u);
    }

    /**
     * The full source->destination path as the sequence of lines at
     * link levels 0 .. m (path.front() == src, path.back() == dst).
     */
    std::vector<unsigned> path(unsigned src, unsigned dst) const;

    /**
     * Range of destinations reachable from a message that sits on
     * level-@p level line @p line, as [lo, hi).
     */
    void reachable(unsigned level, unsigned line,
                   unsigned &lo, unsigned &hi) const;

    /** Smallest scheme-3 cube enclosing @p dests (non-empty). */
    Cube
    enclosing(const std::vector<NodeId> &dests) const
    {
        return Subcube::enclosing(dests);
    }

    /**
     * Grow @p cube, the smallest cube enclosing the destinations
     * seen so far (Cube{first, 0} after the first), to enclose
     * @p dest too: the same cube as enclosing() of them all.
     */
    static void
    enclose(Cube &cube, unsigned dest)
    {
        cube.mask |= cube.base ^ dest;
        cube.base &= ~cube.mask;
    }

    /**
     * Divergence level of destinations @p x != @p y: the first link
     * level at which their paths from one source use different
     * links. A level-l link reaches the destinations of one l-bit
     * prefix, so it is one past their first differing bit.
     */
    unsigned
    divergence(unsigned x, unsigned y) const
    {
        return m + 1 - static_cast<unsigned>(std::bit_width(x ^ y));
    }

  private:
    unsigned n;
    unsigned m;
};

} // namespace mscp::net

#endif // MSCP_NET_TOPOLOGY_HH
