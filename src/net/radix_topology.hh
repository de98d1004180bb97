/**
 * @file
 * Geometry of an N x N omega network built from a x a switches.
 *
 * The paper analyzes 2 x 2 switches "even if the results can be
 * generalized to other topologies of multistage networks with other
 * switches" (Sec. 3); this is that generalization. With radix a and
 * N = a^m ports there are m switch stages of N/a switches; the
 * inter-stage permutation is the base-a perfect shuffle (rotate the
 * m-digit line number left by one digit), and destination-digit
 * routing consumes one base-a digit per stage, most significant
 * first. Radix 2 degenerates to OmegaTopology exactly (verified in
 * tests/net/test_radix.cc).
 */

#ifndef MSCP_NET_RADIX_TOPOLOGY_HH
#define MSCP_NET_RADIX_TOPOLOGY_HH

#include <vector>

#include "net/route.hh"
#include "sim/types.hh"

namespace mscp::net
{

/**
 * Static geometry of a radix-a omega network; the interface
 * BasicOmegaNetwork walks, shared with OmegaTopology.
 */
class RadixOmegaTopology
{
  public:
    /** Scheme-3 destination sets: cubes of the address digits. */
    using Cube = RadixSubcube;

    /**
     * @param num_ports N; must be a^m for some integer m >= 1
     * @param radix a; the switch degree, >= 2
     */
    RadixOmegaTopology(unsigned num_ports, unsigned radix);

    unsigned numPorts() const { return n; }
    unsigned radix() const { return a; }
    unsigned numStages() const { return m; }
    unsigned numLinkLevels() const { return m + 1; }
    unsigned switchesPerStage() const { return n / a; }

    /** Bits needed to encode one routing digit. */
    unsigned digitBits() const { return _digitBits; }

    /**
     * Destinations reachable from one level-@p level link: a^(m -
     * level), which is also the length of the scheme-2 vector the
     * link carries.
     */
    unsigned span(unsigned level) const { return pow_a[m - level]; }

    /**
     * First destination reachable from link (@p level, @p line): at
     * level i the destination's top i digits are already fixed by
     * the line's low i digits.
     */
    unsigned
    reachFirst(unsigned level, unsigned line) const
    {
        return line % pow_a[level] * pow_a[m - level];
    }

    /** Base-a perfect shuffle: rotate digits left by one. */
    unsigned
    shuffle(unsigned line) const
    {
        return (line * a) % n + (line * a) / n;
    }

    /** Inverse shuffle: rotate digits right by one. */
    unsigned
    unshuffle(unsigned line) const
    {
        return line / a + (line % a) * (n / a);
    }

    /** Destination digit consumed at @p stage (MSD first). */
    unsigned
    destDigit(unsigned dest, unsigned stage) const
    {
        return (dest / pow_a[m - 1 - stage]) % a;
    }

    /** Line after traversing @p stage via output @p digit. */
    unsigned
    nextLine(unsigned line_in, unsigned digit) const
    {
        unsigned s = shuffle(line_in);
        return s - (s % a) + digit;
    }

    /** a^e (e <= m). */
    unsigned powRadix(unsigned e) const { return pow_a[e]; }

    /** Full source->destination path over link levels 0..m. */
    std::vector<unsigned> path(unsigned src, unsigned dst) const;

    /** Smallest scheme-3 cube enclosing @p dests (non-empty). */
    Cube
    enclosing(const std::vector<NodeId> &dests) const
    {
        return RadixSubcube::enclosing(*this, dests);
    }

    /**
     * Grow @p cube, the smallest cube enclosing the destinations
     * seen so far (Cube{first, 0} after the first), to enclose
     * @p dest too: the same cube as enclosing() of them all.
     */
    void
    enclose(Cube &cube, unsigned dest) const
    {
        for (unsigned d = 0; d < m; ++d) {
            if ((dest / pow_a[d]) % a != (cube.base / pow_a[d]) % a)
                cube.mask |= 1u << d;
        }
    }

    /**
     * Divergence level of destinations @p x != @p y: the first link
     * level at which their paths from one source use different
     * links. A level-l link reaches the destinations of one l-digit
     * prefix, so it is one past their first differing digit.
     */
    unsigned
    divergence(unsigned x, unsigned y) const
    {
        unsigned level = 1;
        while (x / pow_a[m - level] == y / pow_a[m - level])
            ++level;
        return level;
    }

  private:
    unsigned n;
    unsigned a;
    unsigned m;
    unsigned _digitBits;
    std::vector<unsigned> pow_a; ///< a^0 .. a^m
};

} // namespace mscp::net

#endif // MSCP_NET_RADIX_TOPOLOGY_HH
