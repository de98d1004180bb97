/**
 * @file
 * Route traces and results for omega-network transfers.
 *
 * Every routing scheme is a tree of link traversals, each with the
 * link coordinates, the bits crossing that link (payload plus
 * whatever routing header the scheme still carries at that level),
 * and its parent traversal. A *trace* records that tree as a list
 * (the trace builders and evaluate() of net/omega_network.hh);
 * callers that only count bits or time links visit it without one.
 */

#ifndef MSCP_NET_ROUTE_HH
#define MSCP_NET_ROUTE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace mscp::net
{

/** The multicast schemes of Sec. 3. */
enum class Scheme : std::uint8_t
{
    Unicasts = 1,     ///< scheme 1: one destination-tag message each
    VectorRouting = 2,///< scheme 2: present-flag vector as routing tag
    BroadcastTag = 3, ///< scheme 3: Wen's 2m-bit broadcast tag
    Combined = 4,     ///< min-cost choice among 1/2/3 (eq. 8)
};

/** Printable name of a scheme. */
const char *schemeName(Scheme s);

/** Total link-bit cost (eq. 1) of each scheme for one transfer. */
struct SchemeCosts
{
    Bits scheme1;
    Bits scheme2;
    Bits scheme3;

    /** The eq. 8 choice: the cheapest scheme, ties toward the
     *  lower scheme number. */
    Scheme
    cheapest() const
    {
        if (scheme1 <= scheme2 && scheme1 <= scheme3)
            return Scheme::Unicasts;
        return scheme2 <= scheme3 ? Scheme::VectorRouting
                                  : Scheme::BroadcastTag;
    }
};

/** One link traversal of a message tree. */
struct Traversal
{
    /** Link level (0 = injection, m = delivery). */
    unsigned level;
    /** Line number within the level. */
    unsigned line;
    /** Bits crossing the link (payload + remaining header). */
    Bits bits;
    /** Index of the parent traversal, or -1 for roots. */
    std::int32_t parent;
};

/** Outcome of routing one (multi)cast. */
struct RouteResult
{
    /** Bits crossing links of each level (L_i of eq. 1). */
    std::vector<Bits> bitsPerLevel;
    /** Total communication cost CC = sum of bitsPerLevel. */
    Bits totalBits = 0;
    /** Number of link traversals. */
    std::uint64_t traversals = 0;
    /** Ports that received the message. */
    std::vector<NodeId> delivered;
    /** Deliveries beyond the requested set (scheme-3 padding). */
    unsigned overshoot = 0;
    /** Scheme that was actually used. */
    Scheme used = Scheme::Unicasts;
};

/**
 * A subcube of destination addresses: every address obtained from
 * @p base by freely flipping the bits selected by @p mask. Scheme 3
 * can reach exactly such sets (the paper's "hamming distance <= l"
 * condition with 2^l destinations).
 */
struct Subcube
{
    unsigned base = 0; ///< address bits outside the mask
    unsigned mask = 0; ///< bit positions free to vary

    /** Number of destinations covered (2^popcount(mask)). */
    unsigned size() const;

    /** @return true iff @p addr is a member. */
    bool
    contains(unsigned addr) const
    {
        return (addr & ~mask) == (base & ~mask);
    }

    /** All member addresses, ascending. */
    std::vector<NodeId> members(unsigned num_ports) const;

    /**
     * Smallest subcube enclosing @p dests (non-empty). Used to pad a
     * destination set so scheme 3 becomes applicable; the members not
     * in @p dests count as overshoot.
     */
    static Subcube enclosing(const std::vector<NodeId> &dests);
};

class RadixOmegaTopology;

/**
 * Subcube's generalization to a x a switches: every address obtained
 * from @p base by freely changing the base-a digits selected by
 * @p mask, a^popcount(mask) destinations. Scheme 3 broadcasts to all
 * a outputs on a free digit's stage and follows the base's digit
 * elsewhere.
 */
struct RadixSubcube
{
    unsigned base = 0; ///< digits on the constrained stages
    unsigned mask = 0; ///< bit d set: digit position d is free

    /** Members of the cube within an (N, a) topology. */
    std::vector<NodeId> members(
        const RadixOmegaTopology &topo) const;

    /** Number of members: a^(popcount of mask). */
    unsigned size(const RadixOmegaTopology &topo) const;

    /** @return true iff @p addr is a member. */
    bool contains(const RadixOmegaTopology &topo,
                  unsigned addr) const;

    /** Smallest enclosing cube of a destination set. */
    static RadixSubcube enclosing(const RadixOmegaTopology &topo,
                                  const std::vector<NodeId> &dests);
};

} // namespace mscp::net

#endif // MSCP_NET_ROUTE_HH
