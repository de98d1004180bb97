/**
 * @file
 * Functional omega-network model with exact link-bit accounting.
 *
 * The network implements the three multicast schemes of the paper's
 * Sec. 3 plus the combined min-cost scheme (eq. 8). Each transfer
 * produces a trace of link traversals; committing a trace adds its
 * bits to the per-link statistics, so the simulator measures exactly
 * the communication-cost metric the paper analyzes (eq. 1).
 *
 * Header-size model (matching the paper's per-stage tables):
 *  - scheme 1: a message entering stage i carries m - i tag bits,
 *  - scheme 2: it carries the N/2^i-bit destination subvector,
 *  - scheme 3: it carries 2(m - i) tag bits.
 */

#ifndef MSCP_NET_OMEGA_NETWORK_HH
#define MSCP_NET_OMEGA_NETWORK_HH

#include <array>
#include <vector>

#include "net/link_stats.hh"
#include "net/route.hh"
#include "net/topology.hh"
#include "sim/bitset.hh"
#include "sim/types.hh"

namespace mscp::net
{

/** Functional N x N omega network (2x2 switches). */
class OmegaNetwork
{
  public:
    /**
     * @param num_ports number of ports N (power of two, >= 2)
     */
    explicit OmegaNetwork(unsigned num_ports);

    const OmegaTopology &topology() const { return topo; }
    unsigned numPorts() const { return topo.numPorts(); }
    unsigned numStages() const { return topo.numStages(); }

    LinkStats &linkStats() { return stats; }
    const LinkStats &linkStats() const { return stats; }

    /** Latency in hops of any single delivery (m + 1 links). */
    unsigned hopCount() const { return topo.numStages() + 1; }

    /** @{ Trace builders (no statistics side effects).
     *
     * The `...Into` forms append to a caller-owned vector so hot
     * paths can reuse one scratch buffer; the value-returning forms
     * are convenience wrappers. */

    /** Scheme-1 unicast from @p src to @p dst. */
    std::vector<Traversal> traceUnicast(
        NodeId src, NodeId dst, Bits payload_bits) const;
    void traceUnicastInto(std::vector<Traversal> &out, NodeId src,
                          NodeId dst, Bits payload_bits) const;

    /** Scheme 1: independent unicasts to every destination. */
    std::vector<Traversal> traceScheme1(
        NodeId src, const std::vector<NodeId> &dests,
        Bits payload_bits) const;
    void traceScheme1Into(std::vector<Traversal> &out, NodeId src,
                          const std::vector<NodeId> &dests,
                          Bits payload_bits) const;

    /** Scheme 2: destination-vector routing. */
    std::vector<Traversal> traceScheme2(
        NodeId src, const DynamicBitset &dests,
        Bits payload_bits) const;
    void traceScheme2Into(std::vector<Traversal> &out, NodeId src,
                          const DynamicBitset &dests,
                          Bits payload_bits) const;

    /** Scheme 3: broadcast-tag routing to a destination subcube. */
    std::vector<Traversal> traceScheme3(
        NodeId src, const Subcube &cube, Bits payload_bits) const;
    void traceScheme3Into(std::vector<Traversal> &out, NodeId src,
                          const Subcube &cube,
                          Bits payload_bits) const;

    /** @} */

    /** Cost of a trace without committing it. */
    RouteResult evaluate(const std::vector<Traversal> &trace) const;

    /** Cost of a trace, accumulated into the link statistics. */
    RouteResult commit(const std::vector<Traversal> &trace);

    /** @{ Convenience: trace + commit in one call. */
    RouteResult unicast(NodeId src, NodeId dst, Bits payload_bits);
    RouteResult multicast(Scheme scheme, NodeId src,
                          const std::vector<NodeId> &dests,
                          Bits payload_bits);
    /** @} */

    /**
     * Combined scheme (eq. 8): evaluate schemes 1, 2 and 3 (the
     * latter on the smallest enclosing subcube) and commit the
     * cheapest. Ties break toward the lower scheme number.
     */
    RouteResult multicastCombined(NodeId src,
                                  const std::vector<NodeId> &dests,
                                  Bits payload_bits);

    /**
     * Evaluate (without committing) the cost each scheme would incur
     * for this transfer. Index 0 -> scheme 1, 1 -> scheme 2,
     * 2 -> scheme 3 (padded subcube).
     */
    std::array<RouteResult, 3> evaluateAllSchemes(
        NodeId src, const std::vector<NodeId> &dests,
        Bits payload_bits) const;

    /** Total link-bit cost of each scheme, allocation-free. */
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

    /**
     * Compute SchemeCosts without materializing traces. Totals are
     * bit-for-bit identical to evaluate(traceSchemeX(...)).totalBits,
     * so combined-scheme selection is unchanged; only the work to
     * decide is. @p dests must be non-empty.
     */
    SchemeCosts schemeCosts(NodeId src,
                            const std::vector<NodeId> &dests,
                            Bits payload_bits) const;

    /** @{ Committed fast paths (no trace, no RouteResult).
     *
     * Hot-path equivalents of unicast()/multicast() for callers that
     * only need the link statistics updated and the total cost:
     * identical bits hit identical links, but no vectors are built.
     * @return total bits committed. */
    Bits unicastCommit(NodeId src, NodeId dst, Bits payload_bits);
    Bits multicastCommit(Scheme scheme, NodeId src,
                         const std::vector<NodeId> &dests,
                         Bits payload_bits);
    /** @} */

  private:
    /** @{ per-scheme committed walks (dests non-empty). */
    Bits commitScheme1(NodeId src, const std::vector<NodeId> &dests,
                       Bits payload_bits);
    Bits commitScheme2(NodeId src, Bits payload_bits);
    Bits commitScheme3(NodeId src, const Subcube &cube,
                       Bits payload_bits);
    /** @} */

    /** Load @p dests into the reusable scheme-2 scratch vector. */
    void fillScratchVector(const std::vector<NodeId> &dests) const;
    /** Bits on a level-@p level link for the given scheme. */
    Bits headerBits(Scheme scheme, unsigned level) const;

    void checkPort(NodeId p) const;

    OmegaTopology topo;
    LinkStats stats;
    /**
     * Reusable destination-vector scratch for scheme-2 walks. An
     * OmegaNetwork is single-run state (the parallel sweep gives
     * every run its own network), so a mutable scratch member is
     * safe and keeps the hot path allocation-free.
     */
    mutable DynamicBitset scratchVector;
};

} // namespace mscp::net

#endif // MSCP_NET_OMEGA_NETWORK_HH
