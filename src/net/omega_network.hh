/**
 * @file
 * Functional omega-network model with exact link-bit accounting, for
 * 2x2 switches (OmegaNetwork) and a x a switches
 * (RadixOmegaNetwork).
 *
 * The network implements the three multicast schemes of the paper's
 * Sec. 3 plus the combined min-cost scheme (eq. 8). Each scheme's
 * routing tree is written once, as a walk generic over the topology:
 * the destination-tag path (walkUnicast), the vector-split tree
 * (walkVector) and the broadcast-tag tree (walkBroadcast). walk() is
 * the one place a Scheme selects its tree. A walk hands every link
 * of the tree, parents first, to a visitor along with the value the
 * visitor returned for the parent link; the visitor decides what
 * the walk computes -- a trace, LinkStats updates, or
 * TimedNetwork's link reservations -- so the simulator measures the
 * paper's communication-cost metric (eq. 1) on the very tree it
 * times.
 *
 * A multicast's destination set is a DynamicBitset of N bits: the
 * present-flag vector, which scheme 2 carries as its routing tag.
 * Eq. 8 prices the three schemes in closed form from one ascending
 * pass over it (schemeCosts), and only the chosen tree is walked.
 * The std::vector<NodeId> overloads are adapters for callers that
 * hold a list.
 *
 * Header-size model (matching the paper's per-stage tables; a digit
 * is ceil(log2 a) bits, one bit for 2x2 switches):
 *  - scheme 1: a message entering stage i carries m - i digits,
 *  - scheme 2: it carries the N/a^i-bit destination subvector,
 *  - scheme 3: it carries m - i fields of one broadcast bit plus
 *    one digit (2(m - i) bits for 2x2 switches).
 */

#ifndef MSCP_NET_OMEGA_NETWORK_HH
#define MSCP_NET_OMEGA_NETWORK_HH

#include <array>
#include <concepts>
#include <cstdint>
#include <vector>

#include "net/link_stats.hh"
#include "net/radix_topology.hh"
#include "net/route.hh"
#include "net/topology.hh"
#include "sim/bitset.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace mscp::net
{

/**
 * Functional N x N omega network over a topology type: OmegaTopology
 * (2x2 switches, shift arithmetic) or RadixOmegaTopology (a x a).
 */
template <class Topo>
class BasicOmegaNetwork
{
  public:
    /** Destination sets scheme 3 reaches: Subcube or RadixSubcube. */
    using Cube = typename Topo::Cube;

    /**
     * @param topo_args the topology's constructor arguments: N for
     *        OmegaNetwork, (N, a) for RadixOmegaNetwork
     */
    template <class... TopoArgs>
        requires std::constructible_from<Topo, TopoArgs...>
    explicit BasicOmegaNetwork(TopoArgs... topo_args)
        : topo(topo_args...),
          stats(topo.numLinkLevels(), topo.numPorts()),
          scratchDests(topo.numPorts()),
          walkStack(topo.numStages() * (topo.radix() - 1) + 1)
    {
        for (unsigned level = topo.numStages() + 1; level-- > 0;)
            spanSuffix[level] = spanSuffix[level + 1] + topo.span(level);
    }

    const Topo &topology() const { return topo; }
    unsigned numPorts() const { return topo.numPorts(); }
    unsigned numStages() const { return topo.numStages(); }

    LinkStats &linkStats() { return stats; }
    const LinkStats &linkStats() const { return stats; }

    /** Latency in hops of any single delivery (m + 1 links). */
    unsigned hopCount() const { return topo.numStages() + 1; }

    /** @{ Trace builders (no statistics side effects). */

    /** Scheme-1 unicast from @p src to @p dst. */
    std::vector<Traversal> traceUnicast(
        NodeId src, NodeId dst, Bits payload_bits) const;

    /** Scheme 1: independent unicasts to every destination. */
    std::vector<Traversal> traceScheme1(
        NodeId src, const std::vector<NodeId> &dests,
        Bits payload_bits) const;

    /** Scheme 2: destination-vector routing. */
    std::vector<Traversal> traceScheme2(
        NodeId src, const DynamicBitset &dests,
        Bits payload_bits) const;

    /** Scheme 3: broadcast-tag routing to a destination cube. */
    std::vector<Traversal> traceScheme3(
        NodeId src, const Cube &cube, Bits payload_bits) const;

    /** @} */

    /** Cost of a trace without committing it. */
    RouteResult evaluate(const std::vector<Traversal> &trace) const;

    /** Cost of a trace, accumulated into the link statistics. */
    RouteResult commit(const std::vector<Traversal> &trace);

    /** @{ Convenience: trace + commit in one call. Scheme 3 routes
     *  to the smallest cube enclosing @p dests; Combined makes the
     *  eq. 8 choice (SchemeCosts::cheapest()) and reports it in
     *  RouteResult::used. */
    RouteResult unicast(NodeId src, NodeId dst, Bits payload_bits);
    RouteResult multicast(Scheme scheme, NodeId src,
                          const std::vector<NodeId> &dests,
                          Bits payload_bits);
    RouteResult
    multicastCombined(NodeId src, const std::vector<NodeId> &dests,
                      Bits payload_bits)
    {
        return multicast(Scheme::Combined, src, dests, payload_bits);
    }
    /** @} */

    /**
     * Evaluate (without committing) the cost each scheme would incur
     * for this transfer by tracing its tree: the reference the
     * closed forms of schemeCosts() are tested against. Index 0 ->
     * scheme 1, 1 -> scheme 2, 2 -> scheme 3 (padded cube).
     */
    std::array<RouteResult, 3> evaluateAllSchemes(
        NodeId src, const std::vector<NodeId> &dests,
        Bits payload_bits) const;

    /**
     * Eq. 8's three costs without walking a tree, bit-for-bit the
     * totals of the traces, from one ascending pass over the
     * non-empty set @p dests (N bits). Scheme 1 is a closed form per
     * destination. Scheme 2's tree has exactly one level-l link per
     * distinct l-digit prefix of the destinations, carrying payload
     * plus span(l) bits; so the first destination adds a whole
     * path, and each later one the links from the level at which it
     * diverges from its predecessor down. Scheme 3 widens a-fold at
     * every free stage of the enclosing cube, which the same pass
     * builds.
     */
    SchemeCosts schemeCosts(NodeId src, const DynamicBitset &dests,
                            Bits payload_bits) const;
    /** The same for a list (loading it into the scratch set); a
     *  duplicate counts again in scheme 1, which sends one unicast
     *  per entry. */
    SchemeCosts schemeCosts(NodeId src,
                            const std::vector<NodeId> &dests,
                            Bits payload_bits) const;

    /** @{ Committed paths: the same links and bits as unicast() /
     *  multicast(), accumulated into the link statistics without a
     *  trace: walk() with a committing visitor. @return total bits
     *  committed. */
    Bits unicastCommit(NodeId src, NodeId dst, Bits payload_bits);
    Bits multicastCommit(Scheme scheme, NodeId src,
                         const DynamicBitset &dests,
                         Bits payload_bits);
    Bits multicastCommit(Scheme scheme, NodeId src,
                         const std::vector<NodeId> &dests,
                         Bits payload_bits);
    /** @} */

    /**
     * @{ Walks. @p visit is called as
     * `Value visit(unsigned level, unsigned line, Bits bits, Value
     * parent)` once per link of the tree, in delivery order: a link
     * before its children, output 0's subtree before output 1's.
     * @p parent is what visit returned for the parent link, or
     * @p root for a link leaving the source.
     */

    /** The destination-tag path from @p src to @p dst. */
    template <class Value, class Visit>
    void walkUnicast(NodeId src, NodeId dst, Bits payload_bits,
                     Value root, Visit &&visit) const;

    /**
     * The tree @p scheme routes to the set @p dests (N bits; nothing
     * if empty); Combined prices the schemes in closed form
     * (schemeCosts) and walks only SchemeCosts::cheapest(). Scheme 1
     * walks one path per destination, ascending, each from @p root.
     *
     * @return the scheme walked
     */
    template <class Value, class Visit>
    Scheme walk(Scheme scheme, NodeId src, const DynamicBitset &dests,
                Bits payload_bits, Value root, Visit &&visit) const;

    /**
     * The same for a list, walked as listed: scheme 1 walks one path
     * per entry in list order, scheme 3 the cube enclosing the list
     * (Topo::enclosing). The trace builders walk this way, so it is
     * the reference the set walk is tested against.
     */
    template <class Value, class Visit>
    Scheme walk(Scheme scheme, NodeId src,
                const std::vector<NodeId> &dests, Bits payload_bits,
                Value root, Visit &&visit) const;

    /** @} */

  private:
    /** A pending link of walkTree. */
    struct WalkFrame
    {
        unsigned level;
        unsigned line;
    };

    /** N = a^m fits an unsigned and a >= 2. */
    static constexpr unsigned MaxStages = 31;

    template <class Value, class Visit>
    void walkVector(NodeId src, const DynamicBitset &dests,
                    Bits payload_bits, Value root,
                    Visit &visit) const;
    template <class Value, class Visit>
    void walkBroadcast(NodeId src, const Cube &cube,
                       Bits payload_bits, Value root,
                       Visit &visit) const;
    /**
     * The depth-first walk of a multicast tree (schemes 2 and 3).
     * A link on level l carries @p header(l) bits; a switch forwards
     * on each output for which @p fork(level, out, lo, part) holds,
     * where [lo, lo + part) are the destinations behind that output.
     */
    template <class Value, class Header, class Fork, class Visit>
    void walkTree(NodeId src, Value root, Header header, Fork fork,
                  Visit &visit) const;

    /** Trace @p dests under @p scheme into @p trace and price it. */
    RouteResult route(Scheme scheme, NodeId src,
                      const std::vector<NodeId> &dests,
                      Bits payload_bits,
                      std::vector<Traversal> &trace) const;

    /** schemeCosts() of the non-empty @p dests, leaving scheme 3's
     *  enclosing cube in @p cube. */
    SchemeCosts price(const DynamicBitset &dests, Bits payload_bits,
                      Cube &cube) const;

    /** Scheme 1's cost per destination: m+1 links with m-l digits
     *  of header at level l, independent of the endpoints. */
    Bits
    unicastCost(Bits payload_bits) const
    {
        const unsigned m = topo.numStages();
        return Bits{m + 1} * payload_bits +
            Bits{topo.digitBits()} * m * (m + 1) / 2;
    }

    /** Load @p dests into the reusable scratch set. */
    void loadScratch(const std::vector<NodeId> &dests) const;

    void
    checkPort(NodeId p) const
    {
        panic_if(p >= topo.numPorts(), "port %u out of range (N=%u)",
                 p, topo.numPorts());
    }

    void
    checkDests(const DynamicBitset &dests) const
    {
        panic_if(dests.size() != topo.numPorts(),
                 "destination set of %zu bits on an N=%u network",
                 dests.size(), topo.numPorts());
    }

    Topo topo;
    LinkStats stats;
    /** spanSuffix[l]: span(l) + ... + span(m), the subvector bits
     *  one scheme-2 path carries on levels l..m. */
    std::array<Bits, MaxStages + 2> spanSuffix{};
    /**
     * Reusable scratch: the destination set of the list adapters
     * and walkTree's explicit stack. A network is single-run state
     * (the parallel sweep gives every run its own network), so
     * mutable scratch is safe and keeps every walk allocation-free.
     * The stack holds m(a-1)+1 frames: at most a-1 pending siblings
     * on each of the first m-1 levels plus one switch's a outputs.
     */
    mutable DynamicBitset scratchDests;
    mutable std::vector<WalkFrame> walkStack;
};

/** The paper's network of 2x2 switches. */
using OmegaNetwork = BasicOmegaNetwork<OmegaTopology>;
/** The same network of a x a switches. */
using RadixOmegaNetwork = BasicOmegaNetwork<RadixOmegaTopology>;

template <class Topo>
template <class Value, class Visit>
void
BasicOmegaNetwork<Topo>::walkUnicast(NodeId src, NodeId dst,
                                     Bits payload_bits, Value root,
                                     Visit &&visit) const
{
    checkPort(src);
    checkPort(dst);
    const unsigned m = topo.numStages();
    unsigned line = src;
    Value parent = root;
    for (unsigned level = 0; level <= m; ++level) {
        parent = visit(level, line,
                       payload_bits + Bits{m - level} * topo.digitBits(),
                       parent);
        if (level < m)
            line = topo.nextLine(line, topo.destDigit(dst, level));
    }
}

template <class Topo>
template <class Value, class Visit>
void
BasicOmegaNetwork<Topo>::walkVector(NodeId src,
                                    const DynamicBitset &dests,
                                    Bits payload_bits, Value root,
                                    Visit &visit) const
{
    checkDests(dests);
    if (dests.none())
        return;
    // The subvector goes out on every output whose share of the
    // destination range holds a destination.
    walkTree(
        src, root,
        [&](unsigned level) { return payload_bits + topo.span(level); },
        [&](unsigned, unsigned, unsigned lo, unsigned part) {
            return dests.anyInRange(lo, lo + part);
        },
        visit);
}

template <class Topo>
template <class Value, class Visit>
void
BasicOmegaNetwork<Topo>::walkBroadcast(NodeId src, const Cube &cube,
                                       Bits payload_bits, Value root,
                                       Visit &visit) const
{
    const unsigned m = topo.numStages();
    panic_if(cube.base >= topo.numPorts() || (cube.mask >> m) != 0,
             "subcube outside the network");
    // Broadcast on every output where the cube's digit is free,
    // follow the cube's digit elsewhere.
    walkTree(
        src, root,
        [&](unsigned level) {
            return payload_bits +
                Bits{m - level} * (1 + topo.digitBits());
        },
        [&](unsigned level, unsigned out, unsigned, unsigned) {
            return ((cube.mask >> (m - 1 - level)) & 1) != 0 ||
                out == topo.destDigit(cube.base, level);
        },
        visit);
}

template <class Topo>
template <class Value, class Header, class Fork, class Visit>
void
BasicOmegaNetwork<Topo>::walkTree(NodeId src, Value root,
                                  Header header, Fork fork,
                                  Visit &visit) const
{
    checkPort(src);
    const unsigned m = topo.numStages();
    // Depth first, a link's parent is the last link visited one
    // level up, so one value per level stands in for a parent per
    // frame: parent[l] belongs to the level-(l-1) link.
    std::array<Value, MaxStages + 2> parent;
    parent[0] = root;
    WalkFrame *stack = walkStack.data();
    std::size_t top = 0;
    stack[top++] = {0, src};
    while (top) {
        // Field by field: a whole-frame copy becomes one wide load
        // over two narrow stores, which stalls store forwarding.
        --top;
        const unsigned level = stack[top].level;
        const unsigned line = stack[top].line;
        parent[level + 1] =
            visit(level, line, header(level), parent[level]);
        if (level == m)
            continue; // delivered
        const unsigned lo = topo.reachFirst(level, line);
        const unsigned part = topo.span(level + 1);
        // Output a-1 is pushed first so output 0 is walked first.
        for (unsigned out = topo.radix(); out-- > 0;) {
            if (fork(level, out, lo + out * part, part))
                stack[top++] = {level + 1, topo.nextLine(line, out)};
        }
    }
}

template <class Topo>
template <class Value, class Visit>
Scheme
BasicOmegaNetwork<Topo>::walk(Scheme scheme, NodeId src,
                              const DynamicBitset &dests,
                              Bits payload_bits, Value root,
                              Visit &&visit) const
{
    checkDests(dests);
    if (dests.none())
        return scheme;
    Cube cube;
    if (scheme == Scheme::Combined || scheme == Scheme::BroadcastTag) {
        const SchemeCosts costs = price(dests, payload_bits, cube);
        if (scheme == Scheme::Combined)
            scheme = costs.cheapest();
    }
    switch (scheme) {
      case Scheme::Unicasts:
        for (std::size_t d = dests.findFirst(); d < dests.size();
             d = dests.findNext(d)) {
            walkUnicast(src, static_cast<NodeId>(d), payload_bits,
                        root, visit);
        }
        break;
      case Scheme::VectorRouting:
        walkVector(src, dests, payload_bits, root, visit);
        break;
      case Scheme::BroadcastTag:
        walkBroadcast(src, cube, payload_bits, root, visit);
        break;
      case Scheme::Combined:
        break; // resolved above
    }
    return scheme;
}

template <class Topo>
template <class Value, class Visit>
Scheme
BasicOmegaNetwork<Topo>::walk(Scheme scheme, NodeId src,
                              const std::vector<NodeId> &dests,
                              Bits payload_bits, Value root,
                              Visit &&visit) const
{
    if (dests.empty())
        return scheme;
    bool loaded = false;
    if (scheme == Scheme::Combined) {
        // schemeCosts() leaves dests in the scratch set.
        scheme = schemeCosts(src, dests, payload_bits).cheapest();
        loaded = true;
    }
    switch (scheme) {
      case Scheme::Unicasts:
        for (NodeId d : dests)
            walkUnicast(src, d, payload_bits, root, visit);
        break;
      case Scheme::VectorRouting:
        if (!loaded)
            loadScratch(dests);
        walkVector(src, scratchDests, payload_bits, root, visit);
        break;
      case Scheme::BroadcastTag:
        walkBroadcast(src, topo.enclosing(dests), payload_bits, root,
                      visit);
        break;
      case Scheme::Combined:
        break; // resolved above
    }
    return scheme;
}

} // namespace mscp::net

#endif // MSCP_NET_OMEGA_NETWORK_HH
