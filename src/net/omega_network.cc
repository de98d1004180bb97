#include "omega_network.hh"

#include <algorithm>

namespace mscp::net
{

namespace
{

/** Walk visitor appending each link to @p trace; a link's value is
 *  its index, so children record their parent. */
auto
appendTo(std::vector<Traversal> &trace)
{
    return [&trace](unsigned level, unsigned line, Bits bits,
                    std::int32_t parent) {
        trace.push_back({level, line, bits, parent});
        return static_cast<std::int32_t>(trace.size()) - 1;
    };
}

constexpr std::int32_t NoParent = -1;

} // anonymous namespace

template <class Topo>
std::vector<Traversal>
BasicOmegaNetwork<Topo>::traceUnicast(NodeId src, NodeId dst,
                                      Bits payload_bits) const
{
    std::vector<Traversal> trace;
    walkUnicast(src, dst, payload_bits, NoParent, appendTo(trace));
    return trace;
}

template <class Topo>
std::vector<Traversal>
BasicOmegaNetwork<Topo>::traceScheme1(NodeId src,
                                      const std::vector<NodeId> &dests,
                                      Bits payload_bits) const
{
    std::vector<Traversal> trace;
    for (NodeId d : dests)
        walkUnicast(src, d, payload_bits, NoParent, appendTo(trace));
    return trace;
}

template <class Topo>
std::vector<Traversal>
BasicOmegaNetwork<Topo>::traceScheme2(NodeId src,
                                      const DynamicBitset &dests,
                                      Bits payload_bits) const
{
    std::vector<Traversal> trace;
    auto append = appendTo(trace);
    walkVector(src, dests, payload_bits, NoParent, append);
    return trace;
}

template <class Topo>
std::vector<Traversal>
BasicOmegaNetwork<Topo>::traceScheme3(NodeId src, const Cube &cube,
                                      Bits payload_bits) const
{
    std::vector<Traversal> trace;
    auto append = appendTo(trace);
    walkBroadcast(src, cube, payload_bits, NoParent, append);
    return trace;
}

template <class Topo>
RouteResult
BasicOmegaNetwork<Topo>::evaluate(
    const std::vector<Traversal> &trace) const
{
    RouteResult r;
    r.bitsPerLevel.assign(topo.numLinkLevels(), 0);
    unsigned m = topo.numStages();
    for (const auto &t : trace) {
        r.bitsPerLevel[t.level] += t.bits;
        r.totalBits += t.bits;
        ++r.traversals;
        if (t.level == m)
            r.delivered.push_back(t.line);
    }
    std::sort(r.delivered.begin(), r.delivered.end());
    return r;
}

template <class Topo>
RouteResult
BasicOmegaNetwork<Topo>::commit(const std::vector<Traversal> &trace)
{
    for (const auto &t : trace)
        stats.add(t.level, t.line, t.bits);
    return evaluate(trace);
}

template <class Topo>
RouteResult
BasicOmegaNetwork<Topo>::unicast(NodeId src, NodeId dst,
                                 Bits payload_bits)
{
    RouteResult r = commit(traceUnicast(src, dst, payload_bits));
    r.used = Scheme::Unicasts;
    return r;
}

template <class Topo>
RouteResult
BasicOmegaNetwork<Topo>::route(Scheme scheme, NodeId src,
                               const std::vector<NodeId> &dests,
                               Bits payload_bits,
                               std::vector<Traversal> &trace) const
{
    const Scheme used = walk(scheme, src, dests, payload_bits,
                             NoParent, appendTo(trace));
    RouteResult r = evaluate(trace);
    r.used = used;
    if (used == Scheme::BroadcastTag) {
        r.overshoot = static_cast<unsigned>(r.delivered.size() -
                                            dests.size());
    }
    return r;
}

template <class Topo>
RouteResult
BasicOmegaNetwork<Topo>::multicast(Scheme scheme, NodeId src,
                                   const std::vector<NodeId> &dests,
                                   Bits payload_bits)
{
    std::vector<Traversal> trace;
    RouteResult r = route(scheme, src, dests, payload_bits, trace);
    for (const auto &t : trace)
        stats.add(t.level, t.line, t.bits);
    return r;
}

template <class Topo>
std::array<RouteResult, 3>
BasicOmegaNetwork<Topo>::evaluateAllSchemes(
    NodeId src, const std::vector<NodeId> &dests,
    Bits payload_bits) const
{
    std::array<RouteResult, 3> out;
    for (Scheme s : {Scheme::Unicasts, Scheme::VectorRouting,
                     Scheme::BroadcastTag}) {
        std::vector<Traversal> trace;
        out[static_cast<std::size_t>(s) - 1] =
            route(s, src, dests, payload_bits, trace);
    }
    return out;
}

template <class Topo>
void
BasicOmegaNetwork<Topo>::fillScratchVector(
    const std::vector<NodeId> &dests) const
{
    scratchVector.clear();
    for (NodeId d : dests) {
        checkPort(d);
        scratchVector.set(d);
    }
}

template <class Topo>
SchemeCosts
BasicOmegaNetwork<Topo>::schemeCosts(NodeId src,
                                     const std::vector<NodeId> &dests,
                                     Bits payload_bits) const
{
    checkPort(src);
    panic_if(dests.empty(), "schemeCosts on an empty set");
    const unsigned m = topo.numStages();
    SchemeCosts c{0, 0, 0};

    // Scheme 1: every unicast crosses m+1 links with m-l digits of
    // header at level l, independent of the endpoints.
    const Bits per_unicast = Bits{m + 1} * payload_bits +
        Bits{topo.digitBits()} * m * (m + 1) / 2;
    c.scheme1 = Bits{dests.size()} * per_unicast;

    // Scheme 2: the vector tree's shape depends on which ranges
    // hold destinations, so walk it.
    fillScratchVector(dests);
    auto count = [&c](unsigned, unsigned, Bits bits, int) {
        c.scheme2 += bits;
        return 0;
    };
    walkVector(src, scratchVector, payload_bits, 0, count);

    // Scheme 3: the broadcast tree widens a-fold at every free
    // stage of the enclosing cube.
    const Cube cube = topo.enclosing(dests);
    const Bits field = 1 + topo.digitBits();
    Bits width = 1;
    c.scheme3 = payload_bits + field * m;
    for (unsigned level = 1; level <= m; ++level) {
        if ((cube.mask >> (m - level)) & 1)
            width *= topo.radix();
        c.scheme3 += width * (payload_bits + field * (m - level));
    }
    return c;
}

template <class Topo>
Bits
BasicOmegaNetwork<Topo>::unicastCommit(NodeId src, NodeId dst,
                                       Bits payload_bits)
{
    Bits total = 0;
    walkUnicast(src, dst, payload_bits, 0,
                [&](unsigned level, unsigned line, Bits bits, int) {
                    stats.add(level, line, bits);
                    total += bits;
                    return 0;
                });
    return total;
}

template <class Topo>
Bits
BasicOmegaNetwork<Topo>::multicastCommit(
    Scheme scheme, NodeId src, const std::vector<NodeId> &dests,
    Bits payload_bits)
{
    Bits total = 0;
    walk(scheme, src, dests, payload_bits, 0,
         [&](unsigned level, unsigned line, Bits bits, int) {
             stats.add(level, line, bits);
             total += bits;
             return 0;
         });
    return total;
}

template class BasicOmegaNetwork<OmegaTopology>;
template class BasicOmegaNetwork<RadixOmegaTopology>;

} // namespace mscp::net
