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

/** Walk visitor adding each link's bits to @p stats and @p total. */
auto
commitTo(LinkStats &stats, Bits &total)
{
    return [&stats, &total](unsigned level, unsigned line, Bits bits,
                            int) {
        stats.add(level, line, bits);
        total += bits;
        return 0;
    };
}

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
BasicOmegaNetwork<Topo>::loadScratch(
    const std::vector<NodeId> &dests) const
{
    scratchDests.clear();
    for (NodeId d : dests) {
        checkPort(d);
        scratchDests.set(d);
    }
}

template <class Topo>
SchemeCosts
BasicOmegaNetwork<Topo>::price(const DynamicBitset &dests,
                               Bits payload_bits, Cube &cube) const
{
    const unsigned m = topo.numStages();
    // The scheme-2 links of one path on levels l..m.
    auto pathFrom = [&](unsigned level) {
        return Bits{m + 1 - level} * payload_bits + spanSuffix[level];
    };
    // In ascending order a destination shares its longest prefix
    // with its predecessor, so it adds the links from the level at
    // which the two diverge.
    const std::size_t n = dests.size();
    std::size_t prev = dests.findFirst();
    cube = Cube{static_cast<unsigned>(prev), 0};
    Bits count = 1;
    SchemeCosts c{0, pathFrom(0), 0};
    for (std::size_t d = dests.findNext(prev); d < n;
         prev = d, d = dests.findNext(d)) {
        c.scheme2 += pathFrom(topo.divergence(
            static_cast<unsigned>(prev), static_cast<unsigned>(d)));
        topo.enclose(cube, static_cast<unsigned>(d));
        ++count;
    }
    c.scheme1 = count * unicastCost(payload_bits);

    // Scheme 3: the broadcast tree widens a-fold at every free
    // stage of the enclosing cube.
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
SchemeCosts
BasicOmegaNetwork<Topo>::schemeCosts(NodeId src,
                                     const DynamicBitset &dests,
                                     Bits payload_bits) const
{
    checkPort(src);
    checkDests(dests);
    panic_if(dests.none(), "schemeCosts on an empty set");
    Cube cube;
    return price(dests, payload_bits, cube);
}

template <class Topo>
SchemeCosts
BasicOmegaNetwork<Topo>::schemeCosts(NodeId src,
                                     const std::vector<NodeId> &dests,
                                     Bits payload_bits) const
{
    panic_if(dests.empty(), "schemeCosts on an empty set");
    loadScratch(dests);
    SchemeCosts c = schemeCosts(src, scratchDests, payload_bits);
    c.scheme1 = Bits{dests.size()} * unicastCost(payload_bits);
    return c;
}

template <class Topo>
Bits
BasicOmegaNetwork<Topo>::unicastCommit(NodeId src, NodeId dst,
                                       Bits payload_bits)
{
    Bits total = 0;
    walkUnicast(src, dst, payload_bits, 0, commitTo(stats, total));
    return total;
}

template <class Topo>
Bits
BasicOmegaNetwork<Topo>::multicastCommit(Scheme scheme, NodeId src,
                                         const DynamicBitset &dests,
                                         Bits payload_bits)
{
    Bits total = 0;
    walk(scheme, src, dests, payload_bits, 0, commitTo(stats, total));
    return total;
}

template <class Topo>
Bits
BasicOmegaNetwork<Topo>::multicastCommit(
    Scheme scheme, NodeId src, const std::vector<NodeId> &dests,
    Bits payload_bits)
{
    Bits total = 0;
    walk(scheme, src, dests, payload_bits, 0, commitTo(stats, total));
    return total;
}

template class BasicOmegaNetwork<OmegaTopology>;
template class BasicOmegaNetwork<RadixOmegaTopology>;

} // namespace mscp::net
