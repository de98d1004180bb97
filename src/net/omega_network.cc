#include "omega_network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::net
{

namespace
{

/** Explicit-stack DFS frame; shared by the scheme-2/3 fast walks. */
struct WalkFrame
{
    unsigned level;
    unsigned line;
    unsigned lo;
    unsigned hi;
};

/** Upper bound on DFS stack depth (one pending sibling per stage). */
constexpr std::size_t MaxWalkDepth = 40;

} // anonymous namespace

OmegaNetwork::OmegaNetwork(unsigned num_ports)
    : topo(num_ports),
      stats(topo.numLinkLevels(), topo.numPorts()),
      scratchVector(num_ports)
{
}

void
OmegaNetwork::checkPort(NodeId p) const
{
    panic_if(p >= topo.numPorts(), "port %u out of range (N=%u)",
             p, topo.numPorts());
}

Bits
OmegaNetwork::headerBits(Scheme scheme, unsigned level) const
{
    unsigned m = topo.numStages();
    switch (scheme) {
      case Scheme::Unicasts:
        return m - level;
      case Scheme::VectorRouting:
        return Bits{topo.numPorts()} >> level;
      case Scheme::BroadcastTag:
        return 2 * (m - level);
      case Scheme::Combined:
        break;
    }
    panic("headerBits on combined scheme");
}

void
OmegaNetwork::traceUnicastInto(std::vector<Traversal> &out,
                               NodeId src, NodeId dst,
                               Bits payload_bits) const
{
    checkPort(src);
    checkPort(dst);
    unsigned m = topo.numStages();
    unsigned line = src;
    std::int32_t parent = -1;
    for (unsigned level = 0; level <= m; ++level) {
        out.push_back({level, line,
                       payload_bits + headerBits(Scheme::Unicasts,
                                                 level),
                       parent});
        parent = static_cast<std::int32_t>(out.size()) - 1;
        if (level < m)
            line = topo.nextLine(line, topo.destBit(dst, level));
    }
}

std::vector<Traversal>
OmegaNetwork::traceUnicast(NodeId src, NodeId dst,
                           Bits payload_bits) const
{
    std::vector<Traversal> trace;
    traceUnicastInto(trace, src, dst, payload_bits);
    return trace;
}

void
OmegaNetwork::traceScheme1Into(std::vector<Traversal> &out,
                               NodeId src,
                               const std::vector<NodeId> &dests,
                               Bits payload_bits) const
{
    for (NodeId d : dests)
        traceUnicastInto(out, src, d, payload_bits);
}

std::vector<Traversal>
OmegaNetwork::traceScheme1(NodeId src,
                           const std::vector<NodeId> &dests,
                           Bits payload_bits) const
{
    std::vector<Traversal> trace;
    traceScheme1Into(trace, src, dests, payload_bits);
    return trace;
}

void
OmegaNetwork::traceScheme2Into(std::vector<Traversal> &out,
                               NodeId src, const DynamicBitset &dests,
                               Bits payload_bits) const
{
    checkPort(src);
    panic_if(dests.size() != topo.numPorts(),
             "scheme-2 vector size %zu != N=%u", dests.size(),
             topo.numPorts());

    if (dests.none())
        return;

    unsigned m = topo.numStages();

    struct Frame
    {
        unsigned level;
        unsigned line;
        unsigned lo;
        unsigned hi;
        std::int32_t parent;
    };

    Frame work[MaxWalkDepth];
    std::size_t top = 0;
    work[top++] = {0, src, 0, topo.numPorts(), -1};

    while (top) {
        Frame f = work[--top];

        out.push_back({f.level, f.line,
                       payload_bits + headerBits(
                           Scheme::VectorRouting, f.level),
                       f.parent});
        auto self = static_cast<std::int32_t>(out.size()) - 1;

        if (f.level == m)
            continue; // delivered

        unsigned mid = f.lo + (f.hi - f.lo) / 2;
        panic_if(top + 2 > MaxWalkDepth, "walk stack overflow");
        // Output 1 pushed first so output 0 is walked first (LIFO),
        // keeping delivery order ascending within each subtree.
        if (dests.anyInRange(mid, f.hi)) {
            work[top++] = {f.level + 1, topo.nextLine(f.line, 1),
                           mid, f.hi, self};
        }
        if (dests.anyInRange(f.lo, mid)) {
            work[top++] = {f.level + 1, topo.nextLine(f.line, 0),
                           f.lo, mid, self};
        }
    }
}

std::vector<Traversal>
OmegaNetwork::traceScheme2(NodeId src, const DynamicBitset &dests,
                           Bits payload_bits) const
{
    std::vector<Traversal> trace;
    traceScheme2Into(trace, src, dests, payload_bits);
    return trace;
}

void
OmegaNetwork::traceScheme3Into(std::vector<Traversal> &out,
                               NodeId src, const Subcube &cube,
                               Bits payload_bits) const
{
    checkPort(src);
    panic_if(cube.mask >= topo.numPorts() ||
             cube.base >= topo.numPorts(),
             "subcube outside the network");

    unsigned m = topo.numStages();

    struct Frame
    {
        unsigned level;
        unsigned line;
        std::int32_t parent;
    };

    Frame work[MaxWalkDepth];
    std::size_t top = 0;
    work[top++] = {0, src, -1};

    while (top) {
        Frame f = work[--top];

        out.push_back({f.level, f.line,
                       payload_bits + headerBits(
                           Scheme::BroadcastTag, f.level),
                       f.parent});
        auto self = static_cast<std::int32_t>(out.size()) - 1;

        if (f.level == m)
            continue;

        unsigned bit_pos = m - 1 - f.level;
        bool broadcast = (cube.mask >> bit_pos) & 1;
        panic_if(top + 2 > MaxWalkDepth, "walk stack overflow");
        if (broadcast) {
            work[top++] = {f.level + 1, topo.nextLine(f.line, 1),
                           self};
            work[top++] = {f.level + 1, topo.nextLine(f.line, 0),
                           self};
        } else {
            unsigned out_port = (cube.base >> bit_pos) & 1;
            work[top++] = {f.level + 1,
                           topo.nextLine(f.line, out_port), self};
        }
    }
}

std::vector<Traversal>
OmegaNetwork::traceScheme3(NodeId src, const Subcube &cube,
                           Bits payload_bits) const
{
    std::vector<Traversal> trace;
    traceScheme3Into(trace, src, cube, payload_bits);
    return trace;
}

RouteResult
OmegaNetwork::evaluate(const std::vector<Traversal> &trace) const
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

RouteResult
OmegaNetwork::commit(const std::vector<Traversal> &trace)
{
    for (const auto &t : trace)
        stats.add(t.level, t.line, t.bits);
    return evaluate(trace);
}

RouteResult
OmegaNetwork::unicast(NodeId src, NodeId dst, Bits payload_bits)
{
    RouteResult r = commit(traceUnicast(src, dst, payload_bits));
    r.used = Scheme::Unicasts;
    return r;
}

RouteResult
OmegaNetwork::multicast(Scheme scheme, NodeId src,
                        const std::vector<NodeId> &dests,
                        Bits payload_bits)
{
    if (scheme == Scheme::Combined)
        return multicastCombined(src, dests, payload_bits);

    RouteResult r;
    switch (scheme) {
      case Scheme::Unicasts:
        r = commit(traceScheme1(src, dests, payload_bits));
        break;
      case Scheme::VectorRouting: {
        DynamicBitset v(topo.numPorts());
        for (NodeId d : dests) {
            checkPort(d);
            v.set(d);
        }
        r = commit(traceScheme2(src, v, payload_bits));
        break;
      }
      case Scheme::BroadcastTag: {
        if (dests.empty())
            break;
        Subcube cube = Subcube::enclosing(dests);
        r = commit(traceScheme3(src, cube, payload_bits));
        r.overshoot = static_cast<unsigned>(
            r.delivered.size() - dests.size());
        break;
      }
      case Scheme::Combined:
        break; // handled above
    }
    r.used = scheme;
    return r;
}

std::array<RouteResult, 3>
OmegaNetwork::evaluateAllSchemes(NodeId src,
                                 const std::vector<NodeId> &dests,
                                 Bits payload_bits) const
{
    std::array<RouteResult, 3> out;

    out[0] = evaluate(traceScheme1(src, dests, payload_bits));
    out[0].used = Scheme::Unicasts;

    DynamicBitset v(topo.numPorts());
    for (NodeId d : dests)
        v.set(d);
    out[1] = evaluate(traceScheme2(src, v, payload_bits));
    out[1].used = Scheme::VectorRouting;

    if (!dests.empty()) {
        Subcube cube = Subcube::enclosing(dests);
        out[2] = evaluate(traceScheme3(src, cube, payload_bits));
        out[2].overshoot = static_cast<unsigned>(
            out[2].delivered.size() - dests.size());
    }
    out[2].used = Scheme::BroadcastTag;

    return out;
}

RouteResult
OmegaNetwork::multicastCombined(NodeId src,
                                const std::vector<NodeId> &dests,
                                Bits payload_bits)
{
    if (dests.empty())
        return RouteResult{std::vector<Bits>(topo.numLinkLevels(), 0),
                           0, 0, {}, 0, Scheme::Combined};

    return multicast(schemeCosts(src, dests, payload_bits).cheapest(),
                     src, dests, payload_bits);
}

// ---------------------------------------------------------------
// Allocation-free hot paths
// ---------------------------------------------------------------

void
OmegaNetwork::fillScratchVector(const std::vector<NodeId> &dests)
    const
{
    scratchVector.clear();
    for (NodeId d : dests) {
        checkPort(d);
        scratchVector.set(d);
    }
}

OmegaNetwork::SchemeCosts
OmegaNetwork::schemeCosts(NodeId src,
                          const std::vector<NodeId> &dests,
                          Bits payload_bits) const
{
    checkPort(src);
    panic_if(dests.empty(), "schemeCosts on an empty set");
    unsigned m = topo.numStages();
    unsigned n = topo.numPorts();
    SchemeCosts c{0, 0, 0};

    // Scheme 1: every unicast crosses m+1 links with m-l header
    // bits at level l, independent of the endpoints.
    Bits per_unicast = Bits{m + 1} * payload_bits +
        Bits{m} * (m + 1) / 2;
    c.scheme1 = Bits{dests.size()} * per_unicast;

    // Scheme 2: the destination-vector tree. Visit the same nodes
    // traceScheme2 would, counting bits instead of building
    // traversals. Tree shape depends only on the range splits.
    fillScratchVector(dests);
    {
        WalkFrame stack[MaxWalkDepth];
        std::size_t top = 0;
        stack[top++] = {0, src, 0, n};
        while (top) {
            WalkFrame f = stack[--top];
            c.scheme2 += payload_bits + (Bits{n} >> f.level);
            if (f.level == m)
                continue;
            unsigned mid = f.lo + (f.hi - f.lo) / 2;
            panic_if(top + 2 > MaxWalkDepth, "walk stack overflow");
            if (scratchVector.anyInRange(mid, f.hi))
                stack[top++] = {f.level + 1, 0, mid, f.hi};
            if (scratchVector.anyInRange(f.lo, mid))
                stack[top++] = {f.level + 1, 0, f.lo, mid};
        }
    }

    // Scheme 3: the broadcast tree doubles at every masked stage.
    Subcube cube = Subcube::enclosing(dests);
    Bits width = 1;
    c.scheme3 = payload_bits + 2 * Bits{m};
    for (unsigned level = 1; level <= m; ++level) {
        if ((cube.mask >> (m - level)) & 1)
            width *= 2;
        c.scheme3 += width * (payload_bits + 2 * Bits{m - level});
    }
    return c;
}

Bits
OmegaNetwork::unicastCommit(NodeId src, NodeId dst,
                            Bits payload_bits)
{
    checkPort(src);
    checkPort(dst);
    unsigned m = topo.numStages();
    unsigned line = src;
    Bits total = 0;
    for (unsigned level = 0; level <= m; ++level) {
        Bits bits = payload_bits + (m - level);
        stats.add(level, line, bits);
        total += bits;
        if (level < m)
            line = topo.nextLine(line, topo.destBit(dst, level));
    }
    return total;
}

Bits
OmegaNetwork::commitScheme1(NodeId src,
                            const std::vector<NodeId> &dests,
                            Bits payload_bits)
{
    Bits total = 0;
    for (NodeId d : dests)
        total += unicastCommit(src, d, payload_bits);
    return total;
}

Bits
OmegaNetwork::commitScheme2(NodeId src, Bits payload_bits)
{
    unsigned m = topo.numStages();
    unsigned n = topo.numPorts();
    Bits total = 0;
    WalkFrame stack[MaxWalkDepth];
    std::size_t top = 0;
    stack[top++] = {0, src, 0, n};
    while (top) {
        WalkFrame f = stack[--top];
        Bits bits = payload_bits + (Bits{n} >> f.level);
        stats.add(f.level, f.line, bits);
        total += bits;
        if (f.level == m)
            continue;
        unsigned mid = f.lo + (f.hi - f.lo) / 2;
        panic_if(top + 2 > MaxWalkDepth, "walk stack overflow");
        if (scratchVector.anyInRange(mid, f.hi)) {
            stack[top++] = {f.level + 1, topo.nextLine(f.line, 1),
                            mid, f.hi};
        }
        if (scratchVector.anyInRange(f.lo, mid)) {
            stack[top++] = {f.level + 1, topo.nextLine(f.line, 0),
                            f.lo, mid};
        }
    }
    return total;
}

Bits
OmegaNetwork::commitScheme3(NodeId src, const Subcube &cube,
                            Bits payload_bits)
{
    unsigned m = topo.numStages();
    Bits total = 0;
    WalkFrame stack[MaxWalkDepth];
    std::size_t top = 0;
    stack[top++] = {0, src, 0, 0};
    while (top) {
        WalkFrame f = stack[--top];
        Bits bits = payload_bits + 2 * Bits{m - f.level};
        stats.add(f.level, f.line, bits);
        total += bits;
        if (f.level == m)
            continue;
        unsigned bit_pos = m - 1 - f.level;
        panic_if(top + 2 > MaxWalkDepth, "walk stack overflow");
        if ((cube.mask >> bit_pos) & 1) {
            stack[top++] = {f.level + 1, topo.nextLine(f.line, 1),
                            0, 0};
            stack[top++] = {f.level + 1, topo.nextLine(f.line, 0),
                            0, 0};
        } else {
            unsigned out = (cube.base >> bit_pos) & 1;
            stack[top++] = {f.level + 1,
                            topo.nextLine(f.line, out), 0, 0};
        }
    }
    return total;
}

Bits
OmegaNetwork::multicastCommit(Scheme scheme, NodeId src,
                              const std::vector<NodeId> &dests,
                              Bits payload_bits)
{
    if (dests.empty())
        return 0;
    checkPort(src);
    switch (scheme) {
      case Scheme::Unicasts:
        return commitScheme1(src, dests, payload_bits);
      case Scheme::VectorRouting:
        fillScratchVector(dests);
        return commitScheme2(src, payload_bits);
      case Scheme::BroadcastTag:
        return commitScheme3(src, Subcube::enclosing(dests),
                             payload_bits);
      case Scheme::Combined: {
        const Scheme chosen =
            schemeCosts(src, dests, payload_bits).cheapest();
        if (chosen == Scheme::Unicasts)
            return commitScheme1(src, dests, payload_bits);
        if (chosen == Scheme::VectorRouting) {
            // scratchVector still holds dests from schemeCosts().
            return commitScheme2(src, payload_bits);
        }
        return commitScheme3(src, Subcube::enclosing(dests),
                             payload_bits);
      }
    }
    panic("unknown scheme");
}

} // namespace mscp::net
