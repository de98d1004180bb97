#include "timed_network.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mscp::net
{

namespace
{

/** One delivery's event, which the queue builds in its slot from
 *  these three fields (EventQueue::scheduleNew). */
struct DeliveryEvent
{
    DeliveryFn onDelivery;
    NodeId dst;
    Tick when;

    void operator()() const { onDelivery(dst, when); }
};

} // anonymous namespace

TimedNetwork::TimedNetwork(OmegaNetwork &network, EventQueue &eq,
                           Bits link_width_bits, Tick hop_latency)
    : net(network), eq(eq), linkWidthBits(link_width_bits),
      widthShift(std::has_single_bit(link_width_bits)
                     ? static_cast<unsigned>(
                           std::countr_zero(link_width_bits))
                     : NoShift),
      hopLatency(hop_latency),
      linkFree(static_cast<std::size_t>(
                   network.topology().numLinkLevels()) *
               network.numPorts(), 0),
      portClock(network.numPorts(), 0)
{
    fatal_if(link_width_bits == 0, "link width must be positive");
}

template <class WalkTree>
Tick
TimedNetwork::sendTree(const DeliveryFn &on_delivery,
                       WalkTree walk_tree)
{
    const Tick now = eq.curTick();
    Tick last = now;
    _lastDeliveries = 0;
    // The visitor reads only locals: it stores through the two link
    // arrays, after which a member read would be reloaded at every
    // link. LinkStats and linkFree share the level * N + line index.
    LinkStats &stats = net.linkStats();
    Bits *const link_bits = stats.linkBits();
    Tick *const link_free = linkFree.data();
    const std::size_t ports = net.numPorts();
    const unsigned m = net.numStages();
    const Bits width = linkWidthBits;
    const unsigned shift = widthShift;
    const Tick hop = hopLatency;
    MetricSet *const mx = metrics;
    std::uint64_t links = 0;

    // A link's value is the tick its message is done with it, which
    // is when the child links' messages are ready to depart.
    walk_tree(now, [&](unsigned level, unsigned line, Bits bits,
                       Tick ready) {
        const std::size_t i = level * ports + line;
        link_bits[i] += bits;
        ++links;
        const Tick depart = std::max(ready, link_free[i]);
        const Tick ser = serialize(bits, width, shift);
        link_free[i] = depart + ser;
        const Tick done = depart + ser + hop;

        if (mx) {
            mx->cell(mid.linkWait, level, line, depart - ready);
            mx->cell(mid.linkBusy, level, line, ser);
        }

        if (level == m)
            scheduleDelivery(on_delivery, line, done, last);
        return done;
    });
    stats.addTraversals(links);
    if (mx)
        mx->sample(mid.fanout, _lastDeliveries);
    return last;
}

void
TimedNetwork::scheduleDelivery(const DeliveryFn &on_delivery,
                               NodeId dst, Tick when, Tick &last)
{
    if (faults) {
        FaultDecision d = faults->decide(dst, when);
        const auto cls =
            static_cast<std::uint8_t>(faults->messageClass());
        if (d.drop) {
            // The dead-node sink: a crash-masked delivery is not a
            // message fault, it is the destination cache being gone.
            // Trace it apart so recovery analysis can tell them.
            if (tracer) {
                tracer->record(d.crashMasked ? TraceEvent::CrashMask
                                             : TraceEvent::FaultDrop,
                               eq.curTick(), dst, 0, cls, 0, when);
            }
            return;
        }
        when += d.extraDelay;
        // Keep per-channel FIFO: never deliver earlier than the
        // last delivery already scheduled for this port (see the
        // portClock comment in the header).
        Tick &clock = portClock[dst];
        if (when < clock)
            when = clock;
        clock = when;
        if (d.duplicate) {
            Tick dup = when + d.dupDelay;
            last = std::max(last, dup);
            ++_lastDeliveries;
            if (tracer) {
                tracer->record(TraceEvent::FaultDup, eq.curTick(),
                               dst, 0, cls, 0, dup);
            }
            if (on_delivery)
                eq.scheduleNew<DeliveryEvent>(dup, on_delivery, dst, dup);
        }
    }
    last = std::max(last, when);
    ++_lastDeliveries;
    if (tracer) {
        tracer->record(TraceEvent::NetDeliver, eq.curTick(), dst, 0,
                       0, 0, when);
    }
    if (on_delivery)
        eq.scheduleNew<DeliveryEvent>(when, on_delivery, dst, when);
}

Tick
TimedNetwork::sendUnicast(NodeId src, NodeId dst, Bits payload_bits,
                          const DeliveryFn &on_delivery)
{
    return sendTree(on_delivery, [&](Tick now, auto &&visit) {
        net.walkUnicast(src, dst, payload_bits, now, visit);
    });
}

Tick
TimedNetwork::sendMulticast(Scheme scheme, NodeId src,
                            const DynamicBitset &dests,
                            Bits payload_bits,
                            const DeliveryFn &on_delivery)
{
    return sendTree(on_delivery, [&](Tick now, auto &&visit) {
        net.walk(scheme, src, dests, payload_bits, now, visit);
    });
}

Tick
TimedNetwork::sendMulticast(Scheme scheme, NodeId src,
                            const std::vector<NodeId> &dests,
                            Bits payload_bits,
                            const DeliveryFn &on_delivery)
{
    return sendTree(on_delivery, [&](Tick now, auto &&visit) {
        net.walk(scheme, src, dests, payload_bits, now, visit);
    });
}

void
TimedNetwork::resetContention()
{
    std::fill(linkFree.begin(), linkFree.end(), 0);
    std::fill(portClock.begin(), portClock.end(), 0);
}

} // namespace mscp::net
