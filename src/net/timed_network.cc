#include "timed_network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::net
{

namespace
{

/** One delivery's event: its capture must stay in InlineFunction's
 *  buffer, or every delivery would allocate. */
auto
deliveryEvent(const DeliveryFn &on_delivery, NodeId dst, Tick when)
{
    auto ev = [on_delivery, dst, when] { on_delivery(dst, when); };
    static_assert(InlineFunction::fitsInline<decltype(ev)>,
                  "the delivery event outgrew InlineFunction's buffer");
    return ev;
}

} // anonymous namespace

TimedNetwork::TimedNetwork(OmegaNetwork &network, EventQueue &eq,
                           Bits link_width_bits, Tick hop_latency)
    : net(network), eq(eq), linkWidthBits(link_width_bits),
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
    LinkStats &stats = net.linkStats();
    const Tick now = eq.curTick();
    const unsigned m = net.numStages();
    Tick last = now;
    _lastDeliveries = 0;

    // A link's value is the tick its message is done with it, which
    // is when the child links' messages are ready to depart.
    walk_tree(now, [&](unsigned level, unsigned line, Bits bits,
                       Tick ready) {
        stats.add(level, line, bits);
        Tick &free = linkFree[linkIndex(level, line)];
        const Tick depart = std::max(ready, free);
        const Tick ser = serialization(bits);
        free = depart + ser;
        const Tick done = depart + ser + hopLatency;

        if (metrics) {
            metrics->cell(mid.linkWait, level, line, depart - ready);
            metrics->cell(mid.linkBusy, level, line, ser);
        }

        if (level == m)
            scheduleDelivery(on_delivery, line, done, last);
        return done;
    });
    if (metrics)
        metrics->sample(mid.fanout, _lastDeliveries);
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
                eq.schedule(deliveryEvent(on_delivery, dst, dup), dup);
        }
    }
    last = std::max(last, when);
    ++_lastDeliveries;
    if (tracer) {
        tracer->record(TraceEvent::NetDeliver, eq.curTick(), dst, 0,
                       0, 0, when);
    }
    if (on_delivery)
        eq.schedule(deliveryEvent(on_delivery, dst, when), when);
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
