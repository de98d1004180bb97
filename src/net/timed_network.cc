#include "timed_network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::net
{

TimedNetwork::TimedNetwork(OmegaNetwork &network, EventQueue &eq,
                           Bits link_width_bits, Tick hop_latency)
    : net(network), eq(eq), linkWidthBits(link_width_bits),
      hopLatency(hop_latency),
      linkFree(static_cast<std::size_t>(
                   network.topology().numLinkLevels()) *
               network.numPorts(), 0),
      portClock(network.numPorts(), 0),
      destScratch(network.numPorts())
{
    fatal_if(link_width_bits == 0, "link width must be positive");
}

Tick
TimedNetwork::send(const std::vector<Traversal> &trace,
                   const DeliveryFn &on_delivery)
{
    LinkStats &stats = net.linkStats();

    // Arrival time at the head of each traversal's link. Parents
    // always precede children in the traces the schemes build, so a
    // single forward pass resolves the whole tree. The bits are
    // accumulated into the functional statistics in the same pass.
    doneScratch.assign(trace.size(), 0);
    Tick now = eq.curTick();
    Tick last = now;
    unsigned m = net.numStages();
    _lastDeliveries = 0;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Traversal &t = trace[i];
        panic_if(t.parent >= static_cast<std::int32_t>(i),
                 "trace is not topologically ordered");
        stats.add(t.level, t.line, t.bits);
        Tick ready = t.parent < 0
            ? now : doneScratch[static_cast<std::size_t>(t.parent)];
        Tick &free = linkFree[linkIndex(t.level, t.line)];
        Tick depart = std::max(ready, free);
        Tick ser = serialization(t.bits);
        free = depart + ser;
        doneScratch[i] = depart + ser + hopLatency;

        if (metrics) {
            metrics->cell(mid.linkWait, t.level, t.line,
                          depart - ready);
            metrics->cell(mid.linkBusy, t.level, t.line, ser);
        }

        if (t.level == m)
            scheduleDelivery(on_delivery, t.line, doneScratch[i],
                             last);
    }
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
                eq.schedule([on_delivery, dst, dup] {
                    on_delivery(dst, dup);
                }, dup);
        }
    }
    last = std::max(last, when);
    ++_lastDeliveries;
    if (tracer) {
        tracer->record(TraceEvent::NetDeliver, eq.curTick(), dst, 0,
                       0, 0, when);
    }
    if (on_delivery)
        eq.schedule([on_delivery, dst, when] {
            on_delivery(dst, when);
        }, when);
}

Tick
TimedNetwork::sendUnicast(NodeId src, NodeId dst, Bits payload_bits,
                          const DeliveryFn &on_delivery)
{
    traceScratch.clear();
    net.traceUnicastInto(traceScratch, src, dst, payload_bits);
    return send(traceScratch, on_delivery);
}

Tick
TimedNetwork::sendMulticast(Scheme scheme, NodeId src,
                            const std::vector<NodeId> &dests,
                            Bits payload_bits,
                            const DeliveryFn &on_delivery)
{
    traceScratch.clear();
    switch (scheme) {
      case Scheme::Unicasts:
        net.traceScheme1Into(traceScratch, src, dests, payload_bits);
        break;
      case Scheme::VectorRouting:
        destScratch.clear();
        for (NodeId d : dests)
            destScratch.set(d);
        net.traceScheme2Into(traceScratch, src, destScratch,
                             payload_bits);
        break;
      case Scheme::BroadcastTag:
        if (!dests.empty()) {
            net.traceScheme3Into(traceScratch, src,
                                 Subcube::enclosing(dests),
                                 payload_bits);
        }
        break;
      case Scheme::Combined:
        if (dests.empty())
            break;
        return sendMulticast(
            net.schemeCosts(src, dests, payload_bits).cheapest(), src,
            dests, payload_bits, on_delivery);
    }
    return send(traceScratch, on_delivery);
}

void
TimedNetwork::resetContention()
{
    std::fill(linkFree.begin(), linkFree.end(), 0);
    std::fill(portClock.begin(), portClock.end(), 0);
}

} // namespace mscp::net
