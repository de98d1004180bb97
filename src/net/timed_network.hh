/**
 * @file
 * Store-and-forward timing layer on top of the functional network.
 *
 * The paper's evaluation uses the contention-free link-bit metric;
 * this layer is the extension that lets the simulator also report
 * latency and queuing effects. Each link is modelled as a serial
 * resource of @c linkWidthBits bits per tick: a message tree node
 * departs a link at max(arrival, linkFree), occupies it for
 * ceil(bits / width) ticks, and reaches the next stage after an
 * additional @c hopLatency ticks of switch delay.
 */

#ifndef MSCP_NET_TIMED_NETWORK_HH
#define MSCP_NET_TIMED_NETWORK_HH

#include <vector>

#include "net/omega_network.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"
#include "sim/inline_function.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace mscp::net
{

/**
 * Per-delivery callback: (destination, arrival tick). An inline,
 * trivially copyable callable: each delivery's event is built in
 * its event-queue slot from a copy of it plus the destination and
 * the tick, so the delivery path performs no heap allocation -
 * enforced at compile time, since InlineCallback and the queue's
 * InlineFunction reject captures that do not fit.
 */
using DeliveryFn = InlineCallback<NodeId, Tick>;

/**
 * Handles of the timed network's metric series, registered by the
 * owning engine (shape: grids are numLinkLevels() x numPorts()).
 */
struct NetMetricIds
{
    MetricId linkWait;  ///< grid: ticks queued behind a busy link
    MetricId linkBusy;  ///< grid: ticks spent serializing bits
    MetricId fanout;    ///< histogram: deliveries per send
};

/** Timing wrapper around OmegaNetwork. */
class TimedNetwork
{
  public:
    /**
     * @param network functional network (owned elsewhere)
     * @param eq event queue driving the simulation
     * @param link_width_bits bits a link moves per tick
     * @param hop_latency switch traversal delay in ticks
     */
    TimedNetwork(OmegaNetwork &network, EventQueue &eq,
                 Bits link_width_bits = 16, Tick hop_latency = 1);

    OmegaNetwork &network() { return net; }

    /** Zero-load latency of one delivery. */
    Tick
    zeroLoadLatency(Bits payload_bits) const
    {
        Tick per_hop = serialization(payload_bits) + hopLatency;
        return per_hop * net.hopCount();
    }

    /**
     * Guaranteed lookahead for conservative PDES partitioning
     * (sim/pdes.hh): the zero-load latency of a minimum-size
     * message, i.e. the earliest any message injected at tick t can
     * reach another port. Every link serializes at least one tick
     * and every hop adds the switch delay, so a delivery crosses
     * hopCount() * (1 + hopLatency) ticks even when every link is
     * idle. The static form serves models that share the formula
     * before a network instance exists.
     */
    static Tick
    zeroLoadLookahead(unsigned hop_count, Tick hop_latency)
    {
        return static_cast<Tick>(hop_count) * (1 + hop_latency);
    }

    /**
     * @{ Send a message tree: OmegaNetwork's walk of the unicast
     * path or of @p scheme's multicast tree (Combined makes the eq. 8
     * choice) reserves each link as it visits it and schedules one
     * callback per delivery at its contention-aware arrival tick.
     * Every link's bits are also committed to the functional link
     * statistics. A multicast's @p dests is a set of N bits, or a
     * list (OmegaNetwork::walk()'s adapter).
     *
     * @return tick of the last delivery
     */
    Tick sendUnicast(NodeId src, NodeId dst, Bits payload_bits,
                     const DeliveryFn &on_delivery);
    Tick sendMulticast(Scheme scheme, NodeId src,
                       const DynamicBitset &dests, Bits payload_bits,
                       const DeliveryFn &on_delivery);
    Tick sendMulticast(Scheme scheme, NodeId src,
                       const std::vector<NodeId> &dests,
                       Bits payload_bits,
                       const DeliveryFn &on_delivery);
    /** @} */

    /** Ticks needed to serialize @p bits onto a link. */
    Tick
    serialization(Bits bits) const
    {
        return serialize(bits, linkWidthBits, widthShift);
    }

    /** Reset link-busy bookkeeping (not the bit statistics). */
    void resetContention();

    /**
     * Interpose a fault injector on the delivery path. Every
     * scheduled delivery consults it once; callers of the send
     * methods need no changes. Detached (or attached with a
     * disabled plan) the delivery path is byte-identical to a
     * build without injection. Pass nullptr to detach.
     *
     * The injector is also the dead-node delivery sink: under a
     * CrashPlan, deliveries whose destination cache is dead at
     * their arrival tick are sunk here (traced as CrashMask, not
     * FaultDrop) — a crash-stop node neither receives nor ACKs.
     * Messages tagged to_memory bypass the sink, since the
     * co-located memory module survives its cache's crash.
     */
    void
    setFaultInjector(FaultInjector *fi)
    {
        faults = (fi && fi->enabled()) ? fi : nullptr;
    }

    /**
     * Number of deliveries scheduled by the most recent send (a
     * scheme-3 multicast can deliver to more ports than requested).
     * Callers use this to refcount per-message state shared by the
     * delivery callbacks; deliveries always fire strictly after
     * the send returns, so reading it right after the call is safe.
     */
    std::uint64_t lastDeliveries() const { return _lastDeliveries; }

    /**
     * Attach a tracer recording a NetDeliver record per scheduled
     * delivery and FaultDrop/FaultDup records for injector
     * decisions. Attach only while tracing is enabled (the owner's
     * job) so the untraced delivery path pays one null-pointer
     * branch. Pass nullptr to detach.
     */
    void setTracer(Tracer *t) { tracer = t; }

    /**
     * Attach a metric set accumulating the stage x port contention
     * heatmap (per-link wait and busy ticks) and the per-send
     * delivery fan-out histogram. Attach only while metrics are
     * enabled, as with setTracer(); pass nullptr to detach.
     */
    void
    setMetrics(MetricSet *m, const NetMetricIds &ids)
    {
        metrics = m;
        mid = ids;
    }

  private:
    /** widthShift of a link width that is not a power of two. */
    static constexpr unsigned NoShift = ~0u;

    /** ceil(@p bits / @p width): a shift by @p shift, or a divide
     *  when @p shift is NoShift. */
    static Tick
    serialize(Bits bits, Bits width, unsigned shift)
    {
        const Bits rounded = bits + width - 1;
        return shift != NoShift ? rounded >> shift : rounded / width;
    }

    /**
     * Time the tree @p walk_tree walks: it is called with the send
     * tick and the link visitor, and hands the visitor to one of
     * OmegaNetwork's walks.
     */
    template <class WalkTree>
    Tick sendTree(const DeliveryFn &on_delivery, WalkTree walk_tree);

    /** Schedule one delivery callback, or drop/duplicate it. */
    void scheduleDelivery(const DeliveryFn &on_delivery, NodeId dst,
                          Tick when, Tick &last);

    OmegaNetwork &net;
    EventQueue &eq;
    FaultInjector *faults = nullptr;
    Tracer *tracer = nullptr;
    MetricSet *metrics = nullptr;
    NetMetricIds mid;
    Bits linkWidthBits;
    /** log2(linkWidthBits) for a power of two, else NoShift. */
    unsigned widthShift;
    Tick hopLatency;
    /** Tick at which each link becomes free again. */
    std::vector<Tick> linkFree;
    /**
     * Per-destination monotone delivery clock, used only while a
     * fault injector is attached. An omega network has a unique
     * path per (src, dst) pair and each link is a serial resource,
     * so without injection two sends on the same channel always
     * arrive in send order -- an ordering the protocols above rely
     * on. Injected extra delay could violate it, so each delivery
     * is clamped to be no earlier than the last one scheduled for
     * the same destination port: the port itself acts as one more
     * FIFO resource. Duplicates deliberately do not advance the
     * clock; an overtaken duplicate is absorbed as stale.
     */
    std::vector<Tick> portClock;
    std::uint64_t _lastDeliveries = 0;
};

} // namespace mscp::net

#endif // MSCP_NET_TIMED_NETWORK_HH
