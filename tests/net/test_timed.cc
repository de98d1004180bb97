/** @file Tests for the store-and-forward timing layer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <map>
#include <vector>

#include "net/timed_network.hh"
#include "sim/random.hh"

using namespace mscp;
using namespace mscp::net;

TEST(TimedNetwork, ZeroLoadLatency)
{
    OmegaNetwork net(8);
    EventQueue eq;
    TimedNetwork tn(net, eq, 16, 1);
    // 8 ports -> 3 stages -> 4 hops; payload 32 bits = 2 ticks of
    // serialization per hop + 1 tick of switch delay.
    EXPECT_EQ(tn.zeroLoadLatency(32), 4u * (2u + 1u));
}

TEST(TimedNetwork, UnicastArrivesAtZeroLoadLatency)
{
    OmegaNetwork net(8);
    EventQueue eq;
    TimedNetwork tn(net, eq, 16, 1);
    Tick arrival = 0;
    NodeId who = invalidNode;
    Tick predicted = tn.sendUnicast(0, 5, 32,
                                    [&](NodeId d, Tick t) {
                                        who = d;
                                        arrival = t;
                                    });
    eq.run();
    EXPECT_EQ(who, 5u);
    EXPECT_EQ(arrival, predicted);
    // At most the zero-load latency of the largest per-hop message
    // (payload + full routing tag), at least that of the payload.
    EXPECT_GE(arrival, tn.zeroLoadLatency(32));
    EXPECT_LE(arrival,
              tn.zeroLoadLatency(32 + tn.network().numStages()));
}

TEST(TimedNetwork, ContentionSerializesSharedLinks)
{
    OmegaNetwork net(8);
    EventQueue eq;
    TimedNetwork tn(net, eq, 8, 0);
    // Two messages from the same source share the injection link;
    // the second must finish later than the first.
    Tick t1 = 0, t2 = 0;
    tn.sendUnicast(0, 1, 64, [&](NodeId, Tick t) { t1 = t; });
    tn.sendUnicast(0, 2, 64, [&](NodeId, Tick t) { t2 = t; });
    eq.run();
    EXPECT_GT(t2, t1);
}

TEST(TimedNetwork, DisjointPathsDoNotInterfere)
{
    OmegaNetwork net(8);
    EventQueue eq;
    TimedNetwork tn(net, eq, 8, 0);
    Tick t1 = 0, t2 = 0;
    tn.sendUnicast(0, 0, 64, [&](NodeId, Tick t) { t1 = t; });
    tn.resetContention();
    tn.sendUnicast(0, 0, 64, [&](NodeId, Tick t) { t2 = t; });
    eq.run();
    // After resetContention the second transfer sees idle links.
    EXPECT_EQ(t1, t2);
}

TEST(TimedNetwork, MulticastDeliversToAll)
{
    OmegaNetwork net(16);
    EventQueue eq;
    TimedNetwork tn(net, eq, 16, 1);
    std::map<NodeId, Tick> got;
    std::vector<NodeId> dests{1, 6, 9, 14};
    Tick last = tn.sendMulticast(Scheme::VectorRouting, 3, dests, 20,
                                 [&](NodeId d, Tick t) {
                                     got[d] = t;
                                 });
    eq.run();
    EXPECT_EQ(got.size(), dests.size());
    Tick max_seen = 0;
    for (auto &[d, t] : got)
        max_seen = std::max(max_seen, t);
    EXPECT_EQ(last, max_seen);
}

TEST(TimedNetwork, CommitsTrafficToLinkStats)
{
    OmegaNetwork net(8);
    EventQueue eq;
    TimedNetwork tn(net, eq, 16, 1);
    tn.sendUnicast(2, 6, 20, nullptr);
    eq.run();
    EXPECT_GT(net.linkStats().totalBits(), 0u);
}

TEST(TimedNetwork, CombinedSchemeWorksTimed)
{
    OmegaNetwork net(32);
    EventQueue eq;
    TimedNetwork tn(net, eq, 16, 1);
    int deliveries = 0;
    std::vector<NodeId> dests{0, 1, 2, 3, 4, 5, 6, 7};
    tn.sendMulticast(Scheme::Combined, 9, dests, 20,
                     [&](NodeId, Tick) { ++deliveries; });
    eq.run();
    EXPECT_GE(deliveries, 8);
}

TEST(TimedNetwork, SameRouteMessagesArriveInSendOrder)
{
    // Per-route FIFO: deterministic routing + store-and-forward
    // link serialization preserves send order for any two messages
    // with the same source and destination, regardless of their
    // sizes. The concurrent protocol engine depends on this for
    // update-after-reply visibility.
    OmegaNetwork net(16);
    EventQueue eq;
    TimedNetwork tn(net, eq, 4, 1);
    Random rng(2024);
    for (int trial = 0; trial < 40; ++trial) {
        auto src = static_cast<NodeId>(rng.uniform(0, 15));
        auto dst = static_cast<NodeId>(rng.uniform(0, 15));
        std::vector<int> arrivals;
        for (int i = 0; i < 6; ++i) {
            Bits size = rng.uniform(1, 200);
            tn.sendUnicast(src, dst, size,
                           [&arrivals, i](NodeId, Tick) {
                               arrivals.push_back(i);
                           });
        }
        eq.run();
        ASSERT_EQ(arrivals.size(), 6u);
        for (int i = 0; i < 6; ++i)
            EXPECT_EQ(arrivals[static_cast<std::size_t>(i)], i)
                << "trial " << trial;
        tn.resetContention();
    }
}

TEST(TimedNetwork, MulticastDeliveryToOneDestAfterUnicast)
{
    // FIFO must also hold between a unicast and a later multicast
    // covering the same destination (deterministic tree routing
    // shares the unicast's links).
    OmegaNetwork net(16);
    EventQueue eq;
    TimedNetwork tn(net, eq, 4, 1);
    std::vector<int> order;
    tn.sendUnicast(3, 9, 150, [&](NodeId, Tick) {
        order.push_back(0);
    });
    tn.sendMulticast(Scheme::VectorRouting, 3, {1, 9, 14}, 10,
                     [&](NodeId d, Tick) {
                         if (d == 9)
                             order.push_back(1);
                     });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
}

TEST(TimedNetwork, ZeroWidthRejected)
{
    OmegaNetwork net(8);
    EventQueue eq;
    EXPECT_THROW(TimedNetwork(net, eq, 0, 1), FatalError);
}

namespace
{

/** One delivery: which send, where and when. */
struct Arrival
{
    std::size_t send;
    NodeId dst;
    Tick tick;

    auto operator<=>(const Arrival &) const = default;
};

/** One randomized send of the oracle test. */
struct Send
{
    Tick tick;
    bool unicast;
    Scheme scheme;
    NodeId src;
    /** Ascending; one entry for a unicast. */
    std::vector<NodeId> dests;
    Bits payload;
};

/**
 * Store-and-forward reservations computed independently of
 * TimedNetwork, from the traced traversal lists of the trace
 * builders: each link, in trace order, departs at max(parent done,
 * link free), holds the link ceil(bits / width) ticks by a plain
 * divide, and is done a hop latency later.
 */
class ReservationModel
{
  public:
    ReservationModel(const OmegaNetwork &net, Bits width, Tick hop)
        : stats(net.numStages() + 1, net.numPorts()),
          ports(net.numPorts()), m(net.numStages()), width(width),
          hop(hop),
          linkFree(static_cast<std::size_t>(m + 1) * ports, 0)
    {}

    /** Time @p trace sent at @p now; @return its last delivery. */
    Tick
    time(std::size_t send, Tick now,
         const std::vector<Traversal> &trace,
         std::vector<Arrival> &arrivals)
    {
        std::vector<Tick> done(trace.size());
        Tick last = now;
        for (std::size_t k = 0; k < trace.size(); ++k) {
            const Traversal &t = trace[k];
            const Tick ready = t.parent < 0
                ? now
                : done[static_cast<std::size_t>(t.parent)];
            Tick &free =
                linkFree[static_cast<std::size_t>(t.level) * ports +
                         t.line];
            const Tick depart = std::max(ready, free);
            const Tick ser = (t.bits + width - 1) / width;
            free = depart + ser;
            done[k] = depart + ser + hop;
            stats.add(t.level, t.line, t.bits);
            if (t.level == m) {
                arrivals.push_back({send, t.line, done[k]});
                last = std::max(last, done[k]);
            }
        }
        return last;
    }

    LinkStats stats;

  private:
    unsigned ports;
    unsigned m;
    Bits width;
    Tick hop;
    std::vector<Tick> linkFree;
};

/** The traversals @p s routes, from the trace builders only. */
std::vector<Traversal>
traceOf(const OmegaNetwork &net, const Send &s)
{
    if (s.unicast)
        return net.traceUnicast(s.src, s.dests.front(), s.payload);
    Scheme scheme = s.scheme;
    if (scheme == Scheme::Combined) {
        const auto traced =
            net.evaluateAllSchemes(s.src, s.dests, s.payload);
        scheme = SchemeCosts{traced[0].totalBits, traced[1].totalBits,
                             traced[2].totalBits}
                     .cheapest();
    }
    switch (scheme) {
      case Scheme::Unicasts:
        return net.traceScheme1(s.src, s.dests, s.payload);
      case Scheme::VectorRouting: {
        DynamicBitset set(net.numPorts());
        for (NodeId d : s.dests)
            set.set(d);
        return net.traceScheme2(s.src, set, s.payload);
      }
      case Scheme::BroadcastTag:
        return net.traceScheme3(s.src, net.topology().enclosing(s.dests),
                                s.payload);
      case Scheme::Combined:
        break;
    }
    ADD_FAILURE() << "unresolved scheme";
    return {};
}

/** Seeded sends at nondecreasing ticks, many sharing a tick. */
std::vector<Send>
randomSends(unsigned ports, Random &rng, std::size_t count)
{
    constexpr Scheme schemes[] = {Scheme::Unicasts, Scheme::VectorRouting,
                                  Scheme::BroadcastTag, Scheme::Combined};
    std::vector<Send> sends;
    Tick tick = 0;
    for (std::size_t k = 0; k < count; ++k) {
        tick += rng.uniform(0, 6);
        Send s{tick, rng.bernoulli(0.5), schemes[rng.uniform(0, 3)],
               static_cast<NodeId>(rng.uniform(0, ports - 1)), {},
               rng.uniform(1, 300)};
        if (s.unicast) {
            s.dests.push_back(
                static_cast<NodeId>(rng.uniform(0, ports - 1)));
        } else {
            const double density = rng.bernoulli(0.5) ? 0.05 : 0.4;
            for (NodeId p = 0; p < ports; ++p)
                if (rng.bernoulli(density))
                    s.dests.push_back(p);
            if (s.dests.empty())
                s.dests.push_back(
                    static_cast<NodeId>(rng.uniform(0, ports - 1)));
        }
        sends.push_back(std::move(s));
    }
    return sends;
}

} // anonymous namespace

TEST(TimedNetwork, WalkMatchesIndependentReservationModel)
{
    // Every delivery's (destination, tick), each send's return value
    // and delivery count, and the final link statistics of a seeded
    // mix of unicasts and scheme 1/2/3/Combined multicasts, against
    // ReservationModel over the traced trees. Width 12 is not a
    // power of two, so it serializes by divide; 4 and 16 by shift.
    for (unsigned ports : {8u, 16u, 32u, 64u, 128u, 256u}) {
        for (Bits width : {Bits{4}, Bits{12}, Bits{16}}) {
            for (Tick hop : {Tick{1}, Tick{3}}) {
                SCOPED_TRACE(testing::Message()
                             << "N=" << ports << " width=" << width
                             << " hop=" << hop);
                Random rng(ports * 1000 + width * 10 + hop);
                const std::vector<Send> sends =
                    randomSends(ports, rng, 150);

                OmegaNetwork net(ports);
                EventQueue eq;
                TimedNetwork tn(net, eq, width, hop);
                std::vector<Arrival> got;
                std::vector<Tick> gotLast(sends.size());
                std::vector<std::uint64_t> gotCount(sends.size());
                for (std::size_t k = 0; k < sends.size(); ++k) {
                    eq.schedule([&, k] {
                        const Send &s = sends[k];
                        std::vector<Arrival> *log = &got;
                        const DeliveryFn cb = [log, k](NodeId d, Tick t) {
                            log->push_back({k, d, t});
                        };
                        DynamicBitset set(ports);
                        for (NodeId d : s.dests)
                            set.set(d);
                        gotLast[k] = s.unicast
                            ? tn.sendUnicast(s.src, s.dests.front(),
                                             s.payload, cb)
                            : tn.sendMulticast(s.scheme, s.src, set,
                                               s.payload, cb);
                        gotCount[k] = tn.lastDeliveries();
                    }, sends[k].tick);
                }
                eq.run();

                const OmegaNetwork tracer(ports);
                ReservationModel model(tracer, width, hop);
                std::vector<Arrival> want;
                for (std::size_t k = 0; k < sends.size(); ++k) {
                    const std::size_t before = want.size();
                    const Tick last =
                        model.time(k, sends[k].tick,
                                   traceOf(tracer, sends[k]), want);
                    EXPECT_EQ(gotLast[k], last) << "send " << k;
                    EXPECT_EQ(gotCount[k], want.size() - before)
                        << "send " << k;
                }
                std::sort(got.begin(), got.end());
                std::sort(want.begin(), want.end());
                EXPECT_EQ(got, want);
                EXPECT_EQ(net.linkStats(), model.stats);
            }
        }
    }
}
