/**
 * @file
 * A randomized oracle for the omega network's bitset paths, shared
 * by the 2x2 (test_cost_match.cc) and a x a (test_radix.cc) tests:
 * destination sets that stress the closed-form eq. 8 pricing, and
 * the check of schemeCosts() and multicastCommit() on a set against
 * the traced trees and the list adapters.
 */

#ifndef MSCP_TESTS_NET_BITSET_ORACLE_HH
#define MSCP_TESTS_NET_BITSET_ORACLE_HH

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "net/omega_network.hh"
#include "sim/bitset.hh"
#include "sim/random.hh"

namespace mscp::net::oracle
{

/**
 * Ascending destination sets for a multicast from @p src on @p net:
 * seeded random sets at several densities; random subsets of one
 * aligned range per level, whose members share long prefixes;
 * {src}; {0}; {N-1}; and every port.
 */
template <class Net>
std::vector<std::vector<NodeId>>
destSets(const Net &net, NodeId src, Random &rng)
{
    const unsigned n = net.numPorts();
    std::vector<std::vector<NodeId>> sets;
    for (double density : {0.03, 0.15, 0.5, 0.9}) {
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<NodeId> d;
            for (NodeId p = 0; p < n; ++p)
                if (rng.bernoulli(density))
                    d.push_back(p);
            if (d.empty())
                d.push_back(static_cast<NodeId>(rng.uniform(0, n - 1)));
            sets.push_back(d);
        }
    }
    for (unsigned level = 1; level <= net.numStages(); ++level) {
        const unsigned span = net.topology().span(level);
        const auto base = static_cast<unsigned>(
            rng.uniform(0, n / span - 1) * span);
        std::vector<NodeId> d;
        for (NodeId p = base; p < base + span; ++p)
            if (rng.bernoulli(0.5))
                d.push_back(p);
        if (d.empty())
            d.push_back(base + span - 1);
        sets.push_back(d);
    }
    sets.push_back({src});
    sets.push_back({0});
    sets.push_back({n - 1});
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), 0u);
    sets.push_back(all);
    return sets;
}

/** @p dests as a destination set of @p n bits. */
inline DynamicBitset
bitsOf(unsigned n, const std::vector<NodeId> &dests)
{
    DynamicBitset set(n);
    for (NodeId d : dests)
        set.set(d);
    return set;
}

/**
 * One transfer through the bitset paths against its references:
 * schemeCosts() on the set equals the traced totals of
 * evaluateAllSchemes(), and under schemes 1, 2, 3 and Combined
 * multicastCommit() on the set leaves the same bits on the same
 * links as the traced multicast() of the list. @p make builds a
 * fresh network.
 */
template <class Make>
void
checkBitsetPaths(Make make, NodeId src, const std::vector<NodeId> &dests,
                 Bits payload)
{
    const auto ref = make();
    const DynamicBitset set = bitsOf(ref.numPorts(), dests);
    const auto traced = ref.evaluateAllSchemes(src, dests, payload);
    const SchemeCosts c = ref.schemeCosts(src, set, payload);
    EXPECT_EQ(c.scheme1, traced[0].totalBits);
    EXPECT_EQ(c.scheme2, traced[1].totalBits);
    EXPECT_EQ(c.scheme3, traced[2].totalBits);
    for (Scheme s : {Scheme::Unicasts, Scheme::VectorRouting,
                     Scheme::BroadcastTag, Scheme::Combined}) {
        auto via_list = make();
        auto via_set = make();
        via_list.multicast(s, src, dests, payload);
        const Bits bits = via_set.multicastCommit(s, src, set, payload);
        EXPECT_EQ(via_set.linkStats(), via_list.linkStats())
            << schemeName(s);
        EXPECT_EQ(bits, via_list.linkStats().totalBits())
            << schemeName(s);
    }
}

} // namespace mscp::net::oracle

#endif // MSCP_TESTS_NET_BITSET_ORACLE_HH
