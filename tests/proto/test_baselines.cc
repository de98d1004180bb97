/** @file Tests for the baseline protocols (Sec. 4 comparisons). */

#include <gtest/gtest.h>

#include "analytic/multicast_cost.hh"
#include "net/omega_network.hh"
#include "proto/dragon.hh"
#include "proto/full_map.hh"
#include "proto/no_cache.hh"
#include "proto/write_once.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

using namespace mscp;
using namespace mscp::proto;

namespace
{

MessageSizes
paperSizes()
{
    // Control header of 0 bits and 20-bit words make the message
    // cost exactly the paper's M = 20 for unicasts.
    MessageSizes s;
    s.addrBits = 0;
    s.typeBits = 0;
    s.wordBits = 20;
    return s;
}

} // anonymous namespace

TEST(NoCache, ReadCostsTwiceAWrite)
{
    // Eq. 9's premise, with remote home and M-bit messages.
    net::OmegaNetwork net(64);
    NoCacheProtocol p(net, paperSizes(), 8);

    Addr addr = 5 * 8; // block 5, home 5
    Bits before = net.linkStats().totalBits();
    p.write(0, addr, 1);
    Bits write_cost = net.linkStats().totalBits() - before;

    before = net.linkStats().totalBits();
    p.read(0, addr);
    Bits read_cost = net.linkStats().totalBits() - before;

    // write: one M-bit message; read: zero-payload request + M-bit
    // reply. With the paper's metric the request also carries its
    // routing tag, so read ~ 2x write within the tag overhead.
    EXPECT_EQ(write_cost,
              analytic::cc1Series(1, 64, 20));
    EXPECT_EQ(read_cost,
              analytic::cc1Series(1, 64, 0) +
              analytic::cc1Series(1, 64, 20));
}

TEST(NoCache, ValuesAlwaysCorrect)
{
    net::OmegaNetwork net(8);
    NoCacheProtocol p(net, MessageSizes{}, 8);
    workload::UniformRandomParams wp;
    wp.numCpus = 8;
    wp.addrRange = 128;
    wp.numRefs = 3000;
    workload::UniformRandomWorkload w(wp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_EQ(res.refs, 3000u);
}

TEST(WriteOnce, FirstWriteGoesThroughSecondStaysLocal)
{
    net::OmegaNetwork net(8);
    WriteOnceProtocol p(net, MessageSizes{}, 4);
    Addr addr = 9 * 4; // home 1
    p.read(3, addr);
    auto wt_before = p.counters().writeThroughs;
    p.write(3, addr, 5); // Valid -> Reserved: write-through
    EXPECT_EQ(p.counters().writeThroughs, wt_before + 1);
    Bits bits_before = net.linkStats().totalBits();
    p.write(3, addr, 6); // Reserved -> Dirty: local
    EXPECT_EQ(net.linkStats().totalBits(), bits_before);
}

TEST(WriteOnce, WriteInvalidatesOtherCopies)
{
    net::OmegaNetwork net(8);
    WriteOnceProtocol p(net, MessageSizes{}, 4);
    Addr addr = 9 * 4;
    p.read(3, addr);
    p.read(5, addr);
    p.read(7, addr);
    p.write(3, addr, 5);
    EXPECT_EQ(p.counters().invalidations, 1u);
    // The other copies re-miss and see the new value.
    auto misses = p.counters().readMisses;
    EXPECT_EQ(p.read(5, addr), 5u);
    EXPECT_EQ(p.counters().readMisses, misses + 1);
}

TEST(WriteOnce, DirtyCopyRecalledOnRemoteRead)
{
    net::OmegaNetwork net(8);
    WriteOnceProtocol p(net, MessageSizes{}, 4);
    Addr addr = 9 * 4;
    p.write(3, addr, 5);
    p.write(3, addr, 6); // Dirty now
    EXPECT_EQ(p.read(5, addr), 6u);
    EXPECT_GE(p.counters().recalls, 1u);
    EXPECT_GE(p.counters().writeBacks, 1u);
    EXPECT_EQ(p.valueErrors(), 0u);
}

TEST(WriteOnce, RandomStreamStaysCoherent)
{
    net::OmegaNetwork net(16);
    WriteOnceProtocol p(net, MessageSizes{}, 8);
    workload::UniformRandomParams wp;
    wp.numCpus = 16;
    wp.addrRange = 256;
    wp.writeFraction = 0.4;
    wp.numRefs = 5000;
    workload::UniformRandomWorkload w(wp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
}

TEST(FullMap, WriteInvalidatesAndGrantsExclusive)
{
    net::OmegaNetwork net(8);
    FullMapProtocol p(net, MessageSizes{}, 4);
    Addr addr = 9 * 4;
    p.read(3, addr);
    p.read(5, addr);
    p.write(3, addr, 5);
    EXPECT_EQ(p.counters().invalidations, 1u);
    const auto *d = p.dirEntry(9);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->dirtyOwner, 3u);
    EXPECT_EQ(d->sharers.count(), 1u);
    // A local re-write is free.
    Bits before = net.linkStats().totalBits();
    p.write(3, addr, 6);
    EXPECT_EQ(net.linkStats().totalBits(), before);
}

TEST(FullMap, DirtyRecallSuppliesFreshData)
{
    net::OmegaNetwork net(8);
    FullMapProtocol p(net, MessageSizes{}, 4);
    Addr addr = 9 * 4;
    p.write(3, addr, 42);
    EXPECT_EQ(p.read(6, addr), 42u);
    EXPECT_GE(p.counters().recalls, 1u);
    EXPECT_EQ(p.valueErrors(), 0u);
}

TEST(FullMap, RandomStreamStaysCoherent)
{
    net::OmegaNetwork net(16);
    FullMapProtocol p(net, MessageSizes{}, 8);
    workload::UniformRandomParams wp;
    wp.numCpus = 16;
    wp.addrRange = 256;
    wp.writeFraction = 0.5;
    wp.numRefs = 5000;
    wp.seed = 31;
    workload::UniformRandomWorkload w(wp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
}

TEST(Dragon, WritesUpdateInsteadOfInvalidate)
{
    net::OmegaNetwork net(8);
    DragonUpdateProtocol p(net, MessageSizes{}, 4);
    Addr addr = 9 * 4;
    p.read(3, addr);
    p.read(5, addr);
    p.write(3, addr, 5);
    EXPECT_EQ(p.counters().updates, 1u);
    EXPECT_EQ(p.counters().invalidations, 0u);
    // Sharer set unchanged; reader hits locally with the new value.
    EXPECT_EQ(p.dirEntry(9)->sharers.count(), 2u);
    auto hits = p.counters().readHits;
    EXPECT_EQ(p.read(5, addr), 5u);
    EXPECT_EQ(p.counters().readHits, hits + 1);
}

TEST(Dragon, RandomStreamStaysCoherent)
{
    net::OmegaNetwork net(16);
    DragonUpdateProtocol p(net, MessageSizes{}, 8);
    workload::UniformRandomParams wp;
    wp.numCpus = 16;
    wp.addrRange = 256;
    wp.writeFraction = 0.6;
    wp.numRefs = 5000;
    wp.seed = 53;
    workload::UniformRandomWorkload w(wp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
}

TEST(Baselines, SharedBlockTrafficOrdering)
{
    // The paper's Fig. 8 point, at the write-once peak (w ~ 0.5,
    // many sharers): the invalidation protocol ping-pongs whole
    // blocks and exceeds the no-cache cost, and the update protocol
    // multicasts every write and exceeds both.
    auto traffic = [](CoherenceProtocol &p,
                      workload::ReferenceStream &w) {
        auto res = p.run(w);
        EXPECT_EQ(res.valueErrors, 0u);
        return res.networkBits;
    };

    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(8);
    wp.writeFraction = 0.5;
    wp.numBlocks = 1;
    wp.blockWords = 4;
    wp.baseAddr = 15 * 4; // home outside the task cluster
    wp.numRefs = 4000;

    Bits dragon_bits, fullmap_bits, nocache_bits;
    {
        net::OmegaNetwork net(16);
        DragonUpdateProtocol p(net, MessageSizes{}, 4);
        workload::SharedBlockWorkload w(wp);
        dragon_bits = traffic(p, w);
    }
    {
        net::OmegaNetwork net(16);
        FullMapProtocol p(net, MessageSizes{}, 4);
        workload::SharedBlockWorkload w(wp);
        fullmap_bits = traffic(p, w);
    }
    {
        net::OmegaNetwork net(16);
        NoCacheProtocol p(net, MessageSizes{}, 4);
        workload::SharedBlockWorkload w(wp);
        nocache_bits = traffic(p, w);
    }
    // "Write-once and distributed write can result in huge network
    // traffic" (Sec. 5): both exceed the no-cache cost here.
    EXPECT_GT(dragon_bits, nocache_bits);
    EXPECT_GT(fullmap_bits, nocache_bits);
}
