/** @file Tests for the workload generators and trace IO. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iomanip>
#include <set>
#include <sstream>

#include "sim/logging.hh"
#include "workload/matrix.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"
#include "workload/trace.hh"

using namespace mscp;
using namespace mscp::workload;

TEST(Placement, Adjacent)
{
    auto p = adjacentPlacement(4);
    EXPECT_EQ(p, (std::vector<NodeId>{0, 1, 2, 3}));
    auto c = clusterPlacement(4, 8);
    EXPECT_EQ(c, (std::vector<NodeId>{8, 9, 10, 11}));
}

TEST(Placement, Strided)
{
    auto p = stridedPlacement(4, 16);
    EXPECT_EQ(p, (std::vector<NodeId>{0, 4, 8, 12}));
    EXPECT_THROW(stridedPlacement(0, 16), FatalError);
    EXPECT_THROW(stridedPlacement(32, 16), FatalError);
}

TEST(Placement, RandomIsDistinctAndBounded)
{
    Random rng(3);
    auto p = randomPlacement(8, 64, rng);
    EXPECT_EQ(p.size(), 8u);
    std::set<NodeId> s(p.begin(), p.end());
    EXPECT_EQ(s.size(), 8u);
    for (auto id : p)
        EXPECT_LT(id, 64u);
}

TEST(SharedBlock, RespectsRefCountAndAddresses)
{
    SharedBlockParams p;
    p.placement = adjacentPlacement(4);
    p.numBlocks = 2;
    p.blockWords = 8;
    p.baseAddr = 100;
    p.numRefs = 500;
    SharedBlockWorkload w(p);
    MemRef r;
    std::uint64_t count = 0;
    while (w.next(r)) {
        ++count;
        EXPECT_GE(r.addr, 100u);
        EXPECT_LT(r.addr, 100u + 16u);
        EXPECT_LT(r.cpu, 4u);
    }
    EXPECT_EQ(count, 500u);
}

TEST(SharedBlock, OnlyTheWriterTaskWrites)
{
    SharedBlockParams p;
    p.placement = adjacentPlacement(4);
    p.numBlocks = 4;
    p.writeFraction = 0.5;
    p.numRefs = 2000;
    SharedBlockWorkload w(p);
    MemRef r;
    while (w.next(r)) {
        if (r.isWrite) {
            auto blk = static_cast<unsigned>((r.addr / 8) % 4);
            EXPECT_EQ(r.cpu, w.writerOf(blk));
        }
    }
}

TEST(SharedBlock, WriteFractionApproximatelyW)
{
    SharedBlockParams p;
    p.placement = adjacentPlacement(8);
    p.writeFraction = 0.3;
    p.numRefs = 20000;
    SharedBlockWorkload w(p);
    MemRef r;
    std::uint64_t writes = 0;
    while (w.next(r))
        writes += r.isWrite;
    EXPECT_NEAR(static_cast<double>(writes) / 20000.0, 0.3, 0.02);
}

TEST(SharedBlock, ResetReplaysIdentically)
{
    SharedBlockParams p;
    p.placement = adjacentPlacement(4);
    p.numRefs = 100;
    SharedBlockWorkload w(p);
    auto first = collect(w);
    w.reset();
    auto second = collect(w);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].cpu, second[i].cpu);
        EXPECT_EQ(first[i].addr, second[i].addr);
        EXPECT_EQ(first[i].isWrite, second[i].isWrite);
    }
}

TEST(SharedBlock, UniqueWriteValues)
{
    SharedBlockParams p;
    p.placement = adjacentPlacement(2);
    p.writeFraction = 1.0;
    p.numRefs = 200;
    SharedBlockWorkload w(p);
    std::set<std::uint64_t> values;
    MemRef r;
    while (w.next(r)) {
        ASSERT_TRUE(r.isWrite);
        EXPECT_TRUE(values.insert(r.value).second);
    }
}

TEST(Matrix, OneWriterPerRow)
{
    MatrixParams p;
    p.placement = adjacentPlacement(4);
    p.rows = 8;
    p.wordsPerRow = 4;
    p.sweeps = 2;
    MatrixWorkload w(p);
    // Every write to row r must come from ownerTaskOf(r).
    MemRef r;
    while (w.next(r)) {
        if (r.isWrite) {
            auto row = static_cast<unsigned>(r.addr / 4);
            EXPECT_EQ(r.cpu, p.placement[w.ownerTaskOf(row)]);
        }
    }
}

TEST(Matrix, BoundaryRowsAreShared)
{
    MatrixParams p;
    p.placement = adjacentPlacement(2);
    p.rows = 4;
    p.wordsPerRow = 2;
    p.sweeps = 1;
    MatrixWorkload w(p);
    // Row 1 (owned by task 0) must be read by task 1 (neighbour of
    // row 2).
    bool cross_read = false;
    MemRef r;
    while (w.next(r)) {
        auto row = static_cast<unsigned>(r.addr / 2);
        if (!r.isWrite && row == 1 && r.cpu == 1)
            cross_read = true;
    }
    EXPECT_TRUE(cross_read);
}

TEST(ProducerConsumer, ProducerWritesConsumersRead)
{
    ProducerConsumerParams p;
    p.placement = adjacentPlacement(3);
    p.bufferBlocks = 2;
    p.blockWords = 4;
    p.rounds = 2;
    ProducerConsumerWorkload w(p);
    MemRef r;
    while (w.next(r)) {
        if (r.isWrite)
            EXPECT_EQ(r.cpu, 0u);
        else
            EXPECT_NE(r.cpu, 0u);
    }
}

TEST(Migratory, RotatesThroughTasks)
{
    MigratoryParams p;
    p.placement = adjacentPlacement(3);
    p.numBlocks = 1;
    p.blockWords = 2;
    p.rounds = 3;
    MigratoryWorkload w(p);
    std::set<NodeId> writers;
    MemRef r;
    while (w.next(r))
        if (r.isWrite)
            writers.insert(r.cpu);
    EXPECT_EQ(writers.size(), 3u);
}

TEST(HotSpot, SingleBlockOnly)
{
    HotSpotParams p;
    p.placement = adjacentPlacement(4);
    p.blockWords = 8;
    p.baseAddr = 64;
    p.numRefs = 500;
    HotSpotWorkload w(p);
    MemRef r;
    while (w.next(r)) {
        EXPECT_GE(r.addr, 64u);
        EXPECT_LT(r.addr, 72u);
    }
}

TEST(UniformRandom, Bounded)
{
    UniformRandomParams p;
    p.numCpus = 4;
    p.addrRange = 64;
    p.numRefs = 1000;
    UniformRandomWorkload w(p);
    MemRef r;
    std::uint64_t count = 0;
    while (w.next(r)) {
        ++count;
        EXPECT_LT(r.cpu, 4u);
        EXPECT_LT(r.addr, 64u);
    }
    EXPECT_EQ(count, 1000u);
}

namespace
{

constexpr std::uint64_t DigestRefs = 20000;

/** 64-bit multiply-rotate digest of a word sequence. */
class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        h = std::rotl(h ^ (v * 0x87c37b91114253d5ull), 31) *
            0x4cf5ad432745937full;
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Digest of (cpu, addr, isWrite, value) over the first refs. */
std::uint64_t
streamDigest(ReferenceStream &s)
{
    Digest d;
    MemRef r;
    std::uint64_t count = 0;
    while (count < DigestRefs && s.next(r)) {
        d.mix(r.cpu);
        d.mix(r.addr);
        d.mix(r.isWrite ? 1 : 0);
        d.mix(r.value);
        ++count;
    }
    EXPECT_EQ(count, DigestRefs) << s.name() << " ran short";
    return d.value();
}

/** One "name digest" line per seeded stream drawn at @p seed. */
std::string
seededStreamDigests(std::uint64_t seed)
{
    std::ostringstream os;
    auto put = [&os, seed](const std::string &name, std::uint64_t d) {
        os << name << " seed=" << seed << ' ' << std::hex
           << std::setw(16) << std::setfill('0') << d << std::dec
           << '\n';
    };
    // The paper grid's shape (4 blocks of 4 words) at its extremes.
    for (unsigned n : {4u, 32u}) {
        for (double w : {0.02, 0.5}) {
            SharedBlockParams p;
            p.placement = adjacentPlacement(n);
            p.writeFraction = w;
            p.numBlocks = 4;
            p.blockWords = 4;
            p.numRefs = DigestRefs;
            p.seed = seed;
            SharedBlockWorkload s(p);
            std::ostringstream name;
            name << "shared-block n=" << n << " w=" << w;
            put(name.str(), streamDigest(s));
        }
    }
    {
        SharedBlockParams p;
        p.placement = adjacentPlacement(16);
        p.writeFraction = 0.1;
        p.numBlocks = 8;
        p.writerAlsoReads = false;
        p.numRefs = DigestRefs;
        p.seed = seed;
        SharedBlockWorkload s(p);
        put("shared-block n=16 w=0.1 skip-writer",
            streamDigest(s));
    }
    {
        HotSpotParams p;
        p.placement = adjacentPlacement(16);
        p.writeFraction = 0.5;
        p.blockWords = 4;
        p.numRefs = DigestRefs;
        p.seed = seed;
        HotSpotWorkload s(p);
        put("hot-spot n=16 w=0.5", streamDigest(s));
    }
    {
        UniformRandomParams p;
        p.numCpus = 8;
        p.addrRange = 256;
        p.numRefs = DigestRefs;
        p.seed = seed;
        UniformRandomWorkload s(p);
        put("uniform-random cpus=8 range=256", streamDigest(s));
    }
    {
        Random rng(seed);
        Digest d;
        for (NodeId id : randomPlacement(8, 64, rng))
            d.mix(id);
        put("random-placement 8 of 64", d.value());
    }
    {
        Random rng(seed);
        std::vector<unsigned> v(16);
        for (unsigned i = 0; i < v.size(); ++i)
            v[i] = i;
        rng.shuffle(v);
        Digest d;
        for (unsigned x : v)
            d.mix(x);
        put("shuffle 0..15", d.value());
    }
    return os.str();
}

} // namespace

// Pins every seeded stream to its exact references, so a change to
// the random source or a generator shows here rather than as a
// distant bench-golden diff.
TEST(Workload, SeededStreamsMatchGoldenDigest)
{
    const char *golden =
        "shared-block n=4 w=0.02 seed=1 be877f1ec77bb3e0\n"
        "shared-block n=4 w=0.5 seed=1 9140ade58ec748a9\n"
        "shared-block n=32 w=0.02 seed=1 00e978bbf6f4e0b4\n"
        "shared-block n=32 w=0.5 seed=1 e9bc811a99053a86\n"
        "shared-block n=16 w=0.1 skip-writer seed=1 837aa6c387bba8db\n"
        "hot-spot n=16 w=0.5 seed=1 dc432cf44f07d057\n"
        "uniform-random cpus=8 range=256 seed=1 eef74d5a62717aba\n"
        "random-placement 8 of 64 seed=1 5d13a9945e1ad918\n"
        "shuffle 0..15 seed=1 eb37cb0b9131322b\n"
        "shared-block n=4 w=0.02 seed=7 8a12832ac42d23f1\n"
        "shared-block n=4 w=0.5 seed=7 d61d7054a9b2d036\n"
        "shared-block n=32 w=0.02 seed=7 efe24294347af38b\n"
        "shared-block n=32 w=0.5 seed=7 75b07803ff7c9c5c\n"
        "shared-block n=16 w=0.1 skip-writer seed=7 144f0424fecc58a6\n"
        "hot-spot n=16 w=0.5 seed=7 e8a1e1f6c2cf49fe\n"
        "uniform-random cpus=8 range=256 seed=7 f31702932af743dd\n"
        "random-placement 8 of 64 seed=7 d451a20d303232dc\n"
        "shuffle 0..15 seed=7 045623fcffdccd76\n";
    EXPECT_EQ(seededStreamDigests(1) + seededStreamDigests(7), golden);
}

TEST(Trace, RoundTrips)
{
    std::vector<MemRef> refs{
        {0, 10, false, 0},
        {1, 20, true, 77},
        {3, 5, true, 78},
        {2, 10, false, 0},
    };
    std::ostringstream os;
    writeTrace(os, refs);
    std::istringstream is(os.str());
    auto back = readTrace(is);
    ASSERT_EQ(back.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
        EXPECT_EQ(back[i].cpu, refs[i].cpu);
        EXPECT_EQ(back[i].addr, refs[i].addr);
        EXPECT_EQ(back[i].isWrite, refs[i].isWrite);
        EXPECT_EQ(back[i].value, refs[i].value);
    }
}

TEST(Trace, RejectsMalformedLines)
{
    std::istringstream bad_op("0 X 5");
    EXPECT_THROW(readTrace(bad_op), FatalError);
    std::istringstream no_value("0 W 5");
    EXPECT_THROW(readTrace(no_value), FatalError);
}

TEST(Trace, SkipsCommentsAndBlanks)
{
    std::istringstream is("# header\n\n0 R 1\n# mid\n1 W 2 9\n");
    auto refs = readTrace(is);
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_FALSE(refs[0].isWrite);
    EXPECT_TRUE(refs[1].isWrite);
}

TEST(TracePlayer, ReplaysAndResets)
{
    std::vector<MemRef> refs{{0, 1, false, 0}, {1, 2, true, 5}};
    TracePlayer tp(refs, "t");
    auto a = collect(tp);
    EXPECT_EQ(a.size(), 2u);
    tp.reset();
    auto b = collect(tp);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(tp.name(), "t");
}
