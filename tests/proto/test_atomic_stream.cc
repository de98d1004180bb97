/**
 * @file
 * Golden message stream of the atomic engines: every send of the
 * four baselines, of core::System under each mode policy and of the
 * bare two-mode engine (GR, DW and the all-nack hand-off fallback),
 * byte-compared against a checked-in file. A restructuring of an
 * atomic engine that moves, drops or re-fields a single send
 * changes that run's hash. Once its caches and tables are warm, an
 * atomic engine serves a reference without allocating.
 *
 * Regenerate after an intentional protocol change:
 *   MSCP_UPDATE_GOLDEN=1 ./test_atomic_stream
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "net/omega_network.hh"
#include "proto/dragon.hh"
#include "proto/full_map.hh"
#include "proto/no_cache.hh"
#include "proto/stenstrom.hh"
#include "proto/write_once.hh"
#include "sim/logging.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

using namespace mscp;
using namespace mscp::proto;

// Every allocation in this binary goes through this counter, so a
// test can assert that a stretch of engine work allocated nothing.
// The replacements stay out of line: inlined into a container's
// destructor, their free() would meet a pointer GCC knows came from
// operator new, and -Wmismatched-new-delete would fire.
namespace
{
std::size_t allocations = 0;
} // anonymous namespace

[[gnu::noinline]] void *
operator new(std::size_t sz)
{
    ++allocations;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

constexpr unsigned ports = 16;
constexpr unsigned blockWords = 4;

/** FNV-1a over every field of every recorded send. */
class StreamHash
{
  public:
    void
    operator()(const SentMessage &m)
    {
        mix(static_cast<std::uint64_t>(m.type), 1);
        mix(m.src, 4);
        mix(m.dests.size(), 4);
        for (NodeId d : m.dests)
            mix(d, 4);
        mix(m.bits, 8);
        mix(static_cast<std::uint64_t>(m.scheme), 1);
        ++sends;
    }

    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t sends = 0;

  private:
    void
    mix(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

using Rows = std::vector<std::pair<const char *, std::uint64_t>>;

Rows
counterRows(const DirectoryCounters &c)
{
    return {
        {"reads", c.reads},
        {"writes", c.writes},
        {"readHits", c.readHits},
        {"readMisses", c.readMisses},
        {"writeHits", c.writeHits},
        {"writeMisses", c.writeMisses},
        {"invalidations", c.invalidations},
        {"updates", c.updates},
        {"recalls", c.recalls},
        {"writeBacks", c.writeBacks},
        {"writeThroughs", c.writeThroughs},
    };
}

Rows
counterRows(const StenstromCounters &c)
{
    return {
        {"reads", c.reads},
        {"writes", c.writes},
        {"readHits", c.readHits},
        {"readMissUncached", c.readMissUncached},
        {"readMissOwnedDW", c.readMissOwnedDW},
        {"readMissOwnedGR", c.readMissOwnedGR},
        {"readMissPointerGR", c.readMissPointerGR},
        {"writeHitExcl", c.writeHitExcl},
        {"writeHitNonExclDW", c.writeHitNonExclDW},
        {"writeHitNonExclGR", c.writeHitNonExclGR},
        {"writeHitUnOwned", c.writeHitUnOwned},
        {"writeMissUncached", c.writeMissUncached},
        {"writeMissOwned", c.writeMissOwned},
        {"ownershipTransfers", c.ownershipTransfers},
        {"replacements", c.replacements},
        {"replOwnedExcl", c.replOwnedExcl},
        {"replOwnedNonExcl", c.replOwnedNonExcl},
        {"replUnOwned", c.replUnOwned},
        {"replInvalid", c.replInvalid},
        {"handoffNacks", c.handoffNacks},
        {"handoffFallbacks", c.handoffFallbacks},
        {"dwUpdates", c.dwUpdates},
        {"invalidations", c.invalidations},
        {"ownerAnnounces", c.ownerAnnounces},
        {"modeSwitches", c.modeSwitches},
        {"writeBacks", c.writeBacks},
    };
}

/** Render one finished run: totals, message table, per-level link
 *  bits, the engine's counters and the send hash. */
std::string
render(const std::string &name, const RunResult &r,
       const CoherenceProtocol &p, const Rows &counters,
       const StreamHash &hash)
{
    EXPECT_EQ(r.valueErrors, 0u) << name;
    EXPECT_EQ(hash.sends, r.messages) << name;
    std::ostringstream os;
    os << "== " << name << '\n'
       << "refs=" << r.refs << " reads=" << r.reads
       << " writes=" << r.writes << " networkBits=" << r.networkBits
       << " messages=" << r.messages << '\n';
    core::dumpMessageTable(os, p.messageCounters());
    const net::LinkStats &ls = p.network().linkStats();
    os << "level bits:";
    for (unsigned i = 0; i < ls.numLevels(); ++i)
        os << ' ' << ls.levelBits(i);
    os << '\n';
    for (const auto &[field, v] : counters)
        os << field << '=' << v << '\n';
    os << "sends=" << hash.sends << " fnv1a=0x" << std::hex << hash.h
       << std::dec << '\n';
    return os.str();
}

workload::SharedBlockWorkload
sharedBlocks(double w)
{
    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(ports);
    p.writeFraction = w;
    p.numBlocks = 4;
    p.blockWords = blockWords;
    p.baseAddr = Addr{ports - 4} * blockWords;
    p.numRefs = 3000;
    p.seed = 7;
    return workload::SharedBlockWorkload(p);
}

workload::UniformRandomWorkload
uniformRandom()
{
    workload::UniformRandomParams p;
    p.numCpus = ports;
    p.addrRange = Addr{blockWords} * 12;
    p.writeFraction = 0.35;
    p.numRefs = 3000;
    p.seed = 5;
    return workload::UniformRandomWorkload(p);
}

template <typename Proto>
std::string
renderBaseline(const char *name, double w)
{
    net::OmegaNetwork net(ports);
    Proto p(net, MessageSizes{}, blockWords);
    StreamHash hash;
    p.setMessageRecorder([&hash](const SentMessage &m) { hash(m); });
    auto stream = sharedBlocks(w);
    RunResult r = p.run(stream);
    Rows rows;
    if constexpr (!std::is_same_v<Proto, NoCacheProtocol>)
        rows = counterRows(p.counters());
    return render(csprintf("%s w=%g", name, w), r, p, rows, hash);
}

std::string
renderSystem(const char *name, core::SystemConfig cfg,
             StenstromCounters &ctrs)
{
    cfg.numPorts = ports;
    cfg.geometry = cache::Geometry{blockWords, 2, 1};
    core::System sys(cfg);
    StreamHash hash;
    sys.protocol().setMessageRecorder(
        [&hash](const SentMessage &m) { hash(m); });
    auto stream = sharedBlocks(0.3);
    RunResult r = sys.run(stream);
    ctrs = sys.protocol().counters();
    return render(name, r, sys.protocol(), counterRows(ctrs), hash);
}

std::string
renderStenstrom(const char *name, cache::Mode mode, bool nack_all,
                StenstromCounters &ctrs)
{
    net::OmegaNetwork net(ports);
    StenstromParams sp;
    sp.geometry = cache::Geometry{blockWords, 1, 1};
    sp.defaultMode = mode;
    StenstromProtocol p(net, sp);
    if (nack_all)
        p.setNackInjector([](NodeId, BlockId) { return true; });
    StreamHash hash;
    p.setMessageRecorder([&hash](const SentMessage &m) { hash(m); });
    auto stream = uniformRandom();
    RunResult r = p.run(stream);
    ctrs = p.counters();
    return render(name, r, p, counterRows(ctrs), hash);
}

template <typename Proto>
std::unique_ptr<CoherenceProtocol>
makeBaseline(net::OmegaNetwork &net)
{
    return std::make_unique<Proto>(net, MessageSizes{}, blockWords);
}

std::string
goldenPath()
{
    return std::string(MSCP_PROTO_GOLDEN_DIR) +
           "/golden_atomic_stream.txt";
}

} // anonymous namespace

TEST(Atomic, MessageStreamMatchesGolden)
{
    std::string rendered;
    for (double w : {0.1, 0.5}) {
        rendered += renderBaseline<NoCacheProtocol>("no-cache", w);
        rendered += renderBaseline<FullMapProtocol>("full-map", w);
        rendered += renderBaseline<WriteOnceProtocol>("write-once", w);
        rendered += renderBaseline<DragonUpdateProtocol>("dragon", w);
    }

    // Two-set direct-mapped caches over four shared blocks: every
    // policy evicts, so hand-offs and write-backs run beside its
    // mode switches.
    StenstromCounters c;
    const std::pair<const char *, core::PolicyKind> policies[] = {
        {"system engine-default", core::PolicyKind::EngineDefault},
        {"system force-dw", core::PolicyKind::ForceDW},
        {"system force-gr", core::PolicyKind::ForceGR},
        {"system adaptive", core::PolicyKind::Adaptive},
    };
    for (const auto &[name, policy] : policies) {
        core::SystemConfig cfg;
        cfg.policy = policy;
        cfg.adaptWindow = 16;
        rendered += renderSystem(name, cfg, c);
        EXPECT_GT(c.replOwnedNonExcl, 0u) << name;
    }
    EXPECT_GT(c.modeSwitches, 0u);
    {
        core::SystemConfig cfg;
        cfg.useSchemeRegisters = true;
        cfg.clusterSize = 8;
        rendered += renderSystem("system scheme-registers", cfg, c);
    }

    // One-entry caches: every miss evicts, so each replacement case
    // of Sec. 2.2 item 5 runs; refusing every offer forces the
    // all-nack fallback.
    rendered += renderStenstrom("stenstrom gr", cache::Mode::GlobalRead,
                                false, c);
    EXPECT_GT(c.readMissPointerGR, 0u);
    EXPECT_GT(c.ownerAnnounces, 0u);
    EXPECT_GT(c.replOwnedExcl, 0u);
    rendered += renderStenstrom("stenstrom dw",
                                cache::Mode::DistributedWrite, false, c);
    EXPECT_GT(c.readMissOwnedDW, 0u);
    EXPECT_GT(c.dwUpdates, 0u);
    rendered += renderStenstrom("stenstrom all-nack",
                                cache::Mode::GlobalRead, true, c);
    EXPECT_GT(c.handoffFallbacks, 0u);

    const std::string path = goldenPath();
    if (std::getenv("MSCP_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        out << rendered;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with MSCP_UPDATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), rendered)
        << "atomic message stream drifted from the checked-in golden; "
           "if the change is intentional, regenerate with "
           "MSCP_UPDATE_GOLDEN=1";
}

TEST(Atomic, ReferencesAllocateNothingOnceWarm)
{
    // The seven engines of perfbench paper-grid, on its machine: 64
    // ports, 32 adjacent tasks sharing 4 blocks. A first pass warms
    // the caches, lines, directories and memory words; a second
    // pass on a fresh stream must then not allocate at all.
    constexpr unsigned gridPorts = 64;
    constexpr unsigned gridBlocks = 4;
    constexpr std::uint64_t passRefs = 15000;
    auto stream = [](double w, std::uint64_t seed) {
        workload::SharedBlockParams p;
        p.placement = workload::adjacentPlacement(32);
        p.writeFraction = w;
        p.numBlocks = gridBlocks;
        p.blockWords = blockWords;
        p.baseAddr = Addr{gridPorts - gridBlocks} * blockWords;
        p.numRefs = passRefs;
        p.seed = seed;
        return workload::SharedBlockWorkload(p);
    };
    auto check = [&](const char *name, double w, auto &&run) {
        auto warm = stream(w, 1);
        auto timed = stream(w, 2);
        EXPECT_EQ(run(warm).refs, passRefs) << name;
        const std::size_t before = allocations;
        const RunResult r = run(timed);
        const std::size_t allocated = allocations - before;
        EXPECT_EQ(r.refs, passRefs) << name;
        EXPECT_EQ(r.valueErrors, 0u) << name;
        EXPECT_EQ(allocated, 0u) << name << csprintf(" w=%g", w);
    };

    using Factory =
        std::unique_ptr<CoherenceProtocol> (*)(net::OmegaNetwork &);
    const std::pair<const char *, Factory> baselines[] = {
        {"no-cache", makeBaseline<NoCacheProtocol>},
        {"write-once", makeBaseline<WriteOnceProtocol>},
        {"full-map", makeBaseline<FullMapProtocol>},
        {"dragon", makeBaseline<DragonUpdateProtocol>},
    };
    const std::pair<const char *, core::PolicyKind> policies[] = {
        {"force-dw", core::PolicyKind::ForceDW},
        {"force-gr", core::PolicyKind::ForceGR},
        {"adaptive", core::PolicyKind::Adaptive},
    };
    for (double w : {0.1, 0.5}) {
        for (const auto &[name, make] : baselines) {
            net::OmegaNetwork net(gridPorts);
            auto p = make(net);
            check(name, w, [&p](auto &s) { return p->run(s); });
        }
        for (const auto &[name, policy] : policies) {
            core::SystemConfig cfg;
            cfg.numPorts = gridPorts;
            cfg.geometry = cache::Geometry{blockWords, 16, 2};
            cfg.policy = policy;
            cfg.adaptWindow = 16;
            core::System sys(cfg);
            check(name, w, [&sys](auto &s) { return sys.run(s); });
        }
    }
}
