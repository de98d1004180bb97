/**
 * @file
 * Tests for the message-level concurrent engine: linearizable
 * values under genuine transaction overlap, quiescent invariants,
 * race paths (pointer NACKs, home queueing, hand-offs under load)
 * and cross-validation against the atomic engine.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "net/omega_network.hh"
#include "proto/checker.hh"
#include "proto/concurrent.hh"
#include "proto/stenstrom.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"
#include "workload/trace.hh"

using namespace mscp;
using namespace mscp::proto;

namespace
{

ConcurrentParams
baseParams()
{
    ConcurrentParams p;
    p.geometry = cache::Geometry{4, 8, 2};
    return p;
}

void
expectQuiescentClean(const ConcurrentProtocol &p)
{
    auto errs = checkInvariants(viewOf(p));
    EXPECT_TRUE(errs.empty()) << errs.front();
}

} // anonymous namespace

TEST(Concurrent, SingleCpuSequentialValues)
{
    net::OmegaNetwork net(8);
    ConcurrentProtocol p(net, baseParams());
    std::vector<workload::MemRef> refs;
    for (Addr a = 0; a < 30; ++a) {
        refs.push_back({0, a, true, a + 100});
        refs.push_back({0, a, false, 0});
    }
    workload::TracePlayer tp(refs);
    auto res = p.run(tp);
    EXPECT_EQ(res.refs, 60u);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(res.makespan, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, SharedBlockOverlappingTransactions)
{
    net::OmegaNetwork net(16);
    ConcurrentProtocol p(net, baseParams());
    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(8);
    wp.writeFraction = 0.3;
    wp.numBlocks = 2;
    wp.blockWords = 4;
    wp.baseAddr = 14 * 4;
    wp.numRefs = 4000;
    workload::SharedBlockWorkload w(wp);
    auto res = p.run(w);
    EXPECT_EQ(res.refs, 4000u);
    EXPECT_EQ(res.valueErrors, 0u);
    // Genuine concurrency: the home had to queue conflicting
    // transactions at least once.
    EXPECT_GT(p.counters().homeQueued, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, PointerBypassRacesAreNackedAndRecovered)
{
    // Migratory ownership in GR mode: pointer holders chase a
    // moving owner, so some direct reads must land on ex-owners.
    net::OmegaNetwork net(16);
    ConcurrentProtocol p(net, baseParams());
    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(8);
    wp.writeFraction = 0.5; // many ownership moves
    wp.numBlocks = 1;
    wp.blockWords = 4;
    wp.baseAddr = 15 * 4;
    wp.numRefs = 6000;
    wp.writerAlsoReads = true;
    workload::SharedBlockWorkload w(wp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().pointerReads, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, MigratoryOwnershipChase)
{
    net::OmegaNetwork net(8);
    ConcurrentProtocol p(net, baseParams());
    workload::MigratoryParams mp;
    mp.placement = workload::adjacentPlacement(4);
    mp.numBlocks = 2;
    mp.blockWords = 4;
    mp.rounds = 24;
    workload::MigratoryWorkload w(mp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().ownershipTransfers, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, EvictionHeavyTinyCaches)
{
    // One-entry caches: every second access evicts, driving the
    // EvictReq/EvictAck handshake and the hand-off offers under
    // real message concurrency.
    net::OmegaNetwork net(8);
    ConcurrentParams params = baseParams();
    params.geometry = cache::Geometry{4, 1, 1};
    params.defaultMode = cache::Mode::DistributedWrite;
    ConcurrentProtocol p(net, params);

    workload::UniformRandomParams up;
    up.numCpus = 8;
    up.addrRange = 4 * 6;
    up.writeFraction = 0.4;
    up.numRefs = 4000;
    up.seed = 13;
    workload::UniformRandomWorkload w(up);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().evictions, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, NackRetryRaceRecoversThroughHome)
{
    // Stale-pointer chase: owners evict their blocks without
    // notifying pointer holders, so direct reads land on ex-owners
    // and bounce back as NackNotOwner. Every nacked read must
    // retry through the home and still observe a linearizable
    // value; the directory must end exact.
    net::OmegaNetwork net(8);
    ConcurrentParams params = baseParams();
    params.geometry = cache::Geometry{4, 1, 2};
    ConcurrentProtocol p(net, params);

    workload::UniformRandomParams up;
    up.numCpus = 8;
    up.addrRange = 4 * 3;
    up.writeFraction = 0.3;
    up.numRefs = 6000;
    up.seed = 7;
    workload::UniformRandomWorkload w(up);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().pointerNacks, 0u);
    // The race is the exception, not the rule: most bypass reads
    // still hit the true owner.
    EXPECT_GT(p.counters().pointerReads,
              p.counters().pointerNacks);
    expectQuiescentClean(p);
}

TEST(Concurrent, EvictAckHandshakeSerializesOwnedEvictions)
{
    // One-entry caches force an owned victim out on nearly every
    // miss. Each such eviction must run the EvictReq/EvictAck
    // handshake with the home (acquiring the block's busy period)
    // before the state moves, so concurrent requests for the
    // victim queue instead of racing the write-back.
    net::OmegaNetwork net(8);
    ConcurrentParams params = baseParams();
    params.geometry = cache::Geometry{4, 1, 1};
    ConcurrentProtocol p(net, params);

    workload::UniformRandomParams up;
    up.numCpus = 8;
    up.addrRange = 4 * 6;
    up.writeFraction = 0.5;
    up.numRefs = 4000;
    up.seed = 7;
    workload::UniformRandomWorkload w(up);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().evictions, 0u);
    EXPECT_GT(p.counters().writeBacks, 0u);
    // Contending transactions were held back by eviction busy
    // periods at least once.
    EXPECT_GT(p.counters().homeQueued, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, EvictionHandoffTransfersOwnershipToSharer)
{
    // Distributed-write mode keeps sharers registered, so an
    // evicting owner can offer ownership to a present copy
    // instead of writing back to memory. Both the accepted offers
    // and the nacked ones (sharer lost its copy meanwhile) must
    // resolve without value or directory corruption.
    net::OmegaNetwork net(8);
    ConcurrentParams params = baseParams();
    params.geometry = cache::Geometry{4, 1, 1};
    params.defaultMode = cache::Mode::DistributedWrite;
    ConcurrentProtocol p(net, params);

    workload::UniformRandomParams up;
    up.numCpus = 8;
    up.addrRange = 4 * 6;
    up.writeFraction = 0.4;
    up.numRefs = 4000;
    up.seed = 13;
    workload::UniformRandomWorkload w(up);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().handoffs, 0u);
    EXPECT_GT(p.counters().handoffNacks, 0u);
    expectQuiescentClean(p);
}

TEST(Concurrent, RandomSweepAcrossConfigs)
{
    struct Cfg
    {
        unsigned ports;
        cache::Mode mode;
        net::Scheme scheme;
        double w;
        std::uint64_t seed;
    };
    for (auto [ports, mode, scheme, w, seed] : {
             Cfg{4, cache::Mode::GlobalRead,
                 net::Scheme::Unicasts, 0.3, 1},
             Cfg{8, cache::Mode::DistributedWrite,
                 net::Scheme::VectorRouting, 0.5, 2},
             Cfg{16, cache::Mode::GlobalRead,
                 net::Scheme::Combined, 0.2, 3},
             Cfg{16, cache::Mode::DistributedWrite,
                 net::Scheme::Combined, 0.7, 4},
             Cfg{32, cache::Mode::DistributedWrite,
                 net::Scheme::BroadcastTag, 0.4, 5},
             Cfg{8, cache::Mode::GlobalRead,
                 net::Scheme::Combined, 0.6, 6},
             Cfg{16, cache::Mode::DistributedWrite,
                 net::Scheme::Unicasts, 0.1, 7},
             Cfg{32, cache::Mode::GlobalRead,
                 net::Scheme::Combined, 0.4, 8},
             Cfg{8, cache::Mode::DistributedWrite,
                 net::Scheme::Combined, 0.9, 9}}) {
        net::OmegaNetwork net(ports);
        ConcurrentParams params = baseParams();
        params.geometry = cache::Geometry{4, 2, 2};
        params.defaultMode = mode;
        params.multicastScheme = scheme;
        // Narrow links on odd seeds stress message reordering.
        params.linkWidthBits = (seed % 2) ? 4 : 16;
        params.thinkTime = seed % 3;
        ConcurrentProtocol p(net, params);

        workload::UniformRandomParams up;
        up.numCpus = ports;
        up.addrRange = 4 * 2 * 2 * 3 * 4;
        up.writeFraction = w;
        up.numRefs = 3000;
        up.seed = seed;
        workload::UniformRandomWorkload stream(up);
        auto res = p.run(stream);
        EXPECT_EQ(res.valueErrors, 0u)
            << "ports=" << ports << " seed=" << seed;
        auto errs = checkInvariants(viewOf(p));
        EXPECT_TRUE(errs.empty())
            << "ports=" << ports << " seed=" << seed << ": "
            << errs.front();
    }
}

TEST(Concurrent, BuildingBeyondMsgLimitsPanicsNamingTheLimit)
{
    // Messages carry present vectors and block payloads inline, so
    // an engine wider or with larger blocks than they hold must
    // refuse to be built, and say which limit it hit.
    auto panicText = [](unsigned ports, unsigned block_words) {
        net::OmegaNetwork net(ports);
        ConcurrentParams params = baseParams();
        params.geometry.blockWords = block_words;
        try {
            ConcurrentProtocol p(net, params);
        } catch (const PanicError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(panicText(512, 4).find("512 ports exceed MsgMaxNodes (256)"),
              std::string::npos);
    EXPECT_NE(panicText(8, 8).find(
                  "8-word blocks exceed MsgMaxBlockWords (4)"),
              std::string::npos);
    EXPECT_EQ(panicText(256, 4), "");
}

TEST(Concurrent, HitsAreFasterThanMisses)
{
    net::OmegaNetwork net(8);
    ConcurrentProtocol p(net, baseParams());
    // cpu 0: one miss then many hits; cpu 5 far away does misses.
    std::vector<workload::MemRef> refs;
    refs.push_back({0, 100, true, 1});
    for (int i = 0; i < 20; ++i)
        refs.push_back({0, 100, false, 0});
    workload::TracePlayer tp(refs);
    auto res = p.run(tp);
    EXPECT_EQ(res.valueErrors, 0u);
    // 20 hits at ~1 tick dominate the average.
    EXPECT_LT(res.avgReadLatency, 10.0);
}

TEST(Concurrent, MatchesAtomicEngineMessageCountsLoosely)
{
    // Same trace through both engines: the concurrent engine adds
    // acks/unblocks/nacks but must not silently lose protocol work
    // (at least as many messages, same value correctness).
    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(6);
    wp.writeFraction = 0.4;
    wp.numBlocks = 2;
    wp.blockWords = 4;
    wp.baseAddr = 12 * 4;
    wp.numRefs = 2000;
    workload::SharedBlockWorkload gen(wp);
    auto refs = workload::collect(gen);

    std::uint64_t atomic_msgs;
    {
        net::OmegaNetwork net(16);
        StenstromParams sp;
        sp.geometry = cache::Geometry{4, 8, 2};
        StenstromProtocol atomic(net, sp);
        workload::TracePlayer tp(refs);
        auto res = atomic.run(tp);
        EXPECT_EQ(res.valueErrors, 0u);
        atomic_msgs = atomic.messageCounters().totalCount();
    }
    {
        net::OmegaNetwork net(16);
        ConcurrentProtocol conc(net, baseParams());
        workload::TracePlayer tp(refs);
        auto res = conc.run(tp);
        EXPECT_EQ(res.valueErrors, 0u);
        EXPECT_GE(conc.messageCounters().totalCount(),
                  atomic_msgs);
        expectQuiescentClean(conc);
    }
}

TEST(Concurrent, ThinkTimeSlowsTheClockNotTheWork)
{
    auto run_with = [&](Tick think) {
        net::OmegaNetwork net(8);
        ConcurrentParams params = baseParams();
        params.thinkTime = think;
        ConcurrentProtocol p(net, params);
        workload::SharedBlockParams wp;
        wp.placement = workload::adjacentPlacement(4);
        wp.writeFraction = 0.3;
        wp.numBlocks = 1;
        wp.blockWords = 4;
        wp.numRefs = 500;
        workload::SharedBlockWorkload w(wp);
        auto res = p.run(w);
        EXPECT_EQ(res.valueErrors, 0u);
        return res.makespan;
    };
    EXPECT_GT(run_with(50), run_with(0));
}

namespace
{

// Eight adjacent tasks share one block homed at port 15 of a 16-port
// network, all in one coherence mode.
ConcurrentRunResult
runSharedBlock(cache::Mode mode, double w, Bits width, std::uint64_t refs)
{
    net::OmegaNetwork net(16);
    ConcurrentParams params = baseParams();
    params.defaultMode = mode;
    params.linkWidthBits = width;
    ConcurrentProtocol p(net, params);
    workload::SharedBlockParams wp;
    wp.placement = workload::adjacentPlacement(8);
    wp.writeFraction = w;
    wp.numBlocks = 1;
    wp.blockWords = 4;
    wp.baseAddr = 15 * 4;
    wp.numRefs = refs;
    workload::SharedBlockWorkload stream(wp);
    auto res = p.run(stream);
    EXPECT_EQ(res.valueErrors, 0u);
    return res;
}

} // anonymous namespace

TEST(Concurrent, WiderLinksRunFaster)
{
    for (cache::Mode mode : {cache::Mode::DistributedWrite,
                             cache::Mode::GlobalRead}) {
        SCOPED_TRACE(cache::modeName(mode));
        EXPECT_LT(runSharedBlock(mode, 0.3, 64, 2000).makespan,
                  runSharedBlock(mode, 0.3, 8, 2000).makespan);
    }
}

TEST(Concurrent, DistributedWriteCutsReadLatencyAtLowW)
{
    // Read-mostly sharing turns DW reads into local hits.
    EXPECT_LT(
        runSharedBlock(cache::Mode::DistributedWrite, 0.05, 16, 4000)
            .avgReadLatency,
        runSharedBlock(cache::Mode::GlobalRead, 0.05, 16, 4000)
                .avgReadLatency / 2);
}

TEST(Concurrent, DeterministicAcrossRuns)
{
    for (cache::Mode mode : {cache::Mode::DistributedWrite,
                             cache::Mode::GlobalRead}) {
        SCOPED_TRACE(cache::modeName(mode));
        EXPECT_EQ(runSharedBlock(mode, 0.3, 8, 2000).makespan,
                  runSharedBlock(mode, 0.3, 8, 2000).makespan);
    }
}

TEST(Concurrent, HotSpotContentionStaysLinearizable)
{
    net::OmegaNetwork net(16);
    ConcurrentParams params = baseParams();
    params.defaultMode = cache::Mode::DistributedWrite;
    ConcurrentProtocol p(net, params);
    workload::HotSpotParams hp;
    hp.placement = workload::adjacentPlacement(16);
    hp.writeFraction = 0.5;
    hp.blockWords = 4;
    hp.baseAddr = 15 * 4;
    hp.numRefs = 5000;
    workload::HotSpotWorkload w(hp);
    auto res = p.run(w);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(p.counters().homeQueued, 0u);
    expectQuiescentClean(p);
}

// ---------------------------------------------------------------
// Golden message stream: the full traced timeline of three runs
// that cover the eviction hand-off, the fault-hardening and the
// crash-recovery paths, byte-compared against a checked-in file.
// A restructuring of the engine that moves, drops or re-fields a
// single send changes the trace hash.
//
// Regenerate after an intentional protocol change:
//   MSCP_UPDATE_GOLDEN=1 ./test_concurrent
// ---------------------------------------------------------------

namespace
{

/** FNV-1a over every field of every held trace record. */
std::uint64_t
traceHash(const Tracer &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    t.forEach([&mix](const TraceRecord &r) {
        mix(r.tick, 8);
        mix(r.seq, 8);
        mix(r.arg, 8);
        mix(r.node, 2);
        mix(r.node2, 2);
        mix(r.kind, 1);
        mix(r.cls, 1);
    });
    return h;
}

void
renderCounters(std::ostream &os, const ConcurrentCounters &c)
{
    const std::pair<const char *, std::uint64_t> rows[] = {
        {"reads", c.reads},
        {"writes", c.writes},
        {"readHits", c.readHits},
        {"writeHits", c.writeHits},
        {"pointerReads", c.pointerReads},
        {"pointerNacks", c.pointerNacks},
        {"homeQueued", c.homeQueued},
        {"ownershipTransfers", c.ownershipTransfers},
        {"dwUpdates", c.dwUpdates},
        {"evictions", c.evictions},
        {"handoffs", c.handoffs},
        {"handoffNacks", c.handoffNacks},
        {"handoffFallbacks", c.handoffFallbacks},
        {"writeBacks", c.writeBacks},
        {"presentClearRetries", c.presentClearRetries},
        {"selfForwards", c.selfForwards},
        {"timeouts", c.timeouts},
        {"retries", c.retries},
        {"retriesExhausted", c.retriesExhausted},
        {"staleReplies", c.staleReplies},
        {"staleForwards", c.staleForwards},
        {"staleUnblocks", c.staleUnblocks},
        {"dupRequests", c.dupRequests},
        {"watchdogDeadlocks", c.watchdogDeadlocks},
        {"crashes", c.crashes},
        {"rejoins", c.rejoins},
        {"suspects", c.suspects},
        {"purges", c.purges},
        {"rebuilds", c.rebuilds},
        {"recoveryNacks", c.recoveryNacks},
        {"recoveryRestarts", c.recoveryRestarts},
        {"durableWrites", c.durableWrites},
        {"refsLost", c.refsLost},
    };
    for (const auto &[name, v] : rows)
        os << name << '=' << v << '\n';
}

/** Run one case fully traced and render its message stream. */
std::string
renderStream(const char *name, unsigned ports, ConcurrentParams params,
             workload::ReferenceStream &w, ConcurrentCounters &ctrs)
{
    params.traceEnabled = true;
    params.traceCapacity = std::size_t{1} << 18;
    net::OmegaNetwork net(ports);
    ConcurrentProtocol p(net, params);
    ConcurrentRunResult r = p.run(w);
    EXPECT_EQ(p.tracer().dropped(), 0u) << name;
    EXPECT_EQ(r.valueErrors, 0u) << name;
    EXPECT_EQ(r.deadlocks, 0u) << name;
    expectQuiescentClean(p);
    ctrs = p.counters();

    std::ostringstream os;
    os << "== " << name << '\n'
       << "refs=" << r.refs << " makespan=" << r.makespan
       << " networkBits=" << r.networkBits << '\n';
    core::dumpMessageTable(os, p.messageCounters());
    renderCounters(os, ctrs);
    os << "trace records=" << p.tracer().recorded() << " fnv1a=0x"
       << std::hex << traceHash(p.tracer()) << std::dec << '\n';
    return os.str();
}

std::string
messageStreamGoldenPath()
{
    return std::string(MSCP_PROTO_GOLDEN_DIR) +
           "/golden_message_stream.txt";
}

} // anonymous namespace

TEST(Concurrent, MessageStreamMatchesGolden)
{
    std::string rendered;
    ConcurrentCounters c;

    {
        // DW with 2-set direct-mapped caches: owners with sharers
        // evict, so hand-offs, offer nacks and write-backs run.
        ConcurrentParams params = baseParams();
        params.geometry = cache::Geometry{4, 2, 1};
        params.defaultMode = cache::Mode::DistributedWrite;
        workload::UniformRandomParams up;
        up.numCpus = 16;
        up.addrRange = 4 * 12;
        up.writeFraction = 0.4;
        up.numRefs = 3000;
        up.seed = 13;
        workload::UniformRandomWorkload w(up);
        rendered += renderStream("dw-evict", 16, params, w, c);
        EXPECT_GT(c.handoffs, 0u);
        EXPECT_GT(c.handoffNacks, 0u);
        EXPECT_GT(c.writeBacks, 0u);
    }
    {
        // GR under the recoverable fault plan (drops on requests,
        // duplicates on requests and replies, delay everywhere)
        // with timeouts and the watchdog armed; 2-set 2-way caches
        // make evictions race the retries.
        ConcurrentParams params = baseParams();
        params.geometry = cache::Geometry{4, 2, 2};
        params.defaultMode = cache::Mode::GlobalRead;
        FaultPlan &plan = params.faultPlan;
        plan.seed = 0x5eed;
        plan.of(FaultClass::Request).drop = 0.03;
        plan.of(FaultClass::Request).duplicate = 0.03;
        plan.of(FaultClass::Reply).duplicate = 0.03;
        for (FaultRates &r : plan.rates)
            r.delay = 0.05;
        params.timeoutBase = 512;
        params.maxRetries = 12;
        params.watchdogPeriod = 50000;
        params.watchdogAge = 200000;
        workload::UniformRandomParams up;
        up.numCpus = 16;
        up.addrRange = 4 * 12;
        up.writeFraction = 0.35;
        up.numRefs = 2000;
        up.seed = 5;
        workload::UniformRandomWorkload w(up);
        rendered += renderStream("gr-faults", 16, params, w, c);
        EXPECT_GT(c.retries, 0u);
        EXPECT_GT(c.dupRequests, 0u);
        EXPECT_GT(c.staleReplies, 0u);
    }
    {
        // One crash followed by a cold rejoin, in the crash grid's
        // shared-block shape on 16-set 2-way caches.
        ConcurrentParams params = baseParams();
        params.geometry = cache::Geometry{4, 16, 2};
        params.crashPlan = CrashPlan::singleNode(3, 3111, 7111);
        params.timeoutBase = 256;
        params.maxRetries = 5;
        params.watchdogPeriod = 50000;
        params.watchdogAge = 400000;
        workload::SharedBlockParams wp;
        wp.placement = workload::adjacentPlacement(8);
        wp.writeFraction = 0.35;
        wp.numBlocks = 4;
        wp.blockWords = 4;
        wp.baseAddr = 12 * 4;
        wp.numRefs = 3000;
        wp.seed = 3;
        workload::SharedBlockWorkload w(wp);
        rendered += renderStream("crash-rejoin", 16, params, w, c);
        EXPECT_EQ(c.crashes, 1u);
        EXPECT_EQ(c.rejoins, 1u);
        EXPECT_GT(c.rebuilds, 0u);
    }

    const std::string path = messageStreamGoldenPath();
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
        << "message stream drifted from the checked-in golden; if "
           "the change is intentional, regenerate with "
           "MSCP_UPDATE_GOLDEN=1";
}
