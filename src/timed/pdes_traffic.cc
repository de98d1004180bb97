#include "pdes_traffic.hh"

#include <algorithm>

#include "net/timed_network.hh"
#include "sim/logging.hh"

namespace mscp::timed
{

namespace
{

/** Event kinds carried in PtMsg::ev. */
enum class Ev : std::uint8_t
{
    Issue,    ///< processor issues its next reference (dst = node)
    Arrive,   ///< message reached its destination port
    Dispatch, ///< port-contention-deferred delivery
    Local,    ///< co-located exchange (no network, no port clamp)
};

/** Protocol message types. */
enum class Mt : std::uint8_t
{
    ReadReq,
    WriteReq,
    ReadReply,
    WriteGrant,
    Inval,
    InvalAck,
    EvictNotice,
};

constexpr std::uint64_t GoldenGamma = 0x9e3779b97f4a7c15ull;

} // anonymous namespace

/**
 * One in-flight protocol message / pending event. Trivially
 * copyable and small enough to ride inline in both an event-queue
 * closure and a MailboxSlot payload.
 */
struct PdesTrafficSystem::PtMsg
{
    std::uint64_t ver = 0; ///< version payload (replies, invals)
    std::uint32_t blk = 0;
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
    std::uint8_t type = 0; ///< Mt
    std::uint8_t ev = 0;   ///< Ev
};

/** Directory entry of one shared block (lives at its home node). */
struct PdesTrafficSystem::DirEntry
{
    DynamicBitset sharers;
    std::uint64_t version = 0;
    std::uint32_t pendingAcks = 0;
    NodeId writer = 0;
    bool busy = false;
    std::deque<PtMsg> waiting;
};

/** Per-node state: cache, RNG, link clocks. Owned by one shard. */
struct PdesTrafficSystem::NodeState
{
    struct Line
    {
        std::uint32_t blk;
        std::uint64_t ver;
        std::uint64_t use;
    };

    Random rng;
    std::uint64_t keyGen = 0;   ///< per-node event-key sequence
    std::uint64_t refsLeft = 0;
    std::uint64_t useClock = 0; ///< LRU clock
    std::uint64_t opSeq = 0;    ///< completed-reference counter
    std::uint32_t pendingBlk = 0;
    bool pendingWrite = false;
    bool pendingWasCached = false;
    Tick issueTick = 0;
    Tick srcFree = 0;  ///< injection link busy-until
    Tick portFree = 0; ///< delivery port busy-until
    /** Per-destination FIFO clamp: the omega network delivers in
     *  order per (src, dst) pair; preserve that under the
     *  contention-free interior. */
    std::vector<Tick> lastArrival;
    /** Version floor per block: the monotonicity (value) check. */
    std::vector<std::uint64_t> lastSeen;
    std::vector<Line> cache;
    /** Directory entries of blocks homed here (blk = node + i*N). */
    std::vector<DirEntry> dir;
};

/** Per-shard accumulators and scratch; touched only by the owning
 *  worker, merged by addition (or max) in shard order at the end. */
struct PdesTrafficSystem::Shard
{
    struct Counters
    {
        std::uint64_t refs = 0;
        std::uint64_t readHits = 0;
        std::uint64_t readMisses = 0;
        std::uint64_t writeHits = 0;
        std::uint64_t writeMisses = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t invalAcks = 0;
        std::uint64_t evictions = 0;
        std::uint64_t homeQueued = 0;
        std::uint64_t messages = 0;
        std::uint64_t localMessages = 0;
        std::uint64_t valueErrors = 0;
    };

    EventQueue eq;
    std::unique_ptr<net::OmegaNetwork> net;
    std::vector<NodeId> destScratch;
    Counters c;
    core::OpLatencies lat;
    Tick maxCompletion = 0;
    std::unique_ptr<Tracer> tracer;
    /** Windowed metrics (null unless cfg.metricsEnabled): the cell
     *  array and its sampler are shard-owned like the counters, so
     *  recording stays single-threaded and lock-free. */
    std::unique_ptr<MetricSet> mx;
    std::unique_ptr<MetricsSampler> sampler;
};

PdesTrafficSystem::PdesTrafficSystem(const PdesTrafficConfig &config)
    : cfg(config), map(config.numPorts, config.numShards)
{
    static_assert(std::is_trivially_copyable_v<PtMsg>);
    static_assert(sizeof(PtMsg) <= 24,
                  "PtMsg must stay small: it rides in event "
                  "closures and mailbox slots");
    panic_if(!isPowerOfTwo(cfg.numPorts) || cfg.numPorts < 2,
             "numPorts must be a power of two >= 2");
    panic_if(cfg.numBlocks == 0, "need at least one shared block");
    panic_if(cfg.cacheCapacity == 0, "cacheCapacity must be >= 1");
    panic_if(cfg.refsPerNode == 0, "refsPerNode must be >= 1");
    panic_if(cfg.linkWidthBits == 0, "linkWidthBits must be >= 1");

    const unsigned n_ports = cfg.numPorts;
    const bool metrics = metricsCompiledIn() && cfg.metricsEnabled;
    shards.reserve(map.numShards());
    for (unsigned s = 0; s < map.numShards(); ++s) {
        auto sh = std::make_unique<Shard>();
        sh->net = std::make_unique<net::OmegaNetwork>(n_ports);
        if (cfg.traceEnabled) {
            sh->tracer = std::make_unique<Tracer>(cfg.traceCapacity);
            sh->tracer->setEnabled(true);
            sh->tracer->setOverflowWarn(false);
        }
        if (metrics) {
            if (s == 0)
                registerMetrics(*sh->net);
            sh->mx = std::make_unique<MetricSet>(mreg);
            sh->mx->setEnabled(true);
            sh->sampler = std::make_unique<MetricsSampler>(
                *sh->mx, cfg.metricsWindow, cfg.metricsCapacity);
            sh->sampler->setProbe([this, s] { metricsProbe(s); });
            sh->sampler->arm();
        }
        shards.push_back(std::move(sh));
    }

    nodes.reserve(n_ports);
    for (unsigned n = 0; n < n_ports; ++n) {
        auto ns = std::make_unique<NodeState>();
        ns->rng.seed(cfg.seed ^ (GoldenGamma * (n + 1)));
        ns->refsLeft = cfg.refsPerNode;
        ns->lastArrival.assign(n_ports, 0);
        ns->lastSeen.assign(cfg.numBlocks, 0);
        ns->cache.reserve(cfg.cacheCapacity);
        const unsigned homed =
            n < cfg.numBlocks
                ? (cfg.numBlocks - 1 - n) / n_ports + 1
                : 0;
        ns->dir.resize(homed);
        for (DirEntry &d : ns->dir)
            d.sharers = DynamicBitset(n_ports);
        nodes.push_back(std::move(ns));
    }

    serialQ = std::make_unique<EventQueue>();
    _lookahead = net::TimedNetwork::zeroLoadLookahead(
        shards[0]->net->hopCount(), cfg.hopLatency);
}

PdesTrafficSystem::~PdesTrafficSystem() = default;

void
PdesTrafficSystem::registerMetrics(const net::OmegaNetwork &n0)
{
    const auto levels = n0.topology().numLinkLevels();
    const auto ports = cfg.numPorts;
    pmid.stageBits = mreg.grid("net.stage_bits", levels, ports);
    pmid.stageWait = mreg.grid("net.stage_wait", levels, ports);
    pmid.fanout = mreg.histogram("net.fanout");
    pmid.refs = mreg.counter("pt.refs");
    pmid.messages = mreg.counter("pt.messages");
    pmid.localMessages = mreg.counter("pt.local_messages");
    pmid.homeQueued = mreg.counter("home.queued");
    pmid.invalidations = mreg.counter("home.invalidations");
    pmid.invalAcks = mreg.counter("home.inval_acks");
    pmid.evictions = mreg.counter("pt.evictions");
    pmid.valueErrors = mreg.counter("pt.value_errors");
    pmid.readHits = mreg.counter("pt.read_hits");
    pmid.readMisses = mreg.counter("pt.read_misses");
    pmid.writeHits = mreg.counter("pt.write_hits");
    pmid.writeMisses = mreg.counter("pt.write_misses");
    pmid.dirBusy = mreg.gauge("dir.busy");
    pmid.dirWaiting = mreg.gauge("dir.waiting");
}

void
PdesTrafficSystem::metricsProbe(unsigned s)
{
    // Reads only shard-owned state (this shard's counters and the
    // directories of its nodes), all of it mutated exclusively by
    // this shard's events, so a probe fired at a window boundary
    // sees identical values in the serial and sharded engines.
    Shard &sh = *shards[s];
    MetricSet &mx = *sh.mx;
    const Shard::Counters &c = sh.c;
    mx.set(pmid.refs, c.refs);
    mx.set(pmid.messages, c.messages);
    mx.set(pmid.localMessages, c.localMessages);
    mx.set(pmid.homeQueued, c.homeQueued);
    mx.set(pmid.invalidations, c.invalidations);
    mx.set(pmid.invalAcks, c.invalAcks);
    mx.set(pmid.evictions, c.evictions);
    mx.set(pmid.valueErrors, c.valueErrors);
    mx.set(pmid.readHits, c.readHits);
    mx.set(pmid.readMisses, c.readMisses);
    mx.set(pmid.writeHits, c.writeHits);
    mx.set(pmid.writeMisses, c.writeMisses);
    std::uint64_t busy = 0, waiting = 0;
    for (unsigned n = 0; n < cfg.numPorts; ++n) {
        if (map.shardOf(n) != s)
            continue;
        for (const DirEntry &d : nodes[n]->dir) {
            busy += d.busy ? 1 : 0;
            waiting += d.waiting.size();
        }
    }
    mx.set(pmid.dirBusy, busy);
    mx.set(pmid.dirWaiting, waiting);
}

Tick
PdesTrafficSystem::lookahead() const
{
    return _lookahead;
}

PdesTrafficSystem::Shard &
PdesTrafficSystem::shardOfNode(NodeId n)
{
    return *shards[map.shardOf(n)];
}

EventQueue &
PdesTrafficSystem::queueOfNode(NodeId n)
{
    return mode == Mode::Serial ? *serialQ : shardOfNode(n).eq;
}

NodeId
PdesTrafficSystem::homeOf(std::uint32_t blk) const
{
    return static_cast<NodeId>(blk % cfg.numPorts);
}

std::uint64_t
PdesTrafficSystem::makeKey(NodeId n)
{
    // (node, per-node sequence): unique, deterministic, and
    // identical between the serial and sharded engines -- the total
    // order same-tick events execute in.
    return (static_cast<std::uint64_t>(n) << 40) |
           nodes[n]->keyGen++;
}

Bits
PdesTrafficSystem::payloadBits(std::uint8_t type) const
{
    const Bits control = cfg.sizes.control();
    switch (static_cast<Mt>(type)) {
      case Mt::ReadReply:
      case Mt::WriteGrant:
        return control + cfg.sizes.blockPayload(cfg.blockWords);
      default:
        return control;
    }
}

Tick
PdesTrafficSystem::serialization(Bits bits) const
{
    return (bits + cfg.linkWidthBits - 1) / cfg.linkWidthBits;
}

void
PdesTrafficSystem::scheduleEvent(NodeId from, const PtMsg &m,
                                 Tick when, std::uint64_t key)
{
    // Events execute at their destination node's shard; @p from is
    // the node whose handler is running, so its shard is where this
    // schedule originates.
    auto cb = [this, m, key] { handleEvent(m, key); };
    if (mode == Mode::Serial) {
        serialQ->scheduleKeyed(std::move(cb), when, key);
        return;
    }
    const unsigned dst_shard = map.shardOf(m.dst);
    const unsigned src_shard = map.shardOf(from);
    if (dst_shard == src_shard || exec == nullptr) {
        shards[dst_shard]->eq.scheduleKeyed(std::move(cb), when,
                                            key);
    } else {
        MailboxSlot slot;
        slot.tick = when;
        slot.key = key;
        storePayload(slot, m);
        exec->post(src_shard, dst_shard, slot);
    }
}

void
PdesTrafficSystem::handleEvent(const PtMsg &m, std::uint64_t key)
{
    const Tick now = queueOfNode(m.dst).curTick();
    // Every event executes at its destination's shard, so the
    // destination shard's sampler is the one whose windows this
    // event can close. Advancing before the handler mutates state
    // keeps each snapshot to exactly the events before the boundary
    // (the same contract EventQueue::step applies for the engine).
    Shard &esh = shardOfNode(m.dst);
    if (esh.sampler)
        esh.sampler->advanceTo(now);
    switch (static_cast<Ev>(m.ev)) {
      case Ev::Issue:
        issueRef(m.dst, now);
        break;
      case Ev::Arrive: {
        // Destination-port FIFO drain: the final link is shared by
        // every sender targeting this port, so deliveries queue at
        // the link rate (the hot-spot-home effect).
        NodeState &ds = *nodes[m.dst];
        const Tick ser = serialization(payloadBits(m.type));
        const Tick at = std::max(now, ds.portFree);
        ds.portFree = at + ser;
        if (esh.mx) {
            esh.mx->cell(pmid.stageWait, esh.net->numStages(),
                         m.dst, at - now);
        }
        if (at == now) {
            dispatch(m);
        } else {
            PtMsg dm = m;
            dm.ev = static_cast<std::uint8_t>(Ev::Dispatch);
            scheduleEvent(m.dst, dm, at, key);
        }
        break;
      }
      case Ev::Dispatch:
      case Ev::Local:
        dispatch(m);
        break;
    }
}

void
PdesTrafficSystem::dispatch(const PtMsg &m)
{
    const Tick now = queueOfNode(m.dst).curTick();
    switch (static_cast<Mt>(m.type)) {
      case Mt::ReadReq:
      case Mt::WriteReq:
      case Mt::InvalAck:
      case Mt::EvictNotice:
        homeHandle(m, now);
        break;
      case Mt::ReadReply:
      case Mt::WriteGrant:
      case Mt::Inval:
        cacheHandle(m, now);
        break;
    }
}

void
PdesTrafficSystem::issueRef(NodeId n, Tick now)
{
    NodeState &ns = *nodes[n];
    if (ns.refsLeft == 0)
        return;
    --ns.refsLeft;
    Shard &sh = shardOfNode(n);

    const bool is_write = ns.rng.bernoulli(cfg.writeFraction);
    const auto blk = static_cast<std::uint32_t>(
        ns.rng.uniform(0, cfg.numBlocks - 1));
    ns.pendingBlk = blk;
    ns.pendingWrite = is_write;
    ns.issueTick = now;

    NodeState::Line *line = nullptr;
    for (NodeState::Line &l : ns.cache) {
        if (l.blk == blk) {
            line = &l;
            break;
        }
    }
    ns.pendingWasCached = line != nullptr;

    Tracer *tracer = sh.tracer.get();
    if (tracer) {
        tracer->record(TraceEvent::Issue, now,
                       static_cast<std::uint16_t>(n), 0,
                       is_write, ns.opSeq, blk);
    }

    if (!is_write && line) {
        line->use = ++ns.useClock;
        ++sh.c.readHits;
        completeRef(n, now + cfg.hitLatency, OpClass::ReadHit,
                    cfg.hitLatency);
        return;
    }

    PtMsg req;
    req.blk = blk;
    req.src = static_cast<std::uint16_t>(n);
    req.dst = static_cast<std::uint16_t>(homeOf(blk));
    req.type = static_cast<std::uint8_t>(is_write ? Mt::WriteReq
                                                  : Mt::ReadReq);
    send(n, req);
}

void
PdesTrafficSystem::completeRef(NodeId n, Tick completion,
                               OpClass cls, Tick latency)
{
    Shard &sh = shardOfNode(n);
    NodeState &ns = *nodes[n];
    sh.lat.sample(cls, latency);
    ++sh.c.refs;
    sh.maxCompletion = std::max(sh.maxCompletion, completion);

    Tracer *tracer = sh.tracer.get();
    if (tracer) {
        tracer->record(TraceEvent::Complete, completion,
                       static_cast<std::uint16_t>(n), 0,
                       static_cast<std::uint8_t>(cls), ns.opSeq,
                       latency);
    }
    ++ns.opSeq;

    if (ns.refsLeft > 0) {
        PtMsg iv;
        iv.dst = static_cast<std::uint16_t>(n);
        iv.ev = static_cast<std::uint8_t>(Ev::Issue);
        scheduleEvent(n, iv, completion + cfg.thinkTime,
                      makeKey(n));
    }
}

void
PdesTrafficSystem::send(NodeId src, PtMsg m)
{
    const std::uint64_t key = makeKey(src);
    Shard &sh = shardOfNode(src);
    if (m.dst == src) {
        // Co-located exchange: fixed local latency, no network.
        m.ev = static_cast<std::uint8_t>(Ev::Local);
        ++sh.c.localMessages;
        scheduleEvent(src, m,
                      queueOfNode(src).curTick() + cfg.localLatency,
                      key);
        return;
    }
    m.ev = static_cast<std::uint8_t>(Ev::Arrive);
    ++sh.c.messages;
    const Bits bits = payloadBits(m.type);
    sendTree(src, m, key, [&](Tick now, auto &&visit) {
        sh.net->walkUnicast(src, m.dst, bits, now, visit);
    });
}

template <class WalkTree>
std::uint64_t
PdesTrafficSystem::sendTree(NodeId src, const PtMsg &m,
                            std::uint64_t key, WalkTree walk_tree)
{
    Shard &sh = shardOfNode(src);
    NodeState &ss = *nodes[src];
    MetricSet *mx = sh.mx.get();
    const unsigned last_level = sh.net->numStages();
    std::uint64_t deliveries = 0;

    // A link's value is the tick its message is done with it.
    walk_tree(queueOfNode(src).curTick(), [&](unsigned level,
                                              unsigned line, Bits bits,
                                              Tick ready) {
        sh.net->linkStats().add(level, line, bits);
        const Tick ser = serialization(bits);
        Tick depart = ready;
        if (level == 0) {
            // Injection-link contention: the only serial resource
            // modelled inside the source's shard. Interior stages
            // are zero-load (DESIGN.md 5h); the destination port
            // clamp models the delivery end.
            depart = std::max(ready, ss.srcFree);
            ss.srcFree = depart + ser;
            if (mx)
                mx->cell(pmid.stageWait, 0, line, depart - ready);
        }
        if (mx)
            mx->cell(pmid.stageBits, level, line, bits);
        const Tick done = depart + ser + cfg.hopLatency;
        if (level == last_level) {
            const NodeId dst = line;
            Tick arrival = std::max(done, ss.lastArrival[dst] + 1);
            ss.lastArrival[dst] = arrival;
            ++deliveries;
            PtMsg dm = m;
            dm.dst = static_cast<std::uint16_t>(dst);
            dm.ev = static_cast<std::uint8_t>(Ev::Arrive);
            scheduleEvent(src, dm, arrival, key);
        }
        return done;
    });
    if (mx)
        mx->sample(pmid.fanout, deliveries);
    return deliveries;
}

void
PdesTrafficSystem::homeHandle(const PtMsg &m, Tick now)
{
    const NodeId h = m.dst;
    Shard &sh = shardOfNode(h);
    DirEntry &d = nodes[h]->dir[m.blk / cfg.numPorts];

    switch (static_cast<Mt>(m.type)) {
      case Mt::ReadReq: {
        if (d.busy) {
            d.waiting.push_back(m);
            ++sh.c.homeQueued;
            break;
        }
        d.sharers.set(m.src);
        PtMsg r;
        r.ver = d.version;
        r.blk = m.blk;
        r.src = static_cast<std::uint16_t>(h);
        r.dst = m.src;
        r.type = static_cast<std::uint8_t>(Mt::ReadReply);
        send(h, r);
        break;
      }
      case Mt::WriteReq:
        if (d.busy) {
            d.waiting.push_back(m);
            ++sh.c.homeQueued;
            break;
        }
        startWrite(h, d, m, now);
        break;
      case Mt::InvalAck:
        ++sh.c.invalAcks;
        panic_if(!d.busy || d.pendingAcks == 0,
                 "stray invalidation ack for block %u", m.blk);
        if (--d.pendingAcks == 0)
            commitWrite(h, d, m.blk, d.writer, now);
        break;
      case Mt::EvictNotice:
        d.sharers.set(m.src, false);
        break;
      default:
        panic("cache message %u delivered to a home", m.type);
    }
}

void
PdesTrafficSystem::startWrite(NodeId h, DirEntry &d, const PtMsg &m,
                              Tick now)
{
    Shard &sh = shardOfNode(h);
    std::vector<NodeId> &dests = sh.destScratch;
    dests.clear();
    bool self_target = false;
    for (unsigned p = 0; p < cfg.numPorts; ++p) {
        if (!d.sharers.test(p) || p == m.src)
            continue;
        if (p == h)
            self_target = true;
        else
            dests.push_back(p);
    }

    if (!self_target && dests.empty()) {
        commitWrite(h, d, m.blk, m.src, now);
        return;
    }

    d.busy = true;
    d.writer = m.src;
    std::uint32_t acks = 0;

    PtMsg inv;
    inv.ver = d.version;
    inv.blk = m.blk;
    inv.src = static_cast<std::uint16_t>(h);
    inv.type = static_cast<std::uint8_t>(Mt::Inval);

    if (self_target) {
        PtMsg li = inv;
        li.dst = static_cast<std::uint16_t>(h);
        li.ev = static_cast<std::uint8_t>(Ev::Local);
        ++sh.c.localMessages;
        scheduleEvent(h, li, now + cfg.localLatency, makeKey(h));
        ++acks;
    }

    if (!dests.empty()) {
        // Scheme-selected multicast tree (the paper's Sec. 3
        // machinery). Acks are counted per *delivery*: a scheme-3
        // subcube may overshoot the sharer set, and every reached
        // cache acknowledges, so the count stays consistent.
        ++sh.c.messages;
        inv.ev = static_cast<std::uint8_t>(Ev::Arrive);
        const Bits bits = payloadBits(inv.type);
        acks += sendTree(h, inv, makeKey(h), [&](Tick now,
                                                 auto &&visit) {
            sh.net->walk(cfg.scheme, h, dests, bits, now, visit);
        });
    }

    sh.c.invalidations += dests.size() + (self_target ? 1 : 0);
    d.pendingAcks = acks;
}

void
PdesTrafficSystem::commitWrite(NodeId h, DirEntry &d,
                               std::uint32_t blk, NodeId writer,
                               Tick now)
{
    ++d.version;
    d.sharers.clear();
    d.sharers.set(writer);
    d.busy = false;
    d.pendingAcks = 0;

    PtMsg g;
    g.ver = d.version;
    g.blk = blk;
    g.src = static_cast<std::uint16_t>(h);
    g.dst = static_cast<std::uint16_t>(writer);
    g.type = static_cast<std::uint8_t>(Mt::WriteGrant);
    send(h, g);

    drainWaiting(h, d, now);
}

void
PdesTrafficSystem::drainWaiting(NodeId h, DirEntry &d, Tick now)
{
    while (!d.busy && !d.waiting.empty()) {
        const PtMsg m = d.waiting.front();
        d.waiting.pop_front();
        if (static_cast<Mt>(m.type) == Mt::ReadReq) {
            d.sharers.set(m.src);
            PtMsg r;
            r.ver = d.version;
            r.blk = m.blk;
            r.src = static_cast<std::uint16_t>(h);
            r.dst = m.src;
            r.type = static_cast<std::uint8_t>(Mt::ReadReply);
            send(h, r);
        } else {
            startWrite(h, d, m, now);
        }
    }
}

void
PdesTrafficSystem::cacheHandle(const PtMsg &m, Tick now)
{
    const NodeId n = m.dst;
    Shard &sh = shardOfNode(n);
    NodeState &ns = *nodes[n];

    switch (static_cast<Mt>(m.type)) {
      case Mt::ReadReply:
        if (m.ver < ns.lastSeen[m.blk])
            ++sh.c.valueErrors;
        else
            ns.lastSeen[m.blk] = m.ver;
        install(n, m.blk, m.ver, now);
        ++sh.c.readMisses;
        completeRef(n, now, OpClass::ReadMiss,
                    now - ns.issueTick);
        break;
      case Mt::WriteGrant:
        if (m.ver < ns.lastSeen[m.blk])
            ++sh.c.valueErrors;
        else
            ns.lastSeen[m.blk] = m.ver;
        install(n, m.blk, m.ver, now);
        if (ns.pendingWasCached) {
            ++sh.c.writeHits;
            completeRef(n, now, OpClass::WriteHit,
                        now - ns.issueTick);
        } else {
            ++sh.c.writeMisses;
            completeRef(n, now, OpClass::WriteMiss,
                        now - ns.issueTick);
        }
        break;
      case Mt::Inval: {
        for (std::size_t i = 0; i < ns.cache.size(); ++i) {
            if (ns.cache[i].blk == m.blk) {
                ns.cache[i] = ns.cache.back();
                ns.cache.pop_back();
                break;
            }
        }
        PtMsg ack;
        ack.blk = m.blk;
        ack.src = static_cast<std::uint16_t>(n);
        ack.dst = static_cast<std::uint16_t>(homeOf(m.blk));
        ack.type = static_cast<std::uint8_t>(Mt::InvalAck);
        send(n, ack);
        break;
      }
      default:
        panic("home message %u delivered to a cache", m.type);
    }
}

void
PdesTrafficSystem::install(NodeId n, std::uint32_t blk,
                           std::uint64_t ver, Tick /*now*/)
{
    NodeState &ns = *nodes[n];
    for (NodeState::Line &l : ns.cache) {
        if (l.blk == blk) {
            l.ver = ver;
            l.use = ++ns.useClock;
            return;
        }
    }
    if (ns.cache.size() >= cfg.cacheCapacity) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < ns.cache.size(); ++i) {
            if (ns.cache[i].use < ns.cache[victim].use)
                victim = i;
        }
        const std::uint32_t victim_blk = ns.cache[victim].blk;
        ns.cache[victim] = {blk, ver, ++ns.useClock};
        ++shardOfNode(n).c.evictions;
        PtMsg en;
        en.blk = victim_blk;
        en.src = static_cast<std::uint16_t>(n);
        en.dst = static_cast<std::uint16_t>(homeOf(victim_blk));
        en.type = static_cast<std::uint8_t>(Mt::EvictNotice);
        send(n, en);
    } else {
        ns.cache.push_back({blk, ver, ++ns.useClock});
    }
}

void
PdesTrafficSystem::seedIssues()
{
    for (unsigned n = 0; n < cfg.numPorts; ++n) {
        PtMsg iv;
        iv.dst = static_cast<std::uint16_t>(n);
        iv.ev = static_cast<std::uint8_t>(Ev::Issue);
        scheduleEvent(n, iv, 0, makeKey(n));
    }
}

Tick
PdesTrafficSystem::shardNextTick(unsigned shard)
{
    return shards[shard]->eq.nextTick();
}

void
PdesTrafficSystem::shardExecute(unsigned shard, Tick bound)
{
    shards[shard]->eq.run(bound - 1);
}

void
PdesTrafficSystem::shardIntegrate(unsigned shard,
                                  const MailboxSlot &slot)
{
    const PtMsg m = loadPayload<PtMsg>(slot);
    const std::uint64_t key = slot.key;
    shards[shard]->eq.scheduleKeyed(
        [this, m, key] { handleEvent(m, key); }, slot.tick, key);
}

PdesTrafficResult
PdesTrafficSystem::run(unsigned num_threads)
{
    panic_if(mode != Mode::Idle,
             "a PdesTrafficSystem runs exactly once");
    mode = Mode::Sharded;
    seedIssues();
    PdesExecutor executor(*this, map.numShards(), _lookahead,
                          cfg.mailboxCapacity);
    exec = &executor;
    _diag = executor.run(num_threads);
    exec = nullptr;
    return collect();
}

PdesTrafficResult
PdesTrafficSystem::runSerial()
{
    panic_if(mode != Mode::Idle,
             "a PdesTrafficSystem runs exactly once");
    mode = Mode::Serial;
    seedIssues();
    serialQ->run();
    return collect();
}

PdesTrafficResult
PdesTrafficSystem::collect()
{
    PdesTrafficResult r;
    for (const auto &sh : shards) {
        const Shard::Counters &c = sh->c;
        r.refs += c.refs;
        r.readHits += c.readHits;
        r.readMisses += c.readMisses;
        r.writeHits += c.writeHits;
        r.writeMisses += c.writeMisses;
        r.invalidations += c.invalidations;
        r.invalAcks += c.invalAcks;
        r.evictions += c.evictions;
        r.homeQueued += c.homeQueued;
        r.messages += c.messages;
        r.localMessages += c.localMessages;
        r.valueErrors += c.valueErrors;
        r.networkBits += sh->net->linkStats().totalBits();
        r.linkTraversals += sh->net->linkStats().traversals();
        r.makespan = std::max(r.makespan, sh->maxCompletion);
        r.latencies.merge(sh->lat);
        r.events += sh->eq.executedEvents();
    }
    if (mode == Mode::Serial)
        r.events = serialQ->executedEvents();
    // Close every shard's final metrics window at the merged
    // makespan: both engines finish at the same tick, so the final
    // window index (and its endTick) is mode-independent.
    for (const auto &sh : shards) {
        if (sh->sampler)
            sh->sampler->finish(r.makespan);
    }
    result = r;
    finished = true;
    return r;
}

std::vector<MetricsWindow>
PdesTrafficSystem::metricsWindows() const
{
    std::vector<const MetricsSampler *> samplers;
    samplers.reserve(shards.size());
    for (const auto &sh : shards)
        samplers.push_back(sh->sampler.get());
    return mergeMetricWindows(samplers);
}

void
PdesTrafficSystem::dumpStats(std::ostream &os) const
{
    panic_if(!finished, "dumpStats before the run finished");
    const PdesTrafficResult &r = result;
    os << "pdes-traffic: ports=" << cfg.numPorts
       << " shards=" << map.numShards()
       << " blocks=" << cfg.numBlocks
       << " refs/node=" << cfg.refsPerNode
       << " w=" << cfg.writeFraction << "\n";
    os << "  refs=" << r.refs << " makespan=" << r.makespan
       << " events=" << r.events << "\n";
    os << "  reads: hits=" << r.readHits
       << " misses=" << r.readMisses
       << "  writes: hits=" << r.writeHits
       << " misses=" << r.writeMisses << "\n";
    os << "  net: bits=" << r.networkBits
       << " traversals=" << r.linkTraversals
       << " messages=" << r.messages
       << " local=" << r.localMessages << "\n";
    os << "  home: queued=" << r.homeQueued
       << " invals=" << r.invalidations
       << " acks=" << r.invalAcks
       << " evictions=" << r.evictions << "\n";
    os << "  value-errors=" << r.valueErrors << "\n";
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(OpClass::NumClasses); ++c) {
        const core::LatencyHistogram &h =
            r.latencies.of(static_cast<OpClass>(c));
        if (h.count() == 0)
            continue;
        os << "  lat[" << opClassName(static_cast<OpClass>(c))
           << "]: n=" << h.count() << " p50=" << h.percentile(0.50)
           << " p95=" << h.percentile(0.95) << " max=" << h.max()
           << "\n";
    }
}

void
PdesTrafficSystem::exportChromeTrace(std::ostream &os) const
{
    std::vector<const Tracer *> tracers;
    tracers.reserve(shards.size());
    for (const auto &sh : shards)
        tracers.push_back(sh->tracer.get());
    // Counter tracks (empty without metrics) share the timeline
    // with the span rows, so Perfetto shows per-stage contention
    // beside the transactions that caused it.
    mscp::exportChromeTrace(os, mergeTraceRecords(tracers),
                            metricsCounterTrackEvents(
                                mreg, metricsWindows()));
}

} // namespace mscp::timed
