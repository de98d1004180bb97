/**
 * @file
 * Sharded timed traffic engine: a write-invalidate directory
 * protocol under conservative PDES (sim/pdes.hh).
 *
 * The model simulates N processor/memory ports around the omega
 * network. Every shared block has a home memory module (interleaved:
 * home = block mod N) holding the directory entry -- a presence
 * vector, a version counter and a busy/wait queue. A read reply
 * installs a copy at the reader; writes are serialized at the home,
 * which multicasts invalidations to the present caches
 * (scheme-selectable, the paper's Sec. 3 machinery), collects
 * acknowledgements, bumps the version and grants the writer. This is
 * not the paper's global-read mode, which keeps the only copy at the
 * owner and answers a remote read with one datum. The run shards
 * because every block's serialization state lives at its home: every
 * node's cache and its co-located directory live on one shard and
 * are touched only by that shard's events.
 *
 * Timing model: store-and-forward serialization on the injection
 * link (per-source link-free bookkeeping), zero-load traversal of
 * the interior stages, and a FIFO drain clamp at the destination
 * port (the final link is the shared resource that matters for
 * hot-spot homes). Messages between a pair of ports are delivered
 * in send order (the omega network has one path per pair and serial
 * links, so the real network is FIFO per pair too; a per-pair clamp
 * preserves that under the contention-free interior). Co-located
 * exchanges skip the network and cost localLatency. The minimum
 * cross-port latency -- net::TimedNetwork::zeroLoadLookahead() --
 * is the PDES lookahead.
 *
 * Determinism: every message carries a (source node, per-node
 * sequence) ordering key; both the serial engine (one global keyed
 * queue) and the sharded engine (per-shard queues + mailboxes)
 * execute same-tick events in identical key order, and all mutable
 * state is owned by exactly one shard. Stats are per-shard
 * accumulators merged by addition in shard order, so results are
 * bit-identical for any worker count and identical to the serial
 * engine (tests/timed/test_pdes_traffic.cc).
 */

#ifndef MSCP_TIMED_PDES_TRAFFIC_HH
#define MSCP_TIMED_PDES_TRAFFIC_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "core/latency.hh"
#include "net/omega_network.hh"
#include "net/route.hh"
#include "proto/message.hh"
#include "sim/bitset.hh"
#include "sim/eventq.hh"
#include "sim/metrics.hh"
#include "sim/pdes.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace mscp::timed
{

/** Parameters of a sharded timed traffic run. */
struct PdesTrafficConfig
{
    unsigned numPorts = 64;   ///< N (power of two)
    unsigned numShards = 8;   ///< fixed shard count (not threads!)
    unsigned blockWords = 4;
    unsigned cacheCapacity = 16; ///< blocks one cache can hold
    unsigned numBlocks = 64;     ///< shared blocks, homed blk mod N
    double writeFraction = 0.2;
    std::uint64_t refsPerNode = 1000;
    std::uint64_t seed = 1;
    net::Scheme scheme = net::Scheme::Combined;
    proto::MessageSizes sizes;
    Bits linkWidthBits = 16;
    Tick hopLatency = 1;
    Tick hitLatency = 1;
    Tick localLatency = 2;
    Tick thinkTime = 0;
    /** Mailbox ring slots per shard pair (bursts spill safely). */
    std::size_t mailboxCapacity = 1024;
    /** Per-shard trace rings (merged time-ordered on export). */
    bool traceEnabled = false;
    std::size_t traceCapacity = 4096;
    /** Per-shard windowed metrics (sim/metrics.hh), merged by
     *  carry-forward addition on export. Shard count is fixed by
     *  numShards, so the merged series is bit-identical for any
     *  worker count and for the serial engine. */
    bool metricsEnabled = false;
    Tick metricsWindow = 4096;
    std::size_t metricsCapacity = 256;
};

/**
 * Outcome of a run. Every field is a sum, max or histogram merged
 * from per-shard accumulators in shard order; the defaulted
 * operator== is the determinism oracle the tests compare across
 * worker counts and against the serial engine.
 */
struct PdesTrafficResult
{
    std::uint64_t refs = 0;
    Bits networkBits = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t messages = 0;      ///< network messages sent
    std::uint64_t localMessages = 0; ///< co-located exchanges
    std::uint64_t events = 0;        ///< event-queue events executed
    Tick makespan = 0;
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t invalidations = 0; ///< invalidation targets
    std::uint64_t invalAcks = 0;
    std::uint64_t evictions = 0;
    std::uint64_t homeQueued = 0;    ///< requests parked busy
    std::uint64_t valueErrors = 0;   ///< version monotonicity breaks
    core::OpLatencies latencies;

    double
    bitsPerRef() const
    {
        return refs ? static_cast<double>(networkBits) /
                          static_cast<double>(refs)
                    : 0.0;
    }

    bool operator==(const PdesTrafficResult &) const = default;
};

/**
 * One system = one run (like OmegaNetwork, single-run state).
 * Construct, then call exactly one of run() / runSerial().
 */
class PdesTrafficSystem : public PdesClient
{
  public:
    explicit PdesTrafficSystem(const PdesTrafficConfig &cfg);
    ~PdesTrafficSystem() override;

    /**
     * Windowed sharded execution on @p num_threads workers
     * (default MSCP_PDES_THREADS). Results are bit-identical for
     * any worker count.
     */
    PdesTrafficResult run(unsigned num_threads = pdesDefaultThreads());

    /**
     * Reference engine: the identical model on one global keyed
     * event queue, no shards, no windows. run() must match this
     * bit for bit.
     */
    PdesTrafficResult runSerial();

    /** PDES lookahead used by run(): min cross-port latency. */
    Tick lookahead() const;

    /** Window/mailbox diagnostics of the last run() (zero for
     *  runSerial(): the serial engine has no windows). */
    const PdesDiag &diag() const { return _diag; }

    /** Deterministic stats text: identical bytes for any worker
     *  count and for the serial engine. */
    void dumpStats(std::ostream &os) const;

    /** Merged time-ordered Chrome trace of all shard rings, with
     *  per-stage metric counter tracks spliced in when metrics are
     *  enabled. */
    void exportChromeTrace(std::ostream &os) const;

    /** @{ windowed metrics (empty unless cfg.metricsEnabled) */
    const MetricsRegistry &metricsRegistry() const { return mreg; }
    /** Per-shard window streams merged into the single cumulative
     *  series a one-shard run would produce (bit-identical for any
     *  worker count and for the serial engine). */
    std::vector<MetricsWindow> metricsWindows() const;
    /** @} */

    /** @{ PdesClient (driven by the executor; not for callers) */
    Tick shardNextTick(unsigned shard) override;
    void shardExecute(unsigned shard, Tick bound) override;
    void shardIntegrate(unsigned shard,
                        const MailboxSlot &slot) override;
    /** @} */

  private:
    struct Shard;
    struct NodeState;
    struct DirEntry;
    struct PtMsg;

    enum class Mode : std::uint8_t { Idle, Serial, Sharded };

    Shard &shardOfNode(NodeId n);
    EventQueue &queueOfNode(NodeId n);
    NodeId homeOf(std::uint32_t blk) const;
    std::uint64_t makeKey(NodeId n);
    Bits payloadBits(std::uint8_t type) const;
    Tick serialization(Bits bits) const;

    void seedIssues();
    PdesTrafficResult collect();

    /** Schedule an event from the shard owning @p from (the node
     *  whose handler is running): same-shard events go straight to
     *  the shard queue, cross-shard events through the executor's
     *  mailbox. No thread-shared "current shard" state -- the
     *  posting shard is derived from the caller's node, so workers
     *  never race on it. */
    void scheduleEvent(NodeId from, const PtMsg &m, Tick when,
                       std::uint64_t key);
    void handleEvent(const PtMsg &m, std::uint64_t key);
    void dispatch(const PtMsg &m);

    void issueRef(NodeId n, Tick now);
    void completeRef(NodeId n, Tick completion, OpClass cls,
                     Tick latency);
    void send(NodeId src, PtMsg m);
    /** Time the message tree @p walk_tree walks (it is called
     *  with the send tick and the link visitor and hands the
     *  visitor to one of the network's walks): commits link stats
     *  and schedules one Arrive per delivery.
     *  @return the number of deliveries */
    template <class WalkTree>
    std::uint64_t sendTree(NodeId src, const PtMsg &m,
                           std::uint64_t key, WalkTree walk_tree);

    /** Register the per-shard series (grids shaped after @p n0's
     *  topology); fill pmid. */
    void registerMetrics(const net::OmegaNetwork &n0);
    /** Shard @p s's sampler probe: refresh the directory gauges and
     *  mirror the shard counters just before a window snapshot. */
    void metricsProbe(unsigned s);

    void homeHandle(const PtMsg &m, Tick now);
    void cacheHandle(const PtMsg &m, Tick now);
    void startWrite(NodeId h, DirEntry &d, const PtMsg &m, Tick now);
    void commitWrite(NodeId h, DirEntry &d, std::uint32_t blk,
                     NodeId writer, Tick now);
    void drainWaiting(NodeId h, DirEntry &d, Tick now);
    void install(NodeId n, std::uint32_t blk, std::uint64_t ver,
                 Tick now);

    /** Handles of the per-shard metric series. Contention grids are
     *  shaped numLinkLevels() x numPorts: row 0 is the injection
     *  link, the last row the delivery port drain (the two serial
     *  resources of the timing model; interior rows of stage_wait
     *  stay zero by construction). */
    struct PdesMetricIds
    {
        MetricId stageBits;   ///< grid: bits moved per (level, line)
        MetricId stageWait;   ///< grid: contention wait ticks
        MetricId fanout;      ///< histogram: deliveries per tree
        MetricId refs;        ///< counter (probe-mirrored)
        MetricId messages;
        MetricId localMessages;
        MetricId homeQueued;
        MetricId invalidations;
        MetricId invalAcks;
        MetricId evictions;
        MetricId valueErrors;
        MetricId readHits;
        MetricId readMisses;
        MetricId writeHits;
        MetricId writeMisses;
        MetricId dirBusy;     ///< gauge: busy directory entries
        MetricId dirWaiting;  ///< gauge: parked requests
    };

    PdesTrafficConfig cfg;
    ShardMap map;
    Tick _lookahead;
    MetricsRegistry mreg;
    PdesMetricIds pmid;
    Mode mode = Mode::Idle;
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<std::unique_ptr<NodeState>> nodes;
    /** Global event queue of the serial reference engine. */
    std::unique_ptr<EventQueue> serialQ;
    PdesExecutor *exec = nullptr;
    PdesDiag _diag;
    PdesTrafficResult result;
    bool finished = false;
};

} // namespace mscp::timed

#endif // MSCP_TIMED_PDES_TRAFFIC_HH
