/**
 * @file
 * Parallel sweep runner: fan independent simulation runs over a
 * thread pool.
 *
 * The paper's evaluation is a grid of independent experiments
 * (write fraction x sharer count x engine x machine shape). Each
 * grid point builds its own network, protocol engine and seeded
 * workload, so points share no mutable state and can execute on any
 * thread. Results are keyed by point index; because the index ->
 * point mapping is fixed and every run is seeded, the result vector
 * is bit-identical regardless of the number of threads (asserted by
 * tests/core/test_sweep.cc).
 *
 * The number of worker threads defaults to MSCP_THREADS or the
 * hardware concurrency (see sim/pool.hh); one thread executes
 * inline with no thread machinery.
 */

#ifndef MSCP_CORE_SWEEP_HH
#define MSCP_CORE_SWEEP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/pool.hh"
#include "sim/types.hh"

namespace mscp::core
{

/** Engine a sweep point runs. */
enum class EngineKind : std::uint8_t
{
    NoCache,        ///< no-cache reference protocol
    WriteOnce,      ///< write-once baseline
    FullMap,        ///< full-map directory baseline
    Dragon,         ///< Dragon-style update baseline
    TwoModeForceDW, ///< two-mode engine, pinned distributed write
    TwoModeForceGR, ///< two-mode engine, pinned global read
    TwoModeAdaptive,///< two-mode engine, Sec. 5 adaptive policy
    AtomicTwoMode,  ///< two-mode engine, engine-default policy
    Concurrent,     ///< message-level concurrent engine
};

/** Printable engine name. */
const char *engineKindName(EngineKind k);

/**
 * One independent run: machine shape, workload parameters, engine.
 * The shared region is homed at the top of the address space
 * ((numPorts - numBlocks) * blockWords), matching the bench setup.
 */
struct SweepPoint
{
    EngineKind engine = EngineKind::TwoModeAdaptive;
    unsigned numPorts = 64;
    unsigned blockWords = 4;
    unsigned sets = 16;
    unsigned assoc = 2;
    unsigned tasks = 8;
    double writeFraction = 0.2;
    unsigned numBlocks = 4;
    std::uint64_t numRefs = 10000;
    std::uint64_t seed = 1;        ///< per-run RNG seed
    std::uint64_t adaptWindow = 16;

    /** @{ fault soak (concurrent engine only; all off by default).
     *  The knobs build the recoverable-plan shape: drops on
     *  requests (the class the timeout retries), duplicates on
     *  requests and replies, random delay on every class. */
    double faultDropRate = 0;   ///< request-drop probability
    double faultDupRate = 0;    ///< request/reply dup probability
    double faultDelayRate = 0;  ///< extra-delay probability
    std::uint64_t faultSeed = 0xfa117;
    Tick timeoutBase = 0;       ///< 0 = timeouts off
    unsigned maxRetries = 8;
    Tick watchdogPeriod = 0;    ///< 0 = watchdog off
    Tick watchdogAge = 50000;
    /** Run the end-state invariant checker after a clean run. */
    bool checkEndState = false;
    /** @} */

    /** @{ crash-stop schedule (concurrent engine only; off by
     *  default). crashNode == invalidNode disables crashes. When a
     *  restart delta is given the node rejoins cold at
     *  crashTick + crashRestartDelta; 0 means it stays down. */
    NodeId crashNode = invalidNode;
    Tick crashTick = 0;
    Tick crashRestartDelta = 0;
    /** @} */

    /** @{ observability (concurrent engine only) */
    /** Enable the event tracer for this point (the engine also
     *  auto-enables it while a watchdog is armed). */
    bool traceEnabled = false;
    /** Tracer ring capacity in records. */
    std::size_t traceCapacity = 4096;
    /** Enable windowed metrics for this point (sim/metrics.hh);
     *  runPointObserved forces it on when given a metrics stream. */
    bool metricsEnabled = false;
    /** Metrics window width in ticks. */
    Tick metricsWindow = 2048;
    /** @} */
};

/** Result of one sweep point. */
struct SweepResult
{
    std::uint64_t refs = 0;
    Bits networkBits = 0;
    std::uint64_t messages = 0;
    std::uint64_t valueErrors = 0;
    /** @{ concurrent engine only (zero otherwise) */
    Tick makespan = 0;
    double avgReadLatency = 0;
    double avgWriteLatency = 0;
    std::uint64_t homeQueued = 0;
    std::uint64_t pointerNacks = 0;
    /** @} */
    /** @{ fault soak (concurrent engine only, zero otherwise) */
    std::uint64_t deadlocks = 0;
    /** The engine's deadlockReport() when the watchdog fired. */
    std::string deadlockReport;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t faultDrops = 0;
    std::uint64_t faultDups = 0;
    /** End-state invariant violations (checkEndState only). */
    std::uint64_t invariantErrors = 0;
    /** @} */
    /** @{ crash-stop recovery (zero without a crash schedule) */
    std::uint64_t crashes = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t suspects = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t crashMasked = 0;
    std::uint64_t recoveryRestarts = 0;
    std::uint64_t refsLost = 0;
    /** @} */

    double
    bitsPerRef() const
    {
        return refs ? static_cast<double>(networkBits) /
            static_cast<double>(refs) : 0.0;
    }

    bool operator==(const SweepResult &) const = default;
};

/** Execute one point (serial helper; thread-safe by construction). */
SweepResult runPoint(const SweepPoint &pt);

/**
 * Execute one concurrent-engine point with any combination of
 * observability exports (either stream may be null):
 *
 *  - @p trace_out: Chrome trace_event JSON of the run, with the
 *    metrics counter tracks spliced onto the same timeline when
 *    metrics are on -- one Perfetto view of spans and contention;
 *  - @p metrics_out: the run's window series as JSON Lines
 *    (schema at exportMetricsJsonLines in sim/metrics.hh), each
 *    record tagged with @p metrics_label so multi-run files stay
 *    separable.
 *
 * Whichever stream is given forces the matching subsystem on. The
 * SweepResult is identical to runPoint's for the same point:
 * observation never perturbs simulation results.
 */
SweepResult runPointObserved(const SweepPoint &pt,
                             std::ostream *trace_out,
                             std::ostream *metrics_out,
                             const char *metrics_label = "");

/**
 * Bench observability hook: when MSCP_TRACE_OUT and/or
 * MSCP_METRICS_OUT name files, re-run @p pt (a concurrent-engine
 * point) through runPointObserved() and write the requested
 * exports; a no-op when neither variable is set, so bench stdout
 * and timing stay untouched. The trace file is truncated (one
 * trace per file); the metrics file is appended (JSON Lines
 * records from several benches may share one file, told apart by
 * @p metrics_label).
 *
 * @return true iff an observed run happened.
 */
bool capturePointObservability(const SweepPoint &pt,
                               const char *metrics_label);

/**
 * Execute every point, fanned over @p num_threads workers.
 * results[i] corresponds to points[i] and is bit-identical for any
 * thread count.
 *
 * A point that throws (a panic or fatal error inside its run) or
 * whose watchdog reports a deadlock does not stop the others. Once
 * every point has finished, runSweep throws one std::runtime_error
 * whose message lists each failed point in index order -- index,
 * engine, seed, w, tasks, ports, crash schedule, then the error
 * text or "watchdog deadlock" and the first line of the deadlock
 * report -- so the report is the same for any thread count.
 *
 * Threading knobs are orthogonal: MSCP_THREADS (ThreadPool) fans
 * independent points across workers, while MSCP_PDES_THREADS
 * (sim/pdes.hh) shards a single timed run internally. A sweep of
 * PDES-driven points may use both -- each point's run is itself
 * deterministic for any PDES worker count, so the sweep contract
 * is unchanged.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepPoint> &points,
                                  unsigned num_threads =
                                      ThreadPool::defaultThreads());

} // namespace mscp::core

#endif // MSCP_CORE_SWEEP_HH
