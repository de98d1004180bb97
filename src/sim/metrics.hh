/**
 * @file
 * Windowed time-series metrics for the simulation engines.
 *
 * Three layers, mirroring the tracer's cost discipline (trace.hh):
 *
 *  - MetricsRegistry: a schema of named series -- scalar counters,
 *    gauges, log2 histograms and 2-D counter grids (the stage x port
 *    contention heatmap). Registration returns a POD MetricId handle
 *    used on the hot paths; the registry itself is consulted only at
 *    export time.
 *
 *  - MetricSet: one flat array of 64-bit cells per engine (or per
 *    PDES shard). Every mutation is plain unsigned addition or an
 *    overwrite, so merging per-shard sets is element-wise addition:
 *    commutative, associative, and bit-identical for any worker
 *    count (the LinkStats / LatencyHistogram discipline).
 *
 *  - MetricsSampler: snapshots the cell array into a fixed-stride
 *    ring every W sim-ticks. Snapshots are cumulative; deltas are
 *    computed at export time. Sampling is lazy -- driven from event
 *    execution, one snapshot per crossed window boundary, with gaps
 *    (idle windows) filled by carry-forward at merge/export time --
 *    so an idle stretch costs nothing and cannot flood the ring.
 *
 * Cost model: runtime-disabled, every mutator is a single
 * predictable branch, and the sampler's advanceTo() is one
 * comparison.
 *
 * Determinism: per-shard sets are sampled by per-shard samplers at
 * the shard's own event ticks, and shard count is fixed by
 * configuration (never by thread count), so the merged window
 * series is bit-identical across MSCP_THREADS / MSCP_PDES_THREADS
 * and between the serial and sharded PDES engines.
 */

#ifndef MSCP_SIM_METRICS_HH
#define MSCP_SIM_METRICS_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace mscp
{

/** Always true: every build carries the metrics layer. perfbench
 *  prints it in each run's identity record. */
constexpr bool
metricsCompiledIn()
{
    return true;
}

/** How a series' cells are interpreted at export time. */
enum class MetricKind : std::uint8_t
{
    Counter,   ///< monotone cumulative count; exported as deltas
    Gauge,     ///< instantaneous level; exported as-is
    Histogram, ///< log2 bucket counts (MetricHistBuckets cells)
    Grid,      ///< rows x cols counter cells (heatmap series)
};

/** Buckets of a log2 histogram series: bucket 0 holds value 0,
 *  bucket b >= 1 holds values in [2^(b-1), 2^b), the last bucket
 *  absorbs everything larger. */
constexpr std::uint32_t MetricHistBuckets = 16;

/** @return the log2 histogram bucket of @p v. */
inline std::uint32_t
metricBucket(std::uint64_t v)
{
    const auto w = static_cast<std::uint32_t>(std::bit_width(v));
    return w < MetricHistBuckets ? w : MetricHistBuckets - 1;
}

/**
 * Hot-path handle of one registered series: the first cell's index
 * and the row stride for grid cells. Fixed-width trivially copyable
 * POD (pinned by the static_asserts below) so instrumented objects
 * can hold handles by value with a frozen layout.
 */
struct MetricId
{
    std::uint32_t slot = 0;
    std::uint16_t cols = 1; ///< cells per row (grid stride)
    std::uint16_t _pad = 0;
};

static_assert(sizeof(MetricId) == 8,
              "MetricId must stay a packed 8-byte POD");
static_assert(std::is_trivially_copyable_v<MetricId>,
              "MetricId must stay trivially copyable");
static_assert(std::has_unique_object_representations_v<MetricId>,
              "MetricId members must stay fixed-width with no padding");

/** Schema entry of one registered series. */
struct MetricSeries
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint32_t slot = 0; ///< first cell in the flat array
    std::uint32_t rows = 1;
    std::uint32_t cols = 1;

    std::uint32_t cells() const { return rows * cols; }
};

/**
 * Series schema shared by every MetricSet of one engine (and by all
 * PDES shards of one system). Register every series before
 * constructing the sets; the registry must outlive them.
 */
class MetricsRegistry
{
  public:
    /** Monotone cumulative counter (exported as per-window deltas). */
    MetricId counter(std::string name);

    /** Instantaneous level, refreshed by the sampler probe. */
    MetricId gauge(std::string name);

    /** log2 histogram of MetricHistBuckets buckets. */
    MetricId histogram(std::string name);

    /**
     * rows x cols grid of counter cells -- the heatmap series shape
     * (rows = network link level, cols = port/line).
     */
    MetricId grid(std::string name, std::uint32_t rows,
                  std::uint32_t cols);

    const std::vector<MetricSeries> &series() const { return defs; }

    /** Total cells one MetricSet of this schema holds. */
    std::uint32_t cellCount() const { return total; }

  private:
    MetricId add(std::string name, MetricKind kind,
                 std::uint32_t rows, std::uint32_t cols);

    std::vector<MetricSeries> defs;
    std::uint32_t total = 0;
};

/**
 * One engine's (or one shard's) cell array. Mutators follow the
 * tracer contract: one branch while runtime-disabled.
 */
class MetricSet
{
  public:
    explicit MetricSet(const MetricsRegistry &registry);

    const MetricsRegistry &registry() const { return *reg; }

    /** Runtime enable; mutators are no-ops while disabled. */
    void setEnabled(bool on) { _enabled = on; }

    bool enabled() const { return _enabled; }

    /** Add @p d to a scalar counter. */
    void
    add(MetricId id, std::uint64_t d = 1)
    {
        if (!_enabled)
            return;
        cells[id.slot] += d;
    }

    /** Overwrite a scalar cell (gauges, probe-mirrored counters). */
    void
    set(MetricId id, std::uint64_t v)
    {
        if (!_enabled)
            return;
        cells[id.slot] = v;
    }

    /** Count @p v into a log2 histogram series. */
    void
    sample(MetricId id, std::uint64_t v)
    {
        if (!_enabled)
            return;
        cells[id.slot + metricBucket(v)] += 1;
    }

    /** Add @p d to grid cell (@p row, @p col). */
    void
    cell(MetricId id, std::uint32_t row, std::uint32_t col,
         std::uint64_t d = 1)
    {
        if (!_enabled)
            return;
        cells[id.slot + row * id.cols + col] += d;
    }

    /** Current value of cell (@p row, @p col) of a series. */
    std::uint64_t
    value(MetricId id, std::uint32_t row = 0,
          std::uint32_t col = 0) const
    {
        return cells[id.slot + row * id.cols + col];
    }

    const std::vector<std::uint64_t> &values() const { return cells; }

    /** Zero every cell (enable state unchanged). */
    void clear();

  private:
    const MetricsRegistry *reg;
    std::vector<std::uint64_t> cells;
    bool _enabled = false;
};

/**
 * Fixed-width header preceding each snapshot's cells in the
 * sampler ring -- a 32-byte trivially copyable POD (pinned by the
 * static_asserts below) so the ring stays one flat 64-bit-word
 * buffer.
 */
struct MetricWindowHeader
{
    std::uint64_t window;  ///< window index (tick / W)
    std::uint64_t endTick; ///< exclusive end tick of the window
    std::uint64_t seq;     ///< snapshot ordinal (overflow audit)
    std::uint64_t _pad;
};

static_assert(sizeof(MetricWindowHeader) == 32,
              "MetricWindowHeader must stay a packed 32-byte POD");
static_assert(std::is_trivially_copyable_v<MetricWindowHeader>,
              "MetricWindowHeader must stay trivially copyable");
static_assert(
    std::has_unique_object_representations_v<MetricWindowHeader>,
    "MetricWindowHeader members must stay fixed-width with no padding");

/** One decoded (or merged) snapshot: cumulative cell values as of
 *  @c endTick. The defaulted operator== is the determinism oracle
 *  the thread-count tests compare. */
struct MetricsWindow
{
    std::uint64_t window = 0;
    Tick endTick = 0;
    std::vector<std::uint64_t> cells;

    bool operator==(const MetricsWindow &) const = default;
};

/**
 * Tick-windowed snapshot ring over one MetricSet.
 *
 * Drive advanceTo(now) from event execution (EventQueue does this
 * for an attached sampler) *before* the event mutates state: the
 * first event at or past a window boundary triggers one snapshot
 * reflecting exactly the events that executed before the boundary.
 * Idle windows emit nothing (their values equal the previous
 * snapshot); export and merge fill the gaps by carry-forward.
 *
 * The ring overwrites its oldest snapshot when full; overflow is
 * accounted (dropped()) and the first overwrite warns through the
 * logging layer, as does arming with a zero window or capacity
 * (never silent data loss).
 */
class MetricsSampler
{
  public:
    /** Probe refreshing gauge cells, run just before each snapshot. */
    using Probe = InlineFunction;

    /**
     * @param set cell array to snapshot (must outlive the sampler)
     * @param window_ticks window width W in sim ticks
     * @param capacity snapshots held; rounded up to a power of two
     */
    MetricsSampler(MetricSet &set, Tick window_ticks,
                   std::size_t capacity);

    void setProbe(Probe p) { probe = std::move(p); }

    /** See Tracer::setOverflowWarn. */
    void setOverflowWarn(bool on) { warnOnOverflow = on; }

    /**
     * Start sampling iff the set is runtime-enabled. A zero window
     * or capacity is a misconfiguration: warned (the set is
     * enabled, so data was expected) and sampling stays off.
     */
    void arm();

    bool armed() const { return next != maxTick; }

    /**
     * Lazy boundary check, called per executed event. One
     * comparison while disarmed or inside the current window; the
     * cold path snapshots the latest crossed boundary.
     */
    void
    advanceTo(Tick now)
    {
        if (now < next)
            return;
        snapshotBoundary(now);
    }

    /**
     * Emit the final (possibly partial) window covering
     * @p final_tick, with endTick = final_tick + 1. Call once when
     * the run completes; idempotent per window index.
     */
    void finish(Tick final_tick);

    /** Snapshots ever taken (including overwritten ones). */
    std::uint64_t snapshots() const { return head; }

    /** Snapshots lost to ring overwrite. */
    std::uint64_t
    dropped() const
    {
        return head > cap ? head - cap : 0;
    }

    /** Snapshots currently held. */
    std::size_t
    held() const
    {
        return head < cap ? static_cast<std::size_t>(head)
                          : static_cast<std::size_t>(cap);
    }

    std::size_t capacity() const
    {
        return static_cast<std::size_t>(cap);
    }

    /**
     * Visit held snapshots oldest-first.
     * @param fn callable taking (const MetricWindowHeader &,
     *        const std::uint64_t *cells).
     */
    template <typename Fn>
    void
    forEachWindow(Fn &&fn) const
    {
        const std::uint64_t first = head > cap ? head - cap : 0;
        for (std::uint64_t i = first; i < head; ++i) {
            const std::uint64_t *rec =
                ring.data() + static_cast<std::size_t>(i & mask) *
                                  stride;
            MetricWindowHeader h;
            std::memcpy(&h, rec, sizeof(h));
            fn(h, rec + HeaderWords);
        }
    }

    /** Copy the held snapshots oldest-first. */
    std::vector<MetricsWindow> snapshotWindows() const;

  private:
    static constexpr std::size_t HeaderWords =
        sizeof(MetricWindowHeader) / sizeof(std::uint64_t);

    void snapshotBoundary(Tick now);
    void emit(std::uint64_t window_index, Tick end_tick);
    void warnOverflow();

    MetricSet *set;
    Probe probe;
    Tick w;
    Tick next = maxTick; ///< next boundary; maxTick while disarmed
    std::uint64_t cap;   ///< ring capacity in snapshots (power of 2)
    std::uint64_t mask;
    std::size_t stride;  ///< words per snapshot (header + cells)
    std::uint64_t head = 0;
    std::int64_t lastWindow = -1; ///< last emitted window index
    std::vector<std::uint64_t> ring;
    bool warnedOverflow = false;
    bool warnOnOverflow = true;
};

/**
 * Merge per-shard window streams into the single cumulative series
 * a one-shard run would have produced: for every window index held
 * by any shard, sum each shard's latest snapshot at or before that
 * index (carry-forward; a shard with no snapshot yet contributes
 * its initial zeros). Windows older than a shard's ring overflow
 * horizon are dropped from the merge -- their carry basis is gone.
 * Samplers are visited in index order and addition is commutative,
 * so the result is bit-identical for any worker count.
 */
std::vector<MetricsWindow>
mergeMetricWindows(const std::vector<const MetricsSampler *> &samplers);

/**
 * Append one JSON Lines record per window to @p os. This is the
 * format the benches write to $MSCP_METRICS_OUT and
 * tools/mscp_report.py reads:
 *
 *   {"metrics":"<source>","label":"<label>","window":K,
 *    "end_tick":T,"series":{"<name>":<value>,...}}
 *
 * where <source> names the engine ("concurrent", "pdes"), <label>
 * separates runs sharing a file, K is the window index (ticks
 * [K*W, (K+1)*W) for window width W) and end_tick the first tick
 * NOT covered. A <value> is a number (Counter: per-window delta;
 * Gauge: sampled level), a 16-element log2-bucket array (Histogram
 * delta) or a row-major array of arrays (Grid delta); deltas are
 * the cumulative snapshots differenced at export.
 */
void exportMetricsJsonLines(std::ostream &os,
                            const MetricsRegistry &reg,
                            const std::vector<MetricsWindow> &windows,
                            const char *source, const char *label);

/**
 * Render windows as Perfetto counter-track events ("ph":"C", one
 * track per scalar series and per grid row), time-ordered and ready
 * to merge into exportChromeTrace() output. Counter-kind series are
 * emitted as per-window deltas (activity), gauges as levels.
 *
 * @param pid synthetic process id grouping the counter tracks
 *        apart from the per-node span rows
 */
std::vector<ChromeExtraEvent>
metricsCounterTrackEvents(const MetricsRegistry &reg,
                          const std::vector<MetricsWindow> &windows,
                          std::uint32_t pid = 9999);

} // namespace mscp

#endif // MSCP_SIM_METRICS_HH
