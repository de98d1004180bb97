/**
 * @file
 * Shared machinery of the mscp benchmark: the result record each
 * workload fills, host-time helpers, the allocation counter and the
 * in-memory span recorder of the traced run.
 *
 * Spans are recorded only by the benchmark's own code, around the
 * calls it makes into the library's layers (constructors, engine
 * runs, stream reads, checker calls). The untraced run passes a null
 * recorder, so every span guard is one pointer test.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Heap allocations made by this process so far (alloc_hook.cc). */
std::uint64_t allocCount();

/** Monotonic host time in seconds. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

/** splitmix64: a fixed, portable pseudo-random stream. */
inline std::uint64_t
nextRandom(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Pin this thread to one of the CPUs it may run on, chosen by a hash
 * of a call counter. The shared host slows single CPUs by up to 1.7x
 * for tens of seconds at a time; moving between timed items lets each
 * item's fastest repeat come from a CPU that was not slowed. A no-op
 * when only one CPU is allowed.
 */
void nextCpu();

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/**
 * Host seconds of a batch made of several timed items, each timed
 * once per pass (@p times[item][pass]): the sum over items of each
 * item's fastest repeat. On a shared host, interference only ever
 * adds time, so the fastest repeat is the most repeatable estimate
 * of the work's own cost; taking it per item keeps a burst of
 * interference during one item from spoiling the whole pass.
 */
double sumOfFastest(const std::vector<std::vector<double>> &times);

/** Nearest-rank quantile @p p of @p v (reorders @p v; 0 if empty). */
std::uint64_t quantile(std::vector<std::uint64_t> &v, double p);

/** Peak resident set of this process in MiB. */
double peakRssMiB();

/** Safe ratio: 0 when the denominator is 0. */
inline double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** What one workload run reports. */
struct Outcome
{
    /** Metrics by name, in the order they were set. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Extra facts printed beside the metrics (sample counts...). */
    std::vector<std::pair<std::string, std::string>> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure descriptions. */
    std::vector<std::string> failures;

    void set(const std::string &name, double value);
    void note(const std::string &key, const std::string &value);

    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    /** Count @p n checked operations of which @p bad failed. */
    void checkMany(std::uint64_t n, std::uint64_t bad,
                   const std::string &what);
};

/** Options every workload receives (a traced run also gets spans). */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
};

/**
 * In-memory span recorder: name, start, end, parent and the heap
 * allocations made inside each span. Calls too frequent to keep one
 * record each (a stream's next(), a checker step) are folded into
 * per-name aggregates charged to the innermost open span, so that
 * span's self time still excludes them.
 */
class Spans
{
  public:
    struct Rec
    {
        std::string name;
        double t0 = 0;
        double t1 = 0;
        int parent = -1;
        std::uint64_t allocs = 0;
        /** Seconds of aggregated calls made inside this span. */
        double aggSecs = 0;
    };

    struct Agg
    {
        double secs = 0;
        std::uint64_t calls = 0;
    };

    Spans();

    int open(std::string name);
    void close(int id);

    /**
     * Charge one short call of @p secs (raw, clock cost included)
     * to the aggregate @p name and to the innermost open span. The
     * calibrated cost of the two clock reads is subtracted.
     */
    void aggregate(const char *name, double secs);

    /** Aggregate named @p name (zero if never charged). */
    Agg aggregateOf(const char *name) const;

    double duration(int id) const { return recs[id].t1 - recs[id].t0; }
    /** Duration minus child spans and aggregated calls. */
    double selfSeconds(int id) const;

    /** Sum of self seconds over every span named @p name. */
    double selfOf(const std::string &name) const;
    /** Sum of durations over every span named @p name. */
    double totalOf(const std::string &name) const;
    /** Sum of allocations over every span named @p name. */
    std::uint64_t allocsOf(const std::string &name) const;

    /** Chrome trace_event JSON (Perfetto-loadable). */
    void writeChrome(std::ostream &os) const;

    /** Per-layer self-time table (layer = name up to the first '.'). */
    void printSelfTable(std::FILE *out) const;

  private:
    std::vector<Rec> recs;
    std::vector<int> stack;
    std::vector<double> childSecs; ///< per record, closed children
    /** Aggregates keyed by name; few entries, searched linearly so
     *  charging one allocates nothing. */
    std::vector<std::pair<const char *, Agg>> aggs;
    double epoch = 0;
    double clockCost = 0;
};

/** RAII span; a no-op with a null recorder. */
class Span
{
  public:
    Span(Spans *s, std::string name)
        : spans(s), id(s ? s->open(std::move(name)) : -1)
    {}
    ~Span()
    {
        if (spans)
            spans->close(id);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans *spans;
    int id;
};

/**
 * Host-timed phase that also opens a span when tracing: the
 * workloads time set-up and runs in every run, traced or not.
 */
class Phase
{
  public:
    Phase(Spans *s, std::string name, double &acc)
        : span(s, std::move(name)), sink(acc), t0(hostNow())
    {}
    ~Phase() { sink += hostNow() - t0; }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

  private:
    Span span;
    double &sink;
    double t0;
};

/** Space-separated values of @p v times @p scale, rounded. */
std::string joined(const std::vector<double> &v, double scale = 1.0);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

/** Shortest round-trip text of a double. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
