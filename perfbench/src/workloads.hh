/**
 * @file
 * The benchmark's four workloads. Each builds its inputs from the
 * seed, repeats one fixed batch (a "pass") until the run's seconds
 * are spent, checks every pass's outputs, and reports end-to-end
 * metrics (untraced run) or per-layer metrics (traced run, @p spans
 * non-null).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "workload/ref_stream.hh"

namespace perfbench
{

Outcome runPaperGrid(const RunOptions &opt, Spans *spans);
Outcome runConcHot(const RunOptions &opt, Spans *spans);
Outcome runConcWide(const RunOptions &opt, Spans *spans);
Outcome runVerify(const RunOptions &opt, Spans *spans);

/**
 * Timing decorator over a reference stream: every next() call is
 * charged to the "workload.next" aggregate of the traced run.
 */
class TimedStream : public mscp::workload::ReferenceStream
{
  public:
    TimedStream(mscp::workload::ReferenceStream &inner, Spans &spans)
        : inner(inner), spans(spans)
    {}

    bool
    next(mscp::workload::MemRef &ref) override
    {
        const double t0 = hostNow();
        const bool ok = inner.next(ref);
        spans.aggregate("workload.next", hostNow() - t0);
        return ok;
    }

    std::string name() const override { return inner.name(); }
    void reset() override { inner.reset(); }

  private:
    mscp::workload::ReferenceStream &inner;
    Spans &spans;
};

/**
 * Run @p pass(i) for i = 0, 1, ... until @p seconds of host time
 * have elapsed, at least @p min_passes times.
 */
template <typename Fn>
void
repeatFor(double seconds, unsigned min_passes, Fn &&pass)
{
    const double start = hostNow();
    unsigned n = 0;
    while (n < min_passes || hostNow() - start < seconds) {
        nextCpu();
        pass(n++);
    }
}

/**
 * Set-up time of the untraced run (setup_s), sampled across the run.
 *
 * A set-up can take as little as a few microseconds, and the shared
 * host's speed swings by a quarter within a second. So one sample
 * times consecutive set-ups until they add up to minSampleSecs, each
 * set-up's result destroyed after the clock stops; and the workloads
 * offer a sample at every boundary between their timed items, of
 * which the sampler takes one per interval of the run. setup_s is the
 * median of the samples, per set-up.
 */
class SetupSampler
{
  public:
    static constexpr double minSampleSecs = 0.01;
    static constexpr unsigned targetSamples = 40;

    explicit SetupSampler(double run_seconds)
        : interval(run_seconds / targetSamples)
    {}

    /**
     * Take a sample of @p setup, which builds and returns what one
     * pass needs, unless one was taken within the last interval.
     */
    template <typename Fn>
    void
    offer(Fn &&setup)
    {
        if (!secs.empty() && hostNow() - last < interval)
            return;
        double busy = 0;
        unsigned n = 0;
        do {
            const double t0 = hostNow();
            auto built = setup();
            busy += hostNow() - t0;
            ++n;
        } while (busy < minSampleSecs);
        secs.push_back(busy / n);
        setups += n;
        last = hostNow();
    }

    /** Median seconds per set-up. */
    double seconds() const { return median(secs); }

    /** "<samples> samples, <set-ups> set-ups", for the run's info. */
    std::string
    describe() const
    {
        return std::to_string(secs.size()) + " samples, " +
            std::to_string(setups) + " set-ups";
    }

  private:
    double interval;
    double last = 0;
    std::uint64_t setups = 0;
    std::vector<double> secs;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
