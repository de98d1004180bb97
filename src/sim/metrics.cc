#include "metrics.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"

namespace mscp
{

// ---------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------

MetricId
MetricsRegistry::add(std::string name, MetricKind kind,
                     std::uint32_t rows, std::uint32_t cols)
{
    panic_if(rows == 0 || cols == 0,
             "metrics: series %s has an empty shape", name.c_str());
    panic_if(cols > 0xffff,
             "metrics: series %s exceeds the 16-bit row stride",
             name.c_str());
    MetricSeries s;
    s.name = std::move(name);
    s.kind = kind;
    s.slot = total;
    s.rows = rows;
    s.cols = cols;
    defs.push_back(std::move(s));
    total += rows * cols;
    MetricId id;
    id.slot = defs.back().slot;
    id.cols = static_cast<std::uint16_t>(cols);
    return id;
}

MetricId
MetricsRegistry::counter(std::string name)
{
    return add(std::move(name), MetricKind::Counter, 1, 1);
}

MetricId
MetricsRegistry::gauge(std::string name)
{
    return add(std::move(name), MetricKind::Gauge, 1, 1);
}

MetricId
MetricsRegistry::histogram(std::string name)
{
    return add(std::move(name), MetricKind::Histogram, 1,
               MetricHistBuckets);
}

MetricId
MetricsRegistry::grid(std::string name, std::uint32_t rows,
                      std::uint32_t cols)
{
    return add(std::move(name), MetricKind::Grid, rows, cols);
}

// ---------------------------------------------------------------
// MetricSet
// ---------------------------------------------------------------

MetricSet::MetricSet(const MetricsRegistry &registry)
    : reg(&registry), cells(registry.cellCount(), 0)
{}

void
MetricSet::clear()
{
    std::fill(cells.begin(), cells.end(), 0);
}

// ---------------------------------------------------------------
// MetricsSampler
// ---------------------------------------------------------------

MetricsSampler::MetricsSampler(MetricSet &s, Tick window_ticks,
                               std::size_t capacity)
    : set(&s), w(window_ticks)
{
    std::uint64_t c = 1;
    while (c < capacity)
        c <<= 1;
    cap = c;
    mask = c - 1;
    stride = HeaderWords + set->registry().cellCount();
}

void
MetricsSampler::arm()
{
    if (!set->enabled())
        return;
    if (w == 0) {
        warn("metrics: sampler window is 0 ticks; windowed "
             "sampling disabled (set a positive metricsWindow)");
        return;
    }
    ring.resize(static_cast<std::size_t>(cap) * stride, 0);
    next = w;
}

void
MetricsSampler::snapshotBoundary(Tick now)
{
    // now >= next, so at least one boundary was crossed since the
    // last snapshot. Emit one snapshot for the latest *completed*
    // window; skipped windows in between saw no events and are
    // reconstructed by carry-forward at merge/export time.
    const std::uint64_t k = now / w;
    emit(k - 1, k * w);
    next = (k + 1) * w;
}

void
MetricsSampler::emit(std::uint64_t window_index, Tick end_tick)
{
    if (probe)
        probe();
    if (head >= cap && !warnedOverflow)
        warnOverflow();
    std::uint64_t *rec =
        ring.data() + static_cast<std::size_t>(head & mask) * stride;
    MetricWindowHeader h;
    h.window = window_index;
    h.endTick = end_tick;
    h.seq = head;
    h._pad = 0;
    std::memcpy(rec, &h, sizeof(h));
    const std::vector<std::uint64_t> &v = set->values();
    std::memcpy(rec + HeaderWords, v.data(),
                v.size() * sizeof(std::uint64_t));
    ++head;
    lastWindow = static_cast<std::int64_t>(window_index);
}

void
MetricsSampler::finish(Tick final_tick)
{
    if (!armed())
        return;
    const std::uint64_t k = final_tick / w;
    if (static_cast<std::int64_t>(k) > lastWindow)
        emit(k, final_tick + 1);
    next = (k + 1) * w;
}

void
MetricsSampler::warnOverflow()
{
    warnedOverflow = true;
    if (!warnOnOverflow)
        return;
    warn("metrics: snapshot ring full after %llu windows; "
         "overwriting oldest (raise metricsCapacity or widen "
         "metricsWindow to keep the full series)",
         static_cast<unsigned long long>(head));
}

std::vector<MetricsWindow>
MetricsSampler::snapshotWindows() const
{
    std::vector<MetricsWindow> out;
    out.reserve(held());
    forEachWindow([&](const MetricWindowHeader &h,
                      const std::uint64_t *cells) {
        MetricsWindow mw;
        mw.window = h.window;
        mw.endTick = h.endTick;
        mw.cells.assign(cells,
                        cells + set->registry().cellCount());
        out.push_back(std::move(mw));
    });
    return out;
}

// ---------------------------------------------------------------
// Merge
// ---------------------------------------------------------------

std::vector<MetricsWindow>
mergeMetricWindows(const std::vector<const MetricsSampler *> &samplers)
{
    // Collect each sampler's held snapshots (already cumulative and
    // oldest-first) and the union of window indices.
    std::vector<std::vector<MetricsWindow>> held;
    held.reserve(samplers.size());
    std::vector<std::uint64_t> indices;
    std::uint64_t first_valid = 0;
    std::size_t cell_count = 0;
    for (const MetricsSampler *s : samplers) {
        if (!s) {
            held.emplace_back();
            continue;
        }
        held.push_back(s->snapshotWindows());
        const std::vector<MetricsWindow> &ws = held.back();
        if (!ws.empty())
            cell_count = ws.front().cells.size();
        for (const MetricsWindow &mw : ws)
            indices.push_back(mw.window);
        // Ring overflow: windows before this sampler's oldest held
        // snapshot have lost their carry basis; exclude them.
        if (s->dropped() > 0 && !ws.empty())
            first_valid = std::max(first_valid, ws.front().window);
    }
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()),
                  indices.end());

    std::vector<MetricsWindow> out;
    std::vector<std::size_t> cursor(held.size(), 0);
    for (std::uint64_t k : indices) {
        if (k < first_valid)
            continue;
        MetricsWindow mw;
        mw.window = k;
        mw.endTick = 0;
        mw.cells.assign(cell_count, 0);
        for (std::size_t s = 0; s < held.size(); ++s) {
            const std::vector<MetricsWindow> &ws = held[s];
            std::size_t &c = cursor[s];
            while (c + 1 < ws.size() && ws[c + 1].window <= k)
                ++c;
            if (ws.empty() || ws[c].window > k)
                continue; // no snapshot yet: initial zeros
            for (std::size_t i = 0; i < ws[c].cells.size(); ++i)
                mw.cells[i] += ws[c].cells[i];
            // An exact snapshot carries the window's end tick; a
            // carried-forward one keeps whatever exact sampler set.
            if (ws[c].window == k)
                mw.endTick = std::max(mw.endTick, ws[c].endTick);
        }
        out.push_back(std::move(mw));
    }
    return out;
}

// ---------------------------------------------------------------
// Export
// ---------------------------------------------------------------

void
exportMetricsJsonLines(std::ostream &os, const MetricsRegistry &reg,
                       const std::vector<MetricsWindow> &windows,
                       const char *source, const char *label)
{
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        const MetricsWindow &mw = windows[wi];
        // Snapshots are cumulative; the record carries per-window
        // deltas for counting kinds and raw levels for gauges.
        const MetricsWindow *prev = wi ? &windows[wi - 1] : nullptr;
        auto delta = [&](std::size_t cell) {
            return mw.cells[cell] - (prev ? prev->cells[cell] : 0);
        };
        os << csprintf("{\"metrics\":\"%s\",\"label\":\"%s\","
                       "\"window\":%llu,\"end_tick\":%llu,"
                       "\"series\":{",
                       source, label,
                       static_cast<unsigned long long>(mw.window),
                       static_cast<unsigned long long>(mw.endTick));
        bool first = true;
        for (const MetricSeries &s : reg.series()) {
            if (!first)
                os << ",";
            first = false;
            os << "\"" << s.name << "\":";
            if (s.kind == MetricKind::Gauge) {
                os << mw.cells[s.slot];
                continue;
            }
            if (s.kind == MetricKind::Counter) {
                os << delta(s.slot);
                continue;
            }
            os << "[";
            for (std::uint32_t r = 0; r < s.rows; ++r) {
                if (r)
                    os << ",";
                if (s.rows > 1)
                    os << "[";
                for (std::uint32_t c = 0; c < s.cols; ++c) {
                    if (c)
                        os << ",";
                    os << delta(s.slot + r * s.cols + c);
                }
                if (s.rows > 1)
                    os << "]";
            }
            os << "]";
        }
        os << "}}\n";
    }
}

std::vector<ChromeExtraEvent>
metricsCounterTrackEvents(const MetricsRegistry &reg,
                          const std::vector<MetricsWindow> &windows,
                          std::uint32_t pid)
{
    std::vector<ChromeExtraEvent> out;
    if (windows.empty())
        return out;

    ChromeExtraEvent meta;
    meta.ts = 0;
    meta.json = csprintf("{\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                         "\"name\":\"process_name\","
                         "\"args\":{\"name\":\"metrics\"}}",
                         static_cast<unsigned>(pid));
    out.push_back(std::move(meta));

    auto counterEvent = [&](const std::string &name, Tick ts,
                            std::uint64_t value) {
        ChromeExtraEvent e;
        e.ts = ts;
        e.json = csprintf("{\"name\":\"%s\",\"ph\":\"C\","
                          "\"pid\":%u,\"tid\":0,\"ts\":%llu,"
                          "\"args\":{\"value\":%llu}}",
                          name.c_str(), static_cast<unsigned>(pid),
                          static_cast<unsigned long long>(ts),
                          static_cast<unsigned long long>(value));
        out.push_back(std::move(e));
    };

    std::vector<std::uint64_t> scratch;
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        const MetricsWindow &mw = windows[wi];
        const MetricsWindow *prev = wi ? &windows[wi - 1] : nullptr;
        for (const MetricSeries &s : reg.series()) {
            switch (s.kind) {
              case MetricKind::Gauge:
                counterEvent(s.name, mw.endTick, mw.cells[s.slot]);
                break;
              case MetricKind::Counter: {
                const std::uint64_t base =
                    prev ? prev->cells[s.slot] : 0;
                counterEvent(s.name, mw.endTick,
                             mw.cells[s.slot] - base);
                break;
              }
              case MetricKind::Histogram: {
                std::uint64_t n = 0, base = 0;
                for (std::uint32_t c = 0; c < s.cols; ++c) {
                    n += mw.cells[s.slot + c];
                    if (prev)
                        base += prev->cells[s.slot + c];
                }
                counterEvent(s.name + ".samples", mw.endTick,
                             n - base);
                break;
              }
              case MetricKind::Grid:
                // One track per row (network stage): the per-stage
                // contention timeline beside the transaction spans.
                for (std::uint32_t r = 0; r < s.rows; ++r) {
                    std::uint64_t n = 0, base = 0;
                    for (std::uint32_t c = 0; c < s.cols; ++c) {
                        n += mw.cells[s.slot + r * s.cols + c];
                        if (prev)
                            base += prev->cells[s.slot +
                                                r * s.cols + c];
                    }
                    counterEvent(
                        csprintf("%s/stage%u", s.name.c_str(), r),
                        mw.endTick, n - base);
                }
                break;
            }
        }
    }
    return out;
}

} // namespace mscp
