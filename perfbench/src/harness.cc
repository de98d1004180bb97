#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench
{

void
nextCpu()
{
    static std::vector<int> cpus;
    static std::uint64_t next = 0;
    static bool known = false;
    if (!known) {
        known = true;
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &allowed))
                    cpus.push_back(c);
    }
    if (cpus.size() < 2)
        return;
    // A hashed rather than cyclic choice, so that the CPU a repeat
    // runs on does not follow the cycle of the items it times.
    const int c = cpus[nextRandom(next) % cpus.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof(one), &one);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sumOfFastest(const std::vector<std::vector<double>> &times)
{
    double sum = 0;
    for (const std::vector<double> &t : times)
        if (!t.empty())
            sum += *std::min_element(t.begin(), t.end());
    return sum;
}

std::uint64_t
quantile(std::vector<std::uint64_t> &v, double p)
{
    if (v.empty())
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

double
peakRssMiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Outcome::set(const std::string &name, double value)
{
    for (auto &m : metrics) {
        if (m.first == name) {
            m.second = value;
            return;
        }
    }
    metrics.emplace_back(name, value);
}

void
Outcome::note(const std::string &key, const std::string &value)
{
    info.emplace_back(key, value);
}

void
Outcome::check(bool ok, const std::string &what)
{
    checkMany(1, ok ? 0 : 1, what);
}

void
Outcome::checkMany(std::uint64_t n, std::uint64_t bad,
                   const std::string &what)
{
    attempted += n;
    failed += bad;
    if (bad && failures.size() < 16)
        failures.push_back(what);
}

Spans::Spans() : epoch(hostNow())
{
    // What an aggregated call reads when it times nothing: the
    // clock cost subtracted from every aggregated sample.
    constexpr int reps = 20000;
    double sum = 0;
    for (int i = 0; i < reps; ++i) {
        const double a = hostNow();
        sum += hostNow() - a;
    }
    clockCost = sum / reps;
    recs.reserve(4096);
}

int
Spans::open(std::string name)
{
    Rec r;
    r.name = std::move(name);
    r.parent = stack.empty() ? -1 : stack.back();
    r.allocs = allocCount();
    r.t0 = hostNow();
    recs.push_back(std::move(r));
    childSecs.push_back(0);
    const int id = static_cast<int>(recs.size()) - 1;
    stack.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    Rec &r = recs[id];
    r.t1 = hostNow();
    r.allocs = allocCount() - r.allocs;
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
    if (r.parent >= 0)
        childSecs[r.parent] += r.t1 - r.t0;
}

void
Spans::aggregate(const char *name, double secs)
{
    secs = std::max(0.0, secs - clockCost);
    Agg *a = nullptr;
    for (auto &[n, agg] : aggs)
        if (n == name || std::strcmp(n, name) == 0)
            a = &agg;
    if (!a)
        a = &aggs.emplace_back(name, Agg{}).second;
    a->secs += secs;
    a->calls += 1;
    if (!stack.empty())
        recs[stack.back()].aggSecs += secs;
}

Spans::Agg
Spans::aggregateOf(const char *name) const
{
    for (const auto &[n, agg] : aggs)
        if (std::strcmp(n, name) == 0)
            return agg;
    return {};
}

double
Spans::selfSeconds(int id) const
{
    return duration(id) - childSecs[id] - recs[id].aggSecs;
}

double
Spans::selfOf(const std::string &name) const
{
    double s = 0;
    for (std::size_t i = 0; i < recs.size(); ++i)
        if (recs[i].name == name)
            s += selfSeconds(static_cast<int>(i));
    return s;
}

double
Spans::totalOf(const std::string &name) const
{
    double s = 0;
    for (std::size_t i = 0; i < recs.size(); ++i)
        if (recs[i].name == name)
            s += duration(static_cast<int>(i));
    return s;
}

std::uint64_t
Spans::allocsOf(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const Rec &r : recs)
        if (r.name == name)
            n += r.allocs;
    return n;
}

void
Spans::writeChrome(std::ostream &os) const
{
    // Complete ("X") events nest by time on one thread track; the
    // aggregated calls ride along as arguments of a closing instant.
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"mscp perfbench\"}}";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Rec &r = recs[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,",
                      (r.t0 - epoch) * 1e6, (r.t1 - r.t0) * 1e6);
        os << ",\n{\"name\":" << jsonString(r.name) << ",\"ph\":\"X\""
           << buf << "\"args\":{\"self_us\":"
           << jsonNumber(selfSeconds(static_cast<int>(i)) * 1e6)
           << ",\"allocs\":" << r.allocs << ",\"parent\":" << r.parent
           << "}}";
    }
    double end = epoch;
    for (const Rec &r : recs)
        end = std::max(end, r.t1);
    os << ",\n{\"name\":\"aggregated calls\",\"ph\":\"i\",\"s\":\"p\","
       << "\"pid\":1,\"tid\":1,\"ts\":"
       << jsonNumber((end - epoch) * 1e6) << ",\"args\":{";
    bool first = true;
    for (const auto &[name, a] : aggs) {
        os << (first ? "" : ",") << jsonString(name) << ":{\"calls\":"
           << a.calls << ",\"secs\":" << jsonNumber(a.secs) << "}";
        first = false;
    }
    os << "}}\n]}\n";
}

void
Spans::printSelfTable(std::FILE *out) const
{
    std::map<std::string, double> layer;
    double total = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const std::string &n = recs[i].name;
        const double self = selfSeconds(static_cast<int>(i));
        layer[n.substr(0, n.find('.'))] += self;
        total += self;
    }
    for (const auto &[cname, a] : aggs) {
        const std::string name = cname;
        layer[name.substr(0, name.find('.'))] += a.secs;
        total += a.secs;
    }
    std::fprintf(out, "# per-layer self time (traced run)\n");
    std::fprintf(out, "# %-10s %12s %8s\n", "layer", "self_s", "share");
    for (const auto &[name, s] : layer)
        std::fprintf(out, "# %-10s %12.6f %7.2f%%\n", name.c_str(), s,
                     100.0 * ratio(s, total));
}

std::string
joined(const std::vector<double> &v, double scale)
{
    std::string out;
    for (double x : v)
        out += (out.empty() ? "" : " ") +
            std::to_string(std::llround(x * scale));
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
