#include "refine.hh"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "sim/logging.hh"
#include "verify/canon.hh"

namespace mscp::verify
{

namespace
{

class SilenceLogging
{
  public:
    SilenceLogging() : saved(logLevel())
    {
        setLogLevel(LogLevel::Silent);
    }
    ~SilenceLogging() { setLogLevel(saved); }

  private:
    LogLevel saved;
};

/**
 * The set of atomic-register spec states consistent with the
 * observations so far (subset construction).
 *
 * A spec state is encoded as one u64 vector:
 *   [m, addr_1, val_1, ..., addr_m, val_m,
 *    phase_0, result_0, ..., phase_{n-1}, result_{n-1}]
 * with the written-address list sorted (unwritten addresses read
 * as 0, matching the engine's zeroed memory), phase 0=idle /
 * 1=invoked / 2=linearized, and result the value a linearized read
 * will return. The per-cpu operation itself (kind, address, write
 * value) is common to every member -- it is fixed by the
 * observation stream -- and lives once, outside the set.
 */
class LinSpec
{
  public:
    explicit LinSpec(unsigned cpus) : n(cpus), ops(cpus)
    {
        std::vector<std::uint64_t> init{0};
        init.resize(1 + 2 * n, 0);
        states.insert(std::move(init));
    }

    /** Advance by one observable event; @return false (and fill
     *  @p err) when no spec state survives. */
    bool step(const ObsEvent &e, std::string &err)
    {
        const unsigned c = e.cpu;
        if (e.invoke) {
            ops[c] = {e.isWrite, e.addr, e.value};
            std::set<std::vector<std::uint64_t>> out;
            for (const auto &s : states) {
                if (phaseOf(s, c) != 0) {
                    err = csprintf(
                        "invoke on cpu%u with an operation "
                        "already in flight", c);
                    return false;
                }
                auto t = s;
                setPhase(t, c, 1, 0);
                out.insert(std::move(t));
            }
            states = std::move(out);
            return true;
        }

        // respond: any pending operation may linearize first, in
        // any order (epsilon-closure), then cpu c's must have
        // linearized with the observed result.
        closure();
        std::set<std::vector<std::uint64_t>> out;
        for (const auto &s : states) {
            if (phaseOf(s, c) != 2)
                continue;
            if (!e.isWrite && resultOf(s, c) != e.value)
                continue;
            auto t = s;
            setPhase(t, c, 0, 0);
            out.insert(std::move(t));
        }
        states = std::move(out);
        if (states.empty()) {
            err = csprintf(
                "%s cpu%u @%llu returned %llu: no linearization "
                "of the concurrent operations explains it",
                e.isWrite ? "write" : "read", c,
                static_cast<unsigned long long>(e.addr),
                static_cast<unsigned long long>(e.value));
            return false;
        }
        return true;
    }

    /** Canonical bytes of the whole set, for the seen key. */
    void appendBytes(std::vector<std::uint8_t> &out) const
    {
        auto put = [&out](std::uint64_t v) {
            for (int i = 0; i < 8; ++i)
                out.push_back(
                    static_cast<std::uint8_t>(v >> (8 * i)));
        };
        put(states.size());
        for (const auto &s : states) {
            put(s.size());
            for (std::uint64_t v : s)
                put(v);
        }
    }

  private:
    struct Op
    {
        bool isWrite = false;
        Addr addr = 0;
        std::uint64_t value = 0;
    };

    std::size_t memCount(const std::vector<std::uint64_t> &s) const
    {
        return static_cast<std::size_t>(s[0]);
    }
    std::size_t cpuBase(const std::vector<std::uint64_t> &s,
                        unsigned c) const
    {
        return 1 + 2 * memCount(s) + 2 * c;
    }
    std::uint64_t phaseOf(const std::vector<std::uint64_t> &s,
                          unsigned c) const
    {
        return s[cpuBase(s, c)];
    }
    std::uint64_t resultOf(const std::vector<std::uint64_t> &s,
                           unsigned c) const
    {
        return s[cpuBase(s, c) + 1];
    }
    void setPhase(std::vector<std::uint64_t> &s, unsigned c,
                  std::uint64_t phase, std::uint64_t result) const
    {
        s[cpuBase(s, c)] = phase;
        s[cpuBase(s, c) + 1] = result;
    }
    std::uint64_t readMem(const std::vector<std::uint64_t> &s,
                          Addr a) const
    {
        const std::size_t m = memCount(s);
        for (std::size_t i = 0; i < m; ++i)
            if (s[1 + 2 * i] == a)
                return s[2 + 2 * i];
        return 0;
    }
    void writeMem(std::vector<std::uint64_t> &s, Addr a,
                  std::uint64_t v) const
    {
        const std::size_t m = memCount(s);
        for (std::size_t i = 0; i < m; ++i) {
            if (s[1 + 2 * i] == a) {
                s[2 + 2 * i] = v;
                return;
            }
        }
        // Insert sorted so equal memories encode identically.
        std::size_t i = 0;
        while (i < m && s[1 + 2 * i] < a)
            ++i;
        s.insert(s.begin() + 1 + 2 * i, {a, v});
        ++s[0];
    }

    /** Fixpoint over single linearization steps. */
    void closure()
    {
        std::vector<std::vector<std::uint64_t>> work(
            states.begin(), states.end());
        while (!work.empty()) {
            auto s = std::move(work.back());
            work.pop_back();
            for (unsigned c = 0; c < n; ++c) {
                if (phaseOf(s, c) != 1)
                    continue;
                auto t = s;
                if (ops[c].isWrite) {
                    writeMem(t, ops[c].addr, ops[c].value);
                    setPhase(t, c, 2, 0);
                } else {
                    setPhase(t, c, 2, readMem(t, ops[c].addr));
                }
                if (states.insert(t).second)
                    work.push_back(std::move(t));
            }
        }
    }

    unsigned n;
    std::vector<Op> ops; ///< in-flight op per cpu
    std::set<std::vector<std::uint64_t>> states;
};

} // anonymous namespace

GatewaySubject::GatewaySubject(const VerifyConfig &cfg)
{
    VerifyConfig c = cfg;
    c.opt.symmetry = false; // spec set is keyed by concrete cpus
    gw = std::make_unique<EngineGateway>(c);
}

GatewaySubject::~GatewaySubject() = default;

void
GatewaySubject::reset()
{
    gw->reset();
}

void
GatewaySubject::save(std::size_t slot)
{
    gw->save(slot);
}

void
GatewaySubject::restore(std::size_t slot)
{
    gw->restore(slot);
}

unsigned
GatewaySubject::numCpus() const
{
    return gw->config().nodes;
}

std::vector<Action>
GatewaySubject::enabledActions()
{
    return gw->enabledActions();
}

std::vector<ObsEvent>
GatewaySubject::apply(const Action &a)
{
    gw->apply(a);
    return gw->takeObservations();
}

const std::vector<std::uint8_t> &
GatewaySubject::stateBytes()
{
    const std::vector<std::uint8_t> &canon = gw->canonical();
    bytes.assign(canon.begin(), canon.end());
    for (std::uint64_t s : gw->pendingSamples())
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(s >> (8 * i)));
    return bytes;
}

ExploreResult
checkRefinement(Subject &subj, std::uint64_t maxStates,
                unsigned maxDepth)
{
    SilenceLogging silent;
    ExploreResult res;

    /** A DFS frame: the enabled actions of a state and the spec
     *  states consistent with the observations that reached it. */
    struct Frame
    {
        std::vector<Action> acts;
        LinSpec spec;
        std::size_t next = 0;
    };

    std::unordered_set<Hash128, Hash128Hasher> seen;
    std::vector<Frame> frames;
    std::vector<Action> path;
    std::string err;

    // The subject's bytes plus the spec set's, in storage reused
    // for every key.
    std::vector<std::uint8_t> keyBytes;
    auto key = [&subj, &keyBytes](const LinSpec &sp) {
        const std::vector<std::uint8_t> &b = subj.stateBytes();
        keyBytes.assign(b.begin(), b.end());
        sp.appendBytes(keyBytes);
        return hashBytes(keyBytes);
    };

    // A frame that will expand more than one action saves the
    // subject's state in its depth's slot; each action after its
    // first restores it.
    auto pushFrame = [&](LinSpec &&spec) {
        std::vector<Action> acts = subj.enabledActions();
        if (acts.size() > 1)
            subj.save(frames.size());
        frames.push_back({std::move(acts), std::move(spec)});
    };

    subj.reset();
    LinSpec root(subj.numCpus());
    seen.insert(key(root));
    res.states = 1;
    pushFrame(std::move(root));

    auto fail = [&](std::string kind, std::string detail) {
        Violation v;
        v.kind = std::move(kind);
        v.details.push_back(std::move(detail));
        v.path = path;
        res.violations.push_back(std::move(v));
    };

    while (!frames.empty()) {
        Frame &f = frames.back();
        if (f.next >= f.acts.size()) {
            frames.pop_back();
            if (!path.empty())
                path.pop_back();
            continue;
        }
        const std::size_t ai = f.next++;
        const Action a = f.acts[ai];
        if (ai > 0)
            subj.restore(frames.size() - 1);

        std::vector<ObsEvent> events;
        bool panicked = false;
        try {
            events = subj.apply(a);
        } catch (const PanicError &pe) {
            panicked = true;
            err = pe.what();
        }
        ++res.edges;
        path.push_back(a);
        res.maxDepthReached = std::max(
            res.maxDepthReached,
            static_cast<unsigned>(path.size()));
        if (panicked) {
            fail("panic", err);
            return res;
        }
        LinSpec spec = f.spec;
        bool violated = false;
        for (const ObsEvent &e : events) {
            if (!spec.step(e, err)) {
                violated = true;
                break;
            }
        }
        if (violated) {
            fail("refine", err);
            return res;
        }

        if (!seen.insert(key(spec)).second) {
            ++res.prunedSeen;
            path.pop_back();
            continue;
        }
        ++res.states;
        if (res.states >= maxStates) {
            res.budgetExhausted = true;
            break;
        }
        if (path.size() >= maxDepth) {
            ++res.prunedDepth;
            path.pop_back();
            continue;
        }
        pushFrame(std::move(spec));
    }

    res.complete = res.violations.empty() && !res.budgetExhausted &&
                   res.prunedDepth == 0;
    return res;
}

ExploreResult
checkRefinement(const VerifyConfig &cfg)
{
    GatewaySubject subj(cfg);
    return checkRefinement(subj, cfg.opt.maxStates,
                           cfg.opt.maxDepth);
}

} // namespace mscp::verify
