#include "liveness.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sim/logging.hh"
#include "verify/canon.hh"
#include "verify/por.hh"

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

constexpr std::uint32_t kNone = 0xffffffffu;

struct GraphEdge
{
    Action act;
    std::uint32_t to = kNone;
};

struct GraphNode
{
    std::vector<GraphEdge> edges;
    /** Sorted unique action keys enabled here (fairness domain). */
    std::vector<std::uint64_t> fairKeys;
    std::uint32_t parent = kNone;     ///< discovery parent
    std::uint32_t parentEdge = kNone; ///< its edge that led here
    bool refsOut = false;
    bool expanded = false;
};

struct Graph
{
    std::vector<GraphNode> nodes;
    std::uint64_t edges = 0;
    bool complete = true;
};

/** Materialize the full transition graph by DFS. */
Graph
buildGraph(EngineGateway &gw, const VerifyConfig &cfg)
{
    Graph g;
    std::unordered_map<Hash128, std::uint32_t, Hash128Hasher> ids;

    struct Frame
    {
        std::uint32_t id = 0;
        std::vector<Action> acts;
        std::size_t next = 0;
    };

    std::vector<Frame> frames;

    auto fairKeysOf = [](const std::vector<Action> &acts) {
        std::vector<std::uint64_t> keys;
        keys.reserve(acts.size());
        for (const Action &a : acts)
            keys.push_back(actionKey(a));
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()),
                   keys.end());
        return keys;
    };

    // A frame that will expand more than one action saves its state
    // in its depth's slot; each action after its first restores it.
    auto pushFrame = [&](Frame &&f) {
        if (f.acts.size() > 1)
            gw.save(frames.size());
        frames.push_back(std::move(f));
    };

    gw.reset();
    ids.emplace(hashBytes(gw.canonical()), 0);
    g.nodes.emplace_back();
    {
        GraphNode &root = g.nodes.back();
        root.refsOut = gw.refsOutstanding() > 0;
        root.expanded = true;
        Frame f;
        f.id = 0;
        f.acts = gw.enabledActions();
        root.fairKeys = fairKeysOf(f.acts);
        pushFrame(std::move(f));
    }

    while (!frames.empty()) {
        Frame &f = frames.back();
        if (f.next >= f.acts.size()) {
            frames.pop_back();
            continue;
        }
        const std::size_t ai = f.next++;
        const Action a = f.acts[ai];
        if (ai > 0)
            gw.restore(frames.size() - 1);

        try {
            gw.apply(a);
        } catch (const PanicError &) {
            // A safety failure, not a liveness edge; the safety
            // explorer owns reporting it.
            continue;
        }

        Hash128 h = hashBytes(gw.canonical());
        auto [it, fresh] =
            ids.emplace(h, static_cast<std::uint32_t>(
                               g.nodes.size()));
        const std::uint32_t child = it->second;
        if (fresh)
            g.nodes.emplace_back();
        g.nodes[f.id].edges.push_back({a, child});
        ++g.edges;

        if (!fresh)
            continue;

        GraphNode &cn = g.nodes[child];
        cn.parent = f.id;
        cn.parentEdge =
            static_cast<std::uint32_t>(g.nodes[f.id].edges.size() - 1);
        cn.refsOut = gw.refsOutstanding() > 0;

        if (g.nodes.size() >= cfg.opt.maxStates) {
            g.complete = false;
            break;
        }
        if (frames.size() >= cfg.opt.maxDepth) {
            g.complete = false;
            continue;
        }

        Frame nf;
        nf.id = child;
        nf.acts = gw.enabledActions();
        cn.fairKeys = fairKeysOf(nf.acts);
        cn.expanded = true;
        pushFrame(std::move(nf));
    }
    return g;
}

/** Iterative Tarjan; @return sccId per node (0..count-1). */
std::vector<std::uint32_t>
tarjanScc(const Graph &g, std::uint32_t &sccCount)
{
    const std::uint32_t n =
        static_cast<std::uint32_t>(g.nodes.size());
    std::vector<std::uint32_t> index(n, kNone), low(n, 0),
        sccId(n, kNone);
    std::vector<bool> onStack(n, false);
    std::vector<std::uint32_t> stack;
    std::vector<LivenessFrame> dfs;
    std::uint32_t next = 0;
    sccCount = 0;

    for (std::uint32_t s = 0; s < n; ++s) {
        if (index[s] != kNone)
            continue;
        dfs.push_back({s, 0});
        while (!dfs.empty()) {
            LivenessFrame &f = dfs.back();
            const std::uint32_t v = f.state;
            if (f.edge == 0) {
                index[v] = low[v] = next++;
                stack.push_back(v);
                onStack[v] = true;
            }
            if (f.edge < g.nodes[v].edges.size()) {
                const std::uint32_t w =
                    g.nodes[v].edges[f.edge++].to;
                if (index[w] == kNone)
                    dfs.push_back({w, 0});
                else if (onStack[w])
                    low[v] = std::min(low[v], index[w]);
                continue;
            }
            if (low[v] == index[v]) {
                std::uint32_t w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    sccId[w] = sccCount;
                } while (w != v);
                ++sccCount;
            }
            dfs.pop_back();
            if (!dfs.empty()) {
                const std::uint32_t p = dfs.back().state;
                low[p] = std::min(low[p], low[v]);
            }
        }
    }
    return sccId;
}

/** Shortest internal path @p from -> @p to (actions), SCC-local.
 *  Empty when from == to. */
std::vector<Action>
sccPath(const Graph &g, const std::vector<std::uint32_t> &sccId,
        std::uint32_t scc, std::uint32_t from, std::uint32_t to)
{
    if (from == to)
        return {};
    std::unordered_map<std::uint32_t,
                       std::pair<std::uint32_t, std::uint32_t>>
        via; // node -> (prev node, edge index)
    std::deque<std::uint32_t> bfs{from};
    via.emplace(from, std::make_pair(kNone, kNone));
    while (!bfs.empty()) {
        const std::uint32_t v = bfs.front();
        bfs.pop_front();
        const auto &edges = g.nodes[v].edges;
        for (std::uint32_t e = 0; e < edges.size(); ++e) {
            const std::uint32_t w = edges[e].to;
            if (sccId[w] != scc || via.count(w))
                continue;
            via.emplace(w, std::make_pair(v, e));
            if (w == to) {
                std::vector<Action> out;
                std::uint32_t cur = w;
                while (cur != from) {
                    auto [pv, pe] = via.at(cur);
                    out.push_back(g.nodes[pv].edges[pe].act);
                    cur = pv;
                }
                std::reverse(out.begin(), out.end());
                return out;
            }
            bfs.push_back(w);
        }
    }
    return {}; // unreachable within a strongly connected component
}

} // anonymous namespace

bool
reproducesLasso(EngineGateway &gw,
                const std::vector<Action> &prefix,
                const std::vector<Action> &cycle)
{
    if (cycle.empty())
        return false;
    gw.reset();
    try {
        for (const Action &a : prefix)
            if (!gw.applyIfEnabled(a))
                return false;
        const Hash128 anchor = hashBytes(gw.canonical());
        if (gw.refsOutstanding() == 0)
            return false;

        // Keys continuously enabled around the cycle must all be
        // taken by it, or an infinite run of this cycle would be
        // unfair (the starved action's obligation never fires).
        std::unordered_set<std::uint64_t> universal, taken;
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            std::unordered_set<std::uint64_t> here;
            for (const Action &a : gw.enabledActions())
                here.insert(actionKey(a));
            if (i == 0) {
                universal = std::move(here);
            } else {
                for (auto it = universal.begin();
                     it != universal.end();) {
                    it = here.count(*it) ? std::next(it)
                                         : universal.erase(it);
                }
            }
            taken.insert(actionKey(cycle[i]));
            if (!gw.applyIfEnabled(cycle[i]))
                return false;
        }
        if (!(hashBytes(gw.canonical()) == anchor))
            return false;
        for (std::uint64_t k : universal)
            if (!taken.count(k))
                return false;
        return true;
    } catch (const PanicError &) {
        return false;
    }
}

ExploreResult
checkLiveness(const VerifyConfig &cfg)
{
    SilenceLogging silent;
    ExploreResult res;
    EngineGateway gw(cfg);

    Graph g = buildGraph(gw, cfg);
    res.states = g.nodes.size();
    res.edges = g.edges;
    res.budgetExhausted = !g.complete;

    std::uint32_t sccCount = 0;
    std::vector<std::uint32_t> sccId = tarjanScc(g, sccCount);

    std::vector<std::vector<std::uint32_t>> members(sccCount);
    for (std::uint32_t v = 0;
         v < static_cast<std::uint32_t>(g.nodes.size()); ++v)
        members[sccId[v]].push_back(v);

    // Tarjan emits members in reverse discovery order within each
    // component; examine components by their earliest-discovered
    // state so the reported lasso is deterministic.
    std::vector<std::uint32_t> order(sccCount);
    for (std::uint32_t i = 0; i < sccCount; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&members](std::uint32_t x, std::uint32_t y) {
                  return members[x].back() < members[y].back();
              });

    for (std::uint32_t scc : order) {
        std::vector<std::uint32_t> &ms = members[scc];
        std::sort(ms.begin(), ms.end());

        bool hasInternal = false;
        for (std::uint32_t v : ms) {
            for (const GraphEdge &e : g.nodes[v].edges)
                if (sccId[e.to] == scc)
                    hasInternal = true;
        }
        if (!hasInternal || !g.nodes[ms.front()].refsOut)
            continue;

        // Keys enabled at every member state...
        std::vector<std::uint64_t> universal =
            g.nodes[ms.front()].fairKeys;
        for (std::uint32_t v : ms) {
            std::vector<std::uint64_t> inter;
            std::set_intersection(
                universal.begin(), universal.end(),
                g.nodes[v].fairKeys.begin(),
                g.nodes[v].fairKeys.end(),
                std::back_inserter(inter));
            universal = std::move(inter);
        }
        // ...must each be taken by an internal edge, else every
        // run trapped here is unfair and the SCC proves nothing.
        std::unordered_map<std::uint64_t,
                           std::pair<std::uint32_t, std::uint32_t>>
            covering; // key -> (src node, edge index)
        for (std::uint32_t v : ms) {
            const auto &edges = g.nodes[v].edges;
            for (std::uint32_t e = 0; e < edges.size(); ++e) {
                if (sccId[edges[e].to] != scc)
                    continue;
                covering.emplace(actionKey(edges[e].act),
                                 std::make_pair(v, e));
            }
        }
        bool fair = true;
        for (std::uint64_t k : universal) {
            if (!covering.count(k)) {
                fair = false;
                break;
            }
        }
        if (!fair)
            continue;

        // Accepting cycle found. Lasso: prefix via discovery
        // parents to the earliest member, then a closed internal
        // walk visiting every member and every obligated edge
        // (the walk is itself weakly fair by construction).
        const std::uint32_t anchor = ms.front();
        std::vector<Action> prefix;
        for (std::uint32_t v = anchor; g.nodes[v].parent != kNone;
             v = g.nodes[v].parent) {
            const GraphNode &n = g.nodes[v];
            prefix.push_back(g.nodes[n.parent].edges[n.parentEdge].act);
        }
        std::reverse(prefix.begin(), prefix.end());

        std::vector<Action> cycle;
        std::uint32_t cur = anchor;
        auto walkTo = [&](std::uint32_t dst) {
            for (Action &a : sccPath(g, sccId, scc, cur, dst))
                cycle.push_back(std::move(a));
            cur = dst;
        };
        for (std::uint32_t v : ms)
            walkTo(v);
        for (std::uint64_t k : universal) {
            auto [src, e] = covering.at(k);
            walkTo(src);
            cycle.push_back(g.nodes[src].edges[e].act);
            cur = g.nodes[src].edges[e].to;
        }
        walkTo(anchor);
        if (cycle.empty()) { // single state: take its self-loop
            for (const GraphEdge &e : g.nodes[anchor].edges) {
                if (e.to == anchor) {
                    cycle.push_back(e.act);
                    break;
                }
            }
        }

        if (!reproducesLasso(gw, prefix, cycle))
            continue; // construction artifact, not a counterexample

        Violation v;
        v.kind = "livelock";
        v.details.push_back(csprintf(
            "weakly fair cycle of %zu state(s) with %llu "
            "reference(s) outstanding",
            ms.size(),
            static_cast<unsigned long long>(gw.refsOutstanding())));
        v.path = std::move(prefix);
        v.cycle = std::move(cycle);
        res.violations.push_back(std::move(v));
        break;
    }

    res.complete = res.violations.empty() && g.complete;
    return res;
}

Violation
minimizeLasso(const VerifyConfig &cfg, const Violation &v)
{
    SilenceLogging silent;
    EngineGateway gw(cfg);
    Violation out;
    out.kind = v.kind;
    out.details = v.details;
    out.path = v.path;
    out.cycle = v.cycle;

    auto shrink = [](std::vector<Action> &vec, auto &&check) {
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0; i < vec.size(); ++i) {
                std::vector<Action> cand;
                cand.reserve(vec.size() - 1);
                for (std::size_t j = 0; j < vec.size(); ++j)
                    if (j != i)
                        cand.push_back(vec[j]);
                if (check(cand)) {
                    vec = std::move(cand);
                    changed = true;
                    break;
                }
            }
        }
    };

    shrink(out.path, [&](const std::vector<Action> &cand) {
        return reproducesLasso(gw, cand, out.cycle);
    });
    shrink(out.cycle, [&](const std::vector<Action> &cand) {
        return reproducesLasso(gw, out.path, cand);
    });
    return out;
}

} // namespace mscp::verify
