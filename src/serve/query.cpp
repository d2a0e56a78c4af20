#include "serve/query.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/engine_policy.hpp"
#include "pipeline/burst_pipeline.hpp"

namespace ftspan::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

bool same_query(const ServeQuery& a, const ServeQuery& b) {
  return a.s == b.s && a.t == b.t && a.want_base == b.want_base &&
         a.avoid_vertices == b.avoid_vertices && a.avoid_edges == b.avoid_edges;
}

/// Bounded s-t run on `c` minus vertex faults minus dead edges. The dead
/// mask is indexed by the snapshot's own edge ids, so G and H need separate
/// masks (edge_subgraph renumbers).
Weight pair_avoiding(DijkstraEngine& eng, const Csr& c, Vertex s, Vertex t,
                     const VertexSet* faults, const std::vector<char>& dead) {
  const Vertex src[1] = {s};
  const Vertex tgt[1] = {t};
  eng.run_visit(c.num_vertices(), {src, 1}, faults, kInfiniteWeight, {tgt, 1},
                nullptr, [&](Vertex v, auto&& relax) {
                  for (const auto& a : c.out(v))
                    if (!dead[a.edge]) relax(a.to, a.w, a.edge);
                });
  return eng.dist(t);
}

/// Points `eng` at the queue SpEnginePolicy::kAuto picks for a graph's
/// weights.
void set_auto_queue(DijkstraEngine& eng, const WeightProfile& wp) {
  eng.set_queue(select_sp_queue(SpEnginePolicy::kAuto, wp.exact_sums()),
                wp.max_weight);
}

}  // namespace

void ServeQuery::canonicalize() {
  std::sort(avoid_vertices.begin(), avoid_vertices.end());
  avoid_vertices.erase(
      std::unique(avoid_vertices.begin(), avoid_vertices.end()),
      avoid_vertices.end());
  for (auto& [u, v] : avoid_edges)
    if (u > v) std::swap(u, v);
  std::sort(avoid_edges.begin(), avoid_edges.end());
  avoid_edges.erase(std::unique(avoid_edges.begin(), avoid_edges.end()),
                    avoid_edges.end());
}

std::uint64_t ServeQuery::cache_key() const {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, s);
  h = fnv_u64(h, t);
  h = fnv_u64(h, want_base ? 1 : 0);
  h = fnv_u64(h, avoid_vertices.size());
  for (const Vertex v : avoid_vertices) h = fnv_u64(h, v);
  h = fnv_u64(h, avoid_edges.size());
  for (const auto& [u, v] : avoid_edges) {
    h = fnv_u64(h, u);
    h = fnv_u64(h, v);
  }
  return h;
}

/// One lane's private state, built on the lane's thread: an engine per
/// graph, a fault mask, and the two dead-edge masks with touched-entry logs
/// so resets are O(|F|), not O(m).
struct QueryEngine::Scratch {
  Scratch(const Csr& cg, const Csr& ch) {
    dead_g.assign(cg.num_arcs() / 2, 0);
    dead_h.assign(ch.num_arcs() / 2, 0);
    faults = VertexSet(cg.num_vertices());
    set_auto_queue(eng_g, cg.weights());
    set_auto_queue(eng_h, ch.weights());
    eng_g.reserve(cg.num_vertices(), cg.num_arcs() + 1);
    eng_h.reserve(ch.num_vertices(), ch.num_arcs() + 1);
  }

  DijkstraEngine eng_g;
  DijkstraEngine eng_h;
  VertexSet faults;
  std::vector<char> dead_g;  ///< by G edge id
  std::vector<char> dead_h;  ///< by H edge id (renumbered)
  std::vector<EdgeId> touched_g;
  std::vector<EdgeId> touched_h;
};

struct QueryEngine::CacheEntry {
  std::uint64_t key = 0;
  ServeQuery query;  ///< kept to disambiguate genuine hash collisions
  ServeAnswer answer;
};

QueryEngine::QueryEngine(const Graph& g, const std::vector<EdgeId>& spanner_edges,
                         double k, const Options& options)
    : g_(&g),
      h_(g.edge_subgraph(spanner_edges)),
      cg_(g),
      ch_(h_),
      k_(k),
      options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.workers > kMaxWorkers)
    throw std::invalid_argument("QueryEngine: " +
                                std::to_string(options_.workers) +
                                " workers exceeds the ceiling of " +
                                std::to_string(kMaxWorkers));
  pool_ = std::make_unique<BurstPool<Scratch>>(
      options_.workers, [this](std::size_t) { return Scratch(cg_, ch_); });
}

QueryEngine::QueryEngine(const Graph& g,
                         const std::vector<EdgeId>& spanner_edges, double k)
    : QueryEngine(g, spanner_edges, k, Options()) {}

QueryEngine::~QueryEngine() = default;

void QueryEngine::answer_miss(const ServeQuery& q, ServeAnswer& a,
                              Scratch& scratch) const {
  // Stage the fault set. Touched entries are logged so the tear-down below
  // costs O(|F|) regardless of graph size.
  for (const Vertex v : q.avoid_vertices) scratch.faults.insert(v);
  for (const auto& [u, v] : q.avoid_edges) {
    if (const auto id = g_->edge_id(u, v)) {
      scratch.dead_g[*id] = 1;
      scratch.touched_g.push_back(*id);
    }
    if (const auto id = h_.edge_id(u, v)) {
      scratch.dead_h[*id] = 1;
      scratch.touched_h.push_back(*id);
    }
  }

  a.dh = kInfiniteWeight;
  a.dg = kInfiniteWeight;
  a.from_cache = false;
  const bool endpoints_ok =
      !scratch.faults.contains(q.s) && !scratch.faults.contains(q.t);
  if (endpoints_ok && q.s == q.t) {
    a.dh = 0;
    a.dg = 0;
  } else if (endpoints_ok) {
    const VertexSet* faults =
        q.avoid_vertices.empty() ? nullptr : &scratch.faults;
    if (q.avoid_edges.empty()) {
      a.dh = scratch.eng_h.bounded_pair(ch_, q.s, q.t, faults);
      if (q.want_base) a.dg = scratch.eng_g.bounded_pair(cg_, q.s, q.t, faults);
    } else {
      a.dh = pair_avoiding(scratch.eng_h, ch_, q.s, q.t, faults,
                           scratch.dead_h);
      if (q.want_base)
        a.dg = pair_avoiding(scratch.eng_g, cg_, q.s, q.t, faults,
                             scratch.dead_g);
    }
  }

  for (const Vertex v : q.avoid_vertices) scratch.faults.erase(v);
  for (const EdgeId id : scratch.touched_g) scratch.dead_g[id] = 0;
  for (const EdgeId id : scratch.touched_h) scratch.dead_h[id] = 0;
  scratch.touched_g.clear();
  scratch.touched_h.clear();
}

const QueryEngine::CacheEntry* QueryEngine::cache_find(const ServeQuery& q,
                                                       std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end() || !same_query(it->second->query, q)) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
  return &*it->second;
}

void QueryEngine::cache_insert(const ServeQuery& q, std::uint64_t key,
                               const ServeAnswer& a) {
  if (options_.cache_capacity == 0) return;
  if (const auto it = index_.find(key); it != index_.end()) {
    // Same key already cached (duplicate miss in one batch, or a genuine
    // hash collision — the newer answer wins either way).
    it->second->query = q;
    it->second->answer = a;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(CacheEntry{key, q, a});
  lru_.front().answer.from_cache = true;  // every future hit is "from cache"
  index_.emplace(key, lru_.begin());
  if (lru_.size() > options_.cache_capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void QueryEngine::answer_batch(std::span<const ServeQuery> queries,
                               std::vector<ServeAnswer>& answers) {
  answers.assign(queries.size(), ServeAnswer{});
  queries_ += queries.size();

  // Phase 1 (calling thread): cache lookups; misses collect into a work
  // list the pipeline fans out over.
  miss_idx_.clear();
  miss_key_.clear();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t key =
        options_.cache_capacity == 0 ? 0 : queries[i].cache_key();
    if (options_.cache_capacity != 0) {
      if (const CacheEntry* e = cache_find(queries[i], key)) {
        answers[i] = e->answer;
        ++cache_stats_.hits;
        continue;
      }
      ++cache_stats_.misses;
    }
    miss_idx_.push_back(i);
    miss_key_.push_back(key);
  }
  if (miss_idx_.empty()) return;

  // Phase 2: compute misses on per-lane engines. Results are keyed by
  // index, so the answers are identical for every workers setting.
  pool_->run(miss_idx_.size(), [&](std::size_t i, Scratch& s) {
    answer_miss(queries[miss_idx_[i]], answers[miss_idx_[i]], s);
  });

  // Phase 3 (calling thread): newly computed answers land in the cache.
  if (options_.cache_capacity != 0)
    for (std::size_t j = 0; j < miss_idx_.size(); ++j)
      cache_insert(queries[miss_idx_[j]], miss_key_[j],
                   answers[miss_idx_[j]]);
}

ServeAnswer QueryEngine::answer(const ServeQuery& query) {
  one_query_[0] = query;
  answer_batch({one_query_, 1}, one_answer_);
  return one_answer_[0];
}

}  // namespace ftspan::serve
