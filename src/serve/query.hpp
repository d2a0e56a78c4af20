// QueryEngine — the daemon's compute core: distance / stretch / fault-
// what-if queries over a precomputed FT spanner, answered by per-lane
// pooled DijkstraEngines of a BurstPool, with an LRU answer cache in front.
//
// A query names a pair (s, t) plus an optional fault set to avoid: vertices
// and/or edges (given as endpoint pairs). The engine answers with the exact
// shortest-path distance in the spanner minus the fault set — and, for
// stretch queries, in the base graph minus the fault set too — using the
// same DijkstraEngine the StretchOracle validates with, so served answers
// are bit-identical to oracle ground truth.
//
// Threading contract: all public methods are called from ONE thread (the
// daemon's event loop). Lane threads build their scratch when the engine is
// constructed and otherwise run only inside answer_batch's fan-out, on that
// scratch; the cache is touched by the calling thread exclusively.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/sp_engine.hpp"
#include "graph/vertex_set.hpp"

namespace ftspan {
template <class State>
class BurstPool;
}

namespace ftspan::serve {

/// One parsed query. Fault lists must be canonical (sorted, deduplicated,
/// edge endpoints lo <= hi) before hashing/answering — canonicalize() does
/// it.
struct ServeQuery {
  Vertex s = 0;
  Vertex t = 0;
  bool want_base = false;  ///< stretch query: also compute d_{G\F}(s, t)
  std::vector<Vertex> avoid_vertices;
  std::vector<std::pair<Vertex, Vertex>> avoid_edges;

  /// Sorts + dedups the fault lists and orders edge endpoints; required
  /// before answer()/cache_key().
  void canonicalize();

  /// FNV-1a over (s, t, want_base, fault lists) — the cache key.
  std::uint64_t cache_key() const;
};

/// The answer: exact distances with the fault set applied. `dg` is only
/// meaningful when the query asked for the base distance.
struct ServeAnswer {
  Weight dh = kInfiniteWeight;  ///< d_{H\F}(s, t); infinite = unreachable
  Weight dg = kInfiniteWeight;  ///< d_{G\F}(s, t) (want_base queries only)
  bool from_cache = false;
};

class QueryEngine {
 public:
  struct Options {
    std::size_t workers = 1;        ///< BurstPool lanes; 1 = inline, no threads
    std::size_t cache_capacity = 1024;  ///< LRU entries; 0 disables the cache
  };

  /// g must outlive the engine; the spanner H is materialized internally
  /// from `spanner_edges` (edge ids into g).
  QueryEngine(const Graph& g, const std::vector<EdgeId>& spanner_edges,
              double k, const Options& options);
  QueryEngine(const Graph& g, const std::vector<EdgeId>& spanner_edges,
              double k);
  QueryEngine(const Graph&& g, const std::vector<EdgeId>& spanner_edges,
              double k, const Options& options) = delete;
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers queries[i] into answers[i] (resized to match). Cache lookups
  /// happen up front on the calling thread; misses fan out through the
  /// BurstPool onto per-lane engines, then land in the cache.
  /// Queries must be canonicalized. Answers are deterministic and identical
  /// for every workers setting.
  void answer_batch(std::span<const ServeQuery> queries,
                    std::vector<ServeAnswer>& answers);

  /// Single-query convenience over answer_batch.
  ServeAnswer answer(const ServeQuery& query);

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const CacheStats& cache_stats() const { return cache_stats_; }
  std::uint64_t queries_answered() const { return queries_; }

  const Graph& base() const { return *g_; }
  const Graph& spanner() const { return h_; }
  double stretch_bound() const { return k_; }
  std::size_t num_vertices() const { return g_->num_vertices(); }

 private:
  struct Scratch;
  struct CacheEntry;

  void answer_miss(const ServeQuery& q, ServeAnswer& a, Scratch& scratch) const;
  const CacheEntry* cache_find(const ServeQuery& q, std::uint64_t key);
  void cache_insert(const ServeQuery& q, std::uint64_t key,
                    const ServeAnswer& a);

  const Graph* g_;
  Graph h_;   ///< the spanner, with its own (renumbered) edge ids
  Csr cg_;    ///< flat snapshots shared read-only by all workers
  Csr ch_;
  double k_;
  Options options_;

  std::unique_ptr<BurstPool<Scratch>> pool_;  ///< one Scratch per lane

  // Per-batch work list, kept across batches so its capacity is reused.
  std::vector<std::size_t> miss_idx_;
  std::vector<std::uint64_t> miss_key_;
  ServeQuery one_query_[1];  ///< answer()'s reusable single-element batch
  std::vector<ServeAnswer> one_answer_;

  // LRU cache: list front = most recent; map points into the list.
  std::list<CacheEntry> lru_;
  std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> index_;
  CacheStats cache_stats_;
  std::uint64_t queries_ = 0;
};

}  // namespace ftspan::serve
