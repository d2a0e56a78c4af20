// StretchOracle — the unified batched stretch-validation engine.
//
// Every validator in this repo reduces to the same question: over a family
// of fault sets F, how large does d_{H\F}(u,v) / d_{G\F}(u,v) get over the
// surviving edges (u,v) of G? (Checking edges suffices: every edge of a
// shortest path is stretched by at most k iff every pair is.) The oracle
// answers it with five mechanisms:
//
//   1. One source-batched Dijkstra pair per spanner-edge endpoint per fault
//      set — never one per pair. The G-side run is bounded by the largest
//      surviving incident edge length (d_{G\F}(u,v) <= w(u,v) for a
//      surviving edge), and both runs stop as soon as every incident target
//      is settled.
//   2. The shared shortest-path engine (graph/sp_engine.hpp): epoch-stamped
//      scratch reused across fault sets — no per-run allocation, O(1)
//      invalidation — running over immutable CSR snapshots of both graphs
//      taken once at oracle construction.
//   3. Independent fault sets fanned across the worker lanes of a BurstPool
//      (pipeline/burst_pipeline.hpp), each with private scratch.
//      Per-set witnesses land in an index-ordered array and are folded
//      sequentially, so the worst witness — and the whole FtCheckResult —
//      is bit-identical for every thread count.
//   4. A fault-free baseline and a per-slot index, built once per check
//      that sweeps two or more fault sets (the baseline sweep runs by
//      source on the check's lanes, whose scratch the fault sets then
//      reuse). A slot is one (source u, target v) pair in sweep order; the
//      baseline stores its labels d_G and d_H, and the index maps each
//      element — an interior vertex, or G's edge id under edge faults — of
//      the slot's recorded G path and H path to the entry slot * 2 + side
//      (0: G, 1: H). A live slot F does not touch replays its labels. A
//      source one of whose recorded G paths has an element also keeps a
//      row: its G-run's settle order and labels.
//      Exact, not approximate: weights are non-negative and IEEE addition
//      is monotone, so a Dijkstra label is the minimum over paths of the
//      forward-summed length; when F misses the recorded path that minimum
//      is unchanged bit for bit (F only removes paths), and a G-run's
//      bound, at least w(u,v) >= d(u,v), prunes nothing on it.
//   5. Cutoff decisions for the slots F touches. A set's result is its
//      largest stretch and the first slot reaching it, so a touched slot
//      only matters if it can beat the running witness (m, P) folded from
//      the rest: stretch > m, or = m > 1 before P. F only removes paths, so
//      d_{G\F} >= d_G, and IEEE division is monotone: a slot whose G path
//      alone is touched and whose baseline stretch is below the cut stays
//      below it; one whose H path is touched is below once H\F has a u-v
//      path of length <= t, the largest t with fl(t / d_G) below — a
//      bidirectional decision query that stops at the first path within t;
//      if both paths are touched, a lower bound on d_{G\F} widens t for a
//      second try. That bound is an A* search from v toward u on the heap,
//      guided by u's row: pi(x) = min(d_G(u, x), the row's last label) is
//      admissible and consistent on G\F under both fault models (F only
//      removes paths; the min with a constant keeps pi 1-Lipschitz), and
//      reduced lengths are clamped at 0
//      (DijkstraEngine::goal_directed_pair).
//      Every skip rests on a real path, so it only proves "below"; inexact
//      sums (two-half or reduced vs forward) are trusted only kTieWindow
//      inside a cut.
//      What stays undecided (d_G = 0, failed queries) gets its source's
//      forward runs, targeted at those slots, so every label — and the
//      witness — matches a full sweep bit for bit. evaluate() and
//      max_stretch() run mechanism 1 for every source instead.
//
// The oracle works on undirected graphs: each edge is one slot, searched
// from its lower endpoint. This is the one validation entry point for
// them: plain stretch is max_stretch() or check_exact(0), vertex-fault
// tolerance is check_exact / check_sampled, edge-fault tolerance is
// check_exact_edges / check_sampled_edges — same loop, fan-out, fold and
// per-trial RNG streams, with F a set of G's edge ids. (The directed
// 2-spanners of Section 3 have their own exact checks: Lemma 3.1 and its
// definition, spanner2/verify2.hpp.)
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/sp_engine.hpp"
#include "util/rng.hpp"

namespace ftspan {

struct FtCheckResult {
  bool valid = true;
  double worst_stretch = 1.0;          ///< max observed d_H\F / d_G\F
  /// The fault set achieving worst_stretch (G's edge ids for edge checks).
  VertexSet witness_faults;
  Vertex witness_u = kInvalidVertex;   ///< violated / worst pair
  Vertex witness_v = kInvalidVertex;
  std::size_t fault_sets_checked = 0;
  /// Shortest-path queries run over the whole check: every forward run (a
  /// source search is a G-run and an H-run; the baseline's are included),
  /// every decision query and every G lower-bound query (mechanism 5). The
  /// adversaries' path probes are not counted. A deterministic work
  /// counter: the same at any thread count.
  std::size_t searches = 0;

  /// Records (F, u, v, stretch) if it is worse than the current worst.
  void consider(double stretch, const VertexSet& faults, Vertex u, Vertex v,
                double k);
};

/// Options shared by all oracle-backed validators.
struct FtCheckOptions {
  /// Worker threads for the fault-set fan-out; 0 = all hardware threads
  /// (capped at kMaxWorkers). Every value yields a bit-identical
  /// FtCheckResult for the same inputs and seed.
  std::size_t threads = 1;

  /// Exact checks throw once the fault-set enumeration exceeds this.
  std::size_t max_fault_sets = 2'000'000;

  /// Shortest-path engine policy for the scratch engines
  /// (graph/engine_policy.hpp); resolved per graph from the CSR snapshots'
  /// weight profiles. Never changes the FtCheckResult.
  SpEnginePolicy engine = SpEnginePolicy::kAuto;

  /// Bucket budget of the resolved bucket queue (tune_delta in
  /// graph/engine_policy.hpp).
  /// Never changes the FtCheckResult. Must be finite and >= 1: every check
  /// throws std::invalid_argument otherwise.
  Weight bucket_max = kMaxBucketWeight;
};

/// Number of fault sets of size <= r over n vertices (saturating).
std::size_t count_fault_sets(std::size_t n, std::size_t r);

/// Shared throw path for exact enumerations: reports where the overflow
/// happened, the fault model, n vertices or m edges, r, the computed
/// fault-set count, and the cap.
[[noreturn]] void throw_fault_set_overflow(const char* where, bool edge_faults,
                                           std::size_t universe, std::size_t r,
                                           std::size_t count,
                                           std::size_t max_fault_sets);

/// The one fault-set enumeration: calls fn(F) for every subset F of
/// {0..universe-1} with |F| <= r, by size and then lexicographically (F's
/// ids ascending). Throws via throw_fault_set_overflow(where, edge_faults,
/// ...) before the first call when there are more than max_fault_sets.
void for_each_fault_set(const char* where, bool edge_faults,
                        std::size_t universe, std::size_t r,
                        std::size_t max_fault_sets,
                        const std::function<void(std::span<const Vertex>)>& fn);

/// The fault set drawn by check_sampled's (or check_sampled_edges') random
/// trial i: a partial Fisher-Yates draw of `fault_size` distinct ids, left
/// in pool[0, fault_size), from the identity pool over out.universe_size()
/// vertices (or edges), consuming `rng` (which trial i seeds as
/// Rng(hash_combine(seed, i))). Exposed so benches and tests can replay the
/// oracle's trial stream exactly.
void sample_fault_set(Rng& rng, std::size_t fault_size,
                      std::vector<Vertex>& pool, VertexSet& out);

/// The fault-free baseline a check builds before its fan-out (mechanism 4
/// above); defined in stretch_oracle.cpp.
struct OracleBaseline;

template <class State>
class BurstPool;

class StretchOracle {
 public:
  /// g is the base graph, h the candidate spanner (same vertex universe —
  /// throws std::invalid_argument otherwise), k the stretch to certify
  /// (finite and >= 1; throws std::invalid_argument otherwise).
  /// Both graphs must outlive the oracle; the deleted overloads reject
  /// temporaries at compile time.
  StretchOracle(const Graph& g, const Graph& h, double k);
  StretchOracle(const Graph&& g, const Graph& h, double k) = delete;
  StretchOracle(const Graph& g, const Graph&& h, double k) = delete;
  StretchOracle(const Graph&& g, const Graph&& h, double k) = delete;

  const Graph& base() const { return *g_; }
  const Graph& spanner() const { return *h_; }
  double stretch_bound() const { return k_; }

  /// Per-worker scratch: one pooled Dijkstra engine each for G and H plus
  /// the reusable target/pool buffers. One per thread; never shared. Both
  /// engines' forward runs get one queue structure, resolved against the
  /// joint weight profile of G and H (the larger max weight; exact sums
  /// only if both graphs have them — the bucket queue under kAuto when they
  /// do). The two engines also serve as the pair of a bidirectional query
  /// on H, and dg runs the A* queries on G; both run on the heaps. Throws
  /// std::invalid_argument unless valid_bucket_max(bucket_max).
  struct Scratch {
    DijkstraEngine dg, dh;
    std::vector<Vertex> targets;
    std::vector<Vertex> pool;
    std::vector<Vertex> interior;  ///< adversary's path (edge ids for edges)
    VertexSet faults;
    /// Edge checks only: F over G's edge ids, and over H's (sized lazily).
    VertexSet edge_faults, h_edge_faults;
    /// A live slot whose recorded G or H path the current F touches.
    struct Touched {
      std::size_t slot;
      Vertex u, v;
      Weight w;            ///< length of the slot's edge (u, v)
      std::uint8_t sides;  ///< bit 0: its G path is touched; bit 1: its H path
      bool undecided;      ///< needs exact runs (mechanism 5)
    };
    std::vector<std::size_t> entries;  ///< index entries of the current F
    std::vector<Touched> touched;
    std::vector<Vertex> h_targets;  ///< one source's exact H-run targets
    /// Baseline sweep: the elements on this lane's sources' recorded paths,
    /// one after another; and the settle order and labels of those of its
    /// G-runs that keep a row (mechanism 5).
    std::vector<Vertex> path_elements;
    std::vector<Vertex> row_vertices;
    std::vector<Weight> row_labels;
    /// G queries: the current source's row labels by vertex, infinite
    /// elsewhere (sized on first use).
    std::vector<Weight> potential;
  };
  Scratch make_scratch(SpEnginePolicy policy = SpEnginePolicy::kAuto,
                       Weight bucket_max = kMaxBucketWeight) const;

  /// Worst surviving-edge stretch under one fault set; (1.0, invalid,
  /// invalid) when no surviving edge exists. The witness pair is the first
  /// strict maximum in (source ascending, adjacency order) — deterministic.
  struct Witness {
    double stretch = 1.0;
    Vertex u = kInvalidVertex;
    Vertex v = kInvalidVertex;
    std::size_t searches = 0;  ///< queries this evaluation ran
  };
  Witness evaluate(const VertexSet& faults, Scratch& scratch) const;

  /// Single-shot convenience: worst stretch under `faults` (nullptr = none).
  double max_stretch(const VertexSet* faults = nullptr) const;

  /// Batched evaluation of an explicit fault-set list.
  FtCheckResult evaluate_sets(const std::vector<VertexSet>& fault_sets,
                              const FtCheckOptions& options = {}) const;

  /// Exact check: enumerate every fault set |F| <= r. Throws via
  /// throw_fault_set_overflow once the enumeration exceeds
  /// options.max_fault_sets.
  FtCheckResult check_exact(std::size_t r,
                            const FtCheckOptions& options = {}) const;

  /// Sampled check: `random_trials` fault sets of size min(r, n-2) (per-trial
  /// RNG streams — see sample_fault_set), plus a targeted adversary that for
  /// `adversarial_edges` random G-edges repeatedly fails an interior vertex
  /// of H's current shortest path between the endpoints (up to r faults) and
  /// evaluates that pair. valid=true is evidence, not proof.
  FtCheckResult check_sampled(std::size_t r, std::size_t random_trials,
                              std::size_t adversarial_edges,
                              std::uint64_t seed,
                              const FtCheckOptions& options = {}) const;

  /// check_exact under edge faults: every set of <= r edges of G.
  FtCheckResult check_exact_edges(std::size_t r,
                                  const FtCheckOptions& options = {}) const;

  /// check_sampled under edge faults: random sets of min(r, m) edges, plus
  /// an adversary that fails edges of H's current shortest path between a
  /// random G-edge's endpoints (up to r). Unlike the vertex adversary, every
  /// trial evaluates every surviving edge.
  FtCheckResult check_sampled_edges(std::size_t r, std::size_t random_trials,
                                    std::size_t adversarial_edges,
                                    std::uint64_t seed,
                                    const FtCheckOptions& options = {}) const;

 private:
  /// Sweeps every source fault-free on the check's lanes, keeps each slot's
  /// labels and indexes the elements (vertices, or G's edge ids when
  /// kEdges) of each slot's recorded G and H paths.
  template <bool kEdges>
  OracleBaseline build_baseline(BurstPool<Scratch>& lanes) const;

  /// Fault set i is load(i, scratch) (which may fill the scratch's masks)
  /// and scores eval(i, scratch, baseline); `universe` sizes an empty
  /// witness set. The first `sweeps` sets sweep every source; when there
  /// are two or more, a baseline over kEdges' elements is built first and
  /// passed on (nullptr otherwise).
  template <bool kEdges, class Load, class Eval>
  FtCheckResult run_indexed(std::size_t count, std::size_t sweeps,
                            std::size_t universe, const Load& load,
                            const Eval& eval,
                            const FtCheckOptions& options) const;

  const Graph* g_;
  const Graph* h_;
  Csr cg_;  ///< flat snapshot of *g_, shared read-only by all workers
  Csr ch_;  ///< flat snapshot of *h_
  double k_;
};

}  // namespace ftspan
