// DijkstraEngine — the one shortest-path implementation in this repository.
//
// Every shortest-path computation in src/ (greedy spanner, Thorup–Zwick,
// distance oracle, the StretchOracle's vertex- and edge-fault checks, and
// the serve query engine) runs through run_visit() or one of the two pair
// searches below. The engine is a *pooled workspace*: it owns epoch-stamped
// dist/parent/via arrays, a reusable priority structure, and the
// settle-order log, so that after the first run at a given graph size a run
// performs zero heap allocations — invalidation of the previous run's state
// is an O(1) epoch bump, not an O(n) infinity-fill.
//
// Two interchangeable priority structures sit behind the one-directional
// loop (selected with set_queue; see graph/engine_policy.hpp for the
// policy); the bidirectional and goal-directed pair searches always run on
// the heap:
//
//   HeapQueue    a 4-ary min-heap ordered by (distance, push sequence) —
//                the push-sequence tie-break makes equal-distance pops FIFO,
//                i.e. *stable*, which pins the settle order to something a
//                bucket queue can reproduce exactly.
//   BucketQueue  integer weights only (a label-setting bucket queue is
//                incorrect on fractional keys): circular buckets of 2^shift
//                keys each. With shift 0 (weights up to the bucket ceiling)
//                it is Dial's algorithm — one key per bucket, FIFO within a
//                bucket, O(1) push and amortized O(1) pop. With wider
//                buckets (delta-stepping, for weights above the ceiling) a
//                far push is parked in O(1) and the open bucket is ordered
//                by a HeapQueue, so the heap log factor is paid only within
//                one bucket. Either way the pops come out in exactly the
//                stable heap's (distance, push sequence) order, so
//                distances, parents, vias, and the settle order are
//                bit-identical between the two structures.
//
// Usage pattern: one engine per thread, reused across runs. Engines are not
// thread-safe; never share one across concurrent callers.
//
// Semantics (identical to the historical implementations it replaces):
//   - `bound`:   a relaxation with tentative distance nd > bound is skipped;
//                vertices beyond the bound stay at infinity.
//   - `targets`: with a non-empty target list the search stops as soon as
//                every (distinct) target is settled; only target entries and
//                parent chains of settled vertices are then final.
//   - `prune_at`: optional per-vertex ceiling; a relaxation with
//                nd >= prune_at[to] is skipped (the Thorup–Zwick cluster
//                truncation d(w, v) < d(v, A_{i+1})).
//   - faulted vertices are never relaxed and never used as sources; the
//     one edge-masked entry point, run_avoiding_edges, skips dead edges.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/engine_policy.hpp"
#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"

namespace ftspan {

/// Uniform out-arc access for the graph types (Graph adjacency is symmetric,
/// so its "out" arcs are simply the incident arcs).
inline std::span<const Arc> out_arcs(const Graph& g, Vertex v) {
  return g.neighbors(v);
}
template <class Offset>
inline std::span<const CsrArc> out_arcs(const BasicCsr<Offset>& g, Vertex v) {
  return g.out(v);
}
// The mmap-backed view (graph/graph_file.hpp) runs through the same engine —
// there is no 32-bit arc ceiling on this path, the view's offsets are
// 64-bit. (The heap's per-run push-sequence tie-break counter is 32-bit; a
// single run would need > 2^32 relaxations to recycle it, which bounded
// searches never approach.)
inline std::span<const CsrArc> out_arcs(const CsrView& g, Vertex v) {
  return g.out(v);
}

/// Relative window around a pair search's result inside which its two-half
/// or reduced path sum is not trusted to match a forward-summed label (see
/// bidirectional_bounded_pair and goal_directed_pair). Callers that decide
/// on inexact path sums keep their acceptance thresholds this far inside the
/// bound (GreedyWorkspace::bounded_pair, the StretchOracle's cutoff
/// queries).
inline constexpr Weight kTieWindow = 1e-8;

class DijkstraEngine {
 public:
  /// Pre-sizes every internal buffer for an n-vertex graph whose searches
  /// push at most heap_hint entries (2m + #sources is always enough: each
  /// directed arc causes at most one push). Optional — buffers also grow on
  /// demand — but calling it up front makes later runs allocation-free even
  /// on the very first search.
  void reserve(std::size_t n, std::size_t heap_hint);

  /// Selects the priority structure for subsequent one-directional runs.
  /// For kDelta, max_weight is the largest integer arc weight any run will
  /// relax, and each bucket holds delta = tune_delta(max_weight, bucket_max)
  /// keys (kBucket, which no policy resolves to, forces delta = 1); the
  /// circular array holds max_weight / delta + 2 buckets. The caller is
  /// responsible for only routing integer-weight graphs whose path sums are
  /// exact here — use select_sp_queue with the graph's WeightProfile — and
  /// for a bucket_max that passes valid_bucket_max. Defaults to the heap.
  void set_queue(SpQueue q, Weight max_weight = 1,
                 Weight bucket_max = kMaxBucketWeight) {
    queue_ = q;
    if (q == SpQueue::kHeap) return;
    const Weight delta =
        q == SpQueue::kDelta ? tune_delta(max_weight, bucket_max) : 1;
    bucket_.configure(
        static_cast<std::uint32_t>(
            std::countr_zero(static_cast<std::uint64_t>(delta))),
        static_cast<std::size_t>(max_weight / delta) + 2);
  }
  SpQueue queue() const { return queue_; }

  /// Single-source run; see the header comment for bound/targets semantics.
  /// G is Graph, a Csr, or a CsrView.
  template <class G>
  void run(const G& g, Vertex source, const VertexSet* faults = nullptr,
           std::span<const Vertex> targets = {},
           Weight bound = kInfiniteWeight) {
    const Vertex src[1] = {source};
    run_visit(g.num_vertices(), {src, 1}, faults, bound, targets, nullptr,
              arc_visitor(g));
  }

  /// Multi-source run: dist(v) = d(v, sources).
  template <class G>
  void run_multi(const G& g, std::span<const Vertex> sources,
                 const VertexSet* faults = nullptr) {
    run_visit(g.num_vertices(), sources, faults, kInfiniteWeight, {}, nullptr,
              arc_visitor(g));
  }

  /// Truncated single-source run: relaxations with nd >= prune_at[to] are
  /// skipped (prune_at has num_vertices entries).
  template <class G>
  void run_pruned(const G& g, Vertex source, const VertexSet* faults,
                  const Weight* prune_at) {
    const Vertex src[1] = {source};
    run_visit(g.num_vertices(), {src, 1}, faults, kInfiniteWeight, {},
              prune_at, arc_visitor(g));
  }

  /// The one edge-masked run: run() on G minus a set of dead *edges* (the
  /// edge-fault model). `dead_edges` is a bitset over g's edge ids; arcs
  /// whose edge is in it are never relaxed. `targets` and `bound` are run()'s.
  template <class G>
  void run_avoiding_edges(const G& g, Vertex source,
                          const VertexSet& dead_edges,
                          std::span<const Vertex> targets = {},
                          Weight bound = kInfiniteWeight) {
    const Vertex src[1] = {source};
    const auto inner = arc_visitor(g);
    run_visit(g.num_vertices(), {src, 1}, nullptr, bound, targets, nullptr,
              [&](Vertex v, auto&& relax) {
                inner(v, [&](Vertex to, Weight w, EdgeId edge) {
                  if (!dead_edges.contains(edge)) relax(to, w, edge);
                });
              });
  }

  /// Single-pair distance on G \ faults (kInfiniteWeight beyond `bound`),
  /// with early exit once `target` settles.
  template <class G>
  Weight bounded_pair(const G& g, Vertex source, Vertex target,
                      const VertexSet* faults = nullptr,
                      Weight bound = kInfiniteWeight) {
    const Vertex tgt[1] = {target};
    run(g, source, faults, {tgt, 1}, bound);
    return dist(target);
  }

  // --- results of the most recent run -------------------------------------

  Weight dist(Vertex v) const {
    return stamp_[v] == epoch_ ? dist_[v] : kInfiniteWeight;
  }
  bool reachable(Vertex v) const { return dist(v) < kInfiniteWeight; }
  Vertex parent(Vertex v) const {
    return stamp_[v] == epoch_ ? parent_[v] : kInvalidVertex;
  }
  /// Edge id used to first reach v at its final distance (kInvalidEdge for
  /// sources / unreached vertices, or when the arcs carried no edge ids).
  EdgeId via(Vertex v) const {
    return stamp_[v] == epoch_ ? via_[v] : kInvalidEdge;
  }
  /// True iff v's distance is final (needed after a targeted early exit).
  bool settled(Vertex v) const { return done_[v] == epoch_; }
  /// The vertices settled by the last run, in non-decreasing distance order.
  /// Parents appear before their children, so one forward pass can propagate
  /// any per-root label down the shortest-path tree.
  std::span<const Vertex> settle_order() const { return order_; }

  // --- the core loop ------------------------------------------------------

  /// The single Dijkstra implementation. VisitArcs is called as
  /// visit(v, relax) and must invoke relax(to, w, edge) once per out-arc of
  /// v; every public entry point above is a thin wrapper around this. The
  /// body is instantiated once per priority structure and dispatched on the
  /// configured queue.
  template <class VisitArcs>
  void run_visit(std::size_t n, std::span<const Vertex> sources,
                 const VertexSet* faults, Weight bound,
                 std::span<const Vertex> targets, const Weight* prune_at,
                 VisitArcs&& visit) {
    if (queue_ == SpQueue::kHeap)
      run_visit_q(heap_, n, sources, faults, bound, targets, prune_at, visit);
    else
      run_visit_q(bucket_, n, sources, faults, bound, targets, prune_at,
                  visit);
  }

  /// Exact bounded s-t distance by *bidirectional* search: two cooperating
  /// half-searches (one per engine) expand alternately — cheaper frontier
  /// first — and stop as soon as the best meeting path is provably optimal
  /// (topF + topB >= mu) or provably longer than `bound`. Explores two
  /// radius-bound/2 balls instead of one radius-bound ball, which is the
  /// asymptotic win on expander-like graphs. Floating-point caveat: a path
  /// is summed in two halves that meet in the middle, so the returned value
  /// can differ from a forward-accumulating run() by accumulated rounding
  /// (~hops * eps, relative); callers whose *decision* compares the result
  /// against a threshold must treat a window around that threshold as
  /// undecided and re-query run() — see GreedyWorkspace::bounded_pair.
  /// Undirected adjacency only: `visit` serves both directions. Both halves
  /// run on their engine's heap, whatever queue set_queue configured: they
  /// settle a few dozen vertices each, too few for buckets to pay for
  /// themselves (on gnp(400, 0.1) with weights up to 1e5 the heap made the
  /// whole vertex conversion ~25% faster than delta; on unit weights Dial's
  /// queue was no faster than the heap); one-directional runs keep the
  /// configured queue.
  ///
  /// `accept` turns the query into a decision: the search returns the best
  /// meeting length mu as soon as mu <= accept, checked after every settle
  /// and before every relaxation. That value is the length of a real s-t
  /// path and is <= accept, but it may be longer than d(s, t); it answers
  /// "is d(s, t) <= accept?" without proving d, for a finite
  /// accept <= bound. A search that never meets such a path runs, and
  /// returns, exactly as without the threshold. The default (-infinity)
  /// never stops a search early.
  ///
  /// Kept out of line: inlined into its caller (the greedy's bounded_pair)
  /// it made tiny unit-weight pair searches ~1.4x slower (gcc 12, 4-vCPU
  /// Xeon).
  template <class VisitArcs>
  [[gnu::noinline]] static Weight bidirectional_bounded_pair(
      DijkstraEngine& fwd, DijkstraEngine& bwd, std::size_t n, Vertex s,
      Vertex t, const VertexSet* faults, Weight bound, VisitArcs&& visit,
      Weight accept = -kInfiniteWeight) {
    if (s == t) return 0;
    fwd.ensure(n);
    bwd.ensure(n);
    fwd.next_epoch();
    bwd.next_epoch();
    HeapQueue& qf = fwd.heap_;
    HeapQueue& qb = bwd.heap_;
    qf.clear();
    qb.clear();
    fwd.order_.clear();
    bwd.order_.clear();
    if (faults != nullptr && (faults->contains(s) || faults->contains(t)))
      return kInfiniteWeight;

    fwd.seed_source(s);
    bwd.seed_source(t);
    Weight mu = kInfiniteWeight;

    // Settles one vertex of `self`, relaxing its arcs and improving the best
    // meeting length mu against `other`'s stamped (tentative or final)
    // distances — every such combination is the length of a real s-t path.
    // Once mu <= accept the rest of the arc scan relaxes nothing, and the
    // loop below returns mu.
    const auto expand = [&](DijkstraEngine& self, DijkstraEngine& other) {
      HeapQueue& q = self.heap_;
      while (!q.empty()) {
        const QueueItem item = q.pop();
        const Vertex v = item.v;
        if (self.done_[v] == self.epoch_) continue;  // stale duplicate
        self.done_[v] = self.epoch_;
        if (other.stamp_[v] == other.epoch_)
          mu = std::min(mu, item.d + other.dist_[v]);
        if (mu <= accept) return;
        visit(v, [&](Vertex to, Weight w, EdgeId edge) {
          if (mu <= accept) return;
          if (faults != nullptr && faults->contains(to)) return;
          if (self.done_[to] == self.epoch_) return;
          const Weight nd = item.d + w;
          if (nd > bound) return;
          if (self.stamp_[to] != self.epoch_ || nd < self.dist_[to]) {
            self.stamp_[to] = self.epoch_;
            self.dist_[to] = nd;
            self.parent_[to] = v;
            self.via_[to] = edge;
            q.push(nd, to);
            if (other.stamp_[to] == other.epoch_)
              mu = std::min(mu, nd + other.dist_[to]);
          }
        });
        return;
      }
    };

    for (;;) {
      if (mu <= accept) return mu;
      const Weight top_f = qf.empty() ? kInfiniteWeight : qf.front_d();
      const Weight top_b = qb.empty() ? kInfiniteWeight : qb.front_d();
      if (top_f >= kInfiniteWeight && top_b >= kInfiniteWeight) break;
      const Weight reach = top_f + top_b;
      if (reach >= mu || reach > bound) break;
      if (top_f <= top_b)
        expand(fwd, bwd);
      else
        expand(bwd, fwd);
    }
    // If d(s,t) <= bound then mu == d(s,t) exactly up to the rounding noted
    // above (classical bidirectional termination argument); otherwise mu is
    // the length of some witnessed longer path, or infinity — either way on
    // the "> bound" side.
    return mu;
  }

  /// Goal-directed (A*) bounded s-t distance: one search from s toward t
  /// whose keys are sums of reduced lengths max(0, w - pi(x) + pi(y)) over
  /// arcs x -> y. `pi` (called as pi(x)) must be a consistent lower bound
  /// on the distance from x to t in the searched graph: pi(x) <= w + pi(y)
  /// for every arc, and pi(t) = 0. Returns the label of t plus pi(s), i.e.
  /// d(s, t), once t settles; kInfiniteWeight if it does not settle within
  /// `bound` (the reduced search is bounded by bound - pi(s)). The engine's
  /// labels then hold reduced lengths.
  ///
  /// Runs on the heap, whatever queue set_queue configured: reduced lengths
  /// reach 2 * max_weight, and on inexact sums they are not integers, so a
  /// Dial or delta ring sized for max_weight would be overrun. The
  /// clamp at 0 matters on inexact sums: a forward-summed label may exceed
  /// its predecessor's plus w by an ulp, so an unclamped reduced length can
  /// be just below 0. A negative key breaks Dijkstra's label setting, and
  /// the heap's raw-bit key order sorts it after every non-negative one.
  /// With the clamp every key is a forward sum of non-negative lengths, so
  /// the returned value exceeds d(s, t) by at most the rounding of a sum
  /// along a shortest path, whose terms are all at most d(s, t) when pi is
  /// a lower bound (~hops * eps, relative). On exact sums pi is exactly
  /// consistent, the clamp never acts and the result is d(s, t) bit for
  /// bit. Without the clamp this soundness test fails:
  /// DijkstraEngine.GoalDirectedPairMatchesReferenceUnderFaults.
  template <class Potential, class VisitArcs>
  Weight goal_directed_pair(std::size_t n, Vertex s, Vertex t,
                            const VertexSet* faults, Weight bound,
                            const Potential& pi, VisitArcs&& visit) {
    ensure(n);
    next_epoch();
    heap_.clear();
    order_.clear();
    if (faults != nullptr && (faults->contains(s) || faults->contains(t)))
      return kInfiniteWeight;
    const Weight pi_s = pi(s);
    const Weight reduced_bound = bound - pi_s;
    seed_source(s);
    while (!heap_.empty()) {
      const QueueItem item = heap_.pop();
      const Vertex v = item.v;
      if (done_[v] == epoch_) continue;  // stale duplicate
      done_[v] = epoch_;
      if (v == t) return item.d + pi_s;
      const Weight pi_v = pi(v);
      visit(v, [&](Vertex to, Weight w, EdgeId edge) {
        if (faults != nullptr && faults->contains(to)) return;
        if (done_[to] == epoch_) return;
        const Weight nd = item.d + std::max(Weight{0}, w - pi_v + pi(to));
        if (nd > reduced_bound) return;
        if (stamp_[to] != epoch_ || nd < dist_[to]) {
          stamp_[to] = epoch_;
          dist_[to] = nd;
          parent_[to] = v;
          via_[to] = edge;
          heap_.push(nd, to);
        }
      });
    }
    return kInfiniteWeight;
  }

  // --- epoch plumbing (exposed for the rollover test) ----------------------

  std::uint32_t debug_epoch() const { return epoch_; }
  /// Test hook: jump the epoch counter (e.g. to just below the 32-bit wrap)
  /// so the rollover path is exercisable without 2^32 runs.
  void debug_set_epoch(std::uint32_t e) { epoch_ = e; }

 private:
  /// A queued (tentative distance, vertex) entry — what pop() hands back.
  struct QueueItem {
    Weight d;
    Vertex v;
  };

  // 4-ary min-heap: shallower than a binary heap (fewer cache-missing levels
  // per sift) and branch-friendly on the 4-child min scan. Items carry a
  // per-run push sequence number and order lexicographically by
  // (d, seq) — seq values are unique, so the order is total and pops of
  // equal-distance entries come out in push (FIFO) order, exactly matching
  // the BucketQueue below. Distances are stored as their raw IEEE-754 bits:
  // for the non-negative finite-or-infinity values Dijkstra produces, the
  // bit patterns order identically to the doubles, and integer compares let
  // the compiler fuse the (key, seq) test without double-comparison
  // semantics in the way — ties are *the* common case on unit-weight graphs,
  // so the tie branch is hot.
  class HeapQueue {
   public:
    void clear() {
      items_.clear();
      seq_ = 0;
    }
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }
    Weight front_d() const { return std::bit_cast<Weight>(items_.front().key); }
    void reserve(std::size_t cap) { items_.reserve(cap); }

    void push(Weight d, Vertex v) {
      items_.push_back({std::bit_cast<std::uint64_t>(d), v, seq_++});
      std::size_t i = items_.size() - 1;
      while (i > 0) {
        const std::size_t p = (i - 1) >> 2;
        if (!less(items_[i], items_[p])) break;
        std::swap(items_[p], items_[i]);
        i = p;
      }
    }

    QueueItem pop() {
      const Item top = items_.front();
      const Item last = items_.back();
      items_.pop_back();
      if (!items_.empty()) {
        std::size_t i = 0;
        const std::size_t n = items_.size();
        for (;;) {
          const std::size_t first = (i << 2) + 1;
          if (first >= n) break;
          std::size_t best = first;
          const std::size_t end = std::min(first + 4, n);
          for (std::size_t c = first + 1; c < end; ++c)
            if (less(items_[c], items_[best])) best = c;
          if (!less(items_[best], last)) break;
          items_[i] = items_[best];
          i = best;
        }
        items_[i] = last;
      }
      return {std::bit_cast<Weight>(top.key), top.v};
    }

   private:
    struct Item {
      std::uint64_t key;  ///< distance as raw bits (order-preserving for >= 0)
      Vertex v;
      std::uint32_t seq;
    };  // 16 bytes: the seq fills what was previously padding

    static bool less(const Item& a, const Item& b) {
      return a.key < b.key || (a.key == b.key && a.seq < b.seq);
    }

    std::vector<Item> items_;
    std::uint32_t seq_ = 0;
  };

  // The bucketed queue: a circular array of buckets, each spanning 2^shift
  // consecutive integer keys (bucket index = key >> shift, so no division).
  // Dijkstra's frontier is monotone and spans at most max_weight + 1
  // distinct keys, so with max_weight / 2^shift + 2 buckets the bucket
  // holding a key is always unambiguous and one conditional wrap finds it.
  // Entries live in one flat slab with an intrusive per-bucket FIFO list
  // (head/tail indices): the slab never re-allocates once reserve()d to the
  // push bound (2m + #sources — the same bound the heap uses), unlike a
  // vector-per-bucket layout whose capacities would keep growing run over
  // run.
  //
  // shift == 0 (Dial's queue): a bucket holds one key, so its FIFO chain is
  // already in (distance, push sequence) order and pops drain it in place;
  // a push landing on the cursor's key during the drain appends to the
  // chain's tail and is popped in the same pass.
  //
  // shift > 0 (delta-stepping): the cursor's bucket is *open*. Opening it
  // moves its chain, in push order, into a stable HeapQueue, and pushes
  // landing inside the open window go to that heap directly. Every entry
  // the heap receives was pushed after the entries already in it, so the
  // heap's own sequence numbers reproduce the global push order, and
  // monotonicity makes the open bucket the global minimum: pops come out
  // in exactly (distance, push sequence) order with the log factor paid only
  // within one window. Unlike classic (label-correcting) delta-stepping
  // there is no re-relaxation — the engine's stale-entry check keeps this
  // label-setting. The wide path lives out of line in sp_engine.cpp so the
  // Dial path stays as tight as a dedicated Dial queue.
  class BucketQueue {
   public:
    /// Sizes the circular array for `width` buckets of 2^shift keys each.
    /// Only grows; leftover entries from an abandoned run are dropped by the
    /// next clear().
    void configure(std::uint32_t shift, std::size_t width) {
      if (heads_.size() < width) {
        heads_.resize(width, kNil);
        tails_.resize(width, kNil);
      }
      shift_ = shift;
      width_ = width;
    }

    /// Pre-sizes the slab for a run pushing at most cap entries (the dirty
    /// list, and the open bucket's heap, are bounded by the push count too).
    void reserve(std::size_t cap) {
      slab_.reserve(cap);
      dirty_.reserve(cap);
      open_.reserve(cap);
    }

    void clear() {
      for (const std::uint32_t b : dirty_) {
        heads_[b] = kNil;
        tails_[b] = kNil;
      }
      dirty_.clear();
      slab_.clear();
      open_.clear();
      cur_ = 0;
      cur_b_ = 0;
      live_ = 0;
    }
    bool empty() const { return live_ == 0; }

    void push(Weight d, Vertex v) {
      ++live_;
      const std::uint64_t ab = static_cast<std::uint64_t>(d) >> shift_;
      // With shift > 0 the cursor's bucket is always open (bucket 0 from
      // clear() on), so an in-window push joins its heap.
      if (shift_ != 0 && ab == cur_) {
        push_open(d, v);
        return;
      }
      // Monotonicity gives ab - cur_ < width_, so the bucket index is the
      // cursor's bucket plus that offset with one conditional wrap — no
      // hardware division (a div per push would dominate these short
      // searches).
      std::size_t b = cur_b_ + static_cast<std::size_t>(ab - cur_);
      if (b >= width_) b -= width_;
      const std::uint32_t i = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back({d, v, kNil});
      if (heads_[b] == kNil) {
        dirty_.push_back(static_cast<std::uint32_t>(b));
        heads_[b] = i;
      } else {
        slab_[tails_[b]].next = i;
      }
      tails_[b] = i;
    }

    QueueItem pop() {
      --live_;
      if (shift_ != 0) return pop_open();
      const std::size_t b = advance();
      const Slot& s = slab_[heads_[b]];
      heads_[b] = s.next;
      return {s.d, s.v};
    }

   private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Slot {
      Weight d;
      Vertex v;
      std::uint32_t next;  ///< next slab index in this bucket's FIFO, or kNil
    };  // 16 bytes, no padding

    /// Index of the bucket holding the current minimum key. An empty bucket
    /// at the cursor holds no live key (live keys sit within width_ - 1
    /// buckets of cur_, so indices are unambiguous), and the slot it vacates
    /// is exactly the one bucket cur_ + width_ will need. An open bucket's
    /// slot is empty too, so the scan moves past it. Precondition: a
    /// non-empty bucket exists.
    std::size_t advance() {
      while (heads_[cur_b_] == kNil) {
        ++cur_;
        if (++cur_b_ == width_) cur_b_ = 0;
      }
      return cur_b_;
    }

    // The wide path (shift > 0), defined in sp_engine.cpp.
    void push_open(Weight d, Vertex v);
    QueueItem pop_open();
    /// If the open bucket's heap is drained, advances the cursor to the next
    /// non-empty bucket and moves its FIFO chain into the heap.
    void open_next_if_drained();

    std::vector<Slot> slab_;            ///< parked entries, in push order
    std::vector<std::uint32_t> heads_;  ///< per-bucket FIFO head slab index
    std::vector<std::uint32_t> tails_;  ///< per-bucket FIFO tail slab index
    std::vector<std::uint32_t> dirty_;  ///< buckets made non-empty since clear
    HeapQueue open_;                    ///< the open bucket (shift > 0 only)
    std::uint32_t shift_ = 0;           ///< log2 of the keys per bucket
    std::size_t width_ = 1;             ///< number of buckets
    std::uint64_t cur_ = 0;   ///< absolute bucket cursor (monotone in a run)
    std::size_t cur_b_ = 0;   ///< cur_ % width_, maintained incrementally
    std::size_t live_ = 0;    ///< entries parked or in the open heap
  };

  template <class Q, class VisitArcs>
  void run_visit_q(Q& q, std::size_t n, std::span<const Vertex> sources,
                   const VertexSet* faults, Weight bound,
                   std::span<const Vertex> targets, const Weight* prune_at,
                   VisitArcs&& visit) {
    ensure(n);
    next_epoch();
    q.clear();
    order_.clear();

    std::size_t remaining = 0;
    for (const Vertex t : targets)
      if (target_stamp_[t] != epoch_) {
        target_stamp_[t] = epoch_;
        ++remaining;
      }

    for (const Vertex s : sources) {
      if (faults != nullptr && faults->contains(s)) continue;
      if (stamp_[s] == epoch_) continue;  // duplicate source
      stamp_[s] = epoch_;
      dist_[s] = 0;
      parent_[s] = kInvalidVertex;
      via_[s] = kInvalidEdge;
      q.push(0, s);
    }

    while (!q.empty()) {
      const QueueItem item = q.pop();
      const Vertex v = item.v;
      if (done_[v] == epoch_) continue;  // stale duplicate queue entry
      done_[v] = epoch_;
      order_.push_back(v);
      if (target_stamp_[v] == epoch_ && --remaining == 0) break;
      visit(v, [&](Vertex to, Weight w, EdgeId edge) {
        if (faults != nullptr && faults->contains(to)) return;
        if (done_[to] == epoch_) return;
        const Weight nd = item.d + w;
        if (nd > bound) return;
        if (prune_at != nullptr && nd >= prune_at[to]) return;
        if (stamp_[to] != epoch_ || nd < dist_[to]) {
          stamp_[to] = epoch_;
          dist_[to] = nd;
          parent_[to] = v;
          via_[to] = edge;
          q.push(nd, to);
        }
      });
    }
  }

  void seed_source(Vertex s) {
    stamp_[s] = epoch_;
    dist_[s] = 0;
    parent_[s] = kInvalidVertex;
    via_[s] = kInvalidEdge;
    heap_.push(0, s);
  }

  void ensure(std::size_t n);
  void next_epoch();

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;         ///< dist/parent/via valid iff == epoch_
  std::vector<std::uint32_t> done_;          ///< settled iff == epoch_
  std::vector<std::uint32_t> target_stamp_;  ///< target of this run iff == epoch_
  std::vector<Weight> dist_;
  std::vector<Vertex> parent_;
  std::vector<EdgeId> via_;
  HeapQueue heap_;
  BucketQueue bucket_;
  SpQueue queue_ = SpQueue::kHeap;
  std::vector<Vertex> order_;

  template <class G>
  static auto arc_visitor(const G& g) {
    return [&g](Vertex v, auto&& relax) {
      for (const auto& a : out_arcs(g, v)) relax(a.to, a.w, a.edge);
    };
  }
};

}  // namespace ftspan
