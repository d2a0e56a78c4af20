// Shared plumbing for the benchmark binary: run configuration, the result
// record (metrics, correctness tally, pinned outputs), order statistics, and
// the in-memory span recorder used by traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// One benchmark invocation. --seed s drives every input: the workload
/// generator (wseed), the construction (seed), and the validation trials
/// (vseed) all take s, so seed 1 is the pinned default wseed=1 seed=1
/// vseed=1.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 4;   ///< min(4, nproc): never more lanes than cores
  std::string trace_path;    ///< where a traced run writes its spans
};

/// The lp probe's instance is pinned (wseed = 1 at every --seed): the
/// cutting-plane solve time varies 50x across gnp(24, 0.3) draws (0.13 s
/// to 7.2 s over seeds 2..7), while the rounding seed still follows --seed.
inline constexpr std::uint64_t kLpInstanceSeed = 1;

/// Median by sorting a copy (the lower-middle convention is not used: the
/// two middle values are averaged).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, q in (0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// Shortest round-trip formatting for JSON numbers.
inline std::string num(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_escape(const std::string& s);

/// s as a JSON string literal (s must need no escaping).
inline std::string quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  out.append(s);
  out.push_back('"');
  return out;
}

/// Everything one run reports. Metrics are keyed by their BENCHMARK.json
/// name; outputs are the deterministic observables pinned in goldens.json.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// One checked operation; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: FAILED check: %s\n", what.c_str());
    }
  }
  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A pinned observable: a JSON literal (number, bool, or quoted string).
  void output(const std::string& name, const std::string& json_literal) {
    outputs_[name] = json_literal;
  }
  void note(const std::string& name, const std::string& json_literal) {
    notes_[name] = json_literal;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::string to_json(const std::string& meta_json) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> outputs_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// FNV-1a over an edge-id sequence, printed as 16 hex digits.
std::string hash_hex(const std::vector<ftspan::EdgeId>& edges);

/// In-memory span log for traced runs: name, start, end, parent span, and a
/// request id (served requests). Spans are only opened from the benchmark's own
/// thread; per-iteration spans measured on worker lanes are appended after
/// the phase with add(). Inert when constructed with on = false.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t request;
  };

  bool on() const { return on_; }

  /// Opens a span under the innermost open one; returns its index (-1 off).
  int open(const char* name, std::uint64_t request = 0) {
    if (!on_) return -1;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, ns(Clock::now()), -1, parent, request});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = ns(Clock::now());
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  /// Appends a finished span measured elsewhere.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent, std::uint64_t request = 0) {
    if (!on_) return;
    spans_.push_back({name, ns(start), ns(end), parent, request});
  }
  std::size_t size() const { return spans_.size(); }

  /// Writes the spans as one JSON document; false on I/O failure.
  bool write(const std::string& path, const std::string& workload) const;

  /// Seconds one open()/close() pair costs on the running host
  /// (calibrated on a scratch tracer).
  static double cost_per_span();

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request = 0)
        : t_(t), idx_(t.open(name, request)) {}
    ~Scope() { t_.close(idx_); }
    int index() const { return idx_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count();
  }
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// The workloads. Each reads its configuration, measures for cfg.seconds,
/// and fills `out`.
void run_build_unit(const Config& cfg, Tracer& tracer, Result& out);
void run_certify_midrange(const Config& cfg, Tracer& tracer, Result& out);

/// Every traced run also measures the serve layer: the daemon over
/// (g, edges) under open-loop load, plus engine and parser probes.
void trace_serve_layer(const Config& cfg, const ftspan::Graph& g,
                       const std::vector<ftspan::EdgeId>& edges,
                       Tracer& tracer, Result& out);

/// Every traced run also measures the lp and spanner2 layers:
/// approx_ft_2spanner with r = 1 on gnp(24, 0.3) bidirected at half cost,
/// with build_two_spanner_lp, solve_lp4 and the rounding timed apart.
void trace_lp_layer(const Config& cfg, Tracer& tracer, Result& out);

/// Per-layer probes of graph/ shared by every workload's traced run:
/// graph.sp.settles and graph.sp.ns_per_settle.<queue> from a seeded batch
/// of DijkstraEngine::run calls over g, once per queue its weights admit;
/// and graph.sp.pair_us from bidirectional_bounded_pair over the spanner h
/// on seeded edges (u, v, w) of g with bound k·w.
void probe_graph_layer(const ftspan::Graph& g, const ftspan::Graph& h,
                       double k, std::uint64_t seed, Tracer& tracer,
                       Result& out);

}  // namespace perfbench
