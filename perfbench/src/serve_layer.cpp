// The serve layer, measured in every traced run: the query daemon
// (ServeDaemon over a QueryEngine with the CLI's defaults) serving the
// workload's vertex-fault spanner, driven by the open-loop generator in
// loadgen.cpp. The mix is 60% distance, 25% stretch, 15% fault what-if;
// endpoints are Zipf-skewed so about a fifth hit the answer cache and the
// rest pay a miss. Every reply body is checked against a cache-off
// QueryEngine recompute.
//
// It is not a workload of its own: on a shared virtual machine with 4
// vCPUs the client p50 at 1500 qps sat near 0.2 ms for minutes and then
// near 2.7 ms for minutes, whatever the generator
// did, so across ten seeds its spread (17-89% for the p50, 40-174% for the
// p99, 26% or more for the capacity) exceeded any bound a benchmark
// workload may carry. Its figures are per-layer metrics without a bound.
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "loadgen.hpp"
#include "runner/scenario.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ftspan;
using serve::QueryEngine;
using serve::ServeAnswer;
using serve::ServeQuery;

namespace {

constexpr double kK = 3;
/// Endpoint skew: with the daemon's 1024-entry cache about a fifth of the
/// mix repeats a cached query. A larger share (0.37 at exponent 1.2) puts
/// the p50 between the hit and miss modes, where it swung 30% across runs.
constexpr double kZipfExponent = 1.0;
constexpr double kBaseQps = 1500, kPeakQps = 3000;
/// Requests per phase: 2 s at the base rate and at the peak, so 30 and 60
/// samples lie beyond the p99.
constexpr std::size_t kBaseRequests = 3000, kPeakRequests = 6000;
constexpr double kLatencyLimitMs = 5.0;
/// The capacity ladder: 1000 qps · 1.05^i, i = 0..kRungs-1 (5% steps).
constexpr int kRungs = 90;
/// A probe lasts long enough that one isolated 5 ms host stall delays
/// fewer than 1% of its requests.
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kProbeMinRequests = 2000;

/// The daemon with everything it serves. QueryEngine::Options defaults are
/// the CLI's (`ftspan serve` without flags: one lane, 1024-entry cache).
struct Served {
  Graph g;
  std::vector<EdgeId> edges;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::atomic<bool> loop_failed{false};
  std::thread loop;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() { stop(); }

  void stop() {
    if (daemon) daemon->stop();
    if (loop.joinable()) loop.join();
  }
};

std::unique_ptr<Served> start_daemon(const Graph& g,
                                     const std::vector<EdgeId>& edges) {
  auto sv = std::make_unique<Served>();
  sv->g = g;
  sv->edges = edges;
  QueryEngine::Options qo;
  qo.workers = 1;
  qo.cache_capacity = 1024;
  sv->engine = std::make_unique<QueryEngine>(sv->g, sv->edges, kK, qo);
  sv->daemon = std::make_unique<serve::ServeDaemon>(*sv->engine);
  sv->daemon->listen();
  Served* raw = sv.get();
  sv->loop = std::thread([raw] {
    try {
      raw->daemon->run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: daemon loop failed: %s\n", e.what());
      raw->loop_failed = true;
    }
  });
  return sv;
}

/// One generated request: its wire bytes plus the canonical query a
/// reference engine recomputes.
struct Request {
  std::string bytes;
  std::string target;
  ServeQuery query;
  bool stretch = false;
};

/// Seeded query stream. Vertex popularity is Zipf(1) over a seeded
/// permutation of the vertices; each random value is drawn in its own
/// statement so the stream does not depend on the compiler's evaluation
/// order.
class QueryStream {
 public:
  QueryStream(std::size_t n, std::uint64_t seed)
      : n_(n), rng_(hash_combine(seed, 0x5e12eULL)) {
    by_rank_.resize(n);
    for (std::size_t i = 0; i < n; ++i) by_rank_[i] = static_cast<Vertex>(i);
    rng_.shuffle(by_rank_);
    double acc = 0;
    for (std::size_t r = 1; r <= n; ++r) {
      acc += std::pow(static_cast<double>(r), -kZipfExponent);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  Request next() {
    Request req;
    const double roll = rng_.uniform();
    const Vertex s = zipf();
    const Vertex t = zipf();
    req.query.s = s;
    req.query.t = t;
    std::string target;
    if (roll < 0.60) {
      target = "/distance?s=" + std::to_string(s) + "&t=" + std::to_string(t);
    } else if (roll < 0.85) {
      req.stretch = true;
      req.query.want_base = true;
      target = "/stretch?s=" + std::to_string(s) + "&t=" + std::to_string(t);
    } else {
      const auto a = static_cast<Vertex>(rng_.uniform_index(n_));
      target = "/distance?s=" + std::to_string(s) + "&t=" + std::to_string(t) +
               "&avoid=" + std::to_string(a);
      req.query.avoid_vertices.push_back(a);
      if (rng_.bernoulli(0.5)) {
        const auto b = static_cast<Vertex>(rng_.uniform_index(n_));
        target += "," + std::to_string(b);
        req.query.avoid_vertices.push_back(b);
      }
    }
    req.query.canonicalize();
    req.bytes = "GET " + target + " HTTP/1.1\r\nHost: l\r\n\r\n";
    req.target = std::move(target);
    return req;
  }

  std::vector<Request> take(std::size_t count) {
    std::vector<Request> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(next());
    return out;
  }

 private:
  Vertex zipf() {
    const double u = rng_.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), n_ - 1);
    return by_rank_[rank];
  }

  std::size_t n_;
  Rng rng_;
  std::vector<Vertex> by_rank_;
  std::vector<double> cdf_;
};

std::string weight_json(Weight w) {
  return w >= kInfiniteWeight ? "null" : runner::format_double(w);
}

/// The daemon's reply body for `req` up to (excluding) the cache flag, as
/// serve/server.cpp formats it.
std::string expected_prefix(const Request& req, const ServeAnswer& a) {
  std::string body = "{\"s\": " + std::to_string(req.query.s) +
                     ", \"t\": " + std::to_string(req.query.t);
  if (req.stretch) {
    body += ", \"spanner_distance\": " + weight_json(a.dh);
    body += ", \"base_distance\": " + weight_json(a.dg);
    body += ", \"stretch\": ";
    if (a.dh >= kInfiniteWeight || a.dg >= kInfiniteWeight)
      body += "null";
    else
      body += runner::format_double(a.dg == 0 ? 1.0 : a.dh / a.dg);
    body += ", \"bound\": " + runner::format_double(kK);
  } else {
    body += ", \"distance\": " + weight_json(a.dh);
  }
  body += ", \"reachable\": ";
  body += a.dh < kInfiniteWeight ? "true" : "false";
  body += ", \"from_cache\": ";
  return body;
}

/// Checks reply bodies against a cache-off recompute, memoized by target.
class AnswerChecker {
 public:
  AnswerChecker(const Graph& g, const std::vector<EdgeId>& edges) {
    QueryEngine::Options qo;
    qo.workers = 1;
    qo.cache_capacity = 0;
    ref_ = std::make_unique<QueryEngine>(g, edges, kK, qo);
  }
  bool matches(const Request& req, const std::string& body) {
    auto it = memo_.find(req.target);
    if (it == memo_.end())
      it = memo_.emplace(req.target, expected_prefix(req, ref_->answer(req.query)))
               .first;
    const std::string& prefix = it->second;
    if (body.compare(0, prefix.size(), prefix) != 0) return false;
    const std::string rest = body.substr(prefix.size());
    return rest == "true}" || rest == "false}";
  }

 private:
  std::unique_ptr<QueryEngine> ref_;
  std::unordered_map<std::string, std::string> memo_;
};

std::vector<std::string> wire(const std::vector<Request>& reqs) {
  std::vector<std::string> bytes;
  bytes.reserve(reqs.size());
  for (const Request& r : reqs) bytes.push_back(r.bytes);
  return bytes;
}

/// A measured phase: latencies of its replies and whether every request
/// got a correct 200.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::size_t ok = 0, failed = 0;
  std::size_t wrong = 0;  ///< 200 replies whose body disagrees (in failed)
  bool aborted = false;
};

Phase run_phase(std::uint16_t port, const std::vector<Request>& reqs, double qps,
                double abort_ms, AnswerChecker& checker, Tracer& tracer,
                std::uint64_t& next_id) {
  Tracer::Scope span(tracer, "serve.phase");
  LoadOptions lo;
  lo.rate_qps = qps;
  lo.abort_latency_ms = abort_ms;
  const LoadRun run =
      run_open_loop(port, wire(reqs), lo, tracer, span.index(), next_id);
  next_id += reqs.size();
  Phase ph;
  ph.aborted = run.aborted;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const LoadOutcome& o = run.outcomes[i];
    if (o.status == -1) continue;  // never sent (probe stopped early)
    ph.late_ms.push_back(o.late_ms);
    if (o.status == 200 && checker.matches(reqs[i], o.body)) {
      ++ph.ok;
      ph.latency_ms.push_back(o.latency_ms);
    } else {
      ++ph.failed;
      if (o.status == 200) {
        ++ph.wrong;
        std::fprintf(stderr, "perfbench: wrong answer for %s: %s\n",
                     reqs[i].target.c_str(), o.body.c_str());
      }
    }
  }
  return ph;
}

double rung_qps(int i) { return 1000.0 * std::pow(1.05, i); }

/// Highest ladder rung whose probe keeps p99 <= 5 ms with every request
/// answered correctly, found by bisecting the ladder (latency grows with
/// offered rate, so the rungs are ordered). A failing probe stops sending
/// at 10x the limit, so an overloaded rung costs little. Wrong answers on
/// any probe are reported through `out`.
double capacity_search(std::uint16_t port, QueryStream& stream,
                       AnswerChecker& checker, Tracer& tracer,
                       std::uint64_t& next_id, Result& out) {
  const auto passes = [&](int i) {
    const double qps = rung_qps(i);
    const auto count = std::max<std::size_t>(
        kProbeMinRequests, static_cast<std::size_t>(qps * kProbeSeconds));
    const std::vector<Request> reqs = stream.take(count);
    const Phase ph = run_phase(port, reqs, qps, 10 * kLatencyLimitMs, checker,
                               tracer, next_id);
    // Refusals above capacity are the point of the probe; only answers that
    // came back wrong count against correctness.
    out.add_ops(ph.ok + ph.wrong, ph.wrong);
    return !ph.aborted && ph.failed == 0 &&
           percentile(ph.latency_ms, 0.99) <= kLatencyLimitMs;
  };
  int lo = -1, hi = kRungs;  // lo passes (or none), hi fails (or none)
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  return lo < 0 ? 0 : rung_qps(lo);
}

/// serve-layer probes outside the daemon: engine answer times with the
/// cache off and on, batched answers at 1 and 2 lanes, and the HTTP parser.
void probe_engine(const Served& sv, const std::vector<Request>& warm,
                  const std::vector<Request>& base, double client_p50_ms,
                  Result& out) {
  const auto time_us = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return seconds_since(t0) * 1e6;
  };
  QueryEngine::Options qo;
  qo.workers = 1;

  // The request stream replayed through a cache-on engine: the engine's
  // share of the client's p50 on the same mix.
  qo.cache_capacity = 1024;
  QueryEngine replay(sv.g, sv.edges, kK, qo);
  for (const Request& r : warm) replay.answer(r.query);
  std::vector<double> mix_us, hit_us;
  for (const Request& r : base)
    mix_us.push_back(time_us([&] { replay.answer(r.query); }));
  for (const Request& r : base) {
    replay.answer(r.query);
    ServeAnswer a;
    hit_us.push_back(time_us([&] { a = replay.answer(r.query); }));
    out.check(a.from_cache, "a repeated query is answered from the cache");
  }
  out.metric("serve.engine_hit_us.p50", median(hit_us), "us");
  out.metric("serve.wire_us.p50", client_p50_ms * 1e3 - median(mix_us), "us");

  qo.cache_capacity = 0;
  QueryEngine cold(sv.g, sv.edges, kK, qo);
  std::vector<double> miss_us;
  for (const Request& r : base)
    miss_us.push_back(time_us([&] { cold.answer(r.query); }));
  out.metric("serve.engine_miss_us.p50", median(miss_us), "us");

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    qo.workers = workers;
    QueryEngine batched(sv.g, sv.edges, kK, qo);
    std::vector<ServeQuery> qs;
    std::vector<ServeAnswer> answers;
    std::vector<double> batch_us;
    for (std::size_t i = 0; i + 16 <= base.size(); i += 16) {
      qs.clear();
      for (std::size_t j = i; j < i + 16; ++j) qs.push_back(base[j].query);
      batch_us.push_back(time_us([&] { batched.answer_batch(qs, answers); }));
      for (std::size_t j = 0; j < 16; ++j)
        out.check(answers[j].dh == cold.answer(qs[j]).dh,
                  "batched answers equal single answers");
    }
    out.metric("serve.batch16_us.w" + std::to_string(workers), median(batch_us),
               "us");
  }

  std::vector<double> parse_us;
  serve::HttpRequest req;
  for (int pass = 0; pass < 5; ++pass) {
    std::size_t parsed = 0;
    const double us = time_us([&] {
      for (const Request& r : base) {
        std::size_t consumed = 0;
        parsed += serve::parse_http_request(r.bytes, 16384, req, consumed) ==
                  serve::HttpParseStatus::kOk;
      }
    });
    out.check(parsed == base.size(), "every recorded request parses");
    parse_us.push_back(us / static_cast<double>(base.size()));
  }
  out.metric("serve.parse_us", median(parse_us), "us");
}

}  // namespace

void trace_serve_layer(const Config& cfg, const Graph& g,
                       const std::vector<EdgeId>& edges, Tracer& tracer,
                       Result& out) {
  Tracer::Scope top(tracer, "serve");
  std::unique_ptr<Served> sv;
  {
    Tracer::Scope span(tracer, "serve.start");
    sv = start_daemon(g, edges);
  }
  const std::uint16_t port = sv->daemon->port();
  QueryStream stream(sv->g.num_vertices(), cfg.seed);
  AnswerChecker checker(sv->g, sv->edges);
  std::uint64_t next_id = 1;

  // Steady-state cache before anything is timed.
  const std::vector<Request> warm =
      stream.take(static_cast<std::size_t>(kBaseQps * 1.0));
  const Phase warm_ph = run_phase(port, warm, kBaseQps, 0, checker, tracer, next_id);
  out.add_ops(warm_ph.ok + warm_ph.failed, warm_ph.failed);

  // One pass at the base rate and at the peak, then one capacity search.
  std::vector<double> late_ms;
  const auto count_phase = [&](const Phase& ph) {
    out.add_ops(ph.ok + ph.failed, ph.failed);
    late_ms.insert(late_ms.end(), ph.late_ms.begin(), ph.late_ms.end());
  };
  const std::vector<Request> base = stream.take(kBaseRequests);
  const Phase b = run_phase(port, base, kBaseQps, 0, checker, tracer, next_id);
  const std::vector<Request> peak = stream.take(kPeakRequests);
  const Phase p = run_phase(port, peak, kPeakQps, 0, checker, tracer, next_id);
  count_phase(b);
  count_phase(p);
  const double capacity =
      capacity_search(port, stream, checker, tracer, next_id, out);
  sv->stop();
  out.check(!sv->loop_failed, "daemon loop ran to a clean stop");

  const auto& st = sv->daemon->stats();
  const auto& cs = sv->engine->cache_stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  out.metric("serve.p50_ms", median(b.latency_ms), "ms");
  out.metric("serve.p99_ms", percentile(b.latency_ms, 0.99), "ms");
  out.metric("serve.p99_ms_peak", percentile(p.latency_ms, 0.99), "ms");
  out.metric("serve.capacity_qps", capacity, "1/s");
  out.metric("serve.gen_late_ms.p99", percentile(late_ms, 0.99), "ms");
  out.metric("serve.cache_hit_share",
             lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0, "share");
  out.metric("serve.cache_lookups", lookups, "count");
  out.metric("serve.shed",
             static_cast<double>(st.shed + st.deadline_hits + st.internal_errors),
             "count");
  probe_engine(*sv, warm, base, median(b.latency_ms), out);
}

}  // namespace perfbench
