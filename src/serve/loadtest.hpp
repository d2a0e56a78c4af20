// In-process load test for the serve daemon — the engine behind the
// `workload=serve qps=… conns=… duration=…` scenario.
//
// Spins the daemon up on an ephemeral loopback port in a background thread,
// drives it with `conns` client threads over real TCP (so the full
// socket/parse/batch/respond path is measured, not just the query engine),
// and reports latency quantiles plus the engine's cache counters. With
// qps > 0 the clients pace a fixed request count (open-ish loop: a late
// response delays only its own connection) and time each request from its
// due time on that schedule, so a stall counts against every request
// queued behind it; with qps == 0 they run closed loop, back-to-back, for
// the full duration, timing each request from its send. The query mix and all client
// randomness derive from the seed, so the *request streams* are
// reproducible — the latencies of course are not.
//
// Chaos mode (`chaos` > 0) turns the clients hostile, deterministically:
// with probability `chaos` a request slot becomes one of four seeded fault
// injections — a mid-request connection reset, a slow-loris trickle write,
// a malformed-HTTP flood, or an oversized request — and the client then
// reconnects and carries on. `reload_every` > 0 fires a POST /admin/reload
// every Nth request per client (a reload storm when combined with several
// clients). The result separates *expected* fault outcomes (shed/rejected
// counters) from `errors`, which counts only outcomes the protocol forbids
// (a dropped connection on a well-formed request, an unknown status), so a
// chaos run asserting errors == 0 is exactly the "no connection is ever
// dropped, every response is well-formed" acceptance check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "serve/epoch.hpp"
#include "serve/query.hpp"

namespace ftspan::serve {

struct LoadTestOptions {
  double qps = 0;           ///< total paced rate; 0 = closed loop
  std::size_t conns = 1;    ///< client connections (threads)
  double duration = 0.25;   ///< seconds (paced: target span; closed: deadline)
  std::uint64_t seed = 1;   ///< drives every client's query stream
  double chaos = 0;         ///< P(a request slot injects a client fault)
  std::size_t reload_every = 0;  ///< POST /admin/reload every Nth request
};

struct LoadTestResult {
  std::uint64_t requests = 0;  ///< responses received with status 200
  std::uint64_t errors = 0;    ///< protocol-violating outcomes (see header)
  double seconds = 0;          ///< wall clock, first send to last response
  double achieved_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t cache_hits = 0;    ///< final epoch's engine
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0;

  // Fault-outcome counters (all deterministic given the seed except where
  // they depend on server-side timing, e.g. shed).
  std::uint64_t shed = 0;          ///< 503 responses observed by clients
  std::uint64_t rejected = 0;      ///< 400/404/405/408/413 observed
  std::uint64_t chaos_events = 0;  ///< client faults injected (all modes)
  std::uint64_t chaos_resets = 0;
  std::uint64_t chaos_slowloris = 0;
  std::uint64_t chaos_malformed = 0;
  std::uint64_t chaos_oversized = 0;
  std::uint64_t reloads_sent = 0;  ///< POST /admin/reload issued
  std::uint64_t reload_acks = 0;   ///< 202/409 answers to those
  std::uint64_t reloads_ok = 0;    ///< manager: completed successful reloads
  std::uint64_t reloads_failed = 0;
  std::uint64_t final_epoch = 0;   ///< live epoch id after the run
  std::uint64_t server_shed = 0;       ///< daemon stats: budget sheds
  std::uint64_t deadline_hits = 0;     ///< daemon stats: deadline 503s
  std::uint64_t internal_errors = 0;   ///< daemon stats: compute 503s
};

/// Runs the daemon + clients over `epochs` (reload storms need a manager
/// with a builder). Throws std::runtime_error if the daemon cannot bind.
LoadTestResult run_load_test(std::shared_ptr<EpochManager> epochs,
                             const LoadTestOptions& options);

/// Convenience: wraps `engine` (which must be idle: the daemon becomes its
/// single coordinator for the duration) in a non-reloadable manager.
/// `reload_every` is ignored in this form.
LoadTestResult run_load_test(QueryEngine& engine,
                             const LoadTestOptions& options);

}  // namespace ftspan::serve
