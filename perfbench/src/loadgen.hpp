// The open-loop load generator that drives the query daemon in traced runs.
//
// One thread drives 4 keep-alive connections with poll(),
// spinning rather than sleeping so its own wake-ups add no latency.
// Request i is due at t0 + i / rate whether or not earlier replies have
// arrived (an open loop: independent users do not wait for each other);
// requests go round-robin over the connections, and a request due while
// its connection still owes replies is pipelined behind them. Each latency
// is measured from the request's due time, so a stall is charged to every
// request queued behind it, and the generator records how late it sent.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct LoadOutcome {
  int status = 0;         ///< HTTP status; 0 = no reply, -1 = never sent
  double latency_ms = 0;  ///< due time to the reply's last byte
  double late_ms = 0;     ///< send time minus due time
  std::string body;       ///< reply body
};

struct LoadRun {
  std::vector<LoadOutcome> outcomes;  ///< one per request, in request order
  bool aborted = false;  ///< stopped sending after a reply exceeded the cap
};

struct LoadOptions {
  double rate_qps = 1000;
  /// > 0: stop sending new requests once any reply takes longer than this
  /// (capacity probes); unsent requests report status -1.
  double abort_latency_ms = 0;
};

/// Sends every request (complete HTTP/1.1 request bytes) to 127.0.0.1:port
/// on the open-loop schedule and waits for every reply. Throws
/// std::runtime_error when a connection cannot be opened. With a tracer
/// that is on, each request becomes a span (due time to reply) under
/// `parent`, carrying request id first_id + i.
LoadRun run_open_loop(std::uint16_t port, std::span<const std::string> requests,
                      const LoadOptions& options, Tracer& tracer, int parent,
                      std::uint64_t first_id);

}  // namespace perfbench
