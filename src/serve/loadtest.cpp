#include "serve/loadtest.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/burst_pipeline.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace ftspan::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// A blocking loopback client speaking just enough HTTP/1.1 to measure the
/// daemon: send one request, read status line + headers + Content-Length
/// body. Chaos mode needs clients that *survive* their own misbehaviour,
/// so the socket can be torn down and reconnected at any point.
class Client {
 public:
  explicit Client(std::uint16_t port) : port_(port) { reconnect(); }
  ~Client() { disconnect(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  /// (Re)establishes the connection. Throws only from the constructor path
  /// via the first call; later failures just leave the client disconnected
  /// (the caller retries next slot).
  bool reconnect() {
    disconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      disconnect();
      return false;
    }
    return true;
  }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          net::send_retry(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Slow-loris: dribbles `bytes` out one chunk at a time with a pause
  /// between chunks, exactly the shape of a trickling attacker.
  bool trickle(const std::string& bytes, std::size_t chunk,
               std::chrono::microseconds pause) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t len = std::min(chunk, bytes.size() - off);
      std::size_t sent = 0;
      while (sent < len) {
        const ssize_t n =
            net::send_retry(fd_, bytes.data() + off + sent, len - sent);
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
      }
      off += len;
      if (off < bytes.size()) std::this_thread::sleep_for(pause);
    }
    return true;
  }

  /// Reads one response (status line + headers + Content-Length body).
  /// Returns the HTTP status, or 0 on transport failure.
  int read_response() {
    std::size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos)
      if (!recv_some()) return 0;
    std::size_t content_length = 0;
    const std::size_t cl = buf_.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      for (std::size_t i = cl + 16; i < header_end && buf_[i] >= '0' &&
                                    buf_[i] <= '9';
           ++i)
        content_length = content_length * 10 +
                         static_cast<std::size_t>(buf_[i] - '0');
    }
    const std::size_t total = header_end + 4 + content_length;
    while (buf_.size() < total)
      if (!recv_some()) return 0;

    int status = 0;
    const std::size_t sp = buf_.find(' ');
    if (sp != std::string::npos)
      for (std::size_t i = sp + 1; i < buf_.size() && buf_[i] >= '0' &&
                                   buf_[i] <= '9';
           ++i)
        status = status * 10 + (buf_[i] - '0');
    buf_.erase(0, total);  // keep-alive: leftovers belong to the next reply
    return status;
  }

  /// Round-trips one request. Returns the HTTP status, or 0 on transport
  /// failure.
  int round_trip(const std::string& method, const std::string& target) {
    const std::string req =
        method + " " + target + " HTTP/1.1\r\nHost: l\r\n\r\n";
    if (!send_all(req)) return 0;
    return read_response();
  }

 private:
  bool send_all(const std::string& bytes) { return send_raw(bytes); }
  bool recv_some() {
    char tmp[4096];
    const ssize_t n = net::recv_retry(fd_, tmp, sizeof(tmp));
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

/// The query mix: ~60% plain distance, ~25% stretch, ~15% fault what-if
/// (distance avoiding one or two random vertices). Entirely seed-driven:
/// every vertex is drawn in its own statement, so the stream does not hang
/// on the compiler's choice of operand order. The draws run last vertex
/// first, which is the order the mix has always been generated in.
std::string random_target(Rng& rng, std::size_t n) {
  const auto v = [&] { return std::to_string(rng.uniform_index(n)); };
  const double roll = rng.uniform();
  if (roll < 0.85) {
    const std::string t = v();
    const std::string s = v();
    return (roll < 0.60 ? "/distance?s=" : "/stretch?s=") + s + "&t=" + t;
  }
  const std::string avoid = v();
  const std::string t = v();
  const std::string s = v();
  std::string target = "/distance?s=" + s + "&t=" + t + "&avoid=" + avoid;
  if (rng.bernoulli(0.5)) target.append(",").append(v());
  return target;
}

struct ClientTally {
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t chaos_events = 0;
  std::uint64_t chaos_resets = 0;
  std::uint64_t chaos_slowloris = 0;
  std::uint64_t chaos_malformed = 0;
  std::uint64_t chaos_oversized = 0;
  std::uint64_t reloads_sent = 0;
  std::uint64_t reload_acks = 0;
  std::vector<double> latencies_ms;
};

/// Buckets a response status into the tally. Statuses the daemon can emit
/// under load are *expected* outcomes; anything else (including a dropped
/// connection, status 0) is an error the acceptance gate counts.
void classify(int status, ClientTally& tally) {
  switch (status) {
    case 503: ++tally.shed; break;
    case 400: case 404: case 405: case 408: case 413:
      ++tally.rejected;
      break;
    case 202: case 409: ++tally.reload_acks; break;
    default: ++tally.errors; break;
  }
}

void client_main(std::uint16_t port, std::size_t n,
                 const LoadTestOptions& opts, std::uint64_t seed,
                 std::uint64_t paced_count, double interval_s,
                 ClientTally& tally) {
  try {
    Client client(port);
    if (!client.connected())
      throw std::runtime_error("loadtest: connect() failed");
    Rng rng(seed);
    const Clock::time_point start = Clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(Clock::now() - start).count();
    };
    std::uint64_t sent = 0;
    // When the next request is due: its latency clock starts here, not at
    // send, so a stall is charged to every request queued behind it (no
    // coordinated omission). Closed loop has no schedule and times from send.
    Clock::time_point due_at;
    for (;;) {
      if (paced_count > 0) {
        if (sent == paced_count) break;
        // Pace against the schedule, not the previous response, so a slow
        // reply doesn't silently lower the offered rate.
        const double due = static_cast<double>(sent) * interval_s;
        due_at = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due));
        const double now = elapsed();
        if (due > now)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due - now));
      } else if (elapsed() >= opts.duration) {
        break;
      }
      ++sent;
      if (!client.connected() && !client.reconnect()) {
        ++tally.errors;  // the daemon is gone: nothing left to measure
        break;
      }

      // Reload storm: every Nth slot posts an admin reload instead of a
      // query. 202 (started) and 409 (one already running) are both the
      // protocol working as designed.
      if (opts.reload_every > 0 && sent % opts.reload_every == 0) {
        ++tally.reloads_sent;
        const int status = client.round_trip("POST", "/admin/reload");
        if (status == 0) {
          ++tally.errors;  // reload must never cost a connection
          client.reconnect();
        } else {
          classify(status, tally);
        }
        continue;
      }

      // Chaos slot: become one of four misbehaving clients, then recover.
      if (opts.chaos > 0 && rng.uniform() < opts.chaos) {
        ++tally.chaos_events;
        switch (rng.uniform_index(4)) {
          case 0: {  // mid-request connection reset
            ++tally.chaos_resets;
            client.send_raw("GET /distance?s=" +
                            std::to_string(rng.uniform_index(n)));
            client.reconnect();
            break;
          }
          case 1: {  // slow-loris: a valid request, one byte at a time
            ++tally.chaos_slowloris;
            const std::string req = "GET " + random_target(rng, n) +
                                    " HTTP/1.1\r\nHost: l\r\n\r\n";
            if (client.trickle(req, 1, std::chrono::microseconds(200))) {
              const int status = client.read_response();
              if (status == 200)
                ++tally.ok;
              else if (status == 0)
                client.reconnect();
              else
                classify(status, tally);
            } else {
              client.reconnect();
            }
            break;
          }
          case 2: {  // malformed flood: the daemon answers 400 and closes
            ++tally.chaos_malformed;
            if (client.send_raw("BLARG /nope\r\nanti: http\r\n\r\n")) {
              const int status = client.read_response();
              if (status != 0) classify(status, tally);
            }
            client.reconnect();
            break;
          }
          default: {  // oversized request: 413, or a cutoff mid-upload
            ++tally.chaos_oversized;
            std::string req = "GET /distance?s=0&junk=";
            req.append(24 * 1024, 'x');
            req += " HTTP/1.1\r\nHost: l\r\n\r\n";
            if (client.send_raw(req)) {
              const int status = client.read_response();
              if (status != 0) classify(status, tally);
            }
            // The daemon may RST while we are still sending — both the
            // send failure and a clean 413 are expected shapes here.
            client.reconnect();
            break;
          }
        }
        continue;
      }

      const std::string target = random_target(rng, n);
      const Clock::time_point t0 = paced_count > 0 ? due_at : Clock::now();
      const int status = client.round_trip("GET", target);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (status == 200) {
        ++tally.ok;
        tally.latencies_ms.push_back(ms);
      } else if (status == 0) {
        // A dropped connection on a well-formed request is exactly what
        // the reload/robustness machinery promises never happens.
        ++tally.errors;
        client.reconnect();
      } else {
        classify(status, tally);
      }
    }
  } catch (...) {
    ++tally.errors;
  }
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

}  // namespace

LoadTestResult run_load_test(std::shared_ptr<EpochManager> epochs,
                             const LoadTestOptions& options) {
  const std::size_t conns = options.conns == 0 ? 1 : options.conns;
  if (conns > kMaxWorkers)
    throw std::invalid_argument("load test: " + std::to_string(conns) +
                                " connections exceeds the ceiling of " +
                                std::to_string(kMaxWorkers));
  const std::size_t n = epochs->current()->engine->num_vertices();

  ServeOptions so;
  so.max_connections = conns + 4;
  ServeDaemon daemon(epochs, so);
  daemon.listen();
  std::thread server([&daemon] { daemon.run(); });

  // Paced mode: split a fixed request count across clients; each client
  // paces its share on its own schedule.
  std::uint64_t paced_total = 0;
  double interval_s = 0;
  if (options.qps > 0) {
    paced_total = static_cast<std::uint64_t>(
        std::max(1.0, std::llround(options.qps * options.duration) * 1.0));
    interval_s = static_cast<double>(conns) / options.qps;
  }

  std::vector<ClientTally> tallies(conns);
  std::vector<std::thread> clients;
  clients.reserve(conns);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t c = 0; c < conns; ++c) {
    const std::uint64_t share =
        paced_total == 0 ? 0 : paced_total / conns + (c < paced_total % conns);
    clients.emplace_back(client_main, daemon.port(), n, options,
                         hash_combine(options.seed, c), share, interval_s,
                         std::ref(tallies[c]));
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  daemon.stop();
  server.join();
  epochs->wait_idle();  // a reload may still be rebuilding: let it land

  LoadTestResult result;
  result.seconds = seconds;
  std::vector<double> all;
  for (ClientTally& tally : tallies) {
    result.requests += tally.ok;
    result.errors += tally.errors;
    result.shed += tally.shed;
    result.rejected += tally.rejected;
    result.chaos_events += tally.chaos_events;
    result.chaos_resets += tally.chaos_resets;
    result.chaos_slowloris += tally.chaos_slowloris;
    result.chaos_malformed += tally.chaos_malformed;
    result.chaos_oversized += tally.chaos_oversized;
    result.reloads_sent += tally.reloads_sent;
    result.reload_acks += tally.reload_acks;
    all.insert(all.end(), tally.latencies_ms.begin(),
               tally.latencies_ms.end());
  }
  std::sort(all.begin(), all.end());
  result.p50_ms = quantile(all, 0.50);
  result.p99_ms = quantile(all, 0.99);
  result.achieved_qps =
      seconds > 0 ? static_cast<double>(result.requests) / seconds : 0;

  const EpochManager::Status es = epochs->status();
  result.reloads_ok = es.ok;
  result.reloads_failed = es.failed;
  result.final_epoch = es.epoch;
  const ServeDaemon::Stats& ds = daemon.stats();
  result.server_shed = ds.shed;
  result.deadline_hits = ds.deadline_hits;
  result.internal_errors = ds.internal_errors;

  const QueryEngine& engine = *epochs->current()->engine;
  const auto& cache = engine.cache_stats();
  result.cache_hits = cache.hits;
  result.cache_misses = cache.misses;
  const std::uint64_t lookups = cache.hits + cache.misses;
  result.cache_hit_rate =
      lookups == 0 ? 0
                   : static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);
  return result;
}

LoadTestResult run_load_test(QueryEngine& engine,
                             const LoadTestOptions& options) {
  LoadTestOptions o = options;
  o.reload_every = 0;  // no builder behind a bare engine: nothing to reload
  return run_load_test(EpochManager::fixed(engine), o);
}

}  // namespace ftspan::serve
