#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kConns = 4;

/// Replies still owed past this long after the last due time are failed:
/// the run must end even if the daemon wedges.
constexpr double kDrainLimitS = 10.0;

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> pending;  ///< request indices awaiting replies
  bool dead = false;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to the daemon failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Parses complete responses at the front of c.in; returns false on a
/// malformed header (the connection is then unusable).
bool take_responses(Conn& c, Clock::time_point now,
                    const std::vector<Clock::time_point>& due,
                    std::vector<LoadOutcome>& outcomes, std::size_t& done,
                    double& worst_ms) {
  static constexpr char kLen[] = "Content-Length: ";
  while (!c.in.empty()) {
    const std::size_t hdr_end = c.in.find("\r\n\r\n");
    if (hdr_end == std::string::npos) return true;
    if (c.in.compare(0, 9, "HTTP/1.1 ") != 0 || c.pending.empty()) return false;
    const int status = std::atoi(c.in.c_str() + 9);
    const std::size_t lp = c.in.find(kLen);
    if (lp == std::string::npos || lp > hdr_end) return false;
    const std::size_t body_len =
        std::strtoull(c.in.c_str() + lp + sizeof(kLen) - 1, nullptr, 10);
    const std::size_t total = hdr_end + 4 + body_len;
    if (c.in.size() < total) return true;
    const std::size_t idx = c.pending.front();
    c.pending.pop_front();
    LoadOutcome& o = outcomes[idx];
    o.status = status;
    o.latency_ms = seconds_between(due[idx], now) * 1e3;
    if (status > 0) worst_ms = std::max(worst_ms, o.latency_ms);
    o.body.assign(c.in, hdr_end + 4, body_len);
    c.in.erase(0, total);
    ++done;
  }
  return true;
}

void fail_pending(Conn& c, std::size_t& done) {
  done += c.pending.size();  // their outcomes keep status 0
  c.pending.clear();
  c.dead = true;
}

}  // namespace

LoadRun run_open_loop(std::uint16_t port, std::span<const std::string> requests,
                      const LoadOptions& options, Tracer& tracer, int parent,
                      std::uint64_t first_id) {
  const std::size_t count = requests.size();
  LoadRun run;
  run.outcomes.resize(count);
  std::vector<Conn> conns(kConns);
  for (Conn& c : conns) c.fd = connect_local(port);

  // The schedule starts a little ahead so connection set-up is not charged
  // to the first requests.
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto interval = std::chrono::duration<double>(1.0 / options.rate_qps);
  std::vector<Clock::time_point> due(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      interval * static_cast<double>(i));

  std::size_t next = 0, done = 0, send_limit = count;
  std::vector<pollfd> pfds(conns.size());
  char buf[16384];
  while (next < send_limit || done < next) {
    auto now = Clock::now();
    while (next < send_limit && due[next] <= now) {
      Conn& c = conns[next % conns.size()];
      run.outcomes[next].late_ms = seconds_between(due[next], now) * 1e3;
      if (c.dead) {
        ++done;  // a dead connection refuses the request: status 0
      } else {
        c.out += requests[next];
        c.pending.push_back(next);
      }
      ++next;
    }
    for (Conn& c : conns) {
      while (!c.dead && c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          c.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (w < 0 && errno == EINTR) {
          continue;
        } else {
          fail_pending(c, done);
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    if (next == send_limit && next > 0 &&
        seconds_between(due[next - 1], now) > kDrainLimitS) {
      for (Conn& c : conns) fail_pending(c, done);
      continue;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
      pfds[i].events = static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    // The loop spins (zero-timeout ppoll) instead of sleeping until the next
    // due time or reply: on a shared host a timer or wake-up can overshoot
    // by milliseconds, and that lateness would be charged to the daemon.
    const timespec no_wait{};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &no_wait, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll() failed");
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead || !(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      bool closed = false;
      while (true) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        closed = r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }
      now = Clock::now();
      double worst_ms = 0;
      if (!take_responses(c, now, due, run.outcomes, done, worst_ms) || closed)
        fail_pending(c, done);
      if (options.abort_latency_ms > 0 && worst_ms > options.abort_latency_ms &&
          send_limit == count) {
        send_limit = next;
        run.aborted = true;
      }
    }
  }
  for (std::size_t i = send_limit; i < count; ++i) run.outcomes[i].status = -1;

  if (tracer.on()) {
    for (std::size_t i = 0; i < next; ++i) {
      const auto end = due[i] + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        run.outcomes[i].latency_ms));
      tracer.add("serve.request", due[i], end, parent, first_id + i);
    }
  }
  return run;
}

}  // namespace perfbench
