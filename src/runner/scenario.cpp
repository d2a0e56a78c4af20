#include "runner/scenario.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "graph/types.hpp"
#include "pipeline/burst_pipeline.hpp"

namespace ftspan::runner {

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::isnan(v)) return "nan";
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    const std::string s = os.str();
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return std::to_string(v);  // unreachable: precision 17 round-trips
}

namespace {

std::string join_sizes(const std::vector<std::size_t>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(xs[i]);
  }
  return out;
}

std::string join_doubles(const std::vector<double>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += format_double(xs[i]);
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char ch : s) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  out.push_back(cur);
  return out;
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value) {
  throw std::invalid_argument("scenario spec: bad value '" + value +
                              "' for key '" + key + "'");
}

/// Specs are whitespace-tokenized, so a path containing whitespace cannot
/// survive a to_string -> parse round trip (the splitter would truncate it
/// into a different spec or a bogus key). Reject it loudly at both ends
/// instead of silently corrupting the spec.
void check_path(const std::string& path) {
  if (path.find_first_of(" \t\n\r") != std::string::npos)
    throw std::invalid_argument(
        "scenario spec: path '" + path +
        "' contains whitespace, which the whitespace-tokenized spec grammar "
        "cannot represent");
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size())
    bad_value(key, value);
  return v;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  // strtoull silently wraps "-1" to 2^64-1; integer spec keys are
  // non-negative decimals only, so reject any sign explicitly.
  if (value.empty() || value[0] == '-' || value[0] == '+')
    bad_value(key, value);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  // Out-of-range input saturates to ULLONG_MAX with errno = ERANGE instead
  // of failing the end-pointer check; report it as a bad value for the key
  // rather than letting a wrapped/saturated count through.
  if (errno == ERANGE || end != value.c_str() + value.size())
    bad_value(key, value);
  return v;
}

std::vector<std::size_t> parse_size_list(const std::string& key,
                                         const std::string& value) {
  std::vector<std::size_t> out;
  for (const std::string& part : split(value, ','))
    out.push_back(static_cast<std::size_t>(parse_u64(key, part)));
  return out;
}

std::vector<double> parse_double_list(const std::string& key,
                                      const std::string& value) {
  std::vector<double> out;
  for (const std::string& part : split(value, ','))
    out.push_back(parse_double(key, part));
  return out;
}

}  // namespace

std::string ScenarioSpec::to_string() const {
  std::ostringstream os;
  os << "workload=" << workload;
  if (!path.empty()) {
    check_path(path);
    os << " path=" << path;
  }
  if (!n.empty()) os << " n=" << join_sizes(n);
  if (p >= 0) os << " p=" << format_double(p);
  if (scale != 1.0) os << " scale=" << format_double(scale);
  if (max_weight != 0) os << " max_weight=" << format_double(max_weight);
  if (qps != 0) os << " qps=" << format_double(qps);
  if (conns != 1) os << " conns=" << conns;
  if (duration != 0) os << " duration=" << format_double(duration);
  if (chaos != 0) os << " chaos=" << format_double(chaos);
  if (reload_every != 0) os << " reload_every=" << reload_every;
  os << " wseed=" << wseed;
  os << " algo=" << algo;
  os << " k=" << join_doubles(k);
  os << " r=" << join_sizes(r);
  if (c != 1.0) os << " c=" << format_double(c);
  if (iters != 0) os << " iters=" << iters;
  os << " seed=" << seed;
  os << " threads=" << join_sizes(threads);
  os << " reps=" << reps;
  os << " validate=" << validate;
  if (validate != "none") {
    os << " trials=" << trials;
    os << " adversarial=" << adversarial;
    os << " vseed=" << vseed;
  }
  if (!timings) os << " timings=off";
  return os.str();
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument(
          "scenario spec: expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "workload") {
      spec.workload = value;
    } else if (key == "path") {
      check_path(value);
      spec.path = value;
    } else if (key == "n") {
      spec.n = parse_size_list(key, value);
    } else if (key == "p") {
      // Density knobs are probabilities; nan fails both comparisons.
      spec.p = parse_double(key, value);
      if (!(spec.p >= 0.0 && spec.p <= 1.0)) bad_value(key, value);
    } else if (key == "scale") {
      spec.scale = parse_double(key, value);
      if (!(spec.scale > 0.0) || !std::isfinite(spec.scale))
        bad_value(key, value);
    } else if (key == "max_weight") {
      // An integer reweight ceiling: whole-valued, >= 1 (0 turns it off).
      spec.max_weight = parse_double(key, value);
      if (!std::isfinite(spec.max_weight) || spec.max_weight < 0 ||
          spec.max_weight != std::floor(spec.max_weight) ||
          (spec.max_weight != 0 && spec.max_weight < 1.0))
        bad_value(key, value);
    } else if (key == "qps") {
      spec.qps = parse_double(key, value);
      if (!(spec.qps >= 0.0) || !std::isfinite(spec.qps))
        bad_value(key, value);
    } else if (key == "conns") {
      spec.conns = static_cast<std::size_t>(parse_u64(key, value));
      if (spec.conns == 0 || spec.conns > kMaxWorkers) bad_value(key, value);
    } else if (key == "duration") {
      spec.duration = parse_double(key, value);
      if (!(spec.duration >= 0.0) || !std::isfinite(spec.duration))
        bad_value(key, value);
    } else if (key == "chaos") {
      // An injection probability; nan fails both comparisons.
      spec.chaos = parse_double(key, value);
      if (!(spec.chaos >= 0.0 && spec.chaos <= 1.0)) bad_value(key, value);
    } else if (key == "reload_every") {
      spec.reload_every = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "wseed") {
      spec.wseed = parse_u64(key, value);
    } else if (key == "algo") {
      spec.algo = value;
    } else if (key == "k") {
      spec.k = parse_double_list(key, value);
      if (spec.k.empty()) bad_value(key, value);
      // A stretch below 1 is meaningless (and nan poisons the iteration
      // formula); every sweep entry must be a finite k >= 1.
      for (const double k : spec.k)
        if (!valid_stretch(k)) bad_value(key, value);
    } else if (key == "r") {
      spec.r = parse_size_list(key, value);
      if (spec.r.empty()) bad_value(key, value);
    } else if (key == "c") {
      // The library's rule (conversion_iterations): finite and > 0. Values
      // below the proof constant 1 are how experiment A1 probes how few
      // iterations suffice.
      spec.c = parse_double(key, value);
      if (!(spec.c > 0.0) || !std::isfinite(spec.c)) bad_value(key, value);
    } else if (key == "iters") {
      spec.iters = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "threads") {
      spec.threads = parse_size_list(key, value);
      if (spec.threads.empty()) bad_value(key, value);
      for (const std::size_t t : spec.threads)
        if (t > kMaxWorkers) bad_value(key, value);
    } else if (key == "reps") {
      spec.reps = static_cast<std::size_t>(parse_u64(key, value));
      if (spec.reps == 0) bad_value(key, value);
    } else if (key == "validate") {
      if (value != "none" && value != "sampled" && value != "exact")
        bad_value(key, value);
      spec.validate = value;
    } else if (key == "trials") {
      spec.trials = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "adversarial") {
      spec.adversarial = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "vseed") {
      spec.vseed = parse_u64(key, value);
    } else if (key == "timings") {
      if (value != "on" && value != "off") bad_value(key, value);
      spec.timings = value == "on";
    } else {
      throw std::invalid_argument(
          "scenario spec: unknown key '" + key +
          "'; valid keys: workload path n p scale max_weight qps conns "
          "duration chaos reload_every wseed algo k r c iters seed threads "
          "reps validate trials adversarial vseed timings");
    }
  }
  return spec;
}

}  // namespace ftspan::runner
