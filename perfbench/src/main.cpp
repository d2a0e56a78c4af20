// ftspan_perfbench — runs one named workload and prints its result as one
// JSON line (the last line of stdout). perfbench/run.py builds this binary,
// checks the pinned outputs, and prints the final summary line.
//
//   ftspan_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--commit ID]
#include <sched.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "runner/runner.hpp"
#include "util/mem.hpp"

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string hash_hex(const std::vector<ftspan::EdgeId>& edges) {
  // Same spelling as the scenario JSON's edges_hash.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(
                    ftspan::runner::edge_set_hash(edges)));
  return buf;
}

std::string Result::to_json(const std::string& meta_json) const {
  std::string s = "{\"correct\": ";
  s += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
         vu.second + "\"}";
  }
  s += "}, \"outputs\": {";
  first = true;
  for (const auto& [name, lit] : outputs_) {
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": " + lit;
  }
  s += "}, \"notes\": {";
  first = true;
  for (const auto& [name, lit] : notes_) {
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": " + lit;
  }
  s += "}, \"meta\": " + meta_json + "}";
  return s;
}

bool Tracer::write(const std::string& path, const std::string& workload) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"schema\": \"ftspan.perfbench.trace.v1\", \"workload\": \""
     << workload << "\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    os << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << sp.name
       << "\", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns
       << ", \"parent\": " << sp.parent;
    if (sp.request != 0) os << ", \"request\": " << sp.request;
    os << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

double Tracer::cost_per_span() {
  constexpr int kSpans = 200000;
  Tracer scratch(true);
  scratch.spans_.reserve(kSpans);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) scratch.close(scratch.open("calibrate"));
  return seconds_since(t0) / kSpans;
}

namespace {

std::size_t online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ftspan_perfbench: %s\nusage: ftspan_perfbench --workload "
               "build_unit|certify_midrange --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--commit ID]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0)) usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (a == "--trace-out") {
      cfg.trace_path = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");

  // Timings from an unoptimized build are not comparable with anything.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "ftspan_perfbench: refusing to report timings from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const std::size_t nproc = online_cpus();
  cfg.threads = std::min<std::size_t>(4, nproc);

  Tracer tracer(cfg.trace);
  Result result;
  const auto t0 = Clock::now();
  try {
    if (cfg.workload == "build_unit")
      run_build_unit(cfg, tracer, result);
    else if (cfg.workload == "certify_midrange")
      run_certify_midrange(cfg, tracer, result);
    else
      usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftspan_perfbench: %s failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 1;
  }
  const double wall = seconds_since(t0);

  if (cfg.trace) {
    // The traced run's own cost: spans recorded times the calibrated cost
    // of one span, over the traced run's wall time.
    const double spans = static_cast<double>(tracer.size());
    result.metric("trace.overhead_share",
                  spans * Tracer::cost_per_span() / wall, "share");
    result.note("trace_spans", num(spans));
    if (!cfg.trace_path.empty() && !tracer.write(cfg.trace_path, cfg.workload)) {
      std::fprintf(stderr, "ftspan_perfbench: cannot write %s\n",
                   cfg.trace_path.c_str());
      return 1;
    }
  } else {
    result.metric("peak_rss_mb",
                  static_cast<double>(ftspan::peak_rss_bytes()) / (1024.0 * 1024.0),
                  "MB");
  }

  const double fail_share =
      result.attempted() ? static_cast<double>(result.failed()) /
                               static_cast<double>(result.attempted())
                         : 1.0;
  result.note("fail_share", num(fail_share));

  std::string meta = "{\"workload\": \"" + json_escape(cfg.workload) + "\"";
  meta += ", \"seeds\": {\"wseed\": " + std::to_string(cfg.seed) +
          ", \"seed\": " + std::to_string(cfg.seed) +
          ", \"vseed\": " + std::to_string(cfg.seed) + "}";
  meta += ", \"seconds\": " + num(cfg.seconds);
  meta += ", \"trace\": " + std::string(cfg.trace ? "true" : "false");
  meta += ", \"threads\": " + std::to_string(cfg.threads);
  meta += ", \"nproc\": " + std::to_string(nproc);
  meta += ", \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency());
  meta += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  meta += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  meta += ", \"commit\": \"" + json_escape(commit) + "\"";
  meta += ", \"wall_s\": " + num(wall) + "}";
  std::cout << result.to_json(meta) << std::endl;
  return 0;
}
