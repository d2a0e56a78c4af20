#include "graph/import.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/graph_file.hpp"
#include "graph/types.hpp"

namespace ftspan {

namespace {

/// `source` is the message prefix: "import: <input name>", or the text
/// reader's "graph io:".
[[noreturn]] void fail(const std::string& source, std::size_t line,
                       const std::string& what) {
  throw std::runtime_error(source + " line " + std::to_string(line) + ": " +
                           what);
}

/// Whitespace-splitting cursor over one line; every parse error it raises
/// carries the line number.
struct LineScanner {
  const std::string& source;
  std::size_t line_no;
  const char* p;

  void skip_space() {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  }
  bool at_end() {
    skip_space();
    return *p == '\0';
  }

  std::uint64_t u64(const char* what) {
    skip_space();
    if (*p == '-') fail(source, line_no, std::string(what) + " is negative");
    // strtoull accepts a leading '+', which neither grammar allows — the
    // scenario parser's parse_u64 rejects both signs, so match it.
    if (*p == '+')
      fail(source, line_no,
           std::string(what) + " has a sign (unsigned decimal expected)");
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || errno == ERANGE)
      fail(source, line_no, std::string("malformed ") + what);
    p = end;
    return v;
  }

  /// A decimal real: strtod's hexadecimal form is refused, as
  /// `std::istream >> double` never read it.
  double real(const char* what) {
    skip_space();
    const char* digits = p + (*p == '+' || *p == '-' ? 1 : 0);
    if (digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X'))
      fail(source, line_no, std::string("hexadecimal ") + what);
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) fail(source, line_no, std::string("malformed ") + what);
    p = end;
    return v;
  }

  std::string word() {
    skip_space();
    const char* start = p;
    while (*p != '\0' && !std::isspace(static_cast<unsigned char>(*p))) ++p;
    return std::string(start, p);
  }

  void expect_end() {
    if (!at_end())
      fail(source, line_no, std::string("trailing garbage '") + p + "'");
  }

  /// Edge-list lines may end in an inline '#' comment (graph/io.hpp).
  void expect_end_or_comment() {
    if (!at_end() && *p != '#')
      fail(source, line_no, std::string("trailing garbage '") + p + "'");
  }
};

void check_weight(const std::string& source, std::size_t line, double w) {
  if (!(w >= 0) || w > std::numeric_limits<double>::max())
    fail(source, line,
         "weight " + std::to_string(w) + " is negative or not finite");
}

void check_counts(const std::string& source, std::size_t line,
                  std::uint64_t n, std::uint64_t m) {
  if (n > static_cast<std::uint64_t>(kInvalidVertex))
    fail(source, line,
         "vertex count " + std::to_string(n) +
             " overflows the 32-bit vertex-id space");
  if (m > static_cast<std::uint64_t>(kInvalidEdge))
    fail(source, line,
         "edge count " + std::to_string(m) +
             " overflows the 32-bit edge-id space");
}

/// DIMACS: c comments, one p line, then a/e lines with 1-based endpoints.
/// `line_no` starts past any lines the format sniff already consumed, so
/// reported line numbers stay those of the original input.
ParsedEdges parse_dimacs(std::istream& in, const std::string& source,
                         std::size_t line_no) {
  ParsedEdges out;
  bool have_p = false;
  std::uint64_t n = 0, m = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    LineScanner sc{source, line_no, line.c_str()};
    if (sc.at_end()) continue;
    const std::string tag = sc.word();
    if (tag == "c") continue;  // comment; rest of the line is free text
    if (tag == "p") {
      if (have_p) fail(source, line_no, "duplicate problem ('p') line");
      sc.word();  // problem tag ("sp", "edge", ...) — informational only
      n = sc.u64("vertex count");
      m = sc.u64("arc count");
      sc.expect_end();
      check_counts(source, line_no, n, m);
      have_p = true;
      out.n = static_cast<std::size_t>(n);
      out.edges.reserve(static_cast<std::size_t>(m));
      continue;
    }
    if (tag == "a" || tag == "e") {
      if (!have_p)
        fail(source, line_no, "arc line before the problem ('p') line");
      const std::uint64_t u = sc.u64("endpoint");
      const std::uint64_t v = sc.u64("endpoint");
      // 'a' lines carry a weight; DIMACS 'e' (edge) lines may omit it.
      const double w = (tag == "a" || !sc.at_end()) ? sc.real("weight") : 1.0;
      sc.expect_end();
      if (u < 1 || u > n || v < 1 || v > n)
        fail(source, line_no,
             "endpoint out of range [1, " + std::to_string(n) + "]");
      check_weight(source, line_no, w);
      ++out.stats.arcs_seen;
      if (u == v) {
        ++out.stats.self_loops;
        continue;
      }
      out.edges.push_back({static_cast<Vertex>(u - 1),
                           static_cast<Vertex>(v - 1), w});
      continue;
    }
    fail(source, line_no, "unknown line type '" + tag + "'");
  }
  out.stats.lines = line_no;
  if (!have_p) fail(source, line_no, "missing problem ('p') line");
  if (out.stats.arcs_seen != m)
    fail(source, line_no,
         "arc count mismatch: problem line announced " + std::to_string(m) +
             ", file has " + std::to_string(out.stats.arcs_seen));
  return out;
}

/// First-seen duplicate drop without a hash index: sort edge positions by
/// canonical {min, max} endpoint key (stable, so within a key group the
/// original order survives), keep each group's first, compact in input
/// order. O(m log m) time, 8 bytes per edge of scratch.
void drop_duplicates(ParsedEdges& g) {
  const auto key = [&g](std::uint32_t i) {
    const Edge& e = g.edges[i];
    const Vertex lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };
  std::vector<std::uint32_t> order(g.edges.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&key](std::uint32_t a, std::uint32_t b) {
                     return key(a) < key(b);
                   });
  std::vector<char> keep(g.edges.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i)
    if (i == 0 || key(order[i]) != key(order[i - 1])) keep[order[i]] = 1;
  std::size_t out = 0;
  for (std::size_t i = 0; i < g.edges.size(); ++i)
    if (keep[i]) g.edges[out++] = g.edges[i];
  g.stats.duplicates = g.edges.size() - out;
  g.edges.resize(out);
}

/// Reads ahead to the first content character to pick the grammar: DIMACS
/// lines open with a letter tag (c/p/a/e), the edge-list header with a
/// digit (or a '#' comment before it).
ImportFormat sniff(std::istream& in, std::size_t& lines_consumed) {
  for (;;) {
    const int ch = in.peek();
    if (ch == std::char_traits<char>::eof())
      return ImportFormat::kEdgeList;  // empty input: either parser rejects it
    if (std::isspace(static_cast<unsigned char>(ch))) {
      if (ch == '\n') ++lines_consumed;
      in.get();
      continue;
    }
    if (ch == '#') {  // edge-list comment: skip the line
      std::string line;
      std::getline(in, line);
      ++lines_consumed;
      continue;
    }
    // The decisive character is peeked, not consumed — the chosen parser
    // sees it again.
    return std::isdigit(static_cast<unsigned char>(ch))
               ? ImportFormat::kEdgeList
               : ImportFormat::kDimacs;
  }
}

}  // namespace

ParsedEdges parse_edge_list(std::istream& in, char kind,
                            const std::string& source, std::size_t line_no) {
  ParsedEdges out;
  bool have_header = false;
  std::uint64_t n = 0, m = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    LineScanner sc{source, line_no, line.c_str()};
    if (sc.at_end() || *sc.p == '#') continue;
    if (!have_header) {
      n = sc.u64("vertex count");
      m = sc.u64("edge count");
      std::string got = sc.word();
      sc.expect_end_or_comment();
      for (char& ch : got)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      if (got != "u" && got != "d")
        fail(source, line_no, "malformed header kind '" + got + "'");
      if (got[0] != kind)
        fail(source, line_no,
             kind == 'u' ? "directed ('d') header where an undirected graph "
                           "is expected"
                         : "undirected ('u') header where a directed graph "
                           "is expected");
      check_counts(source, line_no, n, m);
      have_header = true;
      out.n = static_cast<std::size_t>(n);
      // A header's m is trusted with at most 2^20 edges of memory up front.
      out.edges.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(m, std::uint64_t{1} << 20)));
      continue;
    }
    if (out.stats.arcs_seen == m)
      fail(source, line_no, "more edge lines than the header's " +
                                std::to_string(m));
    const std::uint64_t u = sc.u64("endpoint");
    const std::uint64_t v = sc.u64("endpoint");
    const double w = sc.real("weight");
    sc.expect_end_or_comment();
    if (u >= n || v >= n)
      fail(source, line_no,
           "endpoint out of range [0, " + std::to_string(n) + ")");
    check_weight(source, line_no, w);
    ++out.stats.arcs_seen;
    if (u == v) {
      ++out.stats.self_loops;
      continue;
    }
    out.edges.push_back({static_cast<Vertex>(u), static_cast<Vertex>(v), w});
  }
  out.stats.lines = line_no;
  if (!have_header) fail(source, line_no, "missing header line");
  if (out.stats.arcs_seen != m)
    fail(source, line_no,
         "truncated edge list: header announced " + std::to_string(m) +
             " edges, file has " + std::to_string(out.stats.arcs_seen));
  return out;
}

ImportResult import_graph(std::istream& in, const std::string& out_path,
                          ImportFormat format, const std::string& source_name) {
  std::size_t lines_consumed = 0;
  if (format == ImportFormat::kAuto) {
    // The sniff consumes leading whitespace/comments only, which neither
    // grammar needs to see again; the consumed count keeps the parsers'
    // error line numbers anchored to the original input.
    format = sniff(in, lines_consumed);
  }
  const std::string source = "import: " + source_name;
  ParsedEdges g = format == ImportFormat::kDimacs
                      ? parse_dimacs(in, source, lines_consumed)
                      : parse_edge_list(in, 'u', source, lines_consumed);
  drop_duplicates(g);
  g.stats.n = g.n;
  g.stats.edges = g.edges.size();
  write_graph_binary(out_path, g.n, g.edges);
  return g.stats;
}

ImportResult import_graph_file(const std::string& in_path,
                               const std::string& out_path,
                               ImportFormat format) {
  std::ifstream is(in_path);
  if (!is) throw std::runtime_error("import: cannot open " + in_path);
  return import_graph(is, out_path, format, in_path);
}

}  // namespace ftspan
