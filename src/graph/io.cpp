#include "graph/io.hpp"

#include <cctype>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ftspan {

namespace {

/// Reads the next non-comment, non-empty line into `line`; false at EOF.
bool next_content_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos || line[pos] == '#') continue;
    return true;
  }
  return false;
}

/// After the expected fields parsed, only whitespace (including the \r a
/// CRLF file leaves behind) or an inline '#' comment may remain.
bool only_trailing_comment(std::istringstream& ls) {
  char ch;
  if (!(ls >> ch)) return true;  // whitespace-only tail
  return ch == '#';
}

struct Header {
  std::size_t n;
  std::size_t m;
  char kind;
};

Header read_header(std::istream& is) {
  std::string line;
  if (!next_content_line(is, line))
    throw std::runtime_error("graph io: missing header line");
  std::istringstream ls(line);
  Header h{};
  if (!(ls >> h.n >> h.m >> h.kind) || !only_trailing_comment(ls))
    throw std::runtime_error("graph io: malformed header: " + line);
  h.kind = static_cast<char>(
      std::tolower(static_cast<unsigned char>(h.kind)));
  if (h.kind != 'u' && h.kind != 'd')
    throw std::runtime_error("graph io: malformed header: " + line);
  return h;
}

/// The header's kind, then exactly its m edges and nothing after them. The
/// rules match the importer's (graph/import.cpp): a weight must be finite
/// and >= 0, and an edge line past the header's m is an error, not ignored.
template <class G>
G read_edges(std::istream& is, char kind) {
  const Header h = read_header(is);
  if (h.kind != kind)
    throw std::runtime_error(kind == 'u'
                                 ? "graph io: expected undirected ('u') header"
                                 : "graph io: expected directed ('d') header");
  G g(h.n);
  std::string line;
  for (std::size_t i = 0; i < h.m; ++i) {
    if (!next_content_line(is, line))
      throw std::runtime_error("graph io: truncated edge list");
    std::istringstream ls(line);
    Vertex u, v;
    Weight w;
    if (!(ls >> u >> v >> w) || !only_trailing_comment(ls))
      throw std::runtime_error("graph io: malformed edge: " + line);
    if (!(w >= 0) || w > std::numeric_limits<Weight>::max())
      throw std::runtime_error("graph io: weight is negative or not finite: " +
                               line);
    g.add_edge(u, v, w);
  }
  if (next_content_line(is, line))
    throw std::runtime_error("graph io: more edge lines than the header's " +
                             std::to_string(h.m) + ": " + line);
  return g;
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << std::setprecision(17);  // round-trip exact for doubles
  os << g.num_vertices() << " " << g.num_edges() << " u\n";
  for (const Edge& e : g.edges()) os << e.u << " " << e.v << " " << e.w << "\n";
}

void write_digraph(std::ostream& os, const Digraph& g) {
  os << std::setprecision(17);
  os << g.num_vertices() << " " << g.num_edges() << " d\n";
  for (const DiEdge& e : g.edges())
    os << e.u << " " << e.v << " " << e.w << "\n";
}

Graph read_graph(std::istream& is) { return read_edges<Graph>(is, 'u'); }

Digraph read_digraph(std::istream& is) {
  return read_edges<Digraph>(is, 'd');
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("graph io: cannot open " + path);
  write_graph(os, g);
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("graph io: cannot open " + path);
  return read_graph(is);
}

}  // namespace ftspan
