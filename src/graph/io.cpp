#include "graph/io.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "graph/import.hpp"

namespace ftspan {

namespace {

/// The importer's grammar (parse_edge_list), then Graph::add_edge's policy:
/// self-loops and repeated pairs are dropped, the first occurrence wins.
template <class G>
G read_edges(std::istream& is, char kind) {
  const ParsedEdges parsed = parse_edge_list(is, kind, "graph io:");
  G g(parsed.n);
  for (const Edge& e : parsed.edges) g.add_edge(e.u, e.v, e.w);
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
