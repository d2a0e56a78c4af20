// Plain-text edge-list I/O.
//
// Format (both graph kinds):
//   line 1: "<n> <m> <u|d>"        (u = undirected, d = directed;
//                                   case-insensitive)
//   then m lines: "<u> <v> <w>", 0 <= u, v < n, w finite and >= 0
// Counts and endpoints are unsigned decimals without a sign; w is a decimal
// real (hexadecimal is refused). '#' starts a comment — a whole line or the
// tail of one. CRLF line endings and trailing whitespace are accepted; any
// other trailing garbage on a header or edge line, an endpoint out of
// range, a count past the 32-bit id space, and any edge line past the
// header's m are parse errors. One parser reads the format for these
// readers and for the importer (parse_edge_list, graph/import.hpp).
// Self-loops and repeated pairs are dropped, the first occurrence winning.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace ftspan {

void write_graph(std::ostream& os, const Graph& g);
void write_digraph(std::ostream& os, const Digraph& g);

/// Parses an undirected graph; throws std::runtime_error on malformed input
/// (the message names the line).
Graph read_graph(std::istream& is);
/// Parses a directed graph; throws std::runtime_error on malformed input.
Digraph read_digraph(std::istream& is);

void save_graph(const std::string& path, const Graph& g);
Graph load_graph(const std::string& path);

}  // namespace ftspan
