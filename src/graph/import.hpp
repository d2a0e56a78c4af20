// Streaming text-to-binary graph importer (`ftspan import`).
//
// Converts large text instances — DIMACS shortest-path `.gr` files (the
// format real road-network corpora ship in) or this repo's edge-list format
// — into ftspan.graph.v1 (graph/graph_file.hpp) without materializing a
// Graph: no adjacency lists, no hash-based edge index, just one flat edge
// record per input line plus a sort-based duplicate scan. Peak memory is
// ~24 bytes per input arc, so 10^7-arc inputs import in a few hundred MB.
//
// DIMACS mapping (see docs/FORMATS.md for the field table):
//   c ...            comment, ignored
//   p <tag> <n> <m>  problem line: n vertices, m arcs announced ("p sp n m")
//   a <u> <v> <w>    arc, 1-based endpoints, non-negative weight
//   e <u> <v> [w]    edge (DIMACS clique/color flavor), weight defaults to 1
// Arcs are folded into the undirected simple graph the library works on:
// endpoints map to 0-based, self-loops are dropped, and of duplicate
// {u, v} pairs (including the reverse orientation every road file carries)
// the first occurrence wins — exactly Graph::add_edge's policy, so importing
// a file and adding its lines to a Graph produce the same edge sequence.
//
// Every rejection throws std::runtime_error naming the input line number.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace ftspan {

enum class ImportFormat {
  kAuto,      ///< sniff: DIMACS when the first content line is c/p/a/e
  kDimacs,    ///< DIMACS .gr / edge flavor
  kEdgeList,  ///< this repo's "<n> <m> u" edge-list text format
};

struct ImportResult {
  std::size_t n = 0;           ///< vertices in the written graph
  std::size_t edges = 0;       ///< edges kept (after dedup / self-loop drop)
  std::size_t arcs_seen = 0;   ///< input edge/arc lines parsed
  std::size_t duplicates = 0;  ///< dropped as duplicate {u, v} pairs
  std::size_t self_loops = 0;  ///< dropped as self-loops
  std::size_t lines = 0;       ///< input lines consumed
};

/// A parsed text input: n and its edge lines in input order, self-loops
/// dropped (and counted), duplicates kept.
struct ParsedEdges {
  std::size_t n = 0;
  std::vector<Edge> edges;
  ImportResult stats;
};

/// The one parser of this repo's text edge-list grammar (graph/io.hpp),
/// shared by read_graph / read_digraph and the importer: a header whose
/// kind must be `kind` ('u' or 'd'), then exactly its m edge lines.
/// Counts are unsigned decimals (no sign), endpoints in [0, n), weights
/// decimal (not hexadecimal), finite and >= 0. Throws std::runtime_error
/// "<source> line <N>: ..." on malformed input; `line_no` counts the lines
/// already consumed before `in`.
ParsedEdges parse_edge_list(std::istream& in, char kind,
                            const std::string& source,
                            std::size_t line_no = 0);

/// Streams `in` and writes ftspan.graph.v1 to `out_path`. Throws
/// std::runtime_error (naming the line number) on malformed input.
/// `source_name` labels the input in error messages.
ImportResult import_graph(std::istream& in, const std::string& out_path,
                          ImportFormat format = ImportFormat::kAuto,
                          const std::string& source_name = "<stream>");

/// File-path convenience overload.
ImportResult import_graph_file(const std::string& in_path,
                               const std::string& out_path,
                               ImportFormat format = ImportFormat::kAuto);

}  // namespace ftspan
