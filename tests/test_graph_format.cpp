// ftspan.graph.v1 + importer test wall (ISSUE 7).
//
// Three fronts: (1) round-trip fidelity — save → mmap-load preserves the
// edge array, the CSR arrays, and engine traversal bit-for-bit; (2) the
// malformed-input wall — every corruption class is rejected with an error
// naming the byte offset (binary) or line number (importer); (3) the
// writer-identity contract — importing a text instance and saving the same
// graph produce byte-identical files.
#include "graph/graph_file.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/import.hpp"
#include "graph/io.hpp"
#include "graph/sp_engine.hpp"
#include "runner/workloads.hpp"
#include "support/temp_path.hpp"

namespace ftspan {
namespace {

using test::temp_path;

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(is.good()) << path;
  std::vector<std::byte> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes and re-stamps the header checksum over the (possibly patched)
/// payload, so structural corruptions are caught by their own check rather
/// than masked by the checksum mismatch.
void restamp_checksum(std::vector<std::byte>& bytes) {
  const std::uint64_t sum = graph_file_checksum(
      {bytes.data() + sizeof(GraphFileHeader),
       bytes.size() - sizeof(GraphFileHeader)});
  std::memcpy(bytes.data() + offsetof(GraphFileHeader, checksum), &sum,
              sizeof(sum));
}

/// Expects MappedGraph(path) to throw a std::runtime_error whose message
/// contains every listed fragment (always including "byte" — the format's
/// promise that failures name an offset).
void expect_load_error(const std::string& path,
                       const std::vector<std::string>& fragments) {
  try {
    MappedGraph mg(path);
    FAIL() << "expected " << path << " to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
    for (const std::string& frag : fragments)
      EXPECT_NE(msg.find(frag), std::string::npos)
          << "missing '" << frag << "' in: " << msg;
  }
}

/// Expects import_graph over `text` to throw naming a line number.
void expect_import_error(const std::string& text, ImportFormat format,
                         const std::vector<std::string>& fragments) {
  std::istringstream is(text);
  try {
    import_graph(is, temp_path("import_reject.fgb"), format);
    FAIL() << "expected rejection of: " << text;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line"), std::string::npos) << msg;
    for (const std::string& frag : fragments)
      EXPECT_NE(msg.find(frag), std::string::npos)
          << "missing '" << frag << "' in: " << msg;
  }
}

Graph test_graph() { return gnp(60, 0.15, 42, 5.0); }

// ---------------------------------------------------------------------------
// Round-trip fidelity

TEST(GraphFormat, SaveLoadPreservesEdgeArrayExactly) {
  const Graph g = test_graph();
  const std::string path = temp_path("roundtrip.fgb");
  save_graph_binary(path, g);

  const MappedGraph mg(path);
  ASSERT_EQ(mg.num_vertices(), g.num_vertices());
  ASSERT_EQ(mg.num_edges(), g.num_edges());
  const auto edges = mg.edges();
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(edges[i].u, g.edge(i).u);
    EXPECT_EQ(edges[i].v, g.edge(i).v);
    // Bit-exact, not approximately equal: the format stores the doubles raw.
    EXPECT_EQ(edges[i].w, g.edge(i).w);
  }

  const Graph h = mg.to_graph();
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(h.edge(i).u, g.edge(i).u);
    EXPECT_EQ(h.edge(i).v, g.edge(i).v);
    EXPECT_EQ(h.edge(i).w, g.edge(i).w);
  }
}

TEST(GraphFormat, MappedCsrViewMatchesInMemorySnapshot) {
  const Graph g = test_graph();
  const std::string path = temp_path("csrview.fgb");
  save_graph_binary(path, g);

  const MappedGraph mg(path);
  const CsrView view = mg.csr();
  const Csr csr(g);
  ASSERT_EQ(view.num_vertices(), csr.num_vertices());
  ASSERT_EQ(view.num_arcs(), csr.num_arcs());
  EXPECT_EQ(view.weights().integral, csr.weights().integral);
  EXPECT_EQ(view.weights().max_weight, csr.weights().max_weight);
  EXPECT_EQ(view.weights().total_weight, csr.weights().total_weight);
  for (Vertex v = 0; v < csr.num_vertices(); ++v) {
    const auto a = view.out(v);
    const auto b = csr.out(v);
    ASSERT_EQ(a.size(), b.size()) << "v=" << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_EQ(a[i].edge, b[i].edge);
      EXPECT_EQ(a[i].w, b[i].w);
    }
  }
}

TEST(GraphFormat, EngineTraversesTheMappingInPlace) {
  // The zero-copy contract: DijkstraEngine runs on the CsrView straight off
  // the mapping and reproduces the in-memory Csr run bit-for-bit.
  const Graph g = test_graph();
  const std::string path = temp_path("engine_view.fgb");
  save_graph_binary(path, g);
  const MappedGraph mg(path);
  const CsrView view = mg.csr();
  const Csr csr(g);

  DijkstraEngine on_view, on_csr;
  for (Vertex s = 0; s < g.num_vertices(); s += 7) {
    on_view.run(view, s);
    on_csr.run(csr, s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(on_view.dist(v), on_csr.dist(v)) << "s=" << s << " v=" << v;
      ASSERT_EQ(on_view.parent(v), on_csr.parent(v));
    }
  }
}

TEST(GraphFormat, HeaderCarriesTheWeightProfile) {
  const Graph g = test_graph();  // real-valued weights
  const std::string path = temp_path("header.fgb");
  save_graph_binary(path, g);
  const MappedGraph mg(path);
  const Csr csr(g);
  EXPECT_EQ(mg.header().version, kGraphFileVersion);
  EXPECT_EQ(mg.header().flags, 0u);
  EXPECT_EQ(mg.header().num_arcs, 2 * g.num_edges());
  EXPECT_EQ(mg.weights().integral, csr.weights().integral);
  EXPECT_EQ(mg.weights().max_weight, csr.weights().max_weight);
  EXPECT_EQ(mg.weights().total_weight, csr.weights().total_weight);
}

// The engine-policy resolution (heap/delta) hangs off the
// hoisted WeightProfile, so the profile a graph carries after an mmap-load
// round trip must equal the profile of the in-memory original bit-for-bit —
// for every workload family, in the integral regime (the max_weight=
// reweight), the fractional regime (a +0.5 shift), and as generated. A
// drifted bit here would silently flip the resolved engine.
TEST(GraphFormat, WeightProfileSurvivesBinaryRoundTripForAllWorkloads) {
  for (const std::string& name : runner::workload_registry().names()) {
    if (name == "file") continue;  // nothing to generate
    for (const char* regime : {"generated", "integral", "fractional"}) {
      SCOPED_TRACE(name + std::string(" / ") + regime);
      runner::WorkloadParams wp;
      wp.scale = 0.3;
      wp.seed = 17;
      if (std::strcmp(regime, "integral") == 0) wp.max_weight = 100000;
      Graph g = runner::make_workload(name, wp).g;
      if (std::strcmp(regime, "fractional") == 0) {
        std::vector<Edge> shifted;
        for (EdgeId id = 0; id < g.num_edges(); ++id) {
          Edge e = g.edge(id);
          e.w += 0.5;
          shifted.push_back(e);
        }
        g = Graph::from_edges(g.num_vertices(), shifted);
      }

      const std::string path =
          temp_path("profile_" + name + "_" + regime + ".fgb");
      save_graph_binary(path, g);
      const Csr want(g);
      // Both load paths: the zero-copy mapping's header profile and the
      // profile recomputed from the load_graph_any materialization.
      const MappedGraph mg(path);
      EXPECT_EQ(mg.weights().integral, want.weights().integral);
      EXPECT_EQ(mg.weights().max_weight, want.weights().max_weight);
      EXPECT_EQ(mg.weights().total_weight, want.weights().total_weight);
      const Csr loaded(load_graph_any(path));
      EXPECT_EQ(loaded.weights().integral, want.weights().integral);
      EXPECT_EQ(loaded.weights().max_weight, want.weights().max_weight);
      EXPECT_EQ(loaded.weights().total_weight, want.weights().total_weight);
      // The policy hook itself: both profiles must resolve the same queue.
      EXPECT_EQ(select_sp_queue(SpEnginePolicy::kAuto,
                                mg.weights().exact_sums()),
                select_sp_queue(SpEnginePolicy::kAuto,
                                want.weights().exact_sums()));
    }
  }
}

TEST(GraphFormat, LoadGraphAnyDispatchesOnMagic) {
  const Graph g = grid(4, 5);
  const std::string bin = temp_path("any.fgb");
  const std::string txt = temp_path("any.txt");
  save_graph_binary(bin, g);
  save_graph(txt, g);
  EXPECT_TRUE(is_graph_binary(bin));
  EXPECT_FALSE(is_graph_binary(txt));
  const Graph from_bin = load_graph_any(bin);
  const Graph from_txt = load_graph_any(txt);
  ASSERT_EQ(from_bin.num_edges(), g.num_edges());
  ASSERT_EQ(from_txt.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(from_bin.edge(i).u, from_txt.edge(i).u);
    EXPECT_EQ(from_bin.edge(i).v, from_txt.edge(i).v);
  }
}

TEST(GraphFormat, EmptyGraphRoundTrips) {
  const Graph g(5);
  const std::string path = temp_path("empty.fgb");
  save_graph_binary(path, g);
  const MappedGraph mg(path);
  EXPECT_EQ(mg.num_vertices(), 5u);
  EXPECT_EQ(mg.num_edges(), 0u);
  EXPECT_EQ(mg.to_graph().num_edges(), 0u);
}

// ---------------------------------------------------------------------------
// Writer identity: importer and save_graph_binary agree byte-for-byte

TEST(GraphFormat, ImportAndSaveProduceByteIdenticalFiles) {
  const Graph g = test_graph();
  std::stringstream text;
  write_graph(text, g);

  const std::string imported = temp_path("identity_import.fgb");
  const std::string saved = temp_path("identity_save.fgb");
  const ImportResult res = import_graph(text, imported);
  save_graph_binary(saved, g);

  EXPECT_EQ(res.n, g.num_vertices());
  EXPECT_EQ(res.edges, g.num_edges());
  EXPECT_EQ(res.duplicates, 0u);
  EXPECT_EQ(read_file(imported), read_file(saved));
}

// ---------------------------------------------------------------------------
// The 64-bit offset variant

TEST(GraphFormat, Csr64MatchesCsrStructurally) {
  const Graph g = test_graph();
  const Csr a(g);
  const Csr64 b(g);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  ASSERT_EQ(a.offsets().size(), b.offsets().size());
  for (std::size_t i = 0; i < a.offsets().size(); ++i)
    EXPECT_EQ(static_cast<std::uint64_t>(a.offsets()[i]), b.offsets()[i]);
  for (std::size_t i = 0; i < a.arcs().size(); ++i) {
    EXPECT_EQ(a.arcs()[i].to, b.arcs()[i].to);
    EXPECT_EQ(a.arcs()[i].edge, b.arcs()[i].edge);
    EXPECT_EQ(a.arcs()[i].w, b.arcs()[i].w);
  }
}

TEST(GraphFormat, FromEdgesMatchesAdjacencySnapshot) {
  // The writer's scatter path must equal the Csr(Graph) adjacency walk: per
  // vertex, arcs in edge-id order.
  const Graph g = test_graph();
  const Csr64 scattered = Csr64::from_edges(
      g.num_vertices(), std::span<const Edge>(g.edges()));
  const Csr64 walked(g);
  ASSERT_EQ(scattered.num_arcs(), walked.num_arcs());
  for (std::size_t i = 0; i < scattered.offsets().size(); ++i)
    EXPECT_EQ(scattered.offsets()[i], walked.offsets()[i]);
  for (std::size_t i = 0; i < scattered.arcs().size(); ++i) {
    EXPECT_EQ(scattered.arcs()[i].to, walked.arcs()[i].to);
    EXPECT_EQ(scattered.arcs()[i].edge, walked.arcs()[i].edge);
  }
}

TEST(GraphFormat, ArcCapacityGuardNamesCountCeilingAndEscapeHatch) {
  // The guard message names the actual count, the 32-bit ceiling, and the
  // 64-bit snapshot to take instead.
  try {
    csr_check_arc_capacity<std::uint32_t>(std::size_t{1} << 32);
    FAIL() << "expected length_error";
  } catch (const std::length_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("4294967296"), std::string::npos) << msg;  // the count
    EXPECT_NE(msg.find("4294967295"), std::string::npos) << msg;  // ceiling
    EXPECT_NE(msg.find("Csr64"), std::string::npos) << msg;
  }
  // The 64-bit instantiation accepts the same count.
  EXPECT_NO_THROW(csr_check_arc_capacity<std::uint64_t>(std::size_t{1} << 32));
}

// ---------------------------------------------------------------------------
// Malformed binary wall — every rejection names a byte offset

class GraphFormatWall : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("wall.fgb");
    save_graph_binary(path_, test_graph());
    bytes_ = read_file(path_);
  }

  /// Overwrites `len` bytes at `at`, optionally re-stamps the checksum, and
  /// writes the corrupted file back.
  void patch(std::size_t at, const void* src, std::size_t len, bool restamp) {
    std::memcpy(bytes_.data() + at, src, len);
    if (restamp) restamp_checksum(bytes_);
    write_file(path_, bytes_);
  }

  std::string path_;
  std::vector<std::byte> bytes_;
};

TEST_F(GraphFormatWall, TruncatedHeaderRejected) {
  bytes_.resize(40);
  write_file(path_, bytes_);
  expect_load_error(path_, {"truncated", "80"});
}

TEST_F(GraphFormatWall, TruncatedPayloadRejected) {
  bytes_.resize(bytes_.size() - 16);
  write_file(path_, bytes_);
  expect_load_error(path_, {"truncated payload"});
}

TEST_F(GraphFormatWall, EmptyFileRejected) {
  bytes_.clear();
  write_file(path_, bytes_);
  expect_load_error(path_, {"truncated"});
}

TEST_F(GraphFormatWall, BadMagicRejected) {
  const char magic[8] = {'N', 'O', 'T', 'A', 'G', 'R', 'P', 'H'};
  patch(0, magic, sizeof(magic), /*restamp=*/false);
  expect_load_error(path_, {"bad magic"});
}

TEST_F(GraphFormatWall, UnknownVersionRejected) {
  const std::uint32_t version = 2;
  patch(offsetof(GraphFileHeader, version), &version, sizeof(version), false);
  expect_load_error(path_, {"version 2", "byte 8"});
}

TEST_F(GraphFormatWall, UnknownFlagBitsRejected) {
  const std::uint32_t flags = 0x4;
  patch(offsetof(GraphFileHeader, flags), &flags, sizeof(flags), false);
  expect_load_error(path_, {"flags", "byte 12"});
}

TEST_F(GraphFormatWall, VertexCountOverflowRejected) {
  const std::uint64_t n = std::uint64_t{1} << 32;
  patch(offsetof(GraphFileHeader, n), &n, sizeof(n), false);
  expect_load_error(path_, {"vertex count", "overflows", "byte 16"});
}

TEST_F(GraphFormatWall, EdgeCountOverflowRejected) {
  const std::uint64_t m = std::uint64_t{1} << 32;
  patch(offsetof(GraphFileHeader, m), &m, sizeof(m), false);
  expect_load_error(path_, {"edge count", "overflows", "byte 24"});
}

TEST_F(GraphFormatWall, ArcCountDisagreeingWithEdgeCountRejected) {
  std::uint64_t arcs;
  std::memcpy(&arcs, bytes_.data() + offsetof(GraphFileHeader, num_arcs),
              sizeof(arcs));
  ++arcs;
  patch(offsetof(GraphFileHeader, num_arcs), &arcs, sizeof(arcs), false);
  expect_load_error(path_, {"arc count", "2m", "byte 32"});
}

TEST_F(GraphFormatWall, ChecksumMismatchRejected) {
  // Flip one payload byte WITHOUT re-stamping: the checksum must catch it.
  bytes_[sizeof(GraphFileHeader) + 3] ^= std::byte{0xff};
  write_file(path_, bytes_);
  expect_load_error(path_, {"checksum mismatch", "byte 64"});
}

TEST_F(GraphFormatWall, OutOfRangeEndpointRejected) {
  // Corrupt edge 0's `u` beyond n, re-stamp so only the range check trips.
  const Vertex bad = 1000000;
  patch(sizeof(GraphFileHeader) + offsetof(Edge, u), &bad, sizeof(bad), true);
  expect_load_error(path_, {"edge 0", "out of range", "byte 80"});
}

TEST_F(GraphFormatWall, SelfLoopEdgeRejected) {
  Edge e0;
  std::memcpy(&e0, bytes_.data() + sizeof(GraphFileHeader), sizeof(e0));
  const Vertex v = e0.u;
  patch(sizeof(GraphFileHeader) + offsetof(Edge, v), &v, sizeof(v), true);
  expect_load_error(path_, {"edge 0", "self-loop"});
}

TEST_F(GraphFormatWall, NegativeWeightRejected) {
  const double w = -1.0;
  patch(sizeof(GraphFileHeader) + offsetof(Edge, w), &w, sizeof(w), true);
  expect_load_error(path_, {"edge 0", "weight", "negative"});
}

TEST_F(GraphFormatWall, NonFiniteWeightRejected) {
  const double w = std::numeric_limits<double>::quiet_NaN();
  patch(sizeof(GraphFileHeader) + offsetof(Edge, w), &w, sizeof(w), true);
  expect_load_error(path_, {"edge 0", "weight"});
}

TEST_F(GraphFormatWall, NonMonotoneOffsetsRejected) {
  const MappedGraph mg(path_);  // valid before the patch
  const std::size_t offsets_at =
      sizeof(GraphFileHeader) + mg.num_edges() * sizeof(Edge);
  const std::uint64_t bogus = std::uint64_t{0} - 1;
  patch(offsets_at + 1 * sizeof(std::uint64_t), &bogus, sizeof(bogus), true);
  expect_load_error(path_, {"offsets", "monotone"});
}

TEST_F(GraphFormatWall, ArcEdgeCrossDisagreementRejected) {
  // Corrupt arc 0's weight only: the arc no longer matches the edge record
  // it points at, even though both pass their individual range checks.
  const MappedGraph mg(path_);
  const std::size_t arcs_at = sizeof(GraphFileHeader) +
                              mg.num_edges() * sizeof(Edge) +
                              (mg.num_vertices() + 1) * sizeof(std::uint64_t);
  const double w = 123.5;
  patch(arcs_at + offsetof(CsrArc, w), &w, sizeof(w), true);
  expect_load_error(path_, {"arc 0", "disagrees with edge"});
}

TEST_F(GraphFormatWall, MissingFileRejected) {
  EXPECT_THROW(MappedGraph("/nonexistent/dir/graph.fgb"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Importer wall — every rejection names a line number

TEST(GraphImport, DimacsRoundTripWithDedupAndSelfLoops) {
  // 5 arc lines: a reverse duplicate, a self-loop, and 3 distinct edges.
  std::istringstream is(
      "c tiny instance\n"
      "p sp 4 5\n"
      "a 1 2 1.5\n"
      "a 2 1 1.5\n"
      "a 2 3 2\n"
      "a 3 4 1\n"
      "a 4 4 9\n");
  const std::string path = temp_path("dimacs.fgb");
  const ImportResult res = import_graph(is, path);
  EXPECT_EQ(res.n, 4u);
  EXPECT_EQ(res.edges, 3u);
  EXPECT_EQ(res.arcs_seen, 5u);
  EXPECT_EQ(res.duplicates, 1u);
  EXPECT_EQ(res.self_loops, 1u);
  const Graph g = load_graph_binary(path);
  ASSERT_EQ(g.num_edges(), 3u);
  // 1-based DIMACS endpoints land 0-based, first occurrence's weight wins.
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(0).v, 1u);
  EXPECT_EQ(g.edge(0).w, 1.5);
}

TEST(GraphImport, DimacsEdgeLinesDefaultToUnitWeight) {
  std::istringstream is("p edge 3 2\ne 1 2\ne 2 3 4.5\n");
  const ImportResult res =
      import_graph(is, temp_path("dimacs_e.fgb"), ImportFormat::kDimacs);
  EXPECT_EQ(res.edges, 2u);
  const Graph g = load_graph_binary(temp_path("dimacs_e.fgb"));
  EXPECT_EQ(g.edge(0).w, 1.0);
  EXPECT_EQ(g.edge(1).w, 4.5);
}

TEST(GraphImport, AutoDetectionPicksTheRightGrammar) {
  std::istringstream dimacs("c x\np sp 2 1\na 1 2 1\n");
  std::istringstream edgelist("# comment first\n2 1 u\n0 1 3.5\n");
  const ImportResult a = import_graph(dimacs, temp_path("sniff_d.fgb"));
  const ImportResult b = import_graph(edgelist, temp_path("sniff_e.fgb"));
  EXPECT_EQ(a.edges, 1u);
  EXPECT_EQ(b.edges, 1u);
  EXPECT_EQ(load_graph_binary(temp_path("sniff_e.fgb")).edge(0).w, 3.5);
}

TEST(GraphImport, RejectsEndpointOutOfRange) {
  expect_import_error("p sp 3 1\na 1 7 1\n", ImportFormat::kDimacs,
                      {"line 2", "out of range"});
  expect_import_error("3 1 u\n0 3 1\n", ImportFormat::kEdgeList,
                      {"line 2", "out of range"});
}

TEST(GraphImport, RejectsNegativeWeight) {
  expect_import_error("p sp 3 1\na 1 2 -4\n", ImportFormat::kDimacs,
                      {"line 2", "negative"});
}

TEST(GraphImport, RejectsSignedIntegerFields) {
  // strtoull quietly accepts a leading '+'; the grammar is unsigned decimals
  // only (matching the scenario parser's parse_u64, which rejects both
  // signs). '-' keeps its dedicated "is negative" message.
  expect_import_error("p sp 3 2\na +1 2 1\na 2 3 1\n", ImportFormat::kDimacs,
                      {"line 2", "endpoint", "sign"});
  expect_import_error("p sp +3 2\na 1 2 1\na 2 3 1\n", ImportFormat::kDimacs,
                      {"line 1", "vertex count", "sign"});
  expect_import_error("3 2 u\n+0 1 1\n1 2 1\n", ImportFormat::kEdgeList,
                      {"line 2", "endpoint", "sign"});
  expect_import_error("3 1 u\n0 -1 1\n", ImportFormat::kEdgeList,
                      {"line 2", "endpoint", "negative"});
}

TEST(GraphImport, RejectsCountOverflow) {
  expect_import_error("p sp 4294967296 1\na 1 2 1\n", ImportFormat::kDimacs,
                      {"line 1", "vertex count", "overflows"});
  expect_import_error("2 4294967296 u\n", ImportFormat::kEdgeList,
                      {"line 1", "edge count", "overflows"});
}

TEST(GraphImport, RejectsArcBeforeProblemLine) {
  expect_import_error("a 1 2 1\n", ImportFormat::kDimacs,
                      {"line 1", "before the problem"});
}

TEST(GraphImport, RejectsDuplicateProblemLine) {
  expect_import_error("p sp 2 1\np sp 2 1\na 1 2 1\n", ImportFormat::kDimacs,
                      {"line 2", "duplicate problem"});
}

TEST(GraphImport, RejectsUnknownLineType) {
  expect_import_error("p sp 2 1\nq 1 2 1\n", ImportFormat::kDimacs,
                      {"line 2", "unknown line type 'q'"});
}

TEST(GraphImport, RejectsArcCountMismatch) {
  expect_import_error("p sp 3 2\na 1 2 1\n", ImportFormat::kDimacs,
                      {"arc count mismatch"});
  expect_import_error("3 2 u\n0 1 1\n", ImportFormat::kEdgeList,
                      {"truncated edge list"});
  expect_import_error("2 1 u\n0 1 1\n1 0 2\n", ImportFormat::kEdgeList,
                      {"line 3", "more edge lines"});
}

TEST(GraphImport, RejectsDirectedEdgeListHeader) {
  expect_import_error("3 1 d\n0 1 1\n", ImportFormat::kEdgeList,
                      {"line 1", "directed"});
}

TEST(GraphImport, RejectsTrailingGarbage) {
  expect_import_error("p sp 2 1\na 1 2 1 junk\n", ImportFormat::kDimacs,
                      {"line 2", "trailing garbage"});
}

TEST(GraphImport, AcceptsCrlfAndInlineComments) {
  std::istringstream is("3 2 U\r\n0 1 1.5 # first\r\n1 2 2.5\r\n");
  const ImportResult res =
      import_graph(is, temp_path("crlf.fgb"), ImportFormat::kEdgeList);
  EXPECT_EQ(res.edges, 2u);
  EXPECT_EQ(load_graph_binary(temp_path("crlf.fgb")).edge(0).w, 1.5);
}

TEST(GraphImport, MissingInputFileThrows) {
  EXPECT_THROW(import_graph_file("/nonexistent/in.gr", temp_path("x.fgb")),
               std::runtime_error);
}

}  // namespace
}  // namespace ftspan
