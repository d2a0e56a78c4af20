#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "support/temp_path.hpp"

namespace ftspan {
namespace {

TEST(GraphIo, RoundTripUndirected) {
  const Graph g = gnp(40, 0.2, 3, 5.0);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(h.edge(i).u, g.edge(i).u);
    EXPECT_EQ(h.edge(i).v, g.edge(i).v);
    EXPECT_DOUBLE_EQ(h.edge(i).w, g.edge(i).w);
  }
}

TEST(GraphIo, RoundTripDirected) {
  const Digraph g = di_gnp(20, 0.2, 5, 3.0);
  std::stringstream ss;
  write_digraph(ss, g);
  const Digraph h = read_digraph(ss);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(h.edge(i).u, g.edge(i).u);
    EXPECT_EQ(h.edge(i).v, g.edge(i).v);
  }
}

TEST(GraphIo, CommentsAndBlankLinesSkipped) {
  std::stringstream ss("# a comment\n\n3 1 u\n# another\n0 1 2.5\n");
  const Graph g = read_graph(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 2.5);
}

TEST(GraphIo, CrlfLineEndingsAccepted) {
  std::stringstream ss("3 1 u\r\n0 1 2.5\r\n");
  const Graph g = read_graph(ss);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 2.5);
}

TEST(GraphIo, TrailingWhitespaceAccepted) {
  std::stringstream ss("3 1 u   \t\n0 1 2.5 \t \n");
  const Graph g = read_graph(ss);
  ASSERT_EQ(g.num_edges(), 1u);
}

TEST(GraphIo, HeaderKindIsCaseInsensitive) {
  std::stringstream upper("3 1 U\n0 1 2.5\n");
  EXPECT_EQ(read_graph(upper).num_edges(), 1u);
  std::stringstream upper_d("3 1 D\n0 1 2.5\n");
  EXPECT_EQ(read_digraph(upper_d).num_edges(), 1u);
}

TEST(GraphIo, InlineCommentsAccepted) {
  std::stringstream ss("3 1 u # header comment\n0 1 2.5 # edge comment\n");
  const Graph g = read_graph(ss);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 2.5);
}

TEST(GraphIo, TrailingGarbageOnHeaderThrows) {
  std::stringstream ss("3 1 u garbage\n0 1 2.5\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, TrailingGarbageOnEdgeThrows) {
  std::stringstream ss("3 1 u\n0 1 2.5 garbage\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, MalformedHeaderThrows) {
  std::stringstream ss("oops\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, WrongKindThrows) {
  std::stringstream ss("3 0 d\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
  std::stringstream ss2("3 0 u\n");
  EXPECT_THROW(read_digraph(ss2), std::runtime_error);
}

TEST(GraphIo, TruncatedEdgeListThrows) {
  std::stringstream ss("3 2 u\n0 1 1.0\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, NegativeWeightThrows) {
  // Label-setting Dijkstra is wrong on negative lengths; the importer
  // already refuses them, and so does every -i path through this reader.
  std::stringstream ss("3 2 u\n0 1 -4\n1 2 1\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
  std::stringstream ss2("3 1 d\n0 1 -0.5\n");
  EXPECT_THROW(read_digraph(ss2), std::runtime_error);
  std::stringstream zero("3 1 u\n0 1 0\n");  // zero stays a valid length
  EXPECT_EQ(read_graph(zero).num_edges(), 1u);
}

TEST(GraphIo, EdgeLinesPastHeaderCountThrow) {
  std::stringstream ss("3 1 u\n0 1 1\n1 2 1\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
  std::stringstream ss2("3 1 d\n0 1 1\n1 2 1\n");
  EXPECT_THROW(read_digraph(ss2), std::runtime_error);
  // Trailing comments and blank lines are not edge lines.
  std::stringstream ok("3 1 u\n0 1 1\n\n# end\n");
  EXPECT_EQ(read_graph(ok).num_edges(), 1u);
}

TEST(GraphIo, MalformedEdgeThrows) {
  std::stringstream ss("3 1 u\n0 x 1.0\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, SaveLoadFile) {
  const Graph g = grid(3, 3);
  const std::string path = test::temp_path("io_test.txt");
  save_graph(path, g);
  const Graph h = load_graph(path);
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent/dir/file.txt"), std::runtime_error);
}

}  // namespace
}  // namespace ftspan
