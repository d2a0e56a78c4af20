#include "ftspanner/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "pipeline/burst_pipeline.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

TEST(ResolveThreads, ZeroMeansHardware) {
  EXPECT_EQ(resolve_threads(0, 100000),
            std::min(hardware_threads(), kMaxWorkers));
}

TEST(ResolveThreads, ClampedToIterations) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(8, 0), 1u);  // never 0 workers
  EXPECT_EQ(resolve_threads(2, 1000), 2u);
}

TEST(ResolveThreads, BogusRequestHitsTheCeiling) {
  EXPECT_EQ(resolve_threads(static_cast<std::size_t>(-1), 1u << 20),
            kMaxWorkers);
}

/// A factory that hands every worker the same stateless body.
IterationBodyFactory every_worker(IterationBody body) {
  return [body = std::move(body)](std::size_t) { return body; };
}

TEST(UnionIterations, SingleThreadMatchesManualLoop) {
  const auto body = [](std::size_t it, std::vector<char>& marks) {
    marks[it % marks.size()] = 1;
  };
  const auto marks = union_iterations(5, 1, 3, every_worker(body));
  EXPECT_EQ(marks, (std::vector<char>{1, 1, 1}));
  EXPECT_EQ(marks_to_edges(marks), (std::vector<EdgeId>{0, 1, 2}));
}

TEST(UnionIterations, ThreadCountInvariant) {
  const auto body = [](std::size_t it, std::vector<char>& marks) {
    marks[(it * 7) % marks.size()] = 1;
  };
  const auto one = union_iterations(20, 1, 50, every_worker(body));
  const auto four = union_iterations(20, 4, 50, every_worker(body));
  EXPECT_EQ(one, four);
}

TEST(UnionIterations, RethrowsBodyException) {
  const IterationBody body = [](std::size_t it, std::vector<char>&) {
    if (it == 3) throw std::invalid_argument("it 3");
  };
  EXPECT_THROW(union_iterations(8, 4, 2, every_worker(body)), std::invalid_argument);
}

// The engine's headline guarantee: for the same seed, the conversion's edge
// set does not depend on the thread count — the vertex-fault path...
TEST(ParallelConversion, VertexFaultBitIdenticalToSequential) {
  const Graph g = gnp(48, 0.3, 21);
  for (const std::uint64_t seed : {1ULL, 99ULL, 31337ULL}) {
    ConversionOptions seq_opt;
    seq_opt.threads = 1;
    const auto seq = ft_greedy_spanner(g, 3.0, 2, seed, seq_opt);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      ConversionOptions par_opt;
      par_opt.threads = threads;
      const auto par = ft_greedy_spanner(g, 3.0, 2, seed, par_opt);
      EXPECT_EQ(par.edges, seq.edges) << "threads=" << threads;
      EXPECT_EQ(par.max_survivors, seq.max_survivors);
      EXPECT_EQ(par.iterations, seq.iterations);
    }
  }
}

// ...and the edge-fault path.
TEST(ParallelConversion, EdgeFaultBitIdenticalToSequential) {
  const Graph g = gnp(40, 0.3, 5);
  for (const std::uint64_t seed : {7ULL, 1234ULL}) {
    ConversionOptions seq_opt;
    seq_opt.threads = 1;
    const auto seq = ft_edge_greedy_spanner(g, 3.0, 2, seed, seq_opt);
    for (const std::size_t threads : {3u, 8u}) {
      ConversionOptions par_opt;
      par_opt.threads = threads;
      const auto par = ft_edge_greedy_spanner(g, 3.0, 2, seed, par_opt);
      EXPECT_EQ(par.edges, seq.edges) << "threads=" << threads;
    }
  }
}

TEST(ParallelConversion, ThreadsZeroUsesHardwareAndStaysDeterministic) {
  const Graph g = gnp(32, 0.4, 11);
  ConversionOptions auto_opt;
  auto_opt.threads = 0;
  ConversionOptions seq_opt;
  seq_opt.threads = 1;
  const auto a = ft_greedy_spanner(g, 3.0, 1, 42, auto_opt);
  const auto b = ft_greedy_spanner(g, 3.0, 1, 42, seq_opt);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_GE(a.threads_used, 1u);
}

TEST(ParallelConversion, ParallelOutputIsStillValid) {
  const Graph g = gnp(16, 0.5, 3);
  ConversionOptions opt;
  opt.threads = 4;
  const auto res = ft_greedy_spanner(g, 3.0, 2, 17, opt);
  // Determinism aside, the parallel union must still be fault tolerant.
  const Graph h = g.edge_subgraph(res.edges);
  EXPECT_TRUE(StretchOracle(g, h, 3.0).check_exact(2).valid);
}

}  // namespace
}  // namespace ftspan
