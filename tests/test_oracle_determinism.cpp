// Determinism regression for the StretchOracle's fault-set fan-out: the
// worst witness and the whole FtCheckResult must be bit-identical for every
// thread count, under vertex and edge faults alike (same pattern as
// tests/test_parallel.cpp for the conversion engine).
#include <gtest/gtest.h>

#include "ftspanner/conversion.hpp"
#include "graph/generators.hpp"
#include "spanner/greedy.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

void expect_bit_identical(const FtCheckResult& a, const FtCheckResult& b,
                          std::size_t threads) {
  EXPECT_EQ(a.valid, b.valid) << "threads=" << threads;
  // EXPECT_EQ (not NEAR): the fold must produce the same double bit for bit.
  EXPECT_EQ(a.worst_stretch, b.worst_stretch) << "threads=" << threads;
  EXPECT_EQ(a.witness_faults, b.witness_faults) << "threads=" << threads;
  EXPECT_EQ(a.witness_u, b.witness_u) << "threads=" << threads;
  EXPECT_EQ(a.witness_v, b.witness_v) << "threads=" << threads;
  EXPECT_EQ(a.fault_sets_checked, b.fault_sets_checked)
      << "threads=" << threads;
  EXPECT_EQ(a.searches, b.searches) << "threads=" << threads;
}

/// Runs `check` on one thread, then at 2, 4 and 8, and expects every run to
/// match the first bit for bit. Returns the one-thread result.
template <class Check>
FtCheckResult expect_thread_invariant(const Check& check) {
  FtCheckOptions seq;
  seq.threads = 1;
  const FtCheckResult base = check(seq);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    FtCheckOptions par;
    par.threads = threads;
    expect_bit_identical(base, check(par), threads);
  }
  return base;
}

TEST(OracleDeterminism, ExactCheckBitIdenticalAcrossThreads) {
  // An invalid spanner, so the worst witness is nontrivial — under vertex
  // faults and under edge faults (where the witness is a set of edge ids).
  const Graph g = complete(12);
  const Graph h = star(12);
  const StretchOracle oracle(g, h, 2.0);
  EXPECT_FALSE(expect_thread_invariant([&](const FtCheckOptions& opt) {
                 return oracle.check_exact(2, opt);
               }).valid);
  EXPECT_FALSE(expect_thread_invariant([&](const FtCheckOptions& opt) {
                 return oracle.check_exact_edges(2, opt);
               }).valid);
}

TEST(OracleDeterminism, SampledCheckBitIdenticalAcrossThreads) {
  const Graph g = gnp(60, 0.15, 21, 4.0);
  const Graph h = greedy_spanner_graph(g, 3.0);  // not fault tolerant
  const StretchOracle oracle(g, h, 3.0);
  expect_thread_invariant([&](const FtCheckOptions& opt) {
    return oracle.check_sampled(2, 24, 16, 77, opt);
  });
  expect_thread_invariant([&](const FtCheckOptions& opt) {
    return oracle.check_sampled_edges(2, 24, 16, 77, opt);
  });
}

TEST(OracleDeterminism, ValidConversionOutputBitIdenticalAcrossThreads) {
  // A valid FT spanner: the witness is the worst non-violating pair.
  const Graph g = gnp(24, 0.4, 3);
  const auto ft = ft_greedy_spanner(g, 3.0, 1, 9);
  const Graph h = g.edge_subgraph(ft.edges);
  const StretchOracle oracle(g, h, 3.0);
  const FtCheckResult base = oracle.check_exact(1);
  for (const std::size_t threads : {2u, 8u}) {
    FtCheckOptions opt;
    opt.threads = threads;
    expect_bit_identical(base, oracle.check_exact(1, opt), threads);
  }
}

TEST(OracleDeterminism, ThreadsZeroMeansHardwareAndStaysDeterministic) {
  const Graph g = complete(14);
  const Graph h = star(14);
  const StretchOracle oracle(g, h, 2.0);
  FtCheckOptions all;
  all.threads = 0;
  expect_bit_identical(oracle.check_exact(1), oracle.check_exact(1, all), 0);
}

}  // namespace
}  // namespace ftspan
