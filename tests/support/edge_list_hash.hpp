// A fingerprint of a graph's input, for the tests that pin instances.
//
// FNV-1a over every edge's (u, v, bits of w), in edge-id order, each field
// as 8 little-endian bytes. A different libm under a generator or a
// reweight moves it, so a test that pins it fails as an input check
// instead of silently moving an output golden.
#pragma once

#include <bit>
#include <cstdint>

#include "graph/graph.hpp"

namespace ftspan::test {

inline std::uint64_t edge_list_hash(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    mix(e.u);
    mix(e.v);
    mix(std::bit_cast<std::uint64_t>(e.w));
  }
  return h;
}

}  // namespace ftspan::test
