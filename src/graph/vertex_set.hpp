// VertexSet: a fixed-universe bitset over the vertices of a graph.
//
// Used throughout as a *fault mask*: shortest-path routines and spanner
// constructions take a VertexSet of failed (or removed) vertices so that
// G \ F never needs to be materialized.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace ftspan {

class VertexSet {
 public:
  VertexSet() = default;

  /// Empty set over a universe of n vertices.
  explicit VertexSet(std::size_t n)
      : n_(n), blocks_((n + 63) / 64, 0) {}

  /// Set containing exactly the listed vertices.
  VertexSet(std::size_t n, std::initializer_list<Vertex> vs) : VertexSet(n) {
    for (Vertex v : vs) insert(v);
  }

  std::size_t universe_size() const { return n_; }

  bool contains(Vertex v) const {
    return (blocks_[v >> 6] >> (v & 63)) & 1u;
  }

  void insert(Vertex v) { blocks_[v >> 6] |= std::uint64_t{1} << (v & 63); }
  void erase(Vertex v) { blocks_[v >> 6] &= ~(std::uint64_t{1} << (v & 63)); }

  void clear() {
    for (auto& b : blocks_) b = 0;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (auto b : blocks_) c += static_cast<std::size_t>(std::popcount(b));
    return c;
  }

  bool empty() const {
    for (auto b : blocks_)
      if (b) return false;
    return true;
  }

  /// True iff this set and `other` share no vertex.
  bool disjoint_from(const VertexSet& other) const {
    const std::size_t k = std::min(blocks_.size(), other.blocks_.size());
    for (std::size_t i = 0; i < k; ++i)
      if (blocks_[i] & other.blocks_[i]) return false;
    return true;
  }

  /// True iff every vertex of this set is in `other`.
  bool subset_of(const VertexSet& other) const {
    const std::size_t k = std::min(blocks_.size(), other.blocks_.size());
    for (std::size_t i = 0; i < k; ++i)
      if (blocks_[i] & ~other.blocks_[i]) return false;
    for (std::size_t i = k; i < blocks_.size(); ++i)
      if (blocks_[i]) return false;
    return true;
  }

  VertexSet& operator|=(const VertexSet& other) {
    for (std::size_t i = 0; i < blocks_.size(); ++i)
      blocks_[i] |= other.blocks_[i];
    return *this;
  }

  /// Calls fn(v) for every member v, in increasing order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      std::uint64_t b = blocks_[i];
      while (b) {
        fn(static_cast<Vertex>(i * 64 + std::countr_zero(b)));
        b &= b - 1;
      }
    }
  }

  /// The members, in increasing order.
  std::vector<Vertex> to_vector() const {
    std::vector<Vertex> out;
    out.reserve(count());
    for_each([&out](Vertex v) { out.push_back(v); });
    return out;
  }

  /// Complement within the universe.
  VertexSet complement() const {
    VertexSet out(n_);
    for (std::size_t i = 0; i < blocks_.size(); ++i) out.blocks_[i] = ~blocks_[i];
    // Mask off bits beyond the universe.
    const std::size_t rem = n_ & 63;
    if (rem != 0 && !out.blocks_.empty())
      out.blocks_.back() &= (std::uint64_t{1} << rem) - 1;
    return out;
  }

  friend bool operator==(const VertexSet& a, const VertexSet& b) {
    return a.n_ == b.n_ && a.blocks_ == b.blocks_;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> blocks_;
};

}  // namespace ftspan
