#include "graph/sp_engine.hpp"

namespace ftspan {

void DijkstraEngine::reserve(std::size_t n, std::size_t heap_hint) {
  ensure(n);
  heap_.reserve(heap_hint);
  bucket_.reserve(heap_hint);
}

void DijkstraEngine::BucketQueue::push_open(Weight d, Vertex v) {
  open_.push(d, v);
}

DijkstraEngine::QueueItem DijkstraEngine::BucketQueue::pop_open() {
  open_next_if_drained();
  return open_.pop();
}

void DijkstraEngine::BucketQueue::open_next_if_drained() {
  if (!open_.empty()) return;
  const std::size_t b = advance();
  for (std::uint32_t i = heads_[b]; i != kNil; i = slab_[i].next)
    open_.push(slab_[i].d, slab_[i].v);
  heads_[b] = kNil;
}

void DijkstraEngine::ensure(std::size_t n) {
  if (stamp_.size() >= n) return;
  stamp_.resize(n, 0);
  done_.resize(n, 0);
  target_stamp_.resize(n, 0);
  dist_.resize(n);
  parent_.resize(n);
  via_.resize(n);
  order_.reserve(n);
}

void DijkstraEngine::next_epoch() {
  if (++epoch_ != 0) return;
  // 32-bit epoch wrapped: stamps from runs 2^32 epochs ago would otherwise
  // read as current. Reset them all and restart the counter at 1 (0 is the
  // "never stamped" state).
  std::fill(stamp_.begin(), stamp_.end(), 0u);
  std::fill(done_.begin(), done_.end(), 0u);
  std::fill(target_stamp_.begin(), target_stamp_.end(), 0u);
  epoch_ = 1;
}

}  // namespace ftspan
