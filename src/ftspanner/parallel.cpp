#include "ftspanner/parallel.hpp"

#include "pipeline/burst_pipeline.hpp"

namespace ftspan {

std::vector<char> union_iterations(std::size_t iterations, std::size_t threads,
                                   std::size_t num_edges,
                                   const IterationBodyFactory& factory) {
  const std::size_t workers = resolve_threads(threads, iterations);

  // Per-worker mark buffers: the burst pipeline guarantees worker w's task
  // runs only on worker w's thread, so buffers[w] needs no synchronization
  // beyond the pipeline's own join.
  std::vector<std::vector<char>> buffers(workers,
                                         std::vector<char>(num_edges, 0));
  run_bursts(iterations, workers,
             [&buffers, &factory](std::size_t w) -> BurstTask {
               return [&marks = buffers[w],
                       body = factory(w)](std::size_t it) { body(it, marks); };
             });

  // Fold in worker order: OR is commutative, so this is determinism garnish —
  // but it keeps the merged buffer's construction reproducible too.
  std::vector<char> out = std::move(buffers[0]);
  for (std::size_t w = 1; w < workers; ++w)
    for (std::size_t i = 0; i < num_edges; ++i) out[i] |= buffers[w][i];
  return out;
}

std::vector<EdgeId> marks_to_edges(const std::vector<char>& marks) {
  std::vector<EdgeId> edges;
  for (std::size_t id = 0; id < marks.size(); ++id)
    if (marks[id]) edges.push_back(static_cast<EdgeId>(id));
  return edges;
}

}  // namespace ftspan
