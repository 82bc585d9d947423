#include "graph/labeling.h"

#include <algorithm>
#include <numeric>

#include "graph/sort_unique.h"
#include "util/check.h"
#include "util/rng.h"

namespace pbfs {

const char* LabelingName(Labeling labeling) {
  switch (labeling) {
    case Labeling::kIdentity:
      return "identity";
    case Labeling::kRandom:
      return "random";
    case Labeling::kDegreeOrdered:
      return "ordered";
    case Labeling::kStriped:
      return "striped";
  }
  return "unknown";
}

std::vector<Vertex> VerticesByDegreeDescending(const Graph& graph) {
  // Counting sort on max_degree - degree; each bucket is filled in
  // vertex order, so ties keep ascending ids.
  const Vertex n = graph.num_vertices();
  const EdgeIndex max_degree = graph.MaxDegree();
  std::vector<Vertex> order(n);
  std::vector<Vertex> bucket_start(static_cast<size_t>(max_degree) + 2, 0);
  for (Vertex v = 0; v < n; ++v) {
    ++bucket_start[max_degree - graph.Degree(v) + 1];
  }
  for (size_t b = 1; b < bucket_start.size(); ++b) {
    bucket_start[b] += bucket_start[b - 1];
  }
  for (Vertex v = 0; v < n; ++v) {
    order[bucket_start[max_degree - graph.Degree(v)]++] = v;
  }
  return order;
}

std::vector<Vertex> StripedPermutationFromRanks(
    const std::vector<Vertex>& vertices_by_rank, const StripeShape& shape) {
  PBFS_CHECK(shape.num_workers > 0);
  PBFS_CHECK(shape.split_size > 0);
  const size_t n = vertices_by_rank.size();
  const uint64_t workers = static_cast<uint64_t>(shape.num_workers);
  const uint64_t split = shape.split_size;
  const uint64_t row = workers * split;  // one task per worker

  std::vector<Vertex> perm(n, kInvalidVertex);
  size_t rank = 0;
  uint64_t row_base = 0;
  // Full rows: closed-form round-robin placement.
  while (row_base + row <= n && rank < n) {
    for (uint64_t within = 0; within < row; ++within, ++rank) {
      uint64_t task = within % workers;
      uint64_t slot = within / workers;
      perm[vertices_by_rank[rank]] =
          static_cast<Vertex>(row_base + task * split + slot);
    }
    row_base += row;
  }
  // Final partial row: deal remaining ranks across the (possibly
  // truncated) task ranges slot-by-slot, skipping positions past n.
  if (rank < n) {
    for (uint64_t slot = 0; slot < split && rank < n; ++slot) {
      for (uint64_t task = 0; task < workers && rank < n; ++task) {
        uint64_t pos = row_base + task * split + slot;
        if (pos >= n) continue;
        perm[vertices_by_rank[rank++]] = static_cast<Vertex>(pos);
      }
    }
  }
  return perm;
}

std::vector<Vertex> ComputeLabeling(const Graph& graph, Labeling labeling,
                                    const StripeShape& shape, uint64_t seed) {
  const Vertex n = graph.num_vertices();
  std::vector<Vertex> perm(n);
  switch (labeling) {
    case Labeling::kIdentity: {
      std::iota(perm.begin(), perm.end(), Vertex{0});
      break;
    }
    case Labeling::kRandom: {
      std::iota(perm.begin(), perm.end(), Vertex{0});
      Rng rng(seed);
      for (Vertex i = n; i > 1; --i) {
        Vertex j = static_cast<Vertex>(rng.NextBounded(i));
        std::swap(perm[i - 1], perm[j]);
      }
      break;
    }
    case Labeling::kDegreeOrdered: {
      std::vector<Vertex> order = VerticesByDegreeDescending(graph);
      for (Vertex rank = 0; rank < n; ++rank) perm[order[rank]] = rank;
      break;
    }
    case Labeling::kStriped: {
      perm = StripedPermutationFromRanks(VerticesByDegreeDescending(graph),
                                         shape);
      break;
    }
  }
  return perm;
}

Graph ApplyLabeling(const Graph& graph, const std::vector<Vertex>& perm) {
  const Vertex n = graph.num_vertices();
  PBFS_CHECK(perm.size() == n);
  AlignedBuffer<EdgeIndex> offsets(static_cast<size_t>(n) + 1);
  AlignedBuffer<Vertex> targets(graph.num_directed_edges());

  // Degrees under the new labels.
  offsets[0] = 0;
  {
    std::vector<EdgeIndex> degree(n, 0);
    for (Vertex old_id = 0; old_id < n; ++old_id) {
      degree[perm[old_id]] = graph.Degree(old_id);
    }
    EdgeIndex total = 0;
    for (Vertex v = 0; v < n; ++v) {
      offsets[v] = total;
      total += degree[v];
    }
    offsets[n] = total;
  }

  std::vector<Vertex> inverse(n);
  for (Vertex old_id = 0; old_id < n; ++old_id) inverse[perm[old_id]] = old_id;

  for (Vertex new_id = 0; new_id < n; ++new_id) {
    Vertex old_id = inverse[new_id];
    EdgeIndex out = offsets[new_id];
    for (Vertex t : graph.Neighbors(old_id)) targets[out++] = perm[t];
    std::sort(targets.data() + offsets[new_id], targets.data() + out);
  }
  return Graph::FromCsr(n, std::move(offsets), std::move(targets));
}

Graph ApplyLabelingParallel(const Graph& graph,
                            const std::vector<Vertex>& perm,
                            Executor* executor) {
  const Vertex n = graph.num_vertices();
  PBFS_CHECK(perm.size() == n);
  AlignedBuffer<EdgeIndex> offsets(static_cast<size_t>(n) + 1);
  AlignedBuffer<Vertex> targets(graph.num_directed_edges());

  std::vector<Vertex> inverse(n);
  std::vector<EdgeIndex> degree(n);
  executor->ParallelFor(n, 1 << 14, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t old_id = b; old_id < e; ++old_id) {
      inverse[perm[old_id]] = static_cast<Vertex>(old_id);
      degree[perm[old_id]] = graph.Degree(static_cast<Vertex>(old_id));
    }
  });

  // Offsets are a sequential prefix sum (memory-bound, negligible).
  EdgeIndex total = 0;
  for (Vertex v = 0; v < n; ++v) {
    offsets[v] = total;
    total += degree[v];
  }
  offsets[n] = total;

  // Lists are distinct already, so the sort must keep every id; a
  // shorter result means `perm` maps two neighbors to one id.
  std::vector<std::vector<uint64_t>> bitmaps(
      std::max(1, executor->num_workers()));
  executor->ParallelFor(n, 1 << 12, [&](int w, uint64_t b, uint64_t e) {
    for (uint64_t new_id = b; new_id < e; ++new_id) {
      const Vertex old_id = inverse[new_id];
      Vertex* const begin = targets.data() + offsets[new_id];
      Vertex* end = begin;
      for (Vertex t : graph.Neighbors(old_id)) *end++ = perm[t];
      const size_t kept = SortUniqueNeighbors(begin, end, n, &bitmaps[w]);
      PBFS_CHECK(kept == static_cast<size_t>(end - begin));
    }
  });
  return Graph::FromCsr(n, std::move(offsets), std::move(targets));
}

Graph SortNeighborsByDegree(const Graph& graph, Executor* executor) {
  const Vertex n = graph.num_vertices();
  AlignedBuffer<EdgeIndex> offsets(static_cast<size_t>(n) + 1);
  AlignedBuffer<Vertex> targets(graph.num_directed_edges());
  for (Vertex v = 0; v <= n; ++v) offsets[v] = graph.offsets()[v];
  executor->ParallelFor(n, 1 << 12, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      Vertex* out = targets.data() + offsets[v];
      std::span<const Vertex> neighbors = graph.Neighbors(
          static_cast<Vertex>(v));
      std::copy(neighbors.begin(), neighbors.end(), out);
      std::sort(out, out + neighbors.size(), [&graph](Vertex a, Vertex b2) {
        const EdgeIndex da = graph.Degree(a);
        const EdgeIndex db = graph.Degree(b2);
        if (da != db) return da > db;
        return a < b2;
      });
    }
  });
  return Graph::FromCsr(n, std::move(offsets), std::move(targets));
}

bool IsPermutation(const std::vector<Vertex>& perm) {
  std::vector<bool> hit(perm.size(), false);
  for (Vertex p : perm) {
    if (p >= perm.size() || hit[p]) return false;
    hit[p] = true;
  }
  return true;
}

}  // namespace pbfs
