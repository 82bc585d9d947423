#include "graph/parallel_build.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "graph/sort_unique.h"
#include "util/aligned_buffer.h"
#include "util/check.h"

namespace pbfs {
namespace {

constexpr uint32_t kEdgeSplit = 1 << 14;    // edges per task
constexpr uint32_t kVertexSplit = 1 << 12;  // vertices per task

}  // namespace

Graph BuildGraphParallel(Vertex num_vertices, std::span<const Edge> edges,
                         Executor* executor) {
  // Pass 1: degree counting over both edge directions (atomic, edges are
  // distributed over workers).
  AlignedBuffer<EdgeIndex> counts(static_cast<size_t>(num_vertices) + 1);
  counts.FillZero();
  executor->ParallelFor(edges.size(), kEdgeSplit, [&](int, uint64_t b,
                                                      uint64_t e) {
    for (uint64_t i = b; i < e; ++i) {
      const Edge& edge = edges[i];
      PBFS_CHECK(edge.u < num_vertices && edge.v < num_vertices);
      if (edge.u == edge.v) continue;
      std::atomic_ref<EdgeIndex>(counts[edge.u])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<EdgeIndex>(counts[edge.v])
          .fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Prefix sum -> provisional offsets (with duplicates still included).
  AlignedBuffer<EdgeIndex> raw_offsets(static_cast<size_t>(num_vertices) + 1);
  EdgeIndex total = 0;
  for (Vertex v = 0; v < num_vertices; ++v) {
    raw_offsets[v] = total;
    total += counts[v];
  }
  raw_offsets[num_vertices] = total;

  // Pass 2: owner-computes scatter. [0, n) is cut into one vertex range
  // per worker, each holding about 1/P of the slots; one task per range
  // scans the whole edge list and places only the endpoints inside its
  // range, through plain cursors (`counts` reused). Every slot and every
  // cursor has exactly one writer, so hub lists shared by all edges never
  // bounce between cores, and the fill order is the edge-list order.
  const int parts = std::max(1, executor->num_workers());
  std::vector<Vertex> bounds(static_cast<size_t>(parts) + 1, num_vertices);
  bounds[0] = 0;
  const EdgeIndex* first = raw_offsets.data();
  const EdgeIndex* last = first + num_vertices + 1;
  for (int p = 1; p < parts; ++p) {
    const EdgeIndex target = total * static_cast<EdgeIndex>(p) / parts;
    bounds[p] =
        static_cast<Vertex>(std::lower_bound(first, last, target) - first);
  }
  AlignedBuffer<Vertex> raw_targets(total);
  executor->ParallelFor(parts, 1, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t p = b; p < e; ++p) {
      const Vertex lo = bounds[p];
      const Vertex span = bounds[p + 1] - lo;
      if (span == 0) continue;
      for (Vertex v = lo; v < lo + span; ++v) counts[v] = raw_offsets[v];
      for (const Edge& edge : edges) {
        if (edge.u == edge.v) continue;
        if (edge.u - lo < span) raw_targets[counts[edge.u]++] = edge.v;
        if (edge.v - lo < span) raw_targets[counts[edge.v]++] = edge.u;
      }
    }
  });

  // Pass 3: per-vertex sort + in-place dedup (hub lists through a
  // per-worker bitmap, freed before compaction allocates); record unique
  // counts.
  {
    std::vector<std::vector<uint64_t>> bitmaps(parts);
    executor->ParallelFor(num_vertices, kVertexSplit, [&](int w, uint64_t b,
                                                          uint64_t e) {
      for (uint64_t v = b; v < e; ++v) {
        counts[v] = static_cast<EdgeIndex>(SortUniqueNeighbors(
            raw_targets.data() + raw_offsets[v],
            raw_targets.data() + raw_offsets[v + 1], num_vertices,
            &bitmaps[w]));
      }
    });
  }

  // Final offsets from unique counts, then parallel compaction.
  AlignedBuffer<EdgeIndex> offsets(static_cast<size_t>(num_vertices) + 1);
  EdgeIndex unique_total = 0;
  for (Vertex v = 0; v < num_vertices; ++v) {
    offsets[v] = unique_total;
    unique_total += counts[v];
  }
  offsets[num_vertices] = unique_total;

  AlignedBuffer<Vertex> targets(unique_total);
  executor->ParallelFor(num_vertices, kVertexSplit, [&](int, uint64_t b,
                                                        uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      const Vertex* src = raw_targets.data() + raw_offsets[v];
      std::copy(src, src + counts[v], targets.data() + offsets[v]);
    }
  });

  return Graph::FromCsr(num_vertices, std::move(offsets),
                        std::move(targets));
}

}  // namespace pbfs
