#include "sketch/sketch.h"

#include <algorithm>

#include "bfs/multi_source.h"
#include "util/check.h"

#ifdef PBFS_TRACING
#include "obs/trace.h"
#endif

namespace pbfs {

DistanceBounds ClusterSketch::Query(Vertex s, Vertex t) const {
  PBFS_CHECK(s < num_vertices_ && t < num_vertices_);
  DistanceBounds bounds;
  if (s == t) {
    bounds.lower = 0;
    bounds.upper = 0;
    return bounds;
  }
  const size_t k = clusters_.size();
  const Level* ds = dist_.data() + static_cast<size_t>(s) * k;
  const Level* dt = dist_.data() + static_cast<size_t>(t) * k;
  const uint64_t* sb0 = bits0_.data() + static_cast<size_t>(s) * k;
  const uint64_t* tb0 = bits0_.data() + static_cast<size_t>(t) * k;
  const uint64_t* sb1 = bits1_.data() + static_cast<size_t>(s) * k;
  const uint64_t* tb1 = bits1_.data() + static_cast<size_t>(t) * k;
  for (size_t c = 0; c < k; ++c) {
    if (ds[c] == kLevelUnreached || dt[c] == kLevelUnreached) continue;
    // Within-cluster detour between the member nearest s and the member
    // nearest t: exact via the offset bitsets when they overlap at
    // distance 0/1/2, else bounded by the cluster diameter.
    uint32_t slack;
    if ((sb0[c] & tb0[c]) != 0) {
      slack = 0;
    } else if (((sb0[c] & tb1[c]) | (sb1[c] & tb0[c])) != 0) {
      slack = 1;
    } else if ((sb1[c] & tb1[c]) != 0) {
      slack = 2;
    } else {
      slack = clusters_[c].diameter;
    }
    TightenBounds(bounds, ds[c], dt[c], slack);
    // Pinched bounds are exact; later clusters cannot improve them.
    if (bounds.exact()) break;
  }
  ClampDistinctPair(bounds);
  return bounds;
}

std::shared_ptr<const ClusterSketch> BuildSketch(const Graph& graph,
                                                 uint64_t content_version,
                                                 Executor* executor,
                                                 const SketchOptions& options) {
  PBFS_CHECK(executor != nullptr);
  PBFS_CHECK(options.num_clusters > 0);
  PBFS_CHECK(options.cluster_size > 0 && options.cluster_size <= 64);
#ifdef PBFS_TRACING
  obs::ScopedSpan span("sketch.build");
  span.AddArg("clusters", static_cast<uint64_t>(options.num_clusters));
  span.AddArg("content_version", content_version);
#endif
  const Vertex n = graph.num_vertices();
  auto sketch = std::shared_ptr<ClusterSketch>(new ClusterSketch());
  sketch->num_vertices_ = n;
  sketch->content_version_ = content_version;
  if (n == 0) return sketch;

  const std::vector<Vertex> seeds =
      SelectSeeds(graph, options.num_clusters, options.strategy, options.seed);
  const size_t k = seeds.size();
  sketch->clusters_.reserve(k);
  // RunNearest fills in what each cluster's traversal reaches.
  sketch->dist_.assign(static_cast<size_t>(n) * k, kLevelUnreached);
  sketch->bits0_.assign(static_cast<size_t>(n) * k, 0);
  sketch->bits1_.assign(static_cast<size_t>(n) * k, 0);
  if (k == 0) return sketch;

  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(graph, 64, executor);
  for (size_t c = 0; c < k; ++c) {
    ClusterSketch::Cluster cluster;
    cluster.center = seeds[c];
    cluster.members.push_back(seeds[c]);
    for (Vertex neighbor : graph.Neighbors(seeds[c])) {
      if (cluster.members.size() >=
          static_cast<size_t>(options.cluster_size)) {
        break;
      }
      cluster.members.push_back(neighbor);
    }
    // One traversal fills this cluster's column of the vertex-major
    // store as it discovers each vertex.
    MultiSourceBfsBase::NearestColumns columns;
    columns.dist = sketch->dist_.data() + c;
    columns.bits0 = sketch->bits0_.data() + c;
    columns.bits1 = sketch->bits1_.data() + c;
    columns.stride = k;
    bfs->RunNearest(cluster.members, BfsOptions{}, columns);

    // Members are a center and its neighbors, so pairwise distances are
    // at most 2. A member's own entry has dist 0; the members it misses
    // in bits0 are at least 1 hop away, and those it misses in bits0 |
    // bits1 are 2 hops away.
    const uint64_t all = cluster.members.size() == 64
                             ? ~uint64_t{0}
                             : (uint64_t{1} << cluster.members.size()) - 1;
    Level diameter = 0;
    for (Vertex member : cluster.members) {
      const size_t slot = static_cast<size_t>(member) * k + c;
      const uint64_t b0 = sketch->bits0_[slot];
      const uint64_t b1 = sketch->bits1_[slot];
      if ((b0 | b1) != all) {
        diameter = 2;
      } else if (b0 != all) {
        diameter = std::max<Level>(diameter, 1);
      }
    }
    cluster.diameter = diameter;
    sketch->clusters_.push_back(std::move(cluster));
  }
#ifdef PBFS_TRACING
  span.AddArg("bytes", sketch->SketchBytes());
#endif
  return sketch;
}

}  // namespace pbfs
