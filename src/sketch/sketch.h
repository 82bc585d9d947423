// Cluster-BFS distance sketches ("Parallel Cluster-BFS and
// Applications to Shortest Paths", arXiv 2410.17226): instead of one
// BFS per landmark vertex, each seed is a *cluster* — a center plus up
// to 63 of its neighbors — traversed as one 64-wide MS-PBFS batch.
// Because the batch shares one traversal, every vertex learns not just
// its distance to the cluster but *which members* sit at that distance
// and at distance+1, encoded as two 64-bit offset bitsets. At query
// time those bitsets turn the generic cluster detour bound (the
// cluster diameter) into an exact member-to-member slack of 0, 1, or 2
// hops, so k clusters give far tighter upper bounds than k landmarks
// for the same number of traversals.
//
// Per (vertex, cluster) the store keeps:
//   dist:  min over members m of d(v, m)        (Level, 2 bytes)
//   bits0: members with d(v, m) == dist         (uint64)
//   bits1: members with d(v, m) == dist + 1     (uint64)
// laid out vertex-major so one query touches two contiguous k-entry
// rows — 18 bytes per cluster per vertex. MS-PBFS records the three
// values as it discovers each vertex (MultiSourceBfsBase::RunNearest):
// dist and bits0 at the first discovery, bits1 at the next level's; no
// level rows are written.
//
// A sketch is immutable and tagged with the content_version of the
// snapshot it was built from; see sketch/rebuilder.h for the
// background refresh loop and engine/query_engine.h for how stale
// sketches degrade to exact traversals instead of wrong answers.
#ifndef PBFS_SKETCH_SKETCH_H_
#define PBFS_SKETCH_SKETCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "sched/executor.h"
#include "sketch/bounds.h"
#include "sketch/seed_select.h"

namespace pbfs {

struct SketchOptions {
  // Seed clusters; one MS-PBFS traversal each. More clusters = tighter
  // bounds, linearly more memory and query time.
  int num_clusters = 16;
  // Members per cluster including the center; at most 64 (one offset
  // bit per member). The cluster spans the center plus its first
  // cluster_size - 1 neighbors, so its diameter is at most 2.
  int cluster_size = 64;
  SeedStrategy strategy = SeedStrategy::kHighestDegree;
  uint64_t seed = 1;
};

class ClusterSketch {
 public:
  struct Cluster {
    Vertex center = 0;
    // members[0] is the center; the rest are neighbors, <= 64 total.
    std::vector<Vertex> members;
    // Max pairwise member hop distance — the fallback detour slack
    // when the offset bitsets don't overlap.
    Level diameter = 0;
  };

  // Bounds on d(s, t) from all clusters, O(num_clusters). Thread-safe
  // (the sketch is immutable). If no cluster reaches both endpoints
  // the upper bound is kLevelUnreached; the vertices may still be
  // connected through an uncovered region.
  DistanceBounds Query(Vertex s, Vertex t) const;

  // Content version of the snapshot this sketch was built from.
  uint64_t content_version() const { return content_version_; }
  Vertex num_vertices() const { return num_vertices_; }
  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const std::vector<Cluster>& clusters() const { return clusters_; }
  uint64_t SketchBytes() const {
    return dist_.size() * sizeof(Level) +
           (bits0_.size() + bits1_.size()) * sizeof(uint64_t);
  }

 private:
  friend std::shared_ptr<const ClusterSketch> BuildSketch(
      const Graph& graph, uint64_t content_version, Executor* executor,
      const SketchOptions& options);

  ClusterSketch() = default;

  Vertex num_vertices_ = 0;
  uint64_t content_version_ = 0;
  std::vector<Cluster> clusters_;
  // Vertex-major SoA, entry v * num_clusters + c.
  std::vector<Level> dist_;
  std::vector<uint64_t> bits0_;
  std::vector<uint64_t> bits1_;
};

// Builds a sketch over `graph` with one MS-PBFS pass per cluster, each
// writing its cluster's column of the store directly.
// `content_version` is stamped onto the result for staleness checks;
// pass the owning snapshot's content_version (or any constant when
// sketching a standalone graph).
std::shared_ptr<const ClusterSketch> BuildSketch(const Graph& graph,
                                                 uint64_t content_version,
                                                 Executor* executor,
                                                 const SketchOptions& options);

}  // namespace pbfs

#endif  // PBFS_SKETCH_SKETCH_H_
