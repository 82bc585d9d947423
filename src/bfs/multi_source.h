// Multi-source BFS — the MS-BFS baseline (Then et al., VLDB 2015) and
// the paper's parallel MS-PBFS.
//
// Both traverse from a batch of up to `width` sources concurrently,
// encoding per-vertex membership in `width`-bit bitsets (`seen`,
// `frontier`, `next`) and merging traversals through bitwise operations
// (Listings 1 and 2 of the paper). Differences:
//
// * MS-BFS (baseline): strictly sequential; buffers are cleared with a
//   separate pass per iteration; bottom-up scans every neighbor.
// * MS-PBFS: all vertex loops run on an Executor (work-stealing pool);
//   the first top-down phase resolves write conflicts with per-word
//   atomic ORs that skip unchanged words; the frontier is cleared inside
//   the traversal loops so its buffer can be reused as `next` without a
//   separate clearing pass; bottom-up stops scanning a vertex's
//   neighbors once every concurrent BFS is accounted for.
//
// Instances own their BFS state and may be reused across batches; this
// is what keeps MS-PBFS's memory footprint at a single instance
// regardless of thread count (Figure 3).
#ifndef PBFS_BFS_MULTI_SOURCE_H_
#define PBFS_BFS_MULTI_SOURCE_H_

#include <memory>
#include <span>

#include "bfs/common.h"
#include "graph/graph.h"
#include "sched/executor.h"
#include "util/check.h"

namespace pbfs {

// Bitset widths supported by the runtime dispatchers.
inline constexpr int kSupportedWidths[] = {64, 128, 256, 512, 1024};

inline bool IsSupportedWidth(int width) {
  for (int w : kSupportedWidths) {
    if (w == width) return true;
  }
  return false;
}

class MultiSourceBfsBase {
 public:
  virtual ~MultiSourceBfsBase() = default;

  // Runs one batch of at most width() sources. If `levels` is non-null
  // it must hold sources.size() * num_vertices entries and receives
  // levels[i * n + v] = distance of v from sources[i] (kLevelUnreached
  // if v is not reachable).
  virtual MsBfsResult Run(std::span<const Vertex> sources,
                          const BfsOptions& options, Level* levels) = 0;

  // Where RunNearest records, for each vertex v, the distance to the
  // nearest source and which sources sit at that distance and one hop
  // further: dist[v * stride], bits0[v * stride], bits1[v * stride].
  // Bit i stands for sources[i].
  struct NearestColumns {
    Level* dist = nullptr;
    uint64_t* bits0 = nullptr;
    uint64_t* bits1 = nullptr;
    size_t stride = 1;
  };

  // Runs one batch of at most 64 sources and fills `columns`:
  // dist = min over i of d(v, sources[i]), bits0 = the sources at dist,
  // bits1 = the sources at dist + 1. The kernel records them as it
  // discovers each vertex, so no level rows are written. Every entry
  // must hold dist = kLevelUnreached and bits0 = bits1 = 0 on entry;
  // vertices no source reaches keep those values. Only MS-PBFS
  // implements it.
  virtual MsBfsResult RunNearest(std::span<const Vertex> /*sources*/,
                                 const BfsOptions& /*options*/,
                                 const NearestColumns& /*columns*/) {
    PBFS_CHECK(false && "RunNearest is implemented by MS-PBFS only");
    return {};
  }

  virtual int width() const = 0;

  // Bytes of dynamic BFS state held by this instance (the Figure 3
  // memory accounting: 3 width-bit bitsets per vertex).
  virtual uint64_t StateBytes() const = 0;
};

// Sequential MS-BFS baseline. `width` must be one of kSupportedWidths.
std::unique_ptr<MultiSourceBfsBase> MakeMsBfs(const Graph& graph, int width);

// The paper's parallel MS-PBFS, running its loops on `executor` (not
// owned; must outlive the instance). Pass a SerialExecutor to get the
// paper's "MS-PBFS (sequential)" variant.
std::unique_ptr<MultiSourceBfsBase> MakeMsPbfs(const Graph& graph, int width,
                                               Executor* executor);

// Joint-frontier-queue multi-source BFS — a CPU adaptation of the iBFS
// design the paper compares against (Sections 1 and 6). Like MS-BFS it
// encodes per-vertex BFS membership in width-bit bitsets, but instead
// of scanning the whole vertex array each iteration it keeps a sparse
// queue of the distinct vertices active in any BFS (the "JFQ") and is
// purely top-down. Competitive when frontiers are tiny relative to the
// graph; loses to the array-based algorithms in the hot phase, which is
// exactly the trade-off the paper discusses. Sequential.
std::unique_ptr<MultiSourceBfsBase> MakeJfqMsBfs(const Graph& graph,
                                                 int width);

// State bytes for one instance at a given width (3 bitset arrays), used
// by the Figure 3 model without instantiating anything.
inline uint64_t MultiSourceStateBytes(Vertex num_vertices, int width) {
  return 3ull * num_vertices * (static_cast<uint64_t>(width) / 8);
}

}  // namespace pbfs

#endif  // PBFS_BFS_MULTI_SOURCE_H_
