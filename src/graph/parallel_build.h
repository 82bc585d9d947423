// Parallel CSR construction (Graph500 kernel 1 on the worker pool).
//
// Produces exactly the same graph as Graph::FromEdges — symmetrized,
// self-loop free, deduplicated, sorted adjacency — but builds it with
// vertex- and edge-parallel passes: atomic degree counting, an
// owner-computes scatter (the vertices are cut into one range per worker
// holding about 1/P of the adjacency slots, and each range is filled by
// one task that scans the whole edge list, so no slot or cursor is
// shared), per-vertex parallel sort/dedup, and a final parallel
// compaction. Useful for the large generated graphs of the scaling
// experiments, where sequential construction dominates end-to-end time.
#ifndef PBFS_GRAPH_PARALLEL_BUILD_H_
#define PBFS_GRAPH_PARALLEL_BUILD_H_

#include <span>

#include "graph/graph.h"
#include "graph/types.h"
#include "sched/executor.h"

namespace pbfs {

// Builds a graph with vertices [0, num_vertices) from an arbitrary edge
// list, running the construction passes on `executor`.
Graph BuildGraphParallel(Vertex num_vertices, std::span<const Edge> edges,
                         Executor* executor);

}  // namespace pbfs

#endif  // PBFS_GRAPH_PARALLEL_BUILD_H_
