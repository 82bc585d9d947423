// Sorting and deduplicating one adjacency list in place, the step that
// both the parallel CSR build and the parallel relabel run per vertex.
//
// Long lists go through an n-bit bitmap: set one bit per id, then read
// the set bits back in ascending order, clearing them as they go. That
// costs O(d + (max - min) / 64) for a list of d ids spanning [min, max],
// against O(d log d) for std::sort, and a hub list of a skewed graph
// holds a large share of all edges. Short lists keep std::sort and
// std::unique. The output is the same either way.
#ifndef PBFS_GRAPH_SORT_UNIQUE_H_
#define PBFS_GRAPH_SORT_UNIQUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace pbfs {

// Lists of at least n / kBitmapSortDivisor ids take the bitmap. CSR
// build plus striped relabel of a scale-21 Kronecker graph (edge factor
// 16), 4 workers on a 4-vCPU Xeon VM, 4 runs each: 2.44-3.36 s with
// std::sort everywhere; with the bitmap from n/1024 1.78-2.17 s, n/4096
// 1.68-1.83 s, n/8192 1.82-1.90 s, n/16384 1.96-2.09 s.
inline constexpr Vertex kBitmapSortDivisor = 4096;

// Sorts [begin, end) ascending, removes repeated ids, and returns how
// many distinct ids are left at the front of the range. Every id must
// be below `n`. `bitmap` is scratch owned by one worker: empty, or a
// bitmap from an earlier call with the same `n`, which leaves it all
// zero.
size_t SortUniqueNeighbors(Vertex* begin, Vertex* end, Vertex n,
                           std::vector<uint64_t>* bitmap);

}  // namespace pbfs

#endif  // PBFS_GRAPH_SORT_UNIQUE_H_
