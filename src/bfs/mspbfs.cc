// MS-PBFS — the paper's parallel multi-source BFS (Section 3.1).
//
// Both top-down phases and the bottom-up loop are vertex-parallel on an
// Executor. Synchronization analysis from the paper:
//  * Top-down phase 1 is the only loop with write-write conflicts
//    (multiple workers OR different frontiers into the same neighbor's
//    `next` bitset); resolved with per-word atomic ORs that skip words
//    that would not change, avoiding cache-line invalidations.
//  * Top-down phase 2 and bottom-up have a bijective mapping between
//    vertices and updated entries, so within the disjoint task ranges no
//    synchronization is needed; the ParallelFor barrier separates phases.
//
// MS-PBFS-specific optimizations over the MS-BFS baseline:
//  * frontier entries are cleared inside the traversal loop, so the
//    frontier buffer is handed over as the next iteration's `next`
//    without a separate clearing pass (top-down);
//  * the bottom-up neighbor scan stops once every concurrent BFS has
//    accounted for the vertex;
//  * state is first-touch initialized with stealing disabled so pages
//    live on the NUMA node of the owning worker (Section 4.4).
//
// Level output (only when the caller passes a level buffer): in batches
// of more than 16 sources and W/16 of the width, on CPUs with the
// AVX-512 expansion (see UsePlanes), a vertex discovered at depth d by
// the BFSs in `nf` gets `plane[p][v] |= nf` for every set bit p of d, a
// store sequential in v like the `seen` update. After the last level
// one parallel pass over 64-vertex blocks turns the planes and `seen`
// into the level rows (bfs/level_planes.h). Planes are allocated as the
// depth first reaches 2^p, so they never hold more than 16 bitsets per
// vertex: the size of a full batch's own output. Other batches store
// each discovery straight into its level rows.
//
// RunNearest writes no level rows. Each discovery goes to the caller's
// nearest-source columns instead: a vertex's first discovery sets its
// distance and the sources at it, and a discovery at the next level
// sets the sources one hop further (the Cluster-BFS entries of
// sketch/sketch.h).

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "bfs/level_planes.h"
#include "bfs/multi_source.h"
#include "sched/numa_layout.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/timer.h"

#ifdef PBFS_TRACING
#include "obs/bfs_instrument.h"
#include "obs/profiler/phase_tag.h"
#endif

namespace pbfs {
namespace {

// Per-worker reduction slot, cache-line padded to avoid false sharing.
struct alignas(kCacheLineSize) WorkerReduction {
  uint64_t discovered_vertices = 0;
  uint64_t discovered_visits = 0;
  uint64_t scout_edges = 0;
};

template <int kBits>
class MsPbfs final : public MultiSourceBfsBase {
 public:
  MsPbfs(const Graph& graph, Executor* executor)
      : graph_(graph), executor_(executor) {
    const Vertex n = graph.num_vertices();
    seen_.Reset(n);
    frontier_.Reset(n);
    next_.Reset(n);
    reduction_.assign(executor->num_workers(), WorkerReduction{});
    // First touch with stealing disabled: pages of all three state
    // arrays are placed on the NUMA node of the worker that owns the
    // corresponding task range (Section 4.4). Uses the same split size
    // as the traversal loops below.
    split_size_ = PageAlignedSplitSize(kDesiredSplitSize, sizeof(Bitset<kBits>));
    executor_->FirstTouchFor(n, split_size_, [this](int, uint64_t b,
                                                    uint64_t e) {
      std::memset(seen_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(frontier_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(next_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
    });
  }

  int width() const override { return kBits; }

  uint64_t StateBytes() const override {
    uint64_t bytes =
        seen_.size_bytes() + frontier_.size_bytes() + next_.size_bytes();
    for (const auto& plane : planes_) bytes += plane.size_bytes();
    return bytes;
  }

  MsBfsResult Run(std::span<const Vertex> sources, const BfsOptions& options,
                  Level* levels) override {
    return RunBatch(sources, options, levels, nullptr);
  }

  MsBfsResult RunNearest(std::span<const Vertex> sources,
                         const BfsOptions& options,
                         const NearestColumns& columns) override {
    PBFS_CHECK(sources.size() <= 64);
    PBFS_CHECK(columns.dist != nullptr && columns.bits0 != nullptr &&
               columns.bits1 != nullptr && columns.stride > 0);
    return RunBatch(sources, options, nullptr, &columns);
  }

 private:
  static constexpr uint32_t kDesiredSplitSize = 1024;

  MsBfsResult RunBatch(std::span<const Vertex> sources,
                       const BfsOptions& options, Level* levels,
                       const NearestColumns* nearest) {
    const Vertex n = graph_.num_vertices();
    const int k = static_cast<int>(sources.size());
    PBFS_CHECK(k > 0 && k <= kBits);
    const uint32_t split =
        PageAlignedSplitSize(options.split_size, sizeof(Bitset<kBits>));
    TraversalStats* stats = options.stats;
#ifdef PBFS_TRACING
    TraversalStats tracing_stats;
    const bool tracing = obs::Tracer::Get().enabled();
    if (tracing && stats == nullptr) stats = &tracing_stats;
    obs::ScopedSpan run_span("ms-pbfs.run");
    run_span.AddArg("width", static_cast<uint64_t>(kBits));
    run_span.AddArg("sources", static_cast<uint64_t>(k));
#endif
    if (stats != nullptr) stats->Reset(executor_->num_workers());

    // Level rows are either stored per discovery (after being filled
    // with kLevelUnreached below) or written by the output pass.
    Level* const direct_levels = UsePlanes(k) ? nullptr : levels;
    const bool use_planes = levels != nullptr && direct_levels == nullptr;

    // State may be dirty from a previous batch; clear in parallel with
    // owner-only tasks to keep page placement intact. The planes are
    // clean: the output pass zeroes what it reads.
    executor_->FirstTouchFor(n, split, [&](int, uint64_t b, uint64_t e) {
      std::memset(seen_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(frontier_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(next_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      if (direct_levels == nullptr) return;
      for (int i = 0; i < k; ++i) {
        Level* row = direct_levels + static_cast<size_t>(i) * n;
        std::fill(row + b, row + e, kLevelUnreached);
      }
    });

    MsBfsResult result;
    result.total_visits = k;
    uint64_t frontier_vertices = 0;
    uint64_t scout_edges = 0;
    for (int i = 0; i < k; ++i) {
      PBFS_CHECK(sources[i] < n);
      if (frontier_[sources[i]].None()) ++frontier_vertices;
      seen_[sources[i]].Set(i);
      frontier_[sources[i]].Set(i);
      scout_edges += graph_.Degree(sources[i]);
      if (direct_levels != nullptr) {
        direct_levels[static_cast<size_t>(i) * n + sources[i]] = 0;
      }
      if (nearest != nullptr) {
        const size_t slot = static_cast<size_t>(sources[i]) * nearest->stride;
        nearest->dist[slot] = 0;
        nearest->bits0[slot] |= uint64_t{1} << i;
      }
    }

    const Bitset<kBits> active = Bitset<kBits>::LowBits(k);
    uint64_t edges_to_check = graph_.num_directed_edges();
    bool bottom_up = false;
    Level depth = 0;
    // Where this level's discoveries are recorded (nowhere without a
    // level buffer or nearest-source columns).
    LevelSink sink;
    sink.levels = direct_levels;
    sink.n = n;
    if (nearest != nullptr) sink.nearest = *nearest;

    while (frontier_vertices > 0) {
      PBFS_CHECK(depth < kMaxLevel);
      if (depth >= options.max_level) break;  // bounded traversal
      ++depth;
      sink.depth = depth;
      if (use_planes) SetPlanes(depth, split, &sink);

      if (options.enable_bottom_up) {
        if (!bottom_up && static_cast<double>(scout_edges) >
                              static_cast<double>(edges_to_check) /
                                  options.alpha) {
          bottom_up = true;
        } else if (bottom_up &&
                   static_cast<double>(frontier_vertices) <
                       static_cast<double>(n) / options.beta) {
          bottom_up = false;
        }
      }
      edges_to_check -= std::min(edges_to_check, scout_edges);

      for (WorkerReduction& r : reduction_) r = WorkerReduction{};
      Timer iteration_timer;
#ifdef PBFS_TRACING
      const obs::BfsLevelProbe level_probe = obs::BeginBfsLevel(
          tracing, "ms-pbfs.level", depth,
          bottom_up ? Direction::kBottomUp : Direction::kTopDown);
#endif

      if (!bottom_up) {
        RunTopDown(n, split, sink, stats);
      } else {
        RunBottomUp(n, split, sink, active, stats);
      }

      uint64_t discovered_vertices = 0;
      uint64_t discovered_visits = 0;
      scout_edges = 0;
      for (const WorkerReduction& r : reduction_) {
        discovered_vertices += r.discovered_vertices;
        discovered_visits += r.discovered_visits;
        scout_edges += r.scout_edges;
      }
      if (stats != nullptr) {
        stats->FinishIteration(
            bottom_up ? Direction::kBottomUp : Direction::kTopDown,
            iteration_timer.ElapsedMillis(), discovered_vertices);
      }
#ifdef PBFS_TRACING
      if (tracing && stats != nullptr) {
        // frontier_vertices still holds the size entering this level; it
        // is rolled forward below.
        obs::EmitBfsLevel("ms-pbfs.level", level_probe, depth,
                          bottom_up ? Direction::kBottomUp
                                    : Direction::kTopDown,
                          frontier_vertices, stats->iterations().back());
      }
#endif

      result.total_visits += discovered_visits;
      if (discovered_vertices > 0) {
        ++result.iterations;
        if (bottom_up) ++result.bottom_up_iterations;
      }
      frontier_vertices = discovered_vertices;
    }
    if (use_planes) {
      // Discoveries ran at depths 1..iterations; a last level that found
      // nothing may have allocated one more plane, which is still zero.
      const int num_planes =
          level_planes::PlanesFor(static_cast<Level>(result.iterations));
      WriteLevels(n, k, split, num_planes, levels);
    }
    return result;
  }

  // Whether a batch of k sources records its discoveries in planes
  // rather than storing them straight into the level rows. Planes pay
  // once one plane (W/8 B per vertex) is smaller than the batch's own
  // rows (2k B per vertex) and the batch covers the output pass's fixed
  // cost, which took 16 sources at width 64. Per call on a 2^18-vertex
  // Kronecker graph, 4 workers on a 4-vCPU Xeon VM with AVX-512BW,
  // direct against planes: width 64,
  // 16 sources 15.7-17.0 / 15.0-18.6 ms, 64 sources 38.4 / 26.1 ms;
  // width 256, 32 sources 41-42 / 40-43 ms, 64 sources 66-69 / 51-52 ms;
  // width 512, 32 sources 76-80 / 70-72 ms, 64 sources 112 / 91-95 ms;
  // width 1024, 64 sources 176-217 / 192-199 ms, 128 sources 240-244 /
  // 215-229 ms. The scalar expansion loses to direct stores even for
  // full batches, so planes need the AVX-512 one.
  static bool UsePlanes(int k) {
    return k > std::max(16, kBits / 16) && level_planes::HasAvx512Expand();
  }

  // Where one level's discoveries go: the planes of the set bits of the
  // depth, or the level rows themselves, and the nearest-source columns
  // of RunNearest (nearest.dist is null otherwise).
  struct LevelSink {
    Bitset<kBits>* planes[level_planes::kMaxPlanes] = {};
    int num_planes = 0;
    Level* levels = nullptr;
    size_t n = 0;
    Level depth = 0;
    NearestColumns nearest;
  };

  // Points `sink` at the planes of `depth`'s set bits; allocates (and
  // first-touches, with the traversal's split) the plane for bit p when
  // the depth first reaches 2^p.
  void SetPlanes(Level depth, uint32_t split, LevelSink* sink) {
    const int needed = level_planes::PlanesFor(depth);
    while (static_cast<int>(planes_.size()) < needed) {
      const Vertex n = graph_.num_vertices();
      AlignedBuffer<Bitset<kBits>>& plane = planes_.emplace_back(n);
      executor_->FirstTouchFor(
          n, split, [&plane](int, uint64_t b, uint64_t e) {
            std::memset(plane.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
          });
    }
    sink->num_planes = 0;
    for (unsigned d = depth; d != 0; d &= d - 1) {
      sink->planes[sink->num_planes++] = planes_[std::countr_zero(d)].data();
    }
  }

  // The one output pass: every task writes the level rows of its own
  // vertex range from `seen_` and the first `num_planes` planes, and
  // zeroes those planes for the next batch.
  void WriteLevels(Vertex n, int k, uint32_t split, int num_planes,
                   Level* levels) {
#ifdef PBFS_TRACING
    obs::SetCurrentBfsPhase("ms-pbfs.write_levels", 0, false);
    obs::ScopedSpan span("ms-pbfs.write_levels");
    span.AddArg("bytes", static_cast<uint64_t>(k) * n * sizeof(Level));
    span.AddArg("planes", static_cast<uint64_t>(num_planes));
#endif
    Bitset<kBits>* planes[level_planes::kMaxPlanes];
    for (int p = 0; p < num_planes; ++p) planes[p] = planes_[p].data();
    const level_planes::ExpandFn expand = level_planes::SelectExpand();
    // Task borders on block borders, so only the last block is partial.
    const uint32_t block_split =
        (split + level_planes::kBlock - 1) / level_planes::kBlock *
        level_planes::kBlock;
    executor_->ParallelFor(n, block_split, [&](int, uint64_t b, uint64_t e) {
      level_planes::WriteLevelRows<kBits>(planes, num_planes, seen_.data(), n,
                                          k, b, e, levels, expand);
    });
#ifdef PBFS_TRACING
    obs::ClearCurrentBfsPhase();
#endif
  }

  void RunTopDown(Vertex n, uint32_t split, const LevelSink& sink,
                  TraversalStats* stats) {
    // Phase 1: aggregate reachability. `frontier` and the graph are
    // read-only except for the owner's in-loop clear of frontier[v]
    // (only the task owner ever reads frontier[v] in top-down, so the
    // clear needs no synchronization and saves the separate clearing
    // pass). Writes to next[nb] race across workers -> atomic OR.
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      int64_t t0 = stats != nullptr ? NowNanos() : 0;
      uint64_t neighbors_visited = 0;
      for (uint64_t v = b; v < e; ++v) {
        if (frontier_[v].None()) continue;
        const Bitset<kBits> f = frontier_[v];
        for (Vertex nb : graph_.Neighbors(v)) {
          next_[nb].AtomicOr(f);
          ++neighbors_visited;
        }
        frontier_[v].Clear();
      }
      if (stats != nullptr) {
        stats->Accumulate(w, neighbors_visited, 0, NowNanos() - t0);
      }
    });

    // Phase 2: identify newly discovered vertices. Bijective
    // vertex-to-entry mapping -> no synchronization. Also normalizes
    // next[v] (stale bits from an earlier iteration are subsets of seen
    // and get stripped / overwritten here).
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      int64_t t0 = stats != nullptr ? NowNanos() : 0;
      WorkerReduction local;
      for (uint64_t v = b; v < e; ++v) {
        if (next_[v].None()) continue;
        const Bitset<kBits> nf = next_[v] & ~seen_[v];
        if (nf != next_[v]) next_[v] = nf;  // write only on change
        if (nf.None()) continue;
        seen_[v] |= nf;
        Record(v, nf, sink);
        ++local.discovered_vertices;
        local.discovered_visits += nf.Count();
        local.scout_edges += graph_.Degree(static_cast<Vertex>(v));
      }
      WorkerReduction& out = reduction_[w];
      out.discovered_vertices += local.discovered_vertices;
      out.discovered_visits += local.discovered_visits;
      out.scout_edges += local.scout_edges;
      if (stats != nullptr) {
        stats->Accumulate(w, 0, local.discovered_vertices, NowNanos() - t0);
      }
    });

    // The frontier buffer was cleared in phase 1; reuse it as next.
    std::swap(frontier_, next_);
  }

  void RunBottomUp(Vertex n, uint32_t split, const LevelSink& sink,
                   const Bitset<kBits>& active, TraversalStats* stats) {
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      int64_t t0 = stats != nullptr ? NowNanos() : 0;
      WorkerReduction local;
      uint64_t neighbors_visited = 0;
      for (uint64_t u = b; u < e; ++u) {
        if (seen_[u] == active) {
          // Fully discovered; next[u] may hold stale bits from an older
          // frontier, which must not leak into the next frontier.
          if (next_[u].Any()) next_[u].Clear();
          continue;
        }
        Bitset<kBits> acc = next_[u];
        const std::span<const Vertex> neighbors = graph_.Neighbors(u);
        const size_t deg = neighbors.size();
        // Early exit: stop scanning once every active BFS has either
        // seen u or will discover it now. The check runs once per
        // 4-neighbor chunk rather than per neighbor: the frontier
        // gathers are independent loads the core can overlap, and
        // checking per neighbor would chain them behind a branch.
        // Over-scanning a chunk is harmless — every gathered frontier
        // bit belongs to this level, so any superset of the minimal
        // scan produces the same `nf`.
        const Bitset<kBits> done = active & ~seen_[u];
        size_t j = 0;
        for (; j + 4 <= deg; j += 4) {
          acc |= frontier_[neighbors[j]] | frontier_[neighbors[j + 1]] |
                 frontier_[neighbors[j + 2]] | frontier_[neighbors[j + 3]];
          if ((acc & done) == done) {
            j += 4;
            break;
          }
        }
        if ((acc & done) != done) {
          for (; j < deg; ++j) acc |= frontier_[neighbors[j]];
        }
        neighbors_visited += j;
        const Bitset<kBits> nf = acc & ~seen_[u];
        next_[u] = nf;
        if (nf.None()) continue;
        seen_[u] |= nf;
        Record(u, nf, sink);
        ++local.discovered_vertices;
        local.discovered_visits += nf.Count();
        local.scout_edges += graph_.Degree(static_cast<Vertex>(u));
      }
      WorkerReduction& out = reduction_[w];
      out.discovered_vertices += local.discovered_vertices;
      out.discovered_visits += local.discovered_visits;
      out.scout_edges += local.scout_edges;
      if (stats != nullptr) {
        stats->Accumulate(w, neighbors_visited, local.discovered_vertices,
                          NowNanos() - t0);
      }
    });

    // Bottom-up reads frontier[*] for arbitrary neighbors, so it cannot
    // be cleared in-loop; clear it now so the buffer can serve as next.
    executor_->ParallelFor(n, split, [&](int, uint64_t b, uint64_t e) {
      for (uint64_t v = b; v < e; ++v) {
        if (frontier_[v].Any()) frontier_[v].Clear();
      }
    });
    std::swap(frontier_, next_);
  }

  static void Record(uint64_t v, const Bitset<kBits>& nf,
                     const LevelSink& sink) {
    for (int i = 0; i < sink.num_planes; ++i) sink.planes[i][v] |= nf;
    if (sink.nearest.dist != nullptr) {
      // The first discovery of v is its nearest-source distance, and the
      // one after it, if at the next level, its sources one hop further.
      // Only the task owning v gets here, so plain stores suffice. The
      // sources are the low 64 bits.
      const size_t slot = v * sink.nearest.stride;
      Level& dist = sink.nearest.dist[slot];
      if (dist == kLevelUnreached) {
        dist = sink.depth;
        sink.nearest.bits0[slot] = nf.word[0];
      } else if (sink.depth == dist + 1) {
        sink.nearest.bits1[slot] = nf.word[0];
      }
    }
    if (sink.levels == nullptr) return;
    nf.ForEachSetBit([&](int bfs) {
      sink.levels[static_cast<size_t>(bfs) * sink.n + v] = sink.depth;
    });
  }

  const Graph& graph_;
  Executor* executor_;
  uint32_t split_size_ = kDesiredSplitSize;
  AlignedBuffer<Bitset<kBits>> seen_;
  AlignedBuffer<Bitset<kBits>> frontier_;
  AlignedBuffer<Bitset<kBits>> next_;
  std::vector<WorkerReduction> reduction_;
  // Depth planes (bit p of each vertex's discovery depth), allocated on
  // first use; all zero between batches.
  std::vector<AlignedBuffer<Bitset<kBits>>> planes_;
};

}  // namespace

std::unique_ptr<MultiSourceBfsBase> MakeMsPbfs(const Graph& graph, int width,
                                               Executor* executor) {
  switch (width) {
    case 64:
      return std::make_unique<MsPbfs<64>>(graph, executor);
    case 128:
      return std::make_unique<MsPbfs<128>>(graph, executor);
    case 256:
      return std::make_unique<MsPbfs<256>>(graph, executor);
    case 512:
      return std::make_unique<MsPbfs<512>>(graph, executor);
    case 1024:
      return std::make_unique<MsPbfs<1024>>(graph, executor);
    default:
      PBFS_CHECK(false && "unsupported bitset width");
  }
  return nullptr;
}

}  // namespace pbfs
