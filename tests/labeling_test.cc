#include "graph/labeling.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "sched/worker_pool.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pbfs {
namespace {

TEST(LabelingTest, AllKindsProducePermutations) {
  Graph g = Kronecker({.scale = 10, .edge_factor = 8, .seed = 2});
  for (Labeling kind : {Labeling::kIdentity, Labeling::kRandom,
                        Labeling::kDegreeOrdered, Labeling::kStriped}) {
    std::vector<Vertex> perm =
        ComputeLabeling(g, kind, {.num_workers = 8, .split_size = 64});
    EXPECT_TRUE(IsPermutation(perm)) << LabelingName(kind);
  }
}

TEST(LabelingTest, IdentityIsIdentity) {
  Graph g = Path(10);
  std::vector<Vertex> perm = ComputeLabeling(g, Labeling::kIdentity);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(perm[v], v);
}

TEST(LabelingTest, DegreeOrderedSortsByDegreeDescending) {
  Graph g = Star(16);  // vertex 0 has the highest degree
  std::vector<Vertex> perm = ComputeLabeling(g, Labeling::kDegreeOrdered);
  EXPECT_EQ(perm[0], 0u);  // highest degree gets the smallest id
  // All leaves have equal degree; stable sort keeps their relative order.
  for (Vertex v = 1; v < 16; ++v) EXPECT_EQ(perm[v], v);
}

// The ranking as a stable sort on descending degree: ties in id order.
std::vector<Vertex> StableSortReference(const Graph& g) {
  std::vector<Vertex> order(g.num_vertices());
  std::iota(order.begin(), order.end(), Vertex{0});
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return g.Degree(a) > g.Degree(b);
  });
  return order;
}

TEST(LabelingTest, DegreeRankingMatchesStableSort) {
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("empty", Graph::FromEdges(0, {}));
  graphs.emplace_back("all_isolated", Graph::FromEdges(17, {}));
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    // Few edges per vertex: small degrees, many ties, isolated vertices.
    graphs.emplace_back("sparse_random",
                        ErdosRenyi(2000, 1500 * seed, seed));
  }
  // One vertex of maximum degree on top of a tie-heavy random graph.
  std::vector<Edge> edges = ErdosRenyiEdges(500, 600, 9);
  for (Vertex v = 0; v < 500; ++v) {
    if (v != 321) edges.push_back({321, v});
  }
  Graph single_max = Graph::FromEdges(500, edges);
  EXPECT_EQ(VerticesByDegreeDescending(single_max)[0], 321u);
  graphs.emplace_back("single_max", std::move(single_max));
  graphs.emplace_back("kron", Kronecker({.scale = 12, .edge_factor = 16,
                                         .seed = 5}));
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    EXPECT_EQ(VerticesByDegreeDescending(g), StableSortReference(g));
  }
}

TEST(LabelingTest, RandomDeterministicBySeed) {
  Graph g = Cycle(128);
  EXPECT_EQ(ComputeLabeling(g, Labeling::kRandom, {}, 1),
            ComputeLabeling(g, Labeling::kRandom, {}, 1));
  EXPECT_NE(ComputeLabeling(g, Labeling::kRandom, {}, 1),
            ComputeLabeling(g, Labeling::kRandom, {}, 2));
}

TEST(StripedLabelingTest, RoundRobinPlacement) {
  // 2 workers, split 4, 16 vertices; ranks 0..15 are vertices 0..15.
  std::vector<Vertex> by_rank(16);
  std::iota(by_rank.begin(), by_rank.end(), Vertex{0});
  std::vector<Vertex> perm = StripedPermutationFromRanks(
      by_rank, {.num_workers = 2, .split_size = 4});
  // Row 0 covers positions [0,8): tasks T0=[0,4) (worker 0) and
  // T1=[4,8) (worker 1). Rank 0 -> start of T0, rank 1 -> start of T1,
  // rank 2 -> second slot of T0, ...
  EXPECT_EQ(perm[0], 0u);
  EXPECT_EQ(perm[1], 4u);
  EXPECT_EQ(perm[2], 1u);
  EXPECT_EQ(perm[3], 5u);
  EXPECT_EQ(perm[4], 2u);
  EXPECT_EQ(perm[5], 6u);
  EXPECT_EQ(perm[6], 3u);
  EXPECT_EQ(perm[7], 7u);
  // Row 1 covers positions [8,16) the same way.
  EXPECT_EQ(perm[8], 8u);
  EXPECT_EQ(perm[9], 12u);
  EXPECT_TRUE(IsPermutation(perm));
}

TEST(StripedLabelingTest, HighestDegreeVerticesAtTaskStarts) {
  Graph g = Kronecker({.scale = 10, .edge_factor = 16, .seed = 4});
  const StripeShape shape{.num_workers = 4, .split_size = 64};
  std::vector<Vertex> order = VerticesByDegreeDescending(g);
  std::vector<Vertex> perm = StripedPermutationFromRanks(order, shape);
  // The w-th highest-degree vertex starts worker w's first task,
  // i.e. lands at position w * split_size.
  for (int w = 0; w < shape.num_workers; ++w) {
    EXPECT_EQ(perm[order[w]], static_cast<Vertex>(w) * shape.split_size);
  }
}

TEST(StripedLabelingTest, BalancedDegreeAcrossWorkerQueues) {
  Graph g = Kronecker({.scale = 12, .edge_factor = 16, .seed = 8});
  const int workers = 8;
  const uint32_t split = 256;
  std::vector<Vertex> perm =
      ComputeLabeling(g, Labeling::kStriped,
                      {.num_workers = workers, .split_size = split});
  Graph relabeled = ApplyLabeling(g, perm);

  // Sum degrees per worker queue: task t belongs to worker t % workers.
  std::vector<uint64_t> queue_degree(workers, 0);
  for (Vertex v = 0; v < relabeled.num_vertices(); ++v) {
    uint64_t task = v / split;
    queue_degree[task % workers] += relabeled.Degree(v);
  }
  uint64_t max_deg = 0;
  uint64_t min_deg = ~uint64_t{0};
  for (uint64_t d : queue_degree) {
    max_deg = std::max(max_deg, d);
    min_deg = std::min(min_deg, d);
  }
  // Striping keeps per-queue work nearly equal; degree-ordered labeling
  // would put orders of magnitude more into the first queue.
  EXPECT_LT(static_cast<double>(max_deg),
            1.25 * static_cast<double>(min_deg));

  std::vector<Vertex> ordered_perm = ComputeLabeling(g, Labeling::kDegreeOrdered);
  Graph ordered = ApplyLabeling(g, ordered_perm);
  std::vector<uint64_t> static_degree(workers, 0);
  const Vertex per_worker = ordered.num_vertices() / workers;
  for (Vertex v = 0; v < ordered.num_vertices(); ++v) {
    int w = std::min<int>(workers - 1, v / per_worker);
    static_degree[w] += ordered.Degree(v);
  }
  // Under degree ordering + static partitioning the first worker carries
  // far more degree than the last (the Figure 6 skew).
  EXPECT_GT(static_cast<double>(static_degree[0]),
            5.0 * static_cast<double>(static_degree[workers - 1]));
}

TEST(StripedLabelingTest, HandlesNonDivisibleTail) {
  for (size_t n : {1u, 7u, 63u, 64u, 65u, 100u, 1000u, 1023u}) {
    std::vector<Vertex> by_rank(n);
    std::iota(by_rank.begin(), by_rank.end(), Vertex{0});
    std::vector<Vertex> perm = StripedPermutationFromRanks(
        by_rank, {.num_workers = 3, .split_size = 16});
    EXPECT_TRUE(IsPermutation(perm)) << "n=" << n;
  }
}

TEST(StripedLabelingTest, SingleWorkerDegeneratesToDegreeOrder) {
  Graph g = Kronecker({.scale = 8, .edge_factor = 8, .seed = 6});
  std::vector<Vertex> striped = ComputeLabeling(
      g, Labeling::kStriped, {.num_workers = 1, .split_size = 1 << 20});
  std::vector<Vertex> ordered = ComputeLabeling(g, Labeling::kDegreeOrdered);
  EXPECT_EQ(striped, ordered);
}

TEST(ApplyLabelingTest, PreservesGraphStructure) {
  Graph g = Kronecker({.scale = 9, .edge_factor = 8, .seed = 3});
  std::vector<Vertex> perm = ComputeLabeling(g, Labeling::kRandom, {}, 11);
  Graph relabeled = ApplyLabeling(g, perm);

  ASSERT_EQ(relabeled.num_vertices(), g.num_vertices());
  ASSERT_EQ(relabeled.num_edges(), g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(relabeled.Degree(perm[v]), g.Degree(v));
    for (Vertex nb : g.Neighbors(v)) {
      EXPECT_TRUE(relabeled.HasEdge(perm[v], perm[nb]));
    }
  }
}

TEST(ApplyLabelingTest, BfsLevelsCommuteWithRelabeling) {
  Graph g = SocialNetwork({.num_vertices = 2048, .avg_degree = 12.0,
                           .seed = 13});
  std::vector<Vertex> perm = ComputeLabeling(
      g, Labeling::kStriped, {.num_workers = 4, .split_size = 32});
  Graph relabeled = ApplyLabeling(g, perm);

  Vertex source = 17;
  std::vector<Level> original = testing_util::ReferenceLevels(g, source);
  std::vector<Level> after =
      testing_util::ReferenceLevels(relabeled, perm[source]);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(original[v], after[perm[v]]) << "vertex " << v;
  }
}

TEST(ApplyLabelingTest, ParallelMatchesSequential) {
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("kron11",
                      Kronecker({.scale = 11, .edge_factor = 8, .seed = 5}));
  // At scale 14 lists of 4 or more ids are sorted through the bitmap
  // and shorter ones with std::sort, so both branches run.
  graphs.emplace_back("kron14",
                      Kronecker({.scale = 14, .edge_factor = 16, .seed = 9}));
  // n not a multiple of 64; a hub adjacent to ids 0 and n-1 under the
  // identity and reversed labelings.
  const Vertex odd_n = (1 << 14) + 37;
  std::vector<Edge> hub_edges;
  for (Vertex v = 0; v < odd_n; v += 61) hub_edges.push_back({1000, v});
  hub_edges.push_back({1000, odd_n - 1});
  for (Vertex v = 1; v < 9; ++v) {
    hub_edges.push_back({0, v});
    hub_edges.push_back({odd_n - 1, odd_n - 1 - v});
  }
  graphs.emplace_back("hub_odd_n", Graph::FromEdges(odd_n, hub_edges));
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const Vertex n = g.num_vertices();
    std::vector<Vertex> reversed(n);
    for (Vertex v = 0; v < n; ++v) reversed[v] = n - 1 - v;
    for (const std::vector<Vertex>& perm :
         {ComputeLabeling(g, Labeling::kStriped,
                          {.num_workers = 4, .split_size = 128}),
          ComputeLabeling(g, Labeling::kIdentity),
          ComputeLabeling(g, Labeling::kRandom, {}, 3), reversed}) {
      Graph sequential = ApplyLabeling(g, perm);
      Graph parallel = ApplyLabelingParallel(g, perm, &pool);
      ASSERT_EQ(parallel.num_vertices(), sequential.num_vertices());
      ASSERT_EQ(parallel.num_directed_edges(),
                sequential.num_directed_edges());
      for (Vertex v = 0; v < sequential.num_vertices(); ++v) {
        auto a = sequential.Neighbors(v);
        auto b = parallel.Neighbors(v);
        ASSERT_EQ(a.size(), b.size()) << v;
        for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << v;
      }
    }
  }
}

TEST(SortNeighborsByDegreeTest, PreservesStructureChangesOrder) {
  Graph g = Kronecker({.scale = 10, .edge_factor = 8, .seed = 21});
  SerialExecutor serial;
  Graph sorted = SortNeighborsByDegree(g, &serial);
  ASSERT_EQ(sorted.num_vertices(), g.num_vertices());
  ASSERT_EQ(sorted.num_directed_edges(), g.num_directed_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    auto original = g.Neighbors(v);
    auto reordered = sorted.Neighbors(v);
    ASSERT_EQ(original.size(), reordered.size());
    // Same multiset of neighbors...
    std::vector<Vertex> a(original.begin(), original.end());
    std::vector<Vertex> b(reordered.begin(), reordered.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << v;
    // ...in non-increasing degree order.
    for (size_t i = 0; i + 1 < reordered.size(); ++i) {
      EXPECT_GE(sorted.Degree(reordered[i]), sorted.Degree(reordered[i + 1]))
          << "vertex " << v << " slot " << i;
    }
  }
}

TEST(SortNeighborsByDegreeTest, BfsStillCorrect) {
  Graph g = SocialNetwork({.num_vertices = 1024, .avg_degree = 8.0,
                           .seed = 17});
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  Graph sorted = SortNeighborsByDegree(g, &pool);
  std::vector<Level> expected = testing_util::ReferenceLevels(g, 9);
  std::vector<Level> got(g.num_vertices());
  auto bfs = MakeSmsPbfs(sorted, SmsVariant::kBit, &pool);
  bfs->Run(9, BfsOptions{}, got.data());
  EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1);
}

TEST(IsPermutationTest, RejectsInvalid) {
  EXPECT_TRUE(IsPermutation({2, 0, 1}));
  EXPECT_FALSE(IsPermutation({0, 0, 1}));   // duplicate
  EXPECT_FALSE(IsPermutation({0, 1, 3}));   // out of range
  EXPECT_TRUE(IsPermutation({}));
}

}  // namespace
}  // namespace pbfs
