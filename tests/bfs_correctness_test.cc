// Cross-checks every BFS variant against the textbook reference on a
// matrix of graph shapes, thread counts, bitset widths, and direction
// policies. These tests are the backbone of the suite: any traversal
// bug shows up as a level mismatch here.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/beamer.h"
#include "bfs/level_planes.h"
#include "bfs/multi_source.h"
#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"
#include "test_util.h"

namespace pbfs {
namespace {

using testing_util::ReferenceLevels;

struct GraphCase {
  std::string name;
  Graph graph;
};

std::vector<GraphCase> MakeGraphCases() {
  std::vector<GraphCase> cases;
  cases.push_back({"path64", Path(64)});
  cases.push_back({"path1000", Path(1000)});
  cases.push_back({"cycle97", Cycle(97)});
  cases.push_back({"star256", Star(256)});
  cases.push_back({"complete32", Complete(32)});
  cases.push_back({"grid17x13", Grid(17, 13)});
  cases.push_back({"tree1023", BinaryTree(1023)});
  cases.push_back({"single", Path(1)});
  cases.push_back({"two_components",
                   Graph::FromEdges(9, std::vector<Edge>{{0, 1},
                                                         {1, 2},
                                                         {3, 4},
                                                         {4, 5},
                                                         {5, 6},
                                                         {6, 3}})});
  cases.push_back({"kron10", Kronecker({.scale = 10, .edge_factor = 8,
                                        .seed = 17})});
  cases.push_back({"social4k", SocialNetwork({.num_vertices = 4096,
                                              .avg_degree = 10.0,
                                              .seed = 23})});
  cases.push_back({"er2k", ErdosRenyi(2048, 6000, 29)});
  return cases;
}

std::vector<Vertex> TestSources(const Graph& graph) {
  std::vector<Vertex> sources = {0};
  if (graph.num_vertices() > 1) sources.push_back(graph.num_vertices() - 1);
  if (graph.num_vertices() > 10) sources.push_back(graph.num_vertices() / 2);
  return sources;
}

// ---------------------------------------------------------------------
// Single-source variants.
// ---------------------------------------------------------------------

class SingleSourceParam
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

class BeamerParam : public ::testing::TestWithParam<bool> {};

TEST_P(BeamerParam, BeamerVariantsMatchReference) {
  const bool enable_bottom_up = GetParam();
  BfsOptions options;
  options.enable_bottom_up = enable_bottom_up;
  for (const GraphCase& gc : MakeGraphCases()) {
    for (Vertex source : TestSources(gc.graph)) {
      std::vector<Level> expected = ReferenceLevels(gc.graph, source);
      for (BeamerVariant variant : {BeamerVariant::kSparse,
                                    BeamerVariant::kDense,
                                    BeamerVariant::kGapbs}) {
        std::vector<Level> got(gc.graph.num_vertices());
        BfsResult r = BeamerBfs(gc.graph, source, variant, options,
                                got.data());
        EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
            << gc.name << " source=" << source << " "
            << BeamerVariantName(variant);
        EXPECT_EQ(r.vertices_visited,
                  testing_util::ReachableCount(gc.graph, source))
            << gc.name;
        if (!enable_bottom_up) {
          EXPECT_EQ(r.bottom_up_iterations, 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Directions, BeamerParam, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "hybrid" : "topdown";
                         });

TEST_P(SingleSourceParam, SmsPbfsMatchesReference) {
  auto [threads, enable_bottom_up] = GetParam();
  BfsOptions options;
  options.enable_bottom_up = enable_bottom_up;
  options.split_size = 128;  // small tasks to exercise stealing

  std::unique_ptr<WorkerPool> pool;
  SerialExecutor serial;
  Executor* executor = &serial;
  if (threads > 1) {
    pool = std::make_unique<WorkerPool>(
        WorkerPool::Options{.num_workers = threads, .pin_threads = false});
    executor = pool.get();
  }

  for (const GraphCase& gc : MakeGraphCases()) {
    for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte, SmsVariant::kQueue}) {
      std::unique_ptr<SingleSourceBfsBase> bfs =
          MakeSmsPbfs(gc.graph, variant, executor);
      for (Vertex source : TestSources(gc.graph)) {
        std::vector<Level> expected = ReferenceLevels(gc.graph, source);
        std::vector<Level> got(gc.graph.num_vertices());
        BfsResult r = bfs->Run(source, options, got.data());
        EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
            << gc.name << " source=" << source << " "
            << SmsVariantName(variant) << " threads=" << threads;
        EXPECT_EQ(r.vertices_visited,
                  testing_util::ReachableCount(gc.graph, source))
            << gc.name << " " << SmsVariantName(variant);
        if (!enable_bottom_up) {
          EXPECT_EQ(r.bottom_up_iterations, 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndDirections, SingleSourceParam,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_hybrid" : "_topdown");
    });

// Forced bottom-up-heavy traversal (tiny alpha) still yields correct
// levels.
TEST(SingleSourceTest, AggressiveBottomUpSwitching) {
  BfsOptions options;
  options.alpha = 0.001;  // switch to bottom-up almost immediately
  options.beta = 1e9;     // and never switch back
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  for (const GraphCase& gc : MakeGraphCases()) {
    for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte, SmsVariant::kQueue}) {
      std::unique_ptr<SingleSourceBfsBase> bfs =
          MakeSmsPbfs(gc.graph, variant, &pool);
      Vertex source = 0;
      std::vector<Level> expected = ReferenceLevels(gc.graph, source);
      std::vector<Level> got(gc.graph.num_vertices());
      bfs->Run(source, options, got.data());
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << gc.name << " " << SmsVariantName(variant);
    }
  }
}

// Instance reuse across many sources must not leak state.
TEST(SingleSourceTest, InstanceReuseAcrossSources) {
  Graph g = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                           .seed = 5});
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte, SmsVariant::kQueue}) {
    std::unique_ptr<SingleSourceBfsBase> bfs =
        MakeSmsPbfs(g, variant, &pool);
    BfsOptions options;
    for (Vertex source : PickSources(g, 8, 77)) {
      std::vector<Level> expected = ReferenceLevels(g, source);
      std::vector<Level> got(g.num_vertices());
      bfs->Run(source, options, got.data());
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << SmsVariantName(variant) << " source=" << source;
    }
  }
}

TEST(SingleSourceTest, NullLevelSinkStillCounts) {
  Graph g = Grid(20, 20);
  SerialExecutor serial;
  for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte, SmsVariant::kQueue}) {
    std::unique_ptr<SingleSourceBfsBase> bfs =
        MakeSmsPbfs(g, variant, &serial);
    BfsResult r = bfs->Run(0, BfsOptions{}, nullptr);
    EXPECT_EQ(r.vertices_visited, 400u);
  }
}

// ---------------------------------------------------------------------
// Multi-source variants.
// ---------------------------------------------------------------------

struct MsCase {
  int width;
  int threads;  // 0 = sequential MS-BFS baseline
};

class MultiSourceParam : public ::testing::TestWithParam<MsCase> {};

TEST_P(MultiSourceParam, LevelsMatchReferencePerSource) {
  const MsCase ms = GetParam();
  std::unique_ptr<WorkerPool> pool;
  SerialExecutor serial;

  for (const GraphCase& gc : MakeGraphCases()) {
    const Vertex n = gc.graph.num_vertices();
    // Batch: a mix of sources, including duplicates, up to the width.
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < n && sources.size() < 20; v += (n / 7) + 1) {
      sources.push_back(v);
    }
    sources.push_back(0);  // duplicate source
    if (static_cast<int>(sources.size()) > ms.width) {
      sources.resize(ms.width);
    }

    std::unique_ptr<MultiSourceBfsBase> bfs;
    if (ms.threads == 0) {
      bfs = MakeMsBfs(gc.graph, ms.width);
    } else if (ms.threads == 1) {
      bfs = MakeMsPbfs(gc.graph, ms.width, &serial);
    } else {
      pool = std::make_unique<WorkerPool>(WorkerPool::Options{
          .num_workers = ms.threads, .pin_threads = false});
      bfs = MakeMsPbfs(gc.graph, ms.width, pool.get());
    }

    BfsOptions options;
    options.split_size = 128;
    std::vector<Level> levels(sources.size() * n);
    MsBfsResult r = bfs->Run(sources, options, levels.data());

    uint64_t expected_visits = 0;
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected = ReferenceLevels(gc.graph, sources[i]);
      std::vector<Level> got(levels.begin() + i * n,
                             levels.begin() + (i + 1) * n);
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << gc.name << " width=" << ms.width << " threads=" << ms.threads
          << " bfs_index=" << i << " source=" << sources[i];
      expected_visits += testing_util::ReachableCount(gc.graph, sources[i]);
    }
    EXPECT_EQ(r.total_visits, expected_visits) << gc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndThreads, MultiSourceParam,
    ::testing::Values(MsCase{64, 0}, MsCase{128, 0}, MsCase{256, 0},
                      MsCase{512, 0}, MsCase{64, 1}, MsCase{128, 1},
                      MsCase{64, 2}, MsCase{64, 4}, MsCase{128, 4},
                      MsCase{256, 4}, MsCase{512, 3}, MsCase{64, 7}),
    [](const ::testing::TestParamInfo<MsCase>& info) {
      // Append steps, not one operator+ chain: the chain trips a GCC 12
      // -Wrestrict false positive at -O2.
      std::string name = "w";
      name += std::to_string(info.param.width);
      name += "_t";
      name += std::to_string(info.param.threads);
      return name;
    });

TEST(MultiSourceTest, FullWidthBatch) {
  // A batch that uses every bit of a 64-wide bitset.
  Graph g = Kronecker({.scale = 9, .edge_factor = 8, .seed = 31});
  std::vector<Vertex> sources = PickSources(g, 64, 3);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(g, 64, &pool);
  std::vector<Level> levels(sources.size() * g.num_vertices());
  bfs->Run(sources, BfsOptions{}, levels.data());
  for (size_t i = 0; i < sources.size(); ++i) {
    std::vector<Level> expected = ReferenceLevels(g, sources[i]);
    std::vector<Level> got(
        levels.begin() + i * g.num_vertices(),
        levels.begin() + (i + 1) * g.num_vertices());
    ASSERT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
        << "bfs " << i;
  }
}

TEST(MultiSourceTest, DeepPathNeedsThirteenLevelPlanes) {
  // Depth 4999 takes 13 bit-planes of the level output; sources at both
  // ends and spread between them (more than the 16 below which a batch
  // stores levels per discovery), on one worker and on four. CPUs
  // without the AVX-512 expansion store per discovery at every size.
  Graph g = Path(5000);
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources = {0, n - 1};
  for (Vertex v = 137; sources.size() < 20; v += 251) sources.push_back(v);
  SerialExecutor serial;
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (Executor* executor : {static_cast<Executor*>(&serial),
                             static_cast<Executor*>(&pool)}) {
    std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(g, 64, executor);
    EXPECT_EQ(bfs->StateBytes(), MultiSourceStateBytes(n, 64));
    bfs->Run(sources, BfsOptions{}, nullptr);
    EXPECT_EQ(bfs->StateBytes(), MultiSourceStateBytes(n, 64))
        << "planes allocated without a level buffer";
    std::vector<Level> levels(sources.size() * n);
    bfs->Run(sources, BfsOptions{}, levels.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected = ReferenceLevels(g, sources[i]);
      std::vector<Level> got(levels.begin() + i * n,
                             levels.begin() + (i + 1) * n);
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << "workers=" << executor->num_workers() << " source "
          << sources[i];
    }
    // Three state bitsets plus 13 planes per vertex.
    const uint64_t planes = level_planes::HasAvx512Expand() ? 13 : 0;
    EXPECT_EQ(bfs->StateBytes(), (3 + planes) * uint64_t{n} * 8);
  }
}

TEST(MultiSourceTest, BatchReuseDoesNotLeakState) {
  Graph g = SocialNetwork({.num_vertices = 1024, .avg_degree = 8.0,
                           .seed = 41});
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(g, 64, &pool);
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::vector<Vertex> sources = PickSources(g, 16, seed);
    std::vector<Level> levels(sources.size() * g.num_vertices());
    bfs->Run(sources, BfsOptions{}, levels.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected = ReferenceLevels(g, sources[i]);
      std::vector<Level> got(
          levels.begin() + i * g.num_vertices(),
          levels.begin() + (i + 1) * g.num_vertices());
      ASSERT_EQ(testing_util::FirstLevelMismatch(expected, got), -1);
    }
  }
}

TEST(MultiSourceTest, PureTopDownMatches) {
  Graph g = Grid(31, 17);
  BfsOptions options;
  options.enable_bottom_up = false;
  SerialExecutor serial;
  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(g, 64, &serial);
  std::vector<Vertex> sources = {0, 526, 100};
  std::vector<Level> levels(sources.size() * g.num_vertices());
  MsBfsResult r = bfs->Run(sources, options, levels.data());
  EXPECT_EQ(r.bottom_up_iterations, 0);
  for (size_t i = 0; i < sources.size(); ++i) {
    std::vector<Level> expected = ReferenceLevels(g, sources[i]);
    std::vector<Level> got(
        levels.begin() + i * g.num_vertices(),
        levels.begin() + (i + 1) * g.num_vertices());
    EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1);
  }
}

TEST(MultiSourceTest, JfqComparatorMatchesReference) {
  // iBFS-style joint-frontier-queue comparator over the full graph
  // matrix, all widths.
  for (const GraphCase& gc : MakeGraphCases()) {
    const Vertex n = gc.graph.num_vertices();
    for (int width : {64, 256}) {
      std::vector<Vertex> sources;
      for (Vertex v = 0; v < n && sources.size() < 20; v += (n / 7) + 1) {
        sources.push_back(v);
      }
      std::unique_ptr<MultiSourceBfsBase> bfs = MakeJfqMsBfs(gc.graph, width);
      std::vector<Level> levels(sources.size() * n);
      MsBfsResult r = bfs->Run(sources, BfsOptions{}, levels.data());
      uint64_t expected_visits = 0;
      for (size_t i = 0; i < sources.size(); ++i) {
        std::vector<Level> expected = ReferenceLevels(gc.graph, sources[i]);
        std::vector<Level> got(levels.begin() + i * n,
                               levels.begin() + (i + 1) * n);
        EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
            << gc.name << " width=" << width << " source=" << sources[i];
        expected_visits += testing_util::ReachableCount(gc.graph, sources[i]);
      }
      EXPECT_EQ(r.total_visits, expected_visits) << gc.name;
    }
  }
}

TEST(MultiSourceTest, JfqInstanceReuse) {
  Graph g = SocialNetwork({.num_vertices = 1024, .avg_degree = 8.0,
                           .seed = 61});
  std::unique_ptr<MultiSourceBfsBase> bfs = MakeJfqMsBfs(g, 64);
  for (uint64_t seed : {1u, 2u}) {
    std::vector<Vertex> sources = PickSources(g, 16, seed);
    std::vector<Level> levels(sources.size() * g.num_vertices());
    bfs->Run(sources, BfsOptions{}, levels.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected = ReferenceLevels(g, sources[i]);
      std::vector<Level> got(
          levels.begin() + i * g.num_vertices(),
          levels.begin() + (i + 1) * g.num_vertices());
      ASSERT_EQ(testing_util::FirstLevelMismatch(expected, got), -1);
    }
  }
}

TEST(MultiSourceTest, SequentialBaselineAndParallelAgree) {
  Graph g = Kronecker({.scale = 10, .edge_factor = 8, .seed = 53});
  std::vector<Vertex> sources = PickSources(g, 32, 9);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});

  std::unique_ptr<MultiSourceBfsBase> baseline = MakeMsBfs(g, 64);
  std::unique_ptr<MultiSourceBfsBase> parallel = MakeMsPbfs(g, 64, &pool);

  std::vector<Level> a(sources.size() * g.num_vertices());
  std::vector<Level> b(sources.size() * g.num_vertices());
  MsBfsResult ra = baseline->Run(sources, BfsOptions{}, a.data());
  MsBfsResult rb = parallel->Run(sources, BfsOptions{}, b.data());
  EXPECT_EQ(ra.total_visits, rb.total_visits);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pbfs
