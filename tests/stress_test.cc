// Heavier integration scenarios: full-width batches on realistic
// Kronecker graphs, direction-heuristic oscillation, guard-rail death
// tests, and end-to-end pipelines combining labeling, NUMA placement,
// traversal, and validation. Runs in a few seconds total.

#include <string>

#include <gtest/gtest.h>

#include "pbfs.h"
#include "test_util.h"

namespace pbfs {
namespace {

// End-to-end pipeline at a realistic (small-world, skewed) scale:
// generate -> stripe-relabel -> NUMA-place -> one full 64-wide batch on
// a pool -> validate every BFS against the Graph500 rules and the exact
// reference.
TEST(StressTest, FullPipelineOnKroneckerGraph) {
  Graph raw = Kronecker({.scale = 13, .edge_factor = 16, .seed = 77});
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  std::vector<Vertex> perm = ComputeLabeling(
      raw, Labeling::kStriped, {.num_workers = 4, .split_size = 1024}, 7);
  Graph striped = ApplyLabeling(raw, perm);
  Graph graph = CloneNumaAware(striped, &pool, 1024);

  ComponentInfo components = ComputeComponents(graph);
  std::vector<Vertex> sources = PickSources(graph, 64, 5);
  auto bfs = MakeMsPbfs(graph, 64, &pool);
  const Vertex n = graph.num_vertices();
  std::vector<Level> levels(64ull * n);
  MsBfsResult result = bfs->Run(sources, BfsOptions{}, levels.data());

  uint64_t expected_visits = 0;
  std::string error;
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_TRUE(ValidateLevels(graph, sources[i], levels.data() + i * n,
                               &components, &error))
        << "bfs " << i << ": " << error;
    expected_visits +=
        components.vertex_count[components.component_of[sources[i]]];
  }
  EXPECT_EQ(result.total_visits, expected_visits);
}

// All five single-source engines agree with each other on a batch of
// sources of a mid-size skewed graph.
TEST(StressTest, AllSingleSourceEnginesAgree) {
  Graph g = Kronecker({.scale = 12, .edge_factor = 16, .seed = 88});
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  std::vector<Vertex> sources = PickSources(g, 8, 9);
  std::vector<Level> reference(g.num_vertices());
  std::vector<Level> got(g.num_vertices());
  for (Vertex s : sources) {
    SequentialBfs(g, s, reference.data());
    for (BeamerVariant variant : {BeamerVariant::kSparse,
                                  BeamerVariant::kDense,
                                  BeamerVariant::kGapbs}) {
      BeamerBfs(g, s, variant, BfsOptions{}, got.data());
      ASSERT_EQ(testing_util::FirstLevelMismatch(reference, got), -1)
          << BeamerVariantName(variant) << " source " << s;
    }
    for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte,
                               SmsVariant::kQueue}) {
      auto bfs = MakeSmsPbfs(g, variant, &pool);
      bfs->Run(s, BfsOptions{}, got.data());
      ASSERT_EQ(testing_util::FirstLevelMismatch(reference, got), -1)
          << SmsVariantName(variant) << " source " << s;
    }
  }
}

// Direction-heuristic oscillation: alpha and beta tuned so the
// traversal flip-flops between directions; results must not change.
TEST(StressTest, HeuristicOscillationIsCorrect) {
  BfsOptions options;
  options.alpha = 2.0;  // switch to bottom-up early
  options.beta = 1.05;  // switch back almost immediately
  Graph g = SocialNetwork({.num_vertices = 8192, .avg_degree = 12.0,
                           .seed = 3});
  WorkerPool pool({.num_workers = 3, .pin_threads = false});

  for (Vertex s : PickSources(g, 4, 2)) {
    std::vector<Level> expected = testing_util::ReferenceLevels(g, s);
    std::vector<Level> got(g.num_vertices());
    for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte,
                               SmsVariant::kQueue}) {
      auto bfs = MakeSmsPbfs(g, variant, &pool);
      BfsResult r = bfs->Run(s, options, got.data());
      ASSERT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << SmsVariantName(variant);
      // The aggressive settings must actually trigger both directions.
      EXPECT_GT(r.bottom_up_iterations, 0) << SmsVariantName(variant);
      EXPECT_LT(r.bottom_up_iterations, r.iterations)
          << SmsVariantName(variant);
    }
    auto ms = MakeMsPbfs(g, 64, &pool);
    Vertex batch[] = {s};
    std::vector<Level> ms_levels(g.num_vertices());
    ms->Run(std::span<const Vertex>(batch, 1), options, ms_levels.data());
    ASSERT_EQ(testing_util::FirstLevelMismatch(expected, ms_levels), -1);
  }
}

// High-diameter graph: a long path keeps every per-iteration frontier
// tiny, hammering the iteration setup/teardown paths of the parallel
// kernels.
TEST(StressTest, HighDiameterGraph) {
  const Vertex n = 20000;
  Graph g = Path(n);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  std::vector<Level> expected = testing_util::ReferenceLevels(g, 0);
  std::vector<Level> got(n);
  auto bfs = MakeSmsPbfs(g, SmsVariant::kBit, &pool);
  BfsResult r = bfs->Run(0, BfsOptions{}, got.data());
  EXPECT_EQ(r.iterations, static_cast<int>(n - 1));
  EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1);
}

// Wide batches across every supported width on the same sources give
// identical per-source levels.
TEST(StressTest, WidthsAgreeOnIdenticalBatches) {
  Graph g = SocialNetwork({.num_vertices = 4096, .avg_degree = 10.0,
                           .seed = 6});
  SerialExecutor serial;
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources = PickSources(g, 64, 4);
  std::vector<Level> reference(64ull * n);
  MakeMsPbfs(g, 64, &serial)->Run(sources, BfsOptions{}, reference.data());
  for (int width : {128, 256, 512, 1024}) {
    std::vector<Level> got(64ull * n);
    MakeMsPbfs(g, width, &serial)->Run(sources, BfsOptions{}, got.data());
    EXPECT_EQ(reference, got) << "width " << width;
    std::vector<Level> jfq(64ull * n);
    MakeJfqMsBfs(g, width)->Run(sources, BfsOptions{}, jfq.data());
    EXPECT_EQ(reference, jfq) << "jfq width " << width;
  }
}

// ---------------------------------------------------------------------
// Guard rails (death tests).
// ---------------------------------------------------------------------

using StressDeathTest = ::testing::Test;

TEST(StressDeathTest, ChecksFireOnBadArguments) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g = Path(4);
  SerialExecutor serial;
  // Out-of-range source.
  EXPECT_DEATH(SequentialBfs(g, 10, nullptr), "PBFS_CHECK");
  // Unsupported bitset width.
  EXPECT_DEATH(MakeMsBfs(g, 100), "PBFS_CHECK");
  // Batch larger than the bitset width.
  auto ms = MakeMsPbfs(g, 64, &serial);
  std::vector<Vertex> too_many(65, 0);
  EXPECT_DEATH(ms->Run(too_many, BfsOptions{}, nullptr), "PBFS_CHECK");
  // Nearest-source columns: MS-PBFS only, and one 64-bit word of sources.
  std::vector<Level> dist(4, kLevelUnreached);
  std::vector<uint64_t> bits0(4, 0);
  std::vector<uint64_t> bits1(4, 0);
  const MultiSourceBfsBase::NearestColumns columns{dist.data(), bits0.data(),
                                                   bits1.data(), 1};
  const std::vector<Vertex> one = {0};
  EXPECT_DEATH(MakeMsBfs(g, 64)->RunNearest(one, BfsOptions{}, columns),
               "PBFS_CHECK");
  auto wide = MakeMsPbfs(g, 128, &serial);
  EXPECT_DEATH(wide->RunNearest(too_many, BfsOptions{}, columns),
               "PBFS_CHECK");
}

TEST(StressDeathTest, LevelOverflowIsCaughtNotWrapped) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A path longer than the 16-bit level range must abort rather than
  // silently wrap distances.
  Graph g = Path(70000);
  EXPECT_DEATH(SequentialBfs(g, 0, nullptr), "PBFS_CHECK");
}

}  // namespace
}  // namespace pbfs
