// Bounded-depth traversal (BfsOptions::max_level): every kernel must
// visit exactly the vertices within the radius and report levels capped
// at the bound.

#include <utility>

#include <gtest/gtest.h>

#include "bfs/beamer.h"
#include "bfs/multi_source.h"
#include "bfs/single_source.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"
#include "test_util.h"

namespace pbfs {
namespace {

// Truncates a full-level reference to radius `max`.
std::vector<Level> Bounded(const std::vector<Level>& full, Level max) {
  std::vector<Level> bounded(full.size(), kLevelUnreached);
  for (size_t v = 0; v < full.size(); ++v) {
    if (full[v] != kLevelUnreached && full[v] <= max) bounded[v] = full[v];
  }
  return bounded;
}

uint64_t CountReached(const std::vector<Level>& levels) {
  uint64_t count = 0;
  for (Level l : levels) {
    if (l != kLevelUnreached) ++count;
  }
  return count;
}

class BoundedBfsTest : public ::testing::TestWithParam<Level> {};

TEST_P(BoundedBfsTest, SingleSourceKernelsRespectRadius) {
  const Level radius = GetParam();
  BfsOptions options;
  options.max_level = radius;

  Graph graphs[] = {Path(300), Grid(20, 20),
                    SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                                   .seed = 31})};
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  for (const Graph& g : graphs) {
    const Vertex source = g.num_vertices() / 2;
    std::vector<Level> expected =
        Bounded(testing_util::ReferenceLevels(g, source), radius);
    std::vector<Level> got(g.num_vertices());

    for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte,
                               SmsVariant::kQueue}) {
      auto bfs = MakeSmsPbfs(g, variant, &pool);
      BfsResult r = bfs->Run(source, options, got.data());
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << SmsVariantName(variant) << " radius " << radius;
      EXPECT_EQ(r.vertices_visited, CountReached(expected))
          << SmsVariantName(variant);
      EXPECT_LE(r.iterations, static_cast<int>(radius));
    }
    for (BeamerVariant variant : {BeamerVariant::kSparse,
                                  BeamerVariant::kDense,
                                  BeamerVariant::kGapbs}) {
      BfsResult r = BeamerBfs(g, source, variant, options, got.data());
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << BeamerVariantName(variant) << " radius " << radius;
      EXPECT_EQ(r.vertices_visited, CountReached(expected));
      EXPECT_LE(r.iterations, static_cast<int>(radius));
    }
  }
}

TEST_P(BoundedBfsTest, MultiSourceKernelsRespectRadius) {
  const Level radius = GetParam();
  BfsOptions options;
  options.max_level = radius;

  Graph g = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                           .seed = 31});
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources = PickSources(g, 5, 3);
  SerialExecutor serial;

  auto check = [&](MultiSourceBfsBase* bfs, const char* name) {
    std::vector<Level> levels(sources.size() * n);
    bfs->Run(sources, options, levels.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected =
          Bounded(testing_util::ReferenceLevels(g, sources[i]), radius);
      std::vector<Level> got(levels.begin() + i * n,
                             levels.begin() + (i + 1) * n);
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << name << " source index " << i << " radius " << radius;
    }
  };
  auto mspbfs = MakeMsPbfs(g, 64, &serial);
  check(mspbfs.get(), "ms-pbfs");
  auto msbfs = MakeMsBfs(g, 64);
  check(msbfs.get(), "ms-bfs");
  auto jfq = MakeJfqMsBfs(g, 64);
  check(jfq.get(), "jfq");
}

INSTANTIATE_TEST_SUITE_P(Radii, BoundedBfsTest,
                         ::testing::Values<Level>(0, 1, 2, 5),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           return "radius" + std::to_string(info.param);
                         });

TEST_P(BoundedBfsTest, PartlyFilledWideBatchesRespectRadius) {
  // MS-PBFS on four workers at widths 64 and 256, with batches that
  // leave the last bitset word partly empty.
  const Level radius = GetParam();
  BfsOptions options;
  options.max_level = radius;
  Graph g = SocialNetwork({.num_vertices = 3000, .avg_degree = 6.0,
                           .seed = 37});
  const Vertex n = g.num_vertices();
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (auto [width, k] : {std::pair{64, 37}, std::pair{256, 150}}) {
    std::vector<Vertex> sources = PickSources(g, k, 11);
    auto bfs = MakeMsPbfs(g, width, &pool);
    std::vector<Level> levels(sources.size() * n);
    bfs->Run(sources, options, levels.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected =
          Bounded(testing_util::ReferenceLevels(g, sources[i]), radius);
      std::vector<Level> got(levels.begin() + i * n,
                             levels.begin() + (i + 1) * n);
      ASSERT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << "width " << width << " source index " << i << " radius "
          << radius;
    }
  }
}

TEST(BoundedBfsTest, ZeroRadiusVisitsOnlySource) {
  Graph g = Star(50);
  SerialExecutor serial;
  BfsOptions options;
  options.max_level = 0;
  auto bfs = MakeSmsPbfs(g, SmsVariant::kBit, &serial);
  std::vector<Level> levels(g.num_vertices());
  BfsResult r = bfs->Run(0, options, levels.data());
  EXPECT_EQ(r.vertices_visited, 1u);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], kLevelUnreached);
}

}  // namespace
}  // namespace pbfs
