#include "graph/parallel_build.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/sort_unique.h"
#include "sched/worker_pool.h"
#include "util/rng.h"

namespace pbfs {
namespace {

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "vertex " << v << " slot " << i;
    }
  }
}

std::vector<Edge> StarEdges(Vertex n, Vertex hub) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v) {
    if (v != hub) edges.push_back({hub, v});
  }
  return edges;
}

class ParallelBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBuildTest, MatchesSequentialBuilder) {
  WorkerPool pool({.num_workers = GetParam(), .pin_threads = false});
  struct Case {
    const char* name;
    Vertex n;
    std::vector<Edge> edges;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", 0, {}});
  cases.push_back({"isolated", 5, {}});
  cases.push_back({"loops_and_dups",
                   4,
                   {{0, 0}, {0, 1}, {1, 0}, {0, 1}, {2, 3}, {3, 3}}});
  cases.push_back({"kron", 1 << 12,
                   KroneckerEdges({.scale = 12, .edge_factor = 8,
                                   .seed = 19})});
  cases.push_back({"social", 4096,
                   SocialNetworkEdges({.num_vertices = 4096,
                                       .avg_degree = 12.0, .seed = 23})});
  // The rest aim at the owner ranges of the scatter. A star's hub holds
  // half of all slots, so at 3+ workers several cuts fall on it and the
  // ranges between them are empty.
  cases.push_back({"star_hub_first", 1000, StarEdges(1000, 0)});
  cases.push_back({"star_hub_middle", 1000, StarEdges(1000, 500)});
  std::vector<Edge> heavy_hub = StarEdges(64, 63);
  for (int copy = 0; copy < 3; ++copy) {
    for (const Edge& e : StarEdges(64, 63)) heavy_hub.push_back({e.v, e.u});
  }
  heavy_hub.push_back({1, 2});
  cases.push_back({"star_hub_last_with_dups", 64, heavy_hub});
  // More workers than vertices, no slots at all, endpoints at 0 and n-1.
  cases.push_back({"three_vertices", 3, {{0, 1}, {1, 2}}});
  cases.push_back({"only_self_loops", 5, {{0, 0}, {1, 1}, {4, 4}, {4, 4}}});
  cases.push_back({"ends_of_range",
                   100,
                   {{0, 99}, {99, 0}, {0, 50}, {99, 98}, {0, 0}, {99, 99}}});
  std::vector<Edge> kron =
      KroneckerEdges({.scale = 14, .edge_factor = 16, .seed = 31});
  // Every other edge once more, reversed, on top of the generator's own
  // duplicates.
  const size_t kron_size = kron.size();
  for (size_t i = 0; i < kron_size; i += 2) {
    kron.push_back({kron[i].v, kron[i].u});
  }
  cases.push_back({"kron_duplicates", 1 << 14, std::move(kron)});
  // The rest aim at the two branches of SortUniqueNeighbors: at these
  // sizes lists of 4 or more ids take the bitmap. n is not a multiple
  // of 64, so the last bitmap word is partial.
  const Vertex odd_n = (1 << 14) + 37;
  std::vector<Edge> bitmap_edges;
  for (int copy = 0; copy < 50; ++copy) {
    bitmap_edges.push_back({5, 9});  // both lists: one id, 50 times
    bitmap_edges.push_back({0, odd_n - 1});
  }
  for (Vertex v = 0; v < odd_n; v += 97) {
    bitmap_edges.push_back({100, v});   // hub over the whole id range
    bitmap_edges.push_back({v, 100});
  }
  bitmap_edges.push_back({100, odd_n - 1});
  for (Vertex v : {Vertex{1}, Vertex{2}, Vertex{3}}) {
    bitmap_edges.push_back({0, v});          // 0: ids 1..3 and n-1
    bitmap_edges.push_back({odd_n - 1, v});  // n-1: ids 0..3, 100
  }
  bitmap_edges.push_back({200, 201});  // 200: three ids, below the bitmap
  bitmap_edges.push_back({200, 202});
  bitmap_edges.push_back({200, 203});
  cases.push_back({"bitmap_branches", odd_n, std::move(bitmap_edges)});
  cases.push_back({"kron_odd_n", odd_n,
                   KroneckerEdges({.scale = 14, .edge_factor = 8,
                                   .seed = 37})});
  for (const Case& c : cases) {
    Graph sequential = Graph::FromEdges(c.n, c.edges);
    Graph parallel = BuildGraphParallel(c.n, c.edges, &pool);
    SCOPED_TRACE(c.name);
    ExpectSameGraph(sequential, parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelBuildTest,
                         ::testing::Values(1, 2, 4, 7));

// Both branches against std::sort + std::unique, reusing one bitmap
// across calls as the build's workers do.
TEST(SortUniqueNeighborsTest, MatchesSortUnique) {
  Rng rng(41);
  std::vector<uint64_t> bitmap;
  for (Vertex n : {Vertex{1}, Vertex{63}, Vertex{64}, Vertex{4096},
                   Vertex{(1 << 14) + 37}}) {
    bitmap.clear();
    for (size_t degree : {0, 1, 2, 3, 4, 5, 64, 500, 3000}) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        std::vector<Vertex> list(degree);
        for (Vertex& v : list) {
          switch (pattern) {
            case 0:  // spread over [0, n)
              v = static_cast<Vertex>(rng.NextBounded(n));
              break;
            case 1:  // one id, repeated
              v = n / 2;
              break;
            case 2:  // only the two ends
              v = rng.NextBounded(2) == 0 ? 0 : n - 1;
              break;
            default:  // a narrow window
              v = static_cast<Vertex>(rng.NextBounded(std::min<Vertex>(n, 70)));
              break;
          }
        }
        std::vector<Vertex> want = list;
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        const size_t kept = SortUniqueNeighbors(
            list.data(), list.data() + list.size(), n, &bitmap);
        list.resize(kept);
        EXPECT_EQ(list, want) << "n=" << n << " degree=" << degree
                              << " pattern=" << pattern;
        EXPECT_TRUE(std::all_of(bitmap.begin(), bitmap.end(),
                                [](uint64_t w) { return w == 0; }))
            << "n=" << n << " degree=" << degree << " pattern=" << pattern;
      }
    }
  }
}

TEST(ParallelBuildTest, SerialExecutorWorksToo) {
  SerialExecutor serial;
  std::vector<Edge> edges = ErdosRenyiEdges(1000, 5000, 3);
  Graph sequential = Graph::FromEdges(1000, edges);
  Graph parallel = BuildGraphParallel(1000, edges, &serial);
  ExpectSameGraph(sequential, parallel);
}

}  // namespace
}  // namespace pbfs
