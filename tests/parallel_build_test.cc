#include "graph/parallel_build.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sched/worker_pool.h"

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
  for (const Case& c : cases) {
    Graph sequential = Graph::FromEdges(c.n, c.edges);
    Graph parallel = BuildGraphParallel(c.n, c.edges, &pool);
    SCOPED_TRACE(c.name);
    ExpectSameGraph(sequential, parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelBuildTest,
                         ::testing::Values(1, 2, 4, 7));

TEST(ParallelBuildTest, SerialExecutorWorksToo) {
  SerialExecutor serial;
  std::vector<Edge> edges = ErdosRenyiEdges(1000, 5000, 3);
  Graph sequential = Graph::FromEdges(1000, edges);
  Graph parallel = BuildGraphParallel(1000, edges, &serial);
  ExpectSameGraph(sequential, parallel);
}

}  // namespace
}  // namespace pbfs
