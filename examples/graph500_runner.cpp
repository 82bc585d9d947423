// Graph500-style benchmark runner: generates the benchmark's Kronecker
// graph, runs BFS from 64 random sources (the benchmark's kernel 2),
// validates every result with the Graph500 rules, and reports harmonic-
// mean-style GTEPS — the workload the paper's evaluation is built
// around.
//
//   ./graph500_runner [--scale N] [--threads T] [--algorithm sms|ms]

#include <algorithm>
#include <cstdio>
#include <string>

#include "bfs/gteps.h"
#include "bfs/multi_source.h"
#include "bfs/single_source.h"
#include "bfs/validate.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/labeling.h"
#include "graph/parallel_build.h"
#include "sched/worker_pool.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  int64_t scale = 14;
  int64_t edge_factor = 16;
  int64_t threads = 4;
  int64_t num_sources = 64;
  std::string algorithm = "ms";  // "ms" = MS-PBFS batch, "sms" = SMS-PBFS
  pbfs::FlagParser flags("Graph500-style BFS benchmark with validation");
  flags.AddInt64("scale", &scale, "Kronecker scale");
  flags.AddInt64("edge_factor", &edge_factor, "edges per vertex");
  flags.AddInt64("threads", &threads, "worker threads");
  flags.AddInt64("sources", &num_sources, "BFS roots (Graph500: 64)");
  flags.AddString("algorithm", &algorithm,
                  "\"ms\" (MS-PBFS, one batch) or \"sms\" (SMS-PBFS)");
  flags.Parse(argc, argv);

  pbfs::WorkerPool pool({.num_workers = static_cast<int>(threads)});

  // Kernel 1: graph construction (edge generation + parallel CSR build
  // + striped relabeling).
  pbfs::Timer timer;
  std::vector<pbfs::Edge> edge_list = pbfs::KroneckerEdges(
      {.scale = static_cast<int>(scale),
       .edge_factor = static_cast<int>(edge_factor),
       .seed = 1});
  pbfs::Graph raw = pbfs::BuildGraphParallel(
      pbfs::Vertex{1} << scale, edge_list, &pool);
  std::vector<pbfs::Edge>().swap(edge_list);
  std::vector<pbfs::Vertex> perm = pbfs::ComputeLabeling(
      raw, pbfs::Labeling::kStriped,
      {.num_workers = static_cast<int>(threads), .split_size = 1024});
  pbfs::Graph graph = pbfs::ApplyLabelingParallel(raw, perm, &pool);
  std::printf("kernel 1 (construction): %.2f s — %u vertices, %llu edges\n",
              timer.ElapsedSeconds(), graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  pbfs::ComponentInfo components = pbfs::ComputeComponents(graph);
  std::vector<pbfs::Vertex> sources =
      pbfs::PickSources(graph, static_cast<int>(num_sources), 2);

  // Kernel 2: BFS + validation.
  const pbfs::Vertex n = graph.num_vertices();
  std::vector<pbfs::Level> levels;
  int validated = 0;
  double seconds = 0;

  std::vector<double> per_source_teps;
  if (algorithm == "sms") {
    auto bfs = pbfs::MakeSmsPbfs(graph, pbfs::SmsVariant::kBit, &pool);
    levels.resize(n);
    for (pbfs::Vertex s : sources) {
      timer.Restart();
      bfs->Run(s, pbfs::BfsOptions{}, levels.data());
      double bfs_seconds = timer.ElapsedSeconds();
      seconds += bfs_seconds;
      pbfs::Vertex one_source[] = {s};
      per_source_teps.push_back(static_cast<double>(pbfs::TraversedEdges(
                                    components, one_source)) /
                                std::max(bfs_seconds, 1e-12));
      std::string error;
      if (!pbfs::ValidateLevels(graph, s, levels.data(), &components,
                                &error)) {
        std::printf("VALIDATION FAILED for source %u: %s\n", s,
                    error.c_str());
        return 1;
      }
      ++validated;
    }
  } else {
    auto bfs = pbfs::MakeMsPbfs(graph, 64, &pool);
    levels.resize(sources.size() * static_cast<size_t>(n));
    timer.Restart();
    bfs->Run(sources, pbfs::BfsOptions{}, levels.data());
    seconds = timer.ElapsedSeconds();
    for (size_t i = 0; i < sources.size(); ++i) {
      std::string error;
      if (!pbfs::ValidateLevels(graph, sources[i],
                                levels.data() + i * n, &components,
                                &error)) {
        std::printf("VALIDATION FAILED for source %u: %s\n", sources[i],
                    error.c_str());
        return 1;
      }
      ++validated;
    }
  }

  uint64_t edges = pbfs::TraversedEdges(components, sources);
  std::printf("kernel 2 (%s): %d/%zu BFS results validated\n",
              algorithm.c_str(), validated, sources.size());
  std::printf("BFS time %.4f s over %llu traversed edges -> %.3f GTEPS\n",
              seconds, static_cast<unsigned long long>(edges),
              pbfs::Gteps(edges, seconds));

  // Graph500-style per-BFS TEPS statistics (single-source mode only).
  if (!per_source_teps.empty()) {
    std::sort(per_source_teps.begin(), per_source_teps.end());
    auto quantile = [&](double q) {
      size_t i = static_cast<size_t>(q * (per_source_teps.size() - 1));
      return per_source_teps[i];
    };
    double harmonic_denominator = 0;
    for (double teps : per_source_teps) harmonic_denominator += 1.0 / teps;
    double harmonic_mean =
        static_cast<double>(per_source_teps.size()) / harmonic_denominator;
    std::printf("per-BFS TEPS: min %.3g, q1 %.3g, median %.3g, q3 %.3g, "
                "max %.3g, harmonic mean %.3g\n",
                quantile(0.0), quantile(0.25), quantile(0.5),
                quantile(0.75), quantile(1.0), harmonic_mean);
  }
  return 0;
}
