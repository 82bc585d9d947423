// Cluster-BFS distance-sketch oracle: build cost, per-query resolve
// cost, bound quality, and the engine's sketch fast path vs. the exact
// traversal fallback.
//
// The headline number is speedup_p50: the exact bounded SMS-PBFS
// point-to-point p50 divided by the engine's sketch-resolved p50 on the
// same pair stream. The acceptance bar is >= 50x on an ER graph of 2^20
// vertices (--min_speedup gates the exit code; 0 disables the gate for
// exploratory runs).
//
// Emits BENCH_sketch.json (see BenchJson in util/bench_json.h);
// compare against bench/baselines/BENCH_sketch.json with
// scripts/bench_compare.py (warn-only in CI — sketch latencies are
// microsecond-scale and noisy on shared runners).
//
//   ./sketch_oracle [--vertices_log2 20] [--avg_degree 16]
//                   [--clusters 16] [--cluster_size 64]
//                   [--resolve_pairs 4096] [--engine_pairs 256]
//                   [--exact_pairs 24] [--tolerance 2] [--threads N]
//                   [--min_speedup 50] [--json_out BENCH_sketch.json]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bfs/registry.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "obs/obs_cli.h"
#include "sched/worker_pool.h"
#include "sketch/oracle.h"
#include "sketch/sketch.h"
#include "util/rng.h"

namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

}  // namespace

int main(int argc, char** argv) {
  int64_t vertices_log2 = 20;
  int64_t avg_degree = 16;
  int64_t clusters = 16;
  int64_t cluster_size = 64;
  int64_t resolve_pairs = 4096;
  int64_t engine_pairs = 256;
  int64_t exact_pairs = 24;
  int64_t tolerance = 2;
  int64_t threads = pbfs::bench::DefaultThreads();
  double min_speedup = 50.0;
  std::string json_out = "BENCH_sketch.json";
  pbfs::FlagParser flags(
      "Cluster-BFS distance sketches: build cost, bound quality, and "
      "sketch-resolved vs. exact point-to-point latency");
  flags.AddInt64("vertices_log2", &vertices_log2, "log2 of ER graph size");
  flags.AddInt64("avg_degree", &avg_degree, "ER average degree");
  flags.AddInt64("clusters", &clusters, "sketch clusters");
  flags.AddInt64("cluster_size", &cluster_size,
                 "max vertices per cluster (<= 64)");
  flags.AddInt64("resolve_pairs", &resolve_pairs,
                 "pairs for the sketch-only resolve loop");
  flags.AddInt64("engine_pairs", &engine_pairs,
                 "pairs submitted through the engine fast path");
  flags.AddInt64("exact_pairs", &exact_pairs,
                 "pairs for the exact-traversal reference");
  flags.AddInt64("tolerance", &tolerance,
                 "accepted bound gap for engine queries");
  flags.AddInt64("threads", &threads, "worker threads");
  flags.AddDouble("min_speedup", &min_speedup,
                  "fail unless exact_p50/sketch_p50 >= this (0 disables)");
  flags.AddString("json_out", &json_out, "machine-readable output path");
  pbfs::obs::ObsCli obs_cli("sketch_oracle");
  obs_cli.Register(&flags);
  flags.Parse(argc, argv);
  obs_cli.set_json_path(json_out);
  obs_cli.set_always_write_json(true);
  obs_cli.Start();

  const pbfs::Vertex n = pbfs::Vertex{1} << vertices_log2;
  const pbfs::EdgeIndex m =
      static_cast<pbfs::EdgeIndex>(n) * avg_degree / 2;
  pbfs::Graph graph = pbfs::ErdosRenyi(n, m, /*seed=*/7);
  std::printf("graph: ER, %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  pbfs::WorkerPool pool({.num_workers = static_cast<int>(threads)});
  const pbfs::SketchOptions sketch_options{
      .num_clusters = static_cast<int>(clusters),
      .cluster_size = static_cast<int>(cluster_size)};

  // Build-cost scaling: the same sketch configuration over ER graphs of
  // n/16, n/4, and n vertices (one MS-PBFS pass per cluster, writing the
  // sketch entries as it discovers each vertex; see sketch/sketch.h).
  pbfs::bench::PrintTitle("sketch build cost");
  double build_s[3] = {0, 0, 0};
  const int64_t size_shift[3] = {4, 2, 0};
  for (int i = 0; i < 3; ++i) {
    const pbfs::Vertex ni = n >> size_shift[i];
    const pbfs::EdgeIndex mi =
        static_cast<pbfs::EdgeIndex>(ni) * avg_degree / 2;
    pbfs::Graph gi = pbfs::ErdosRenyi(ni, mi, /*seed=*/7);
    pbfs::Timer timer;
    auto s = pbfs::BuildSketch(gi, /*content_version=*/1, &pool,
                               sketch_options);
    build_s[i] = timer.ElapsedSeconds();
    std::printf("  %9u vertices: %.3f s (%.1f MB)\n", gi.num_vertices(),
                build_s[i],
                static_cast<double>(s->SketchBytes()) / 1e6);
  }

  auto sketch = pbfs::BuildSketch(graph, /*content_version=*/1, &pool,
                                  sketch_options);
  const uint64_t sketch_bytes = sketch->SketchBytes();

  // Sketch-only resolve loop: bound quality and raw per-pair cost.
  pbfs::bench::PrintTitle("sketch-only resolve");
  pbfs::Rng rng(11);
  std::vector<std::pair<pbfs::Vertex, pbfs::Vertex>> pairs;
  for (int64_t i = 0; i < resolve_pairs; ++i) {
    pairs.emplace_back(static_cast<pbfs::Vertex>(rng.NextBounded(n)),
                       static_cast<pbfs::Vertex>(rng.NextBounded(n)));
  }
  pbfs::DistanceOracle resolve_oracle(sketch);
  uint64_t hits_tol[3] = {0, 0, 0};
  std::vector<double> gaps;
  pbfs::Timer resolve_timer;
  for (const auto& [s, t] : pairs) {
    const pbfs::DistanceBounds b = resolve_oracle.Resolve(s, t).bounds;
    if (b.upper != pbfs::kLevelUnreached) {
      const uint32_t gap = static_cast<uint32_t>(b.upper - b.lower);
      gaps.push_back(static_cast<double>(gap));
      for (int tol = 0; tol < 3; ++tol) {
        if (gap <= static_cast<uint32_t>(tol)) ++hits_tol[tol];
      }
    }
  }
  const double resolve_s = resolve_timer.ElapsedSeconds();
  const double resolve_ns_mean =
      resolve_s * 1e9 / static_cast<double>(resolve_pairs);
  const double sketch_qps = static_cast<double>(resolve_pairs) / resolve_s;
  double mean_gap = 0.0;
  for (double g : gaps) mean_gap += g;
  mean_gap /= gaps.empty() ? 1.0 : static_cast<double>(gaps.size());
  const double p95_gap = Percentile(gaps, 0.95);
  const auto hit_rate = [&](int tol) {
    return static_cast<double>(hits_tol[tol]) /
           static_cast<double>(resolve_pairs);
  };
  std::printf("  %.0f resolves/s (%.0f ns/pair, %.1f MB sketch)\n",
              sketch_qps, resolve_ns_mean,
              static_cast<double>(sketch_bytes) / 1e6);
  std::printf("  hit rate: tol0 %.2f, tol1 %.2f, tol2 %.2f | "
              "gap mean %.2f, p95 %.2f\n",
              hit_rate(0), hit_rate(1), hit_rate(2), mean_gap, p95_gap);

  // Exact reference: bounded SMS-PBFS traversals, the same work the
  // engine's fallback path does per unresolved query.
  pbfs::bench::PrintTitle("exact point-to-point reference");
  auto single = pbfs::FindVariantRunner("smspbfs_bit", graph, &pool);
  std::vector<pbfs::Level> levels(graph.num_vertices());
  std::vector<double> exact_ms;
  uint64_t distance_sink = 0;
  for (int64_t i = 0; i < exact_pairs; ++i) {
    const auto& [s, t] = pairs[static_cast<size_t>(i)];
    pbfs::BfsOptions options;
    const pbfs::DistanceBounds b = sketch->Query(s, t);
    if (b.upper != pbfs::kLevelUnreached) options.max_level = b.upper;
    pbfs::Timer timer;
    single->ComputeLevels({&s, 1}, options, levels.data());
    distance_sink += levels[t];
    exact_ms.push_back(timer.ElapsedMillis());
  }
  const double exact_p50_ms = Percentile(exact_ms, 0.5);
  std::printf("  exact p50: %.3f ms over %lld pairs\n", exact_p50_ms,
              static_cast<long long>(exact_pairs));

  // Engine end-to-end: Submit() -> future.get() latency per pair, split
  // by whether the sketch answered inline.
  pbfs::bench::PrintTitle("engine fast path");
  pbfs::QueryEngineOptions engine_options;
  engine_options.enable_sketches = true;
  engine_options.sketch = sketch_options;
  engine_options.sketch_workers = static_cast<int>(threads);
  pbfs::QueryEngine engine(graph, &pool, engine_options);
  obs_cli.WatchPool(&pool);
  obs_cli.WatchEngine(&engine);
  engine.WaitSketchIdle();
  std::vector<double> sketch_ms, fallback_ms;
  for (int64_t i = 0; i < engine_pairs; ++i) {
    const auto& [s, t] = pairs[static_cast<size_t>(i)];
    pbfs::Query query;
    query.type = pbfs::QueryType::kPointToPointDistance;
    query.source = s;
    query.targets = {t};
    query.tolerance = static_cast<pbfs::Level>(tolerance);
    pbfs::Timer timer;
    auto sub = engine.Submit(std::move(query));
    const pbfs::QueryResult result = sub.result.get();
    const double ms = timer.ElapsedMillis();
    distance_sink += result.distance;
    (result.sketch_resolved ? sketch_ms : fallback_ms).push_back(ms);
  }
  engine.Drain();
  const double sketch_p50_ms = Percentile(sketch_ms, 0.5);
  const double fallback_p50_ms = Percentile(fallback_ms, 0.5);
  const double speedup_p50 =
      sketch_p50_ms > 0.0 ? exact_p50_ms / sketch_p50_ms : 0.0;
  std::printf("  sketch-resolved: %zu queries, p50 %.6f ms\n",
              sketch_ms.size(), sketch_p50_ms);
  std::printf("  exact fallback:  %zu queries, p50 %.3f ms\n",
              fallback_ms.size(), fallback_p50_ms);
  std::printf("  speedup (exact p50 / sketch p50): %.1fx\n", speedup_p50);
  std::printf("  engine stats: %s\n", engine.Stats().ToString().c_str());
  std::printf("  distance checksum: %llu\n",
              static_cast<unsigned long long>(distance_sink));

  pbfs::BenchJson& json = obs_cli.json();
  json.Add("vertices", static_cast<uint64_t>(graph.num_vertices()));
  json.Add("edges", static_cast<uint64_t>(graph.num_edges()));
  json.Add("threads", static_cast<int64_t>(threads));
  json.Add("clusters", static_cast<int64_t>(clusters));
  json.Add("cluster_size", static_cast<int64_t>(cluster_size));
  json.Add("tolerance", static_cast<int64_t>(tolerance));
  json.Add("build_s_16th", build_s[0]);
  json.Add("build_s_quarter", build_s[1]);
  json.Add("build_s_full", build_s[2]);
  json.Add("sketch_bytes", sketch_bytes);
  json.Add("sketch_qps", sketch_qps);
  json.Add("resolve_ns_mean", resolve_ns_mean);
  json.Add("hit_rate_tol0", hit_rate(0));
  json.Add("hit_rate_tol1", hit_rate(1));
  json.Add("hit_rate_tol2", hit_rate(2));
  json.Add("mean_gap", mean_gap);
  json.Add("p95_gap", p95_gap);
  json.Add("exact_p50_ms", exact_p50_ms);
  json.Add("sketch_p50_ms", sketch_p50_ms);
  json.Add("fallback_p50_ms", fallback_p50_ms);
  json.Add("speedup_p50", speedup_p50);
  json.Add("sketch_resolved", static_cast<uint64_t>(sketch_ms.size()));
  json.Add("engine_fallbacks", static_cast<uint64_t>(fallback_ms.size()));
  obs_cli.Finish();

  if (min_speedup > 0.0 && speedup_p50 < min_speedup) {
    std::printf("FAIL: speedup_p50 %.1fx < --min_speedup %.1fx\n",
                speedup_p50, min_speedup);
    return 1;
  }
  return 0;
}
