// The kernel phase every workload ends with: closed-loop throughput of
// BfsVariantRunner::ComputeLevels for MS-PBFS, one 64-source batch per
// call, back to back on the workload's worker pool. The traced run adds
// SMS-PBFS bit and SMS-PBFS byte (64 single-source traversals per call)
// to every round.
//
// Only MS-PBFS is gated (ms_gteps). On a shared virtual machine the
// SMS-PBFS calls, made of levels of a few hundred microseconds on the
// served graph, lost about three times as much speed as MS-PBFS for the
// same CPU time stolen by the hypervisor: with 2-7% stolen, their GTEPS
// spread by 0.21 of the median over five seeds, MS-PBFS by 0.12. Their
// time per call is a per-layer metric and their GTEPS are context.
//
// GTEPS use Graph500 accounting: the undirected edges of the source's
// component (graph/components), per source. Sources are drawn by seed
// from the graph's largest component.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bfs/common.h"
#include "bfs/gteps.h"
#include "bfs/registry.h"
#include "bfs/sequential.h"
#include "graph/components.h"
#include "perfbench.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

// Sources per call, for every kernel. SMS-PBFS traverses the first
// batch's 64 sources one by one per call: the time per source varies
// with the source; over 16 sources the median GTEPS of a run moved by
// 0.10 of itself from seed to seed, and 64 sources average that out.
constexpr int kWidth = 64;
// MS-PBFS takes its calls from this many 64-source batches in turn, so
// that ms_gteps averages over more sources than one batch holds. Each
// call writes its level arrays over the same buffer. Calls of all four
// batches at once wrote four buffers, which left the cache between
// calls and hid part of the kernel's own slow-downs: pure top-down read
// 24% slower, against 40% this way.
constexpr int kMsBatches = 4;
// Sources per kernel whose level arrays are diffed against
// SequentialBfs after the timed phase.
constexpr int kCheckSources = 2;
// Rounds run even past the deadline, so that every batch has traced and
// untraced calls; pure top-down traversal (the sensitivity check) takes
// seconds per round.
constexpr int kMinRounds = 2 * kMsBatches;

struct Kernel {
  const char* variant;  // registry name
  const char* metric;   // metric stem
  int batches;          // 64-source batches, one per call in turn
  std::unique_ptr<pbfs::BfsVariantRunner> runner;
  std::vector<std::vector<double>> untraced_ms;  // per batch
  std::vector<std::vector<double>> traced_ms;    // per batch
  pbfs::TraversalStats stats;  // last traced call
  int stats_batch = 0;         // its batch
};

// Time of one pass over every batch: the sum of the batches' median
// call times. Medians per batch keep a burst of host preemption out,
// and the sum weighs each batch by its work.
double PassMs(const std::vector<std::vector<double>>& per_batch) {
  double sum = 0;
  for (const auto& ms : per_batch) sum += Median(ms);
  return sum;
}

struct Timed {
  const KernelGraph* spec;
  pbfs::ComponentInfo components;
  std::vector<pbfs::Vertex> sources;  // from the largest component
  std::vector<Kernel> kernels;

  std::span<const pbfs::Vertex> Batch(int b) const {
    return std::span<const pbfs::Vertex>(sources.data() + b * kWidth,
                                         kWidth);
  }
};

// The main graph's numbers are BENCHMARK.json metrics; a tagged graph's
// are context.
void Emit(Report* report, const KernelGraph& g, const std::string& stem,
          double value, const std::string& unit) {
  if (g.tag.empty()) {
    report->Add(stem, value, unit);
  } else {
    report->Context(stem, value, unit);
  }
}

std::vector<pbfs::Vertex> DrawSources(const pbfs::ComponentInfo& info,
                                      int count, uint64_t seed) {
  const uint32_t largest = info.LargestComponent();
  const pbfs::Vertex n =
      static_cast<pbfs::Vertex>(info.component_of.size());
  pbfs::Rng rng(seed);
  std::vector<pbfs::Vertex> sources;
  std::unordered_set<pbfs::Vertex> seen;
  while (static_cast<int>(sources.size()) < count) {
    const pbfs::Vertex v = static_cast<pbfs::Vertex>(rng.NextBounded(n));
    if (info.component_of[v] == largest && seen.insert(v).second) {
      sources.push_back(v);
    }
  }
  return sources;
}

// Per-traversal counts and shares from one traced MS-PBFS batch.
void AddTraversalLayer(const Timed& g, const Kernel& ms, Report* report) {
  const std::string p = "bfs." + g.spec->tag;
  uint64_t neighbors = 0, updates = 0;
  double total_ms = 0, bu_ms = 0;
  int bu_levels = 0;
  for (const auto& it : ms.stats.iterations()) {
    for (uint64_t x : it.neighbors_visited) neighbors += x;
    for (uint64_t x : it.states_updated) updates += x;
    total_ms += it.runtime_ms;
    if (it.direction == pbfs::Direction::kBottomUp) {
      bu_ms += it.runtime_ms;
      ++bu_levels;
    }
  }
  const double levels = static_cast<double>(ms.stats.iterations().size());
  Emit(report, *g.spec, p + "levels", levels, "count");
  Emit(report, *g.spec, p + "bu_levels", bu_levels, "count");
  Emit(report, *g.spec, p + "edges_scanned", static_cast<double>(neighbors),
       "count");
  Emit(report, *g.spec, p + "useful_frac",
       neighbors ? static_cast<double>(updates) / neighbors : 0, "ratio");
  Emit(report, *g.spec, p + "bu_time_frac",
       total_ms > 0 ? bu_ms / total_ms : 0, "ratio");
  // Computed, not measured: per level the kernel streams the offset
  // array and the three W-bit state arrays (seen, frontier, next) once,
  // and reads one 32-bit id per neighbour it scans; divided by the
  // Graph500 edges of the batch's sources.
  const double n = g.spec->graph->num_vertices();
  const double bytes =
      static_cast<double>(neighbors) * sizeof(pbfs::Vertex) +
      levels * (n + 1) * sizeof(pbfs::EdgeIndex) +
      levels * 3 * n * (kWidth / 8);
  const double edges = static_cast<double>(
      pbfs::TraversedEdges(g.components, g.Batch(ms.stats_batch)));
  Emit(report, *g.spec, p + "bytes_per_edge", edges > 0 ? bytes / edges : 0,
       "computed_B/edge");
}

// Worker-level balance of one traced batch: share of the level wall
// time the workers were busy, and max/mean busy time per level weighted
// by the level's wall time.
void AddSchedLayer(const Kernel& ms, Report* report) {
  double wall = 0, busy = 0, weighted_skew = 0;
  int workers = ms.stats.num_workers();
  for (const auto& it : ms.stats.iterations()) {
    double sum = 0, max = 0;
    for (double b : it.busy_ms) {
      sum += b;
      max = std::max(max, b);
    }
    wall += it.runtime_ms;
    busy += sum;
    if (sum > 0) weighted_skew += it.runtime_ms * max / (sum / workers);
  }
  report->Add("sched.busy_frac", wall > 0 ? busy / (workers * wall) : 0,
              "ratio");
  report->Add("sched.skew", wall > 0 ? weighted_skew / wall : 0, "ratio");
}

}  // namespace

void RunKernels(const Args& args, const std::vector<KernelGraph>& graphs,
                double seconds, pbfs::WorkerPool* pool, SpanLog* spans,
                Report* report) {
  std::vector<Timed> timed(graphs.size());
  size_t max_vertices = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    Timed& g = timed[i];
    g.spec = &graphs[i];
    g.components = pbfs::ComputeComponents(*g.spec->graph);
    g.sources = DrawSources(g.components, kWidth * kMsBatches,
                            g.spec->source_seed);
    for (auto [variant, metric, batches] :
         {std::tuple{"mspbfs", "ms", kMsBatches},
          std::tuple{"smspbfs_bit", "sms_bit", 1},
          std::tuple{"smspbfs_byte", "sms_byte", 1}}) {
      if (!args.trace && batches == 1) continue;
      g.kernels.push_back(
          Kernel{variant, metric, batches,
                 pbfs::FindVariantRunner(variant, *g.spec->graph, pool,
                                         kWidth),
                 std::vector<std::vector<double>>(batches),
                 std::vector<std::vector<double>>(batches)});
    }
    max_vertices = std::max<size_t>(max_vertices,
                                    g.spec->graph->num_vertices());
  }
  std::vector<pbfs::Level> levels(max_vertices * kWidth);

  pbfs::BfsOptions base_options;
  base_options.enable_bottom_up = !args.top_down_only;
  auto run = [&](Timed& g, Kernel& k, int batch,
                 pbfs::TraversalStats* stats) {
    pbfs::BfsOptions options = base_options;
    options.stats = stats;
    if (stats != nullptr) stats->Reset(pool->num_workers());
    const int64_t t0 = pbfs::NowNanos();
    k.runner->ComputeLevels(g.Batch(batch), options, levels.data());
    const int64_t t1 = pbfs::NowNanos();
    spans->Add("bfs.ComputeLevels", t0, t1, 0,
               "\"variant\": \"" + std::string(k.variant) +
                   "\", \"graph\": \"" + g.spec->name +
                   "\", \"batch\": " + std::to_string(batch) +
                   ", \"traced\": " + (stats ? "true" : "false"));
    return static_cast<double>(t1 - t0) / 1e6;
  };

  // Warm-up: first touch of every kernel's state arrays and the CSR.
  for (Timed& g : timed) {
    for (Kernel& k : g.kernels) run(g, k, 0, nullptr);
  }

  // Timed phase. In the traced run every other round collects
  // BfsOptions::stats, and the untraced rounds are the control for
  // obs.trace_overhead_frac; each batch gets one round of each in turn.
  pool->ResetSchedulerStats();
  const int64_t deadline =
      pbfs::NowNanos() + static_cast<int64_t>(seconds * 1e9);
  int rounds = 0;
  while (rounds < kMinRounds || pbfs::NowNanos() < deadline) {
    const bool traced = args.trace && rounds % 2 == 1;
    const int turn = args.trace ? rounds / 2 : rounds;
    for (Timed& g : timed) {
      for (Kernel& k : g.kernels) {
        const int batch = turn % k.batches;
        if (traced) k.stats_batch = batch;
        const double ms = run(g, k, batch, traced ? &k.stats : nullptr);
        (traced ? k.traced_ms : k.untraced_ms)[batch].push_back(ms);
        ++report->attempted;
      }
    }
    ++rounds;
  }
  const pbfs::WorkerPool::SchedulerStats sched = pool->scheduler_stats();
  report->NoteNumber("kernels.rounds", rounds);

  for (Timed& g : timed) {
    for (Kernel& k : g.kernels) {
      double edges = 0;
      for (int b = 0; b < k.batches; ++b) {
        edges += static_cast<double>(
            pbfs::TraversedEdges(g.components, g.Batch(b)));
      }
      const double pass_ms = PassMs(k.untraced_ms);
      const std::string stem = k.metric;
      const bool gated = stem == "ms" && g.spec->tag.empty();
      const std::string gteps_name =
          (gated ? "" : "bfs." + g.spec->tag) + stem + "_gteps";
      if (gated) {
        report->Add(gteps_name, edges / pass_ms / 1e6, "GTEPS");
      } else {
        report->Context(gteps_name, edges / pass_ms / 1e6, "GTEPS");
      }
      Emit(report, *g.spec,
           "bfs." + g.spec->tag + stem + (stem == "ms" ? "_batch_ms" : "_ms"),
           pass_ms / k.batches, "ms");
    }
  }

  if (args.trace) {
    for (const Timed& g : timed) AddTraversalLayer(g, g.kernels[0], report);
    const Timed& main = timed[0];
    const Kernel& ms = main.kernels[0];
    AddSchedLayer(ms, report);
    report->Add("sched.steal_frac", sched.StealFraction(), "ratio");
    report->Add("obs.trace_overhead_frac",
                PassMs(ms.traced_ms) / PassMs(ms.untraced_ms) - 1, "ratio");

    // Single-thread baseline of the first MS-PBFS batch for
    // sched.efficiency (one warm-up call, one timed call).
    pbfs::WorkerPool single({.num_workers = 1});
    auto runner = pbfs::FindVariantRunner("mspbfs", *main.spec->graph,
                                          &single, kWidth);
    double one_ms = 0;
    for (int i = 0; i < 2; ++i) {
      const int64_t t0 = pbfs::NowNanos();
      runner->ComputeLevels(main.Batch(0), base_options, levels.data());
      const int64_t t1 = pbfs::NowNanos();
      spans->Add("bfs.ComputeLevels.single_worker", t0, t1);
      one_ms = static_cast<double>(t1 - t0) / 1e6;
    }
    report->Add("sched.efficiency",
                one_ms / (pool->num_workers() * Median(ms.untraced_ms[0])),
                "ratio");
  }

  // Answer check, outside the timed region: rerun each kernel on its
  // first batch and diff the first kCheckSources level arrays against
  // the sequential oracle.
  for (Timed& g : timed) {
    const size_t n = g.spec->graph->num_vertices();
    std::vector<std::vector<pbfs::Level>> expected(kCheckSources);
    for (int s = 0; s < kCheckSources; ++s) {
      expected[s].resize(n);
      pbfs::SequentialBfs(*g.spec->graph, g.sources[s], expected[s].data());
    }
    for (Kernel& k : g.kernels) {
      run(g, k, 0, nullptr);
      for (int s = 0; s < kCheckSources; ++s) {
        ++report->checked;
        if (!std::equal(expected[s].begin(), expected[s].end(),
                        levels.begin() + static_cast<ptrdiff_t>(s * n))) {
          report->Mismatch(std::string(k.variant) + " on " + g.spec->name +
                           " source " + std::to_string(g.sources[s]));
        }
      }
    }
  }
}

}  // namespace perfbench
