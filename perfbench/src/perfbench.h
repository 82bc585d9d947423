// Shared plumbing of the end-to-end benchmark binary: run arguments,
// the metric report, in-memory trace spans, percentiles, the edge-list
// cache, and the timed graph set-up every workload starts with.
//
// The benchmark measures the library only from outside: it times its
// own calls into each layer's public functions and reads the public
// stats and trace-store APIs. Nothing here is part of the library.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "sched/executor.h"
#include "sched/worker_pool.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Sensitivity configuration for `batch`: pure top-down traversal
  // through the public BfsOptions::enable_bottom_up switch.
  bool top_down_only = false;
  std::string cache_dir = ".bench_build/cache";
  std::string trace_out;  // span file written at exit; empty = none
  std::string git_sha = "unknown";
};

// Metrics of one run plus the answer-check tally. Printed by main() as
// one JSON object on the last line of stdout.
class Report {
 public:
  // Records a metric BENCHMARK.json names. Every workload adds every
  // metric of its mode; NaN (printed as null) marks a metric whose
  // sample came out empty, which perfbench/run.py rejects.
  void Add(const std::string& name, double value, const std::string& unit);
  // Records a number only some workloads measure (a layer the others do
  // not load). run.py prints it with its unit; it is never compared.
  void Context(const std::string& name, double value,
               const std::string& unit);
  // Context recorded next to the metrics (environment fingerprint,
  // workload shares, notes); never compared between runs.
  void NoteNumber(const std::string& key, double value);
  void NoteString(const std::string& key, const std::string& value);
  // A wrong answer: the run exits non-zero after printing.
  void Mismatch(const std::string& what);
  // The run cannot be trusted as a measurement (e.g. the open-loop
  // generator fell behind its schedule); exits non-zero as well.
  void Invalid(const std::string& why);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  bool invalid = false;

  std::string ToJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> context_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> problems_;
};

// Spans the benchmark records around its own calls into each layer,
// kept in memory and written as a Chrome trace file when the run ends.
class SpanLog {
 public:
  // Records [start_ns, end_ns) under `name`; `id` groups the spans of
  // one request (0 = none), `args` is a JSON object body or empty.
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           uint64_t id = 0, const std::string& args = "");
  void Enable() { enabled_ = true; }
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    std::string args;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// q-quantile (0..1) by nearest rank; NaN for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

int NumCpus();

// Cumulative CPU time of the machine from /proc/stat, in clock ticks:
// `steal` is time a virtual CPU was runnable but the hypervisor ran
// something else. Recorded with each result to tell host contention
// apart from a slow program.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

// Last-level cache size reported by sysfs, in bytes (0 when unknown).
uint64_t LastLevelCacheBytes();

// Kronecker edge list for a fixed benchmark graph, generated once and
// cached under `cache_dir`. Generating the input is not system set-up
// and is never timed.
std::vector<pbfs::Edge> CachedKroneckerEdges(const std::string& cache_dir,
                                             int scale, int edge_factor,
                                             uint64_t graph_seed);

// The timed part of set-up shared by every workload: CSR build from
// the in-memory edge list, then the paper's striped labeling.
struct BuiltGraph {
  pbfs::Graph graph;
  double build_s = 0;
  double label_s = 0;
};
BuiltGraph BuildStripedGraph(pbfs::Vertex num_vertices,
                             const std::vector<pbfs::Edge>& edges,
                             pbfs::Executor* executor, SpanLog* spans,
                             const std::string& span_prefix);

// Environment fingerprint recorded with every result.
void AddFingerprint(const Args& args, Report* report);

// One graph of the kernel phase.
struct KernelGraph {
  // Metric infix: "" for the workload's main graph, whose numbers are
  // BENCHMARK.json metrics (ms_gteps, bfs.ms_batch_ms, ...); any other
  // tag names context numbers (bfs.dense_ms_gteps, ...).
  std::string tag;
  std::string name;  // in spans and mismatch messages
  const pbfs::Graph* graph = nullptr;
  uint64_t source_seed = 0;  // draws sources from the largest component
};

// The kernel phase (kernels.cc): MS-PBFS (and in traced runs SMS-PBFS
// bit and byte) through BfsVariantRunner::ComputeLevels, back to back
// on `pool` over every graph until `seconds` have passed; reports the
// main graph's ms_gteps and time per call, in traced runs also its
// traversal and scheduler layers, and checks answers against
// SequentialBfs. The first graph is the main one.
void RunKernels(const Args& args, const std::vector<KernelGraph>& graphs,
                double seconds, pbfs::WorkerPool* pool, SpanLog* spans,
                Report* report);

// Workloads. Each fills `report` and returns normally; wrong answers
// are recorded through Report::Mismatch.
void RunBatch(const Args& args, SpanLog* spans, Report* report);
void RunServe(const Args& args, bool churn, SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
