#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "graph/generators.h"
#include "graph/labeling.h"
#include "graph/parallel_build.h"
#include "perfbench.h"
#include "util/timer.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

uint64_t LastLevelCacheBytes() {
  uint64_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadFirstLine(dir + "/level");
    const std::string size = ReadFirstLine(dir + "/size");
    if (level.empty() || size.empty()) continue;
    uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    const int lv = std::atoi(level.c_str());
    if (lv >= best_level) {
      best_level = lv;
      best = bytes;
    }
  }
  return best;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t field = 0;
  for (int i = 0; i < 10 && (in >> field); ++i) {
    if (i < 8) t.total += field;  // guest time is already in user
    if (i == 7) t.steal = field;
  }
  return t;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Context(const std::string& name, double value,
                     const std::string& unit) {
  context_[name] = Metric{value, unit};
}

void Report::NoteNumber(const std::string& key, double value) {
  notes_[key] = JsonNumber(value);
}

void Report::NoteString(const std::string& key, const std::string& value) {
  notes_[key] = JsonString(value);
}

void Report::Mismatch(const std::string& what) {
  ++mismatches;
  if (problems_.size() < 20) problems_.push_back("mismatch: " + what);
}

void Report::Invalid(const std::string& why) {
  invalid = true;
  problems_.push_back("invalid: " + why);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
      << ", \"valid\": " << (invalid ? "false" : "true")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"checked\": " << checked << ", \"mismatches\": " << mismatches
      << ", \"metrics\": {";
  auto write = [&out](const std::map<std::string, Metric>& metrics) {
    bool first = true;
    for (const auto& [name, m] : metrics) {
      out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
          << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
          << "}";
      first = false;
    }
  };
  write(metrics_);
  out << "}, \"context\": {";
  write(context_);
  out << "}, \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << value;
    first = false;
  }
  out << "}, \"problems\": [";
  for (size_t i = 0; i < problems_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(problems_[i]);
  }
  out << "]}";
  return out.str();
}

void SpanLog::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                  uint64_t id, const std::string& args) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, id, args});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per request id keeps a request's due/sent/answered
    // spans together; set-up and kernel calls share track 0.
    std::fprintf(f,
                 "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu64
                 ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}%s\n",
                 JsonString(s.name).c_str(), s.id,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 s.args.c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(std::llround(rank))];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

int NumCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<pbfs::Edge> CachedKroneckerEdges(const std::string& cache_dir,
                                             int scale, int edge_factor,
                                             uint64_t graph_seed) {
  const std::string path = cache_dir + "/kron-s" + std::to_string(scale) +
                           "-e" + std::to_string(edge_factor) + "-g" +
                           std::to_string(graph_seed) + ".edges";
  const uint64_t expected = (uint64_t{1} << scale) *
                            static_cast<uint64_t>(edge_factor);
  std::vector<pbfs::Edge> edges;
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    edges.resize(expected);
    const size_t got = std::fread(edges.data(), sizeof(pbfs::Edge),
                                  edges.size(), f);
    const bool at_end = std::fgetc(f) == EOF;
    std::fclose(f);
    if (got == expected && at_end) return edges;
  }
  edges = pbfs::KroneckerEdges({.scale = scale,
                                .edge_factor = edge_factor,
                                .seed = graph_seed});
  ::mkdir(cache_dir.c_str(), 0755);
  // Write-then-rename so an interrupted run never leaves a short file
  // that a later run would have to detect.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  if (FILE* f = std::fopen(tmp.c_str(), "wb")) {
    const bool ok = std::fwrite(edges.data(), sizeof(pbfs::Edge),
                                edges.size(), f) == edges.size();
    if (std::fclose(f) == 0 && ok) {
      std::rename(tmp.c_str(), path.c_str());
    } else {
      std::remove(tmp.c_str());
    }
  }
  return edges;
}

BuiltGraph BuildStripedGraph(pbfs::Vertex num_vertices,
                             const std::vector<pbfs::Edge>& edges,
                             pbfs::Executor* executor, SpanLog* spans,
                             const std::string& span_prefix) {
  BuiltGraph out;
  const int64_t t0 = pbfs::NowNanos();
  pbfs::Graph raw = pbfs::BuildGraphParallel(num_vertices, edges, executor);
  const int64_t t1 = pbfs::NowNanos();
  const std::vector<pbfs::Vertex> perm = pbfs::ComputeLabeling(
      raw, pbfs::Labeling::kStriped,
      {.num_workers = executor->num_workers(), .split_size = 1024});
  out.graph = pbfs::ApplyLabelingParallel(raw, perm, executor);
  const int64_t t2 = pbfs::NowNanos();
  out.build_s = static_cast<double>(t1 - t0) / 1e9;
  out.label_s = static_cast<double>(t2 - t1) / 1e9;
  spans->Add(span_prefix + "graph.build", t0, t1);
  spans->Add(span_prefix + "graph.label", t1, t2);
  return out;
}

void AddFingerprint(const Args& args, Report* report) {
  const uint64_t llc = LastLevelCacheBytes();
  report->NoteString("env.cpu_model", CpuModel());
  report->NoteNumber("env.nproc", NumCpus());
  report->NoteNumber("env.llc_mb", static_cast<double>(llc) / 1e6);
  report->NoteString("env.build_type", PERFBENCH_BUILD_TYPE);
#ifdef PBFS_TRACING
  report->NoteString("env.pbfs_tracing", "ON");
#else
  report->NoteString("env.pbfs_tracing", "OFF");
#endif
#ifdef PBFS_SCHED_PERTURB
  report->NoteString("env.pbfs_sched_testing", "ON");
#else
  report->NoteString("env.pbfs_sched_testing", "OFF");
#endif
  report->NoteString("env.compiler", PERFBENCH_COMPILER);
  report->NoteString("env.git_sha", args.git_sha);
  report->NoteString("workload", args.workload);
  report->NoteNumber("seed", static_cast<double>(args.seed));
  report->NoteNumber("seconds", args.seconds);
  report->NoteNumber("trace", args.trace ? 1 : 0);
}

}  // namespace perfbench
