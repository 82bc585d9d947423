// pbfs_perfbench: runs one benchmark workload and prints its result as
// one JSON object on the last line of stdout.
//
//   pbfs_perfbench --workload batch|serve_read|serve_churn --seed N
//                  --seconds S --trace 0|1 [--top-down-only]
//                  [--cache-dir DIR] [--trace-out FILE] [--git-sha SHA]
//
// Exit codes: 0 measured and every checked answer matched; 1 usage
// error; 3 a wrong answer; 4 the run is not a valid measurement.
// perfbench/run.py builds this binary and wraps it in the benchmark's
// command-line contract.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "pbfs_perfbench: %s\nusage: pbfs_perfbench --workload "
               "batch|serve_read|serve_churn --seed N --seconds S --trace "
               "0|1 [--top-down-only] [--cache-dir DIR] [--trace-out FILE] "
               "[--git-sha SHA]\n",
               msg);
  return 1;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--top-down-only") {
      args.top_down_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  Report report;
  SpanLog spans;
  if (args.trace) spans.Enable();
  AddFingerprint(args, &report);
  const CpuTimes cpu0 = ReadCpuTimes();
  if (args.workload == "batch") {
    RunBatch(args, &spans, &report);
  } else if (args.workload == "serve_read") {
    RunServe(args, /*churn=*/false, &spans, &report);
  } else if (args.workload == "serve_churn") {
    RunServe(args, /*churn=*/true, &spans, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const CpuTimes cpu1 = ReadCpuTimes();
  if (cpu1.total > cpu0.total) {
    report.NoteNumber("env.steal_frac",
                      static_cast<double>(cpu1.steal - cpu0.steal) /
                          static_cast<double>(cpu1.total - cpu0.total));
  }
  if (args.trace && !args.trace_out.empty() &&
      !spans.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "pbfs_perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  if (report.mismatches > 0) return 3;
  if (report.invalid) return 4;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
