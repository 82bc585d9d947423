// Shared plumbing for the per-figure benchmark binaries.
//
// Every binary regenerates the rows/series of one table or figure of the
// paper. Defaults are sized for a laptop-class machine (see DESIGN.md,
// substitutions); pass --scale / --threads / --sources to approach the
// paper's configuration on larger hardware.
#ifndef PBFS_BENCH_BENCH_COMMON_H_
#define PBFS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/labeling.h"
#include "util/bench_json.h"
#include "util/flags.h"
#include "util/timer.h"

namespace pbfs {
namespace bench {

inline int DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // Cap oversubscription on small machines; the paper uses 60-120.
  return static_cast<int>(hw < 4 ? 4 : hw);
}

// Prints a separator line sized to `width` characters.
inline void PrintRule(int width = 72) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

inline void PrintTitle(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

// Builds a Graph500-style Kronecker graph and relabels it with the
// requested scheme so the traversal sees the paper's vertex order.
inline Graph BuildKronecker(int scale, int edge_factor, Labeling labeling,
                            const StripeShape& shape, uint64_t seed = 1) {
  Graph g = Kronecker({.scale = scale, .edge_factor = edge_factor,
                       .seed = seed});
  if (labeling == Labeling::kIdentity) return g;
  std::vector<Vertex> perm = ComputeLabeling(g, labeling, shape, seed + 99);
  return ApplyLabeling(g, perm);
}

// BenchJson moved to src/util/bench_json.h so the shared obs CLI helper
// (src/obs/obs_cli.h) can embed profile data into the same document;
// aliased here for the bench binaries.
using pbfs::BenchJson;

// Median-of-trials runner: calls fn() once untimed, so caches, pages and
// lazily built state are warm for every timed trial, then `trials`
// times, and returns the median elapsed seconds.
template <typename Fn>
double MedianSeconds(int trials, Fn&& fn) {
  fn();
  std::vector<double> times;
  times.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace bench
}  // namespace pbfs

#endif  // PBFS_BENCH_BENCH_COMMON_H_
