// Workloads `serve_read` and `serve_churn`: open-loop served queries
// over loopback TCP to an in-process server::PbfsServer.
//
// Graph: Graph500 Kronecker, scale 18, edge factor 16 (generator seed
// 3), striped labeling. The engine runs on a pool of nproc workers with
// Cluster-BFS sketches enabled (16 clusters). One generator thread
// sends Poisson arrivals at kNominalQps, drawn from --seed, over two
// pipelined PbfsClient connections; one reader thread per connection
// collects the answers. Every request is timed from when it was due,
// so a stall also charges the requests queued behind it.
//
// The nominal-rate phase takes half of the run. After the server
// stops, the kernel phase (kernels.cc) takes the other half on the
// graph served; its GTEPS are the numbers these workloads gate, since
// the served latencies follow the CPU time the hypervisor steals on a
// shared machine more than the program (perfbench/WORKLOADS.md). They
// and the other served numbers are printed as context.
//
// Query mix (kMix): 50% point-to-point distance (tolerance 2), 20%
// distances to 4 targets, 15% reachability of 4 targets, 10% k-hop
// sizes (max_hops 2), 5% full level arrays (512 KB answers). Sources
// and targets are uniform over the largest component. The mix, like
// serve_churn's update rate, is a design choice, not a model of recorded
// traffic (none exists for this server): it was set so that every layer
// named below gets load, and was not tuned further. The shares of work
// it produces are measured and recorded in perfbench/WORKLOADS.md.
//
// serve_read, why: p2p sketch hits load `server` and `sketch` and
// barely touch `bfs`; traversal queries load `engine` coalescing and
// `bfs`; kLevels loads the deliver stage. In the traced run, a sweep
// after the nominal-rate phase finds max_qps.
//
// serve_churn, why: the same graph, mix and nominal rate, plus one more
// connection sending edge-update batches (random inserts of new edges
// and deletes of existing ones, so the edge count stays the same) at a
// fixed rate. This is the only workload where the `graph`
// delta/snapshot/compactor path and the `sketch` rebuilder work and
// where traversals run over overlay views: its kernel phase traverses
// the base graph with the nominal phase's updates as one overlay view,
// so its GTEPS move with the overlay's cost. Updates are applied inline
// on the server's poll thread, so a change that helps readers but
// stalls writers, or the reverse, shows here.
//
// Measured shares behind these choices are recorded in
// perfbench/WORKLOADS.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bfs/sequential.h"
#include "engine/query_engine.h"
#include "graph/components.h"
#include "graph/parallel_build.h"
#include "graph/snapshot.h"
#include "obs/query_trace.h"
#include "perfbench.h"
#include "sched/worker_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using pbfs::Level;
using pbfs::QueryStatus;
using pbfs::QueryType;
using pbfs::Vertex;
using pbfs::server::QueryRequest;
using pbfs::server::QueryResponse;

constexpr int kServeScale = 18;
constexpr int kServeEdgeFactor = 16;
constexpr uint64_t kServeGraphSeed = 3;
constexpr int kSketchClusters = 16;
constexpr int kSetupReps = 5;

struct MixEntry {
  QueryType type;
  double share;
};
constexpr MixEntry kMix[] = {
    {QueryType::kPointToPointDistance, 0.50},
    {QueryType::kDistances, 0.20},
    {QueryType::kReachability, 0.15},
    {QueryType::kKHop, 0.10},
    {QueryType::kLevels, 0.05},
};
constexpr Level kP2pTolerance = 2;
constexpr int kTargetsPerQuery = 4;
constexpr Level kKHopRadius = 2;
// Bound on waiting for the answers of one phase after its last send.
constexpr int64_t kDrainNs = 5'000'000'000;

// Offered rate of every metric except max_qps, in both served
// workloads, fixed once when this benchmark was defined: about a
// twentieth of serve_read's max_qps (~2400 q/s then, with little CPU
// time stolen by the hypervisor). The engine
// dispatches a lone query to a ~1-3 ms single-source kernel and two or
// more to a ~25 ms 64-wide batch, and arrivals during a batch keep it in
// batch mode; between ~200 and ~1000 q/s it flips between the two modes
// and the medians jump between them from run to run (trav_p50 spread
// 0.77 over five runs at 200 q/s), and nearer the knee queueing
// amplifies the CPU time the hypervisor steals from this shared
// machine. At 100 q/s traversals run as lone dispatches and trav_p50
// repeated within 6% over five runs.
constexpr double kNominalQps = 100;

// max_qps: the highest rung of the ladder kLadderBaseQps *
// kLadderRatio^k at which trav_p99_ms (failed requests counting as
// missing it) stays within kTravP99LimitMs, the failed share within
// kFailLimit, and the admission queue does not grow, over a
// kProbeSeconds probe.
constexpr double kLadderBaseQps = 100;
constexpr double kLadderRatio = 1.05;
constexpr double kTravP99LimitMs = 100;
constexpr double kFailLimit = 0.01;
constexpr double kProbeSeconds = 1.0;
// The search starts kStartRungs above the nominal rate (1.05^57 = 16x,
// below where the knee sat when the nominal rate was fixed). If that
// rung passes, it climbs kLadderStride rungs (+22%) per step until one
// fails; if it fails, the nominal rung is probed as the lower end. Then
// it bisects. kMaxProbes bounds its length: it fits a failed start, the
// nominal rung and six bisection steps that each fail twice.
constexpr int kStartRungs = 57;
constexpr int kLadderStride = 4;
constexpr int kMaxProbes = 16;

// A nominal phase whose generator ran later than this at p99 is not a
// valid measurement: the served numbers would include the generator's
// lag. Below it the lag is wake-up jitter of a shared virtual machine.
// Such a phase is measured again, up to kMaxAttempts times in all; if
// every attempt fell behind, the run is invalid. Five attempts: with
// three, a run during which the hypervisor took 20% of the CPU time
// fell behind in every attempt; five still end within the run's time
// limit.
constexpr double kMaxLateP99Ms = 10;
constexpr int kMaxAttempts = 5;

// serve_churn update stream.
constexpr double kUpdateBatchesPerSec = 20;
constexpr int kInsertsPerBatch = 32;
constexpr int kDeletesPerBatch = 32;

// Answer checks: responses diffed against a sequential BFS on the graph
// at their snapshot version.
constexpr int kMaxChecks = 64;
constexpr int kMaxCheckVersions = 3;

constexpr int kMaxConnections = 2;

bool IsTraversal(QueryType t) { return t != QueryType::kPointToPointDistance; }

uint64_t EdgeKey(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (uint64_t{u} << 32) | v;
}

// ---- Load generation ---------------------------------------------------

struct Planned {
  int64_t due_offset_ns = 0;
  QueryRequest request;
  bool keep_full = false;  // keep the whole response for the oracle check
};

struct Outcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  bool answered = false;
  size_t levels_size = 0;  // of the answer, before the payload is dropped
  QueryResponse response;  // kLevels payload dropped unless keep_full
};

std::vector<Planned> PlanQueries(uint64_t seed, double rate, double seconds,
                                 const std::vector<Vertex>& vertices,
                                 uint64_t trace_base, bool sample_odd) {
  pbfs::Rng rng(seed);
  std::vector<Planned> plan;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    Planned p;
    p.due_offset_ns = static_cast<int64_t>(t * 1e9);
    QueryRequest& r = p.request;
    r.request_id = plan.size() + 1;
    double u = rng.NextDouble();
    r.type = kMix[std::size(kMix) - 1].type;
    for (const MixEntry& m : kMix) {
      if (u < m.share) {
        r.type = m.type;
        break;
      }
      u -= m.share;
    }
    auto pick = [&] { return vertices[rng.NextBounded(vertices.size())]; };
    r.source = pick();
    // No deadline (deadline_ms = 0). The admission controller's
    // deadline check estimates a query's wait as (queued + in engine +
    // 1) x the mean per-query service time, which counts coalesced
    // queries as if served one after another; with a deadline it sheds
    // at loads the engine serves well, and the served numbers would
    // measure that estimate. Overload shows instead as latency and a
    // growing queue, which the max_qps sweep tests for.
    switch (r.type) {
      case QueryType::kPointToPointDistance: {
        Vertex t2 = pick();
        while (t2 == r.source) t2 = pick();
        r.targets = {t2};
        r.tolerance = kP2pTolerance;
        break;
      }
      case QueryType::kDistances:
      case QueryType::kReachability:
        for (int i = 0; i < kTargetsPerQuery; ++i) r.targets.push_back(pick());
        break;
      case QueryType::kKHop:
        r.max_hops = kKHopRadius;
        break;
      case QueryType::kLevels:
        break;
    }
    r.trace_id = trace_base + plan.size() + 1;
    r.trace_sampled = sample_odd && plan.size() % 2 == 1;
    plan.push_back(std::move(p));
  }
  return plan;
}

// Samples of server-side state taken by the sender between sends.
struct PhaseSamples {
  std::vector<double> admission_depth;
  std::vector<double> overlay_vertices;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  PhaseSamples samples;
  double seconds = 0;  // first due to last due
  bool connect_failed = false;
};

// Runs one open-loop phase: sends `plan` on schedule over `connections`
// pipelined connections, then waits (bounded) for the answers.
PhaseResult RunPhase(int port, int connections,
                     const std::vector<Planned>& plan,
                     pbfs::server::PbfsServer* server,
                     pbfs::QueryEngine* engine) {
  PhaseResult res;
  res.outcomes.resize(plan.size());
  std::vector<std::unique_ptr<pbfs::server::PbfsClient>> clients;
  for (int c = 0; c < connections; ++c) {
    auto client = std::make_unique<pbfs::server::PbfsClient>();
    if (!client->Connect({.port = port, .recv_timeout_s = 0.05})) {
      res.connect_failed = true;
      return res;
    }
    clients.push_back(std::move(client));
  }
  std::atomic<uint64_t> answered{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      pbfs::server::Response resp;
      std::string error;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!clients[c]->ReadResponse(&resp, &error)) {
          if (error == "recv failed/timeout") continue;
          return;  // closed or malformed: the rest count as unanswered
        }
        const uint64_t id = resp.query.request_id;
        if (resp.kind != pbfs::server::MessageKind::kQuery || id == 0 ||
            id > plan.size()) {
          continue;
        }
        Outcome& o = res.outcomes[id - 1];
        o.recv_ns = pbfs::NowNanos();
        o.levels_size = resp.query.levels.size();
        if (!plan[id - 1].keep_full &&
            resp.query.type == QueryType::kLevels) {
          resp.query.levels = {};
        }
        o.response = std::move(resp.query);
        o.answered = true;
        answered.fetch_add(1, std::memory_order_release);
      }
    });
  }

  const int64_t start = pbfs::NowNanos() + 2'000'000;
  int64_t next_sample = start;
  for (size_t i = 0; i < plan.size(); ++i) {
    const int64_t due = start + plan[i].due_offset_ns;
    int64_t now = pbfs::NowNanos();
    while (now < due) {
      if (now >= next_sample) {
        res.samples.admission_depth.push_back(
            static_cast<double>(server->GetStats().admission.depth));
        res.samples.overlay_vertices.push_back(static_cast<double>(
            engine->SnapshotInfo().overlay_patched_vertices));
        next_sample = now + 50'000'000;
        now = pbfs::NowNanos();
        continue;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = pbfs::NowNanos();
    }
    std::string frame;
    pbfs::server::EncodeQueryRequest(plan[i].request, &frame);
    res.outcomes[i].due_ns = due;
    clients[i % connections]->Send(frame);
    res.outcomes[i].sent_ns = pbfs::NowNanos();
  }
  res.seconds = plan.empty() ? 0 : plan.back().due_offset_ns / 1e9;
  const int64_t drain_until = pbfs::NowNanos() + kDrainNs;
  while (answered.load(std::memory_order_acquire) < plan.size() &&
         pbfs::NowNanos() < drain_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  return res;
}

// Waits until the server has no queued or in-engine queries, so one
// phase's backlog does not leak into the next.
void WaitServerIdle(pbfs::server::PbfsServer* server) {
  const int64_t until = pbfs::NowNanos() + 3'000'000'000;
  while (pbfs::NowNanos() < until) {
    const pbfs::server::ServerStats s = server->GetStats();
    if (s.admission.depth == 0 && s.engine_inflight == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool Failed(const Outcome& o) {
  return !o.answered || o.response.status != QueryStatus::kOk;
}

double LatencyMs(const Outcome& o) {
  return static_cast<double>(o.recv_ns - o.due_ns) / 1e6;
}

struct ClassLatency {
  std::vector<double> p2p, trav;
};

// Latencies of the queries answered OK whose due offset lies in
// [from_ns, to_ns).
ClassLatency OkLatencies(const std::vector<Planned>& plan,
                         const std::vector<Outcome>& outcomes,
                         int64_t from_ns = 0,
                         int64_t to_ns = INT64_MAX) {
  ClassLatency out;
  for (size_t i = 0; i < plan.size(); ++i) {
    const int64_t due = plan[i].due_offset_ns;
    if (due < from_ns || due >= to_ns || Failed(outcomes[i])) continue;
    (IsTraversal(plan[i].request.type) ? out.trav : out.p2p)
        .push_back(LatencyMs(outcomes[i]));
  }
  return out;
}

// A latency quantile of the nominal phase, as the median of its values
// over equal windows of the phase: one burst of host preemption then
// moves one window, not the metric. Each window holds about
// kWindowSamples / (1 - q) samples, i.e. at least ten beyond a p99.
constexpr double kWindowSamples = 10;
constexpr int kMaxWindows = 15;

double WindowedQuantile(const std::vector<Planned>& plan,
                        const std::vector<Outcome>& outcomes, double seconds,
                        bool traversal, double q) {
  const ClassLatency all = OkLatencies(plan, outcomes);
  const double samples = (traversal ? all.trav : all.p2p).size();
  const int windows = std::clamp(
      static_cast<int>(samples * (1 - q) / kWindowSamples), 1, kMaxWindows);
  std::vector<double> per_window;
  for (int w = 0; w < windows; ++w) {
    const ClassLatency lat = OkLatencies(
        plan, outcomes, static_cast<int64_t>(seconds * 1e9 * w / windows),
        static_cast<int64_t>(seconds * 1e9 * (w + 1) / windows));
    const std::vector<double>& sample = traversal ? lat.trav : lat.p2p;
    if (!sample.empty()) per_window.push_back(Quantile(sample, q));
  }
  return Median(per_window);
}

// ---- Edge-update stream (serve_churn) ----------------------------------

struct UpdateBatch {
  int64_t due_offset_ns = 0;
  std::vector<pbfs::EdgeUpdate> updates;
  // Filled by the run.
  int64_t due_ns = 0;
  int64_t ack_ns = 0;
  uint64_t version = 0;
};

// Random inserts of absent edges and deletes of present base edges, in
// equal numbers, between vertices of the largest component.
std::vector<UpdateBatch> PlanUpdates(uint64_t seed, size_t count,
                                     const pbfs::Graph& base,
                                     const std::vector<Vertex>& vertices) {
  pbfs::Rng rng(seed);
  std::unordered_set<uint64_t> inserted, deleted;
  std::vector<UpdateBatch> batches;
  for (size_t b = 0; b < count; ++b) {
    UpdateBatch batch;
    batch.due_offset_ns = static_cast<int64_t>(b * 1e9 / kUpdateBatchesPerSec);
    auto pick = [&] { return vertices[rng.NextBounded(vertices.size())]; };
    while (static_cast<int>(batch.updates.size()) < kInsertsPerBatch) {
      const Vertex u = pick(), v = pick();
      if (u == v || base.HasEdge(u, v)) continue;
      if (!inserted.insert(EdgeKey(u, v)).second) continue;
      batch.updates.push_back({u, v, true});
    }
    int deletes = 0;
    while (deletes < kDeletesPerBatch) {
      const Vertex u = pick();
      const auto nbrs = base.Neighbors(u);
      if (nbrs.empty()) continue;
      const Vertex v = nbrs[rng.NextBounded(nbrs.size())];
      if (!deleted.insert(EdgeKey(u, v)).second) continue;
      batch.updates.push_back({u, v, false});
      ++deletes;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// Sends batches [first, last) of `batches` on their fixed schedule from
// `start_ns` and records each ack. Runs on its own thread beside the
// query generator.
void RunUpdateStream(int port, int64_t start_ns,
                     std::vector<UpdateBatch>* batches, size_t first,
                     size_t last) {
  pbfs::server::PbfsClient client;
  if (!client.Connect({.port = port, .recv_timeout_s = 0.05})) return;
  std::atomic<size_t> acked{0};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    pbfs::server::Response resp;
    std::string error;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client.ReadResponse(&resp, &error)) {
        if (error == "recv failed/timeout") continue;
        return;
      }
      const uint64_t id = resp.update.request_id;
      if (resp.kind != pbfs::server::MessageKind::kEdgeUpdates || id == 0 ||
          id > batches->size()) {
        continue;
      }
      UpdateBatch& b = (*batches)[id - 1];
      b.ack_ns = pbfs::NowNanos();
      b.version = resp.update.content_version;
      acked.fetch_add(1, std::memory_order_release);
    }
  });
  for (size_t i = first; i < last; ++i) {
    UpdateBatch& b = (*batches)[i];
    b.due_ns = start_ns + b.due_offset_ns - (*batches)[first].due_offset_ns;
    const int64_t now = pbfs::NowNanos();
    if (now < b.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(b.due_ns - now));
    }
    pbfs::server::UpdateRequest req;
    req.request_id = i + 1;
    req.updates = b.updates;
    client.SendUpdates(req);
  }
  const int64_t until = pbfs::NowNanos() + kDrainNs;
  while (acked.load(std::memory_order_acquire) < last - first &&
         pbfs::NowNanos() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  reader.join();
}

// ---- Answer checks -----------------------------------------------------

// Checks that need no oracle, applied to every answered query: shapes
// and the sketch contract (a sketch-served distance is the upper bound
// and the bounds are within the query's tolerance).
std::string CheckShape(const QueryRequest& req, const Outcome& o, Vertex n) {
  const QueryResponse& resp = o.response;
  if (resp.type != req.type) return "type echo";
  if (resp.status != QueryStatus::kOk) return "";
  switch (req.type) {
    case QueryType::kLevels:
      return o.levels_size == n ? "" : "levels size";
    case QueryType::kDistances:
      return resp.levels.size() == req.targets.size() ? "" : "distances size";
    case QueryType::kReachability:
      return resp.reachable.size() == req.targets.size() ? ""
                                                         : "reachable size";
    case QueryType::kKHop:
      return resp.khop_sizes.size() == size_t{req.max_hops} + 1u ? ""
                                                                 : "khop size";
    case QueryType::kPointToPointDistance:
      if (resp.sketch_resolved) {
        if (resp.distance != resp.bound_upper) return "sketch distance";
        if (resp.bound_lower > resp.bound_upper ||
            resp.bound_upper - resp.bound_lower > req.tolerance) {
          return "sketch bounds wider than tolerance";
        }
      } else if (resp.bound_lower != resp.distance ||
                 resp.bound_upper != resp.distance) {
        return "exact p2p bounds";
      }
      return "";
  }
  return "";
}

// Diffs one answer against oracle levels from the query's source.
std::string CheckAgainstOracle(const QueryRequest& req,
                               const QueryResponse& resp,
                               const std::vector<Level>& truth) {
  switch (req.type) {
    case QueryType::kLevels:
      return resp.levels == truth ? "" : "levels";
    case QueryType::kDistances:
      for (size_t i = 0; i < req.targets.size(); ++i) {
        if (resp.levels[i] != truth[req.targets[i]]) return "distance";
      }
      return "";
    case QueryType::kReachability:
      for (size_t i = 0; i < req.targets.size(); ++i) {
        const bool reach = truth[req.targets[i]] != pbfs::kLevelUnreached;
        if ((resp.reachable[i] != 0) != reach) return "reachability";
      }
      return "";
    case QueryType::kKHop: {
      std::vector<uint64_t> sizes(size_t{req.max_hops} + 1, 0);
      for (Level l : truth) {
        if (l != pbfs::kLevelUnreached && l != 0 && l <= req.max_hops) {
          ++sizes[l];
        }
      }
      for (size_t h = 1; h < sizes.size(); ++h) sizes[h] += sizes[h - 1];
      return resp.khop_sizes == sizes ? "" : "khop sizes";
    }
    case QueryType::kPointToPointDistance: {
      const Level d = truth[req.targets[0]];
      if (!resp.sketch_resolved) return resp.distance == d ? "" : "p2p exact";
      if (resp.bound_lower > d || resp.bound_upper < d) return "p2p bounds";
      return resp.distance - d <= req.tolerance ? "" : "p2p tolerance";
    }
  }
  return "";
}

// The graph at content version `version`: the base graph plus every
// update batch acked with a version <= `version`, in order.
pbfs::Graph GraphAtVersion(const pbfs::Graph& base,
                           const std::vector<UpdateBatch>& batches,
                           uint64_t version, pbfs::Executor* executor) {
  std::unordered_set<uint64_t> removed, added;
  for (const UpdateBatch& b : batches) {
    if (b.version == 0 || b.version > version) continue;
    for (const pbfs::EdgeUpdate& u : b.updates) {
      const uint64_t key = EdgeKey(u.u, u.v);
      if (u.insert) {
        removed.erase(key);
        added.insert(key);
      } else {
        added.erase(key);
        removed.insert(key);
      }
    }
  }
  std::vector<pbfs::Edge> edges;
  edges.reserve(base.num_edges() + added.size());
  for (Vertex u = 0; u < base.num_vertices(); ++u) {
    for (Vertex v : base.Neighbors(u)) {
      if (u < v && !removed.count(EdgeKey(u, v))) edges.push_back({u, v});
    }
  }
  for (uint64_t key : added) {
    edges.push_back({static_cast<Vertex>(key >> 32),
                     static_cast<Vertex>(key & 0xFFFFFFFFu)});
  }
  return pbfs::BuildGraphParallel(base.num_vertices(), edges, executor);
}

// Picks up to kMaxChecks answered OK queries, spread evenly over the
// phase, from at most kMaxCheckVersions snapshot versions, and diffs
// each against a sequential BFS on the graph at its version.
void CheckAnswers(const std::vector<Planned>& plan,
                  const std::vector<Outcome>& outcomes,
                  const pbfs::Graph& base,
                  const std::vector<UpdateBatch>& batches,
                  pbfs::Executor* executor, Report* report) {
  std::map<uint64_t, std::vector<size_t>> by_version;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (Failed(o)) continue;
    const std::string shape =
        CheckShape(plan[i].request, o, base.num_vertices());
    if (!shape.empty()) report->Mismatch(shape);
    if (plan[i].keep_full) by_version[o.response.snapshot_version].push_back(i);
  }
  // Versions nearest to evenly spaced points of the phase.
  std::set<uint64_t> chosen;
  if (!by_version.empty()) {
    std::vector<uint64_t> versions;
    for (const auto& [v, idx] : by_version) versions.push_back(v);
    for (int k = 0; k < kMaxCheckVersions; ++k) {
      chosen.insert(versions[(versions.size() - 1) * (2 * k + 1) /
                             (2 * kMaxCheckVersions)]);
    }
  }
  const size_t per_version = kMaxChecks / std::max<size_t>(1, chosen.size());
  for (uint64_t version : chosen) {
    const std::vector<size_t>& idx = by_version[version];
    if (version == 0) {
      report->Mismatch("OK answer without a snapshot version");
      continue;
    }
    pbfs::Graph rebuilt;
    const pbfs::Graph* graph = &base;
    if (version > 1) {
      rebuilt = GraphAtVersion(base, batches, version, executor);
      graph = &rebuilt;
    }
    std::vector<Level> truth(graph->num_vertices());
    const size_t step = std::max<size_t>(1, idx.size() / per_version);
    for (size_t j = 0; j < idx.size(); j += step) {
      const QueryRequest& req = plan[idx[j]].request;
      pbfs::SequentialBfs(*graph, req.source, truth.data());
      ++report->checked;
      const std::string diff =
          CheckAgainstOracle(req, outcomes[idx[j]].response, truth);
      if (!diff.empty()) {
        report->Mismatch(diff + " at version " + std::to_string(version) +
                         " source " + std::to_string(req.source));
      }
    }
  }
}

// ---- Slowlog parsing (traced run) --------------------------------------

// Trace ids of the sampled queries answered OK that the slowlog sink
// received, and the number of such lines.
struct SlowlogIds {
  std::set<uint64_t> ids;
  size_t lines = 0;
};

SlowlogIds ParseSlowlog(const std::vector<std::string>& lines) {
  SlowlogIds s;
  for (const std::string& line : lines) {
    if (line.find("\"sampled\":true") == std::string::npos) continue;
    if (line.find("\"outcome\":\"ok\"") == std::string::npos) continue;
    const size_t id = line.find("\"trace_id\":");
    if (id == std::string::npos) continue;
    s.ids.insert(std::strtoull(line.c_str() + id + 11, nullptr, 10));
    ++s.lines;
  }
  return s;
}

// ---- max_qps sweep (serve_read) -----------------------------------------

// max_qps: brackets the knee on the rate ladder, then bisects (see
// kStartRungs). When not even the nominal rung passes, max_qps is not
// measured and the run is invalid.
void MeasureMaxQps(uint64_t seed, const std::vector<Vertex>& vertices,
                   int port, int connections,
                   pbfs::server::PbfsServer* server, pbfs::QueryEngine* engine,
                   Report* report) {
  WaitServerIdle(server);
  auto rate_of = [](int rung) {
    return kLadderBaseQps * std::pow(kLadderRatio, rung);
  };
  int probe_id = 0;
  std::map<int, double> passed;  // rung -> measured offered rate
  auto probe = [&](int rung) {
    const double rate = rate_of(rung);
    const auto p = PlanQueries(
        pbfs::SplitMix64(seed * 1000 + static_cast<uint64_t>(rung)),
        rate, kProbeSeconds, vertices,
        (3ull + static_cast<uint64_t>(probe_id++)) << 40, false);
    PhaseResult r = RunPhase(port, connections, p, server, engine);
    WaitServerIdle(server);
    std::vector<double> trav;
    uint64_t fails = 0;
    for (size_t i = 0; i < p.size(); ++i) {
      const bool bad = Failed(r.outcomes[i]);
      fails += bad ? 1 : 0;
      if (IsTraversal(p[i].request.type)) {
        trav.push_back(bad ? 1e30 : LatencyMs(r.outcomes[i]));
      }
    }
    const auto& d = r.samples.admission_depth;
    double first = 0, second = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      (i < d.size() / 2 ? first : second) += d[i];
    }
    const size_t half = std::max<size_t>(1, d.size() / 2);
    const bool growing = second / half > first / half + 16;
    const double p99 = Quantile(trav, 0.99);
    const double fail_share =
        p.empty() ? 1 : static_cast<double>(fails) / p.size();
    const bool ok = !r.connect_failed && p99 <= kTravP99LimitMs &&
                    fail_share <= kFailLimit && !growing;
    if (ok) passed[rung] = p.size() / std::max(1e-9, r.seconds);
    std::fprintf(stderr,
                 "probe rung %d: %.0f q/s offered, trav p99 %.1f ms, "
                 "failed %.4f, queue %s -> %s\n",
                 rung, rate, p99 > 1e29 ? -1.0 : p99, fail_share,
                 growing ? "growing" : "steady", ok ? "pass" : "fail");
    return ok;
  };
  const int nominal_rung = static_cast<int>(std::lround(
      std::log(kNominalQps / kLadderBaseQps) / std::log(kLadderRatio)));
  // A rung fails only when a second probe at it fails too: one burst
  // of host preemption must not end the search early.
  auto passes = [&](int rung) { return probe(rung) || probe(rung); };
  int lo = -1, hi = -1;  // highest passing, lowest failing rung
  int rung = nominal_rung + kStartRungs;
  (passes(rung) ? lo : hi) = rung;
  if (lo < 0 && passes(nominal_rung)) lo = nominal_rung;
  while (hi < 0 && lo >= 0 && probe_id < kMaxProbes) {
    rung += kLadderStride;
    (passes(rung) ? lo : hi) = rung;
  }
  while (lo >= 0 && hi > lo + 1 && probe_id < kMaxProbes) {
    const int mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  report->NoteNumber("serve.max_qps_resolved", hi == lo + 1 ? 1 : 0);
  if (lo < 0) {
    report->Invalid("the max_qps ladder failed at the nominal rate");
    return;
  }
  report->Context("loadgen.max_qps", passed[lo], "1/s");
  report->NoteNumber("serve.max_qps_rung", lo);
  report->NoteNumber("serve.sweep_probes", probe_id);
}

// ---- The server under test ---------------------------------------------

struct Served {
  std::unique_ptr<pbfs::Graph> graph;
  std::unique_ptr<pbfs::QueryEngine> engine;
  std::unique_ptr<pbfs::server::PbfsServer> server;
};

}  // namespace

void RunServe(const Args& args, bool churn, SpanLog* spans, Report* report) {
  const int nproc = NumCpus();
  const int connections = std::min(kMaxConnections, nproc);
  pbfs::WorkerPool pool({.num_workers = nproc});
  const std::vector<pbfs::Edge> edges = CachedKroneckerEdges(
      args.cache_dir, kServeScale, kServeEdgeFactor, kServeGraphSeed);

  std::vector<std::string> slowlog;
  std::mutex slowlog_mu;
  pbfs::obs::QueryTraceStore::Options topt;
  topt.max_retained = size_t{1} << 20;
  topt.emit_spans = false;
  topt.slowlog_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(slowlog_mu);
    slowlog.push_back(line);
  };
  // Empties the trace store and the collected slowlog, so that they
  // hold only the records of the phase that follows.
  auto reset_traces = [&] {
    if (!args.trace) return;
    pbfs::obs::QueryTraceStore::Get().Configure(topt);
    std::lock_guard<std::mutex> lock(slowlog_mu);
    slowlog.clear();
  };
  reset_traces();

  // Set-up, repeated: CSR build, striped labeling, engine with its first
  // sketch built, server listening. The last repetition serves.
  Served served;
  std::vector<double> setup_s, build_s, label_s, sketch_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (served.server) served.server->Stop();
    served.server.reset();
    served.engine.reset();
    served.graph.reset();
    const int64_t t0 = pbfs::NowNanos();
    BuiltGraph built = BuildStripedGraph(pbfs::Vertex{1} << kServeScale,
                                         edges, &pool, spans, "setup.");
    served.graph = std::make_unique<pbfs::Graph>(std::move(built.graph));
    const int64_t t1 = pbfs::NowNanos();
    pbfs::QueryEngineOptions eopt;
    eopt.enable_sketches = true;
    eopt.sketch.num_clusters = kSketchClusters;
    served.engine =
        std::make_unique<pbfs::QueryEngine>(*served.graph, &pool, eopt);
    served.engine->WaitSketchIdle();
    const int64_t t2 = pbfs::NowNanos();
    served.server = std::make_unique<pbfs::server::PbfsServer>(
        served.engine.get(), pbfs::server::ServerOptions{});
    if (!served.server->Start()) {
      report->Invalid("server failed to start");
      return;
    }
    const int64_t t3 = pbfs::NowNanos();
    spans->Add("setup.engine_and_sketch", t1, t2);
    spans->Add("setup.server_start", t2, t3);
    build_s.push_back(built.build_s);
    label_s.push_back(built.label_s);
    sketch_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  }
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("graph.build_s", Median(build_s), "s");
  report->Add("graph.label_s", Median(label_s), "s");
  report->Context("sketch.build_s", Median(sketch_s), "s");
  report->Add("graph.csr_mb",
              static_cast<double>(served.graph->MemoryBytes()) / 1e6, "MB");

  const pbfs::Graph& base = *served.graph;
  pbfs::QueryEngine& engine = *served.engine;
  pbfs::server::PbfsServer& server = *served.server;
  const int port = server.port();

  std::vector<Vertex> vertices;
  {
    const pbfs::ComponentInfo info = pbfs::ComputeComponents(base);
    const uint32_t largest = info.LargestComponent();
    for (Vertex v = 0; v < base.num_vertices(); ++v) {
      if (info.component_of[v] == largest) vertices.push_back(v);
    }
  }

  // Warm-up at the nominal rate (unmeasured).
  {
    const auto warm = PlanQueries(pbfs::SplitMix64(args.seed ^ 0x5741524d),
                                  kNominalQps, 0.5, vertices, 1ull << 40,
                                  false);
    RunPhase(port, connections, warm, &server, &engine);
    WaitServerIdle(&server);
  }

  // ---- Nominal-rate phase ----
  // Half of the run serves at the nominal rate; the kernel phase takes
  // the other half.
  const double nominal_seconds = args.seconds / 2;
  std::vector<Planned> plan =
      PlanQueries(pbfs::SplitMix64(args.seed), kNominalQps, nominal_seconds,
                  vertices, 2ull << 40, args.trace);
  {
    // Keep the full answers of an evenly spread sample for the oracle;
    // under churn keep every small answer, so that the checked versions
    // can be chosen after the run.
    const size_t every = std::max<size_t>(1, plan.size() / kMaxChecks);
    for (size_t i = 0; i < plan.size(); ++i) {
      plan[i].keep_full =
          i % every == 0 ||
          (churn && plan[i].request.type != QueryType::kLevels);
    }
  }
  // Update batches for every attempt, planned together so that each
  // attempt continues from the edges the earlier ones changed.
  std::vector<UpdateBatch> batches;
  const size_t batches_per_attempt =
      static_cast<size_t>(nominal_seconds * kUpdateBatchesPerSec);
  if (churn) {
    batches = PlanUpdates(pbfs::SplitMix64(args.seed ^ 0x55504454),
                          batches_per_attempt * kMaxAttempts, base, vertices);
  }

  pbfs::QueryEngineStats e0;
  pbfs::server::ServerStats s0;
  pbfs::SketchRebuilder::Stats k0;
  pbfs::Compactor::Stats c0;
  pbfs::SnapshotStats snap0;
  PhaseResult nominal;
  std::vector<double> late_ms;
  size_t first_batch = 0, last_batch = 0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) WaitServerIdle(&server);
    e0 = engine.Stats();
    s0 = server.GetStats();
    k0 = engine.SketchStats();
    c0 = engine.CompactorStats();
    snap0 = engine.SnapshotInfo();
    pool.ResetSchedulerStats();
    reset_traces();
    first_batch = last_batch;
    last_batch = churn ? first_batch + batches_per_attempt : 0;
    std::thread updater;
    if (churn) {
      updater = std::thread([&] {
        RunUpdateStream(port, pbfs::NowNanos() + 2'000'000, &batches,
                        first_batch, last_batch);
      });
    }
    nominal = RunPhase(port, connections, plan, &server, &engine);
    if (updater.joinable()) updater.join();
    if (nominal.connect_failed) {
      report->Invalid("cannot connect to the server");
      return;
    }
    late_ms.clear();
    for (const Outcome& o : nominal.outcomes) {
      late_ms.push_back(static_cast<double>(o.sent_ns - o.due_ns) / 1e6);
    }
    report->NoteNumber("serve.attempts", attempt + 1);
    if (Quantile(late_ms, 0.99) <= kMaxLateP99Ms) break;
  }

  const pbfs::QueryEngineStats e1 = engine.Stats();
  const pbfs::server::ServerStats s1 = server.GetStats();
  const pbfs::SketchRebuilder::Stats k1 = engine.SketchStats();
  const pbfs::Compactor::Stats c1 = engine.CompactorStats();
  const pbfs::SnapshotStats snap1 = engine.SnapshotInfo();
  const pbfs::WorkerPool::SchedulerStats sched = pool.scheduler_stats();

  // End-to-end at the nominal rate.
  const ClassLatency lat = OkLatencies(plan, nominal.outcomes);
  uint64_t failed = 0;
  for (const Outcome& o : nominal.outcomes) failed += Failed(o) ? 1 : 0;
  report->attempted += plan.size();
  report->failed += failed;
  // Wire latencies from when each query was due. On a shared virtual
  // machine they follow the CPU time the hypervisor steals more than the
  // program, so they are context numbers, not gated ones (see
  // perfbench/WORKLOADS.md).
  for (const auto& [name, traversal, q] :
       {std::tuple{"loadgen.p2p_p50_ms", false, 0.5},
        std::tuple{"loadgen.p2p_p99_ms", false, 0.99},
        std::tuple{"loadgen.trav_p50_ms", true, 0.5},
        std::tuple{"loadgen.trav_p99_ms", true, 0.99}}) {
    report->Context(name,
                    WindowedQuantile(plan, nominal.outcomes, nominal_seconds,
                                     traversal, q),
                    "ms");
  }
  report->Context("loadgen.fail_frac",
                  plan.empty() ? 0 : static_cast<double>(failed) / plan.size(),
                  "ratio");
  const double late_p99 = Quantile(late_ms, 0.99);
  report->Context("loadgen.late_p99_ms", late_p99, "ms");
  report->NoteNumber("serve.nominal_qps", kNominalQps);
  report->NoteNumber("serve.sent", static_cast<double>(plan.size()));
  report->NoteNumber("serve.p2p_samples", static_cast<double>(lat.p2p.size()));
  report->NoteNumber("serve.trav_samples",
                     static_cast<double>(lat.trav.size()));
  if (late_p99 > kMaxLateP99Ms) {
    report->Invalid("load generator ran " + std::to_string(late_p99) +
                    " ms late at p99 (limit " + std::to_string(kMaxLateP99Ms) +
                    " ms) in every attempt");
  }

  if (churn) {
    std::vector<double> update_ms;
    uint64_t unacked = 0;
    for (size_t i = first_batch; i < last_batch; ++i) {
      const UpdateBatch& b = batches[i];
      if (b.version == 0) {
        ++unacked;
        continue;
      }
      update_ms.push_back(static_cast<double>(b.ack_ns - b.due_ns) / 1e6);
      spans->Add("update.ack", b.due_ns, b.ack_ns, 0,
                 "\"version\": " + std::to_string(b.version));
    }
    report->attempted += last_batch - first_batch;
    report->failed += unacked;
    report->Context("loadgen.update_p50_ms", Quantile(update_ms, 0.5), "ms");
    report->Context("loadgen.update_p95_ms", Quantile(update_ms, 0.95), "ms");
    report->NoteNumber("serve.update_batches",
                       static_cast<double>(last_batch - first_batch));
  }

  // Per-layer counters over the nominal phase.
  const double secs = std::max(nominal.seconds, 1e-9);
  const uint64_t hits = e1.sketch_hits - e0.sketch_hits;
  const uint64_t fallbacks = e1.sketch_fallbacks - e0.sketch_fallbacks;
  const uint64_t stale = e1.sketch_stale - e0.sketch_stale;
  // A share or mean with nothing to divide by is not measured and is
  // left out, never reported as 0.
  const double p2p_total = static_cast<double>(hits + fallbacks + stale);
  if (p2p_total > 0) {
    report->Context("sketch.hit_frac", hits / p2p_total, "ratio");
    report->Context("sketch.fallback_frac", fallbacks / p2p_total, "ratio");
    report->Context("sketch.stale_frac", stale / p2p_total, "ratio");
  }
  const uint64_t rebuilds = k1.rebuilds - k0.rebuilds;
  report->Add("sketch.rebuilds", static_cast<double>(rebuilds), "count");
  if (rebuilds > 0) {
    report->Context("sketch.rebuild_ms",
                    (k1.total_build_ms - k0.total_build_ms) / rebuilds, "ms");
  }
  const uint64_t batches_run = e1.batches_run - e0.batches_run;
  const uint64_t singles = e1.single_runs - e0.single_runs;
  const uint64_t dispatches = batches_run + singles;
  const uint64_t occ_n =
      e1.batch_occupancy.count() - e0.batch_occupancy.count();
  if (occ_n > 0) {
    report->Context("engine.occupancy",
                    (e1.batch_occupancy.sum() - e0.batch_occupancy.sum()) /
                        static_cast<double>(occ_n),
                    "ratio");
  }
  if (dispatches > 0) {
    report->Context("engine.lone_frac",
                    static_cast<double>(singles) / dispatches, "ratio");
  }
  report->Add("engine.batches_per_s", dispatches / secs, "1/s");
  const double sent = std::max<double>(1, plan.size());
  const uint64_t shed =
      (s1.admission.shed_queue_full - s0.admission.shed_queue_full) +
      (s1.admission.shed_deadline - s0.admission.shed_deadline);
  report->Context("server.shed_frac", shed / sent, "ratio");
  report->Context("server.expired_frac",
                  (s1.queries_timed_out - s0.queries_timed_out) / sent,
                  "ratio");
  report->Context("server.backpressure_events",
                  static_cast<double>(s1.backpressure_events -
                                      s0.backpressure_events),
                  "count");
  report->Context("sched.served_steal_frac", sched.StealFraction(), "ratio");
  report->Add("graph.publishes",
              static_cast<double>(snap1.publishes - snap0.publishes), "count");
  const uint64_t compactions = c1.compactions - c0.compactions;
  report->Add("graph.compactions", static_cast<double>(compactions), "count");
  if (compactions > 0) {
    report->Context("graph.compaction_ms",
                    (c1.total_duration_ms - c0.total_duration_ms) / compactions,
                    "ms");
  }
  report->Context("graph.overlay_vertices",
                  Median(nominal.samples.overlay_vertices), "count");
  report->NoteNumber("serve.sketch_hits", static_cast<double>(hits));
  report->NoteNumber("serve.sketch_fallbacks",
                     static_cast<double>(fallbacks));
  report->NoteNumber("serve.dispatches", static_cast<double>(dispatches));
  report->NoteNumber("serve.lone_dispatches", static_cast<double>(singles));

  if (args.trace) {
    // Requests as spans: due -> sent (generator lag) and sent ->
    // answered (wire), one track per request.
    for (size_t i = 0; i < plan.size(); ++i) {
      const Outcome& o = nominal.outcomes[i];
      const uint64_t id = plan[i].request.trace_id;
      spans->Add("loadgen.due_to_sent", o.due_ns, o.sent_ns, id);
      if (o.answered) spans->Add("request.sent_to_answered", o.sent_ns,
                                 o.recv_ns, id);
    }
    std::vector<std::string> lines;
    {
      std::lock_guard<std::mutex> lock(slowlog_mu);
      lines = slowlog;
    }
    const SlowlogIds logged = ParseSlowlog(lines);
    report->NoteNumber("trace.sampled_records",
                       static_cast<double>(logged.lines));
    // Every sampled query answered OK must have left exactly its own
    // record, in the slowlog and in the store; otherwise the stage
    // numbers describe some other set of queries and the run is not a
    // measurement.
    std::set<uint64_t> expected_ids;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].request.trace_sampled && !Failed(nominal.outcomes[i])) {
        expected_ids.insert(plan[i].request.trace_id);
      }
    }
    if (expected_ids.empty() || logged.ids != expected_ids ||
        logged.lines != expected_ids.size()) {
      report->Invalid("slowlog holds " + std::to_string(logged.lines) +
                      " sampled records for " +
                      std::to_string(expected_ids.size()) +
                      " sampled queries answered OK");
    }

    // Stage durations of the same records, read from the store in
    // nanoseconds (the slowlog rounds them to microseconds). decode,
    // queue, gate, coalesce, kernel, deliver; coalesce and kernel of
    // traversals only.
    std::vector<double> stage_ms[pbfs::obs::kNumQueryStageSpans];
    std::vector<double> trav_ms[pbfs::obs::kNumQueryStageSpans];
    int64_t max_err = 0;
    std::set<uint64_t> retained_ids;
    for (const pbfs::obs::QueryTraceRecord& r :
         pbfs::obs::QueryTraceStore::Get().Retained()) {
      if (!r.sampled || r.outcome != pbfs::obs::QueryOutcome::kOk) continue;
      retained_ids.insert(r.trace_id);
      const bool trav =
          r.query_type !=
          static_cast<uint8_t>(QueryType::kPointToPointDistance);
      // The stage durations telescope to the server-side wire latency;
      // checked exactly, in nanoseconds.
      int64_t sum = 0;
      for (int i = 0; i < pbfs::obs::kNumQueryStageSpans; ++i) {
        const int64_t ns = r.StageDurNs(i);
        sum += ns;
        stage_ms[i].push_back(static_cast<double>(ns) / 1e6);
        if (trav) trav_ms[i].push_back(static_cast<double>(ns) / 1e6);
      }
      const int64_t err = sum - r.wire_latency_ns;
      max_err = std::max(max_err, err < 0 ? -err : err);
    }
    if (retained_ids != expected_ids) {
      report->Invalid("trace store retained " +
                      std::to_string(retained_ids.size()) +
                      " sampled OK records for " +
                      std::to_string(expected_ids.size()) + " queries");
    }
    if (max_err != 0) {
      report->Mismatch("query stages do not sum to the wire latency (off by " +
                       std::to_string(max_err) + " ns)");
    }
    const char* server_stage[6] = {"server.decode_ms", "server.queue_ms",
                                   "server.gate_ms", nullptr, nullptr,
                                   "server.deliver_ms"};
    for (int i = 0; i < 6; ++i) {
      if (server_stage[i] == nullptr) continue;
      report->Context(std::string(server_stage[i]) + "_p50",
                      Quantile(stage_ms[i], 0.5), "ms");
      report->Context(std::string(server_stage[i]) + "_p99",
                      Quantile(stage_ms[i], 0.99), "ms");
    }
    report->Context("engine.coalesce_ms_p50", Quantile(trav_ms[3], 0.5), "ms");
    report->Context("engine.coalesce_ms_p99", Quantile(trav_ms[3], 0.99), "ms");
    report->Context("bfs.kernel_ms_p50", Quantile(trav_ms[4], 0.5), "ms");
    report->Context("bfs.kernel_ms_p99", Quantile(trav_ms[4], 0.99), "ms");
    report->Context("obs.stage_sum_err_ns", static_cast<double>(max_err), "ns");

    // Sampled (odd) vs unsampled (even) queries of the same phase.
    std::vector<double> traced, untraced;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!IsTraversal(plan[i].request.type) || Failed(nominal.outcomes[i])) {
        continue;
      }
      (plan[i].request.trace_sampled ? traced : untraced)
          .push_back(LatencyMs(nominal.outcomes[i]));
    }
    report->Context("obs.served_trace_overhead_frac",
                    Median(traced) / std::max(1e-9, Median(untraced)) - 1,
                    "ratio");
  }

  // max_qps is context, so only the traced run searches for it.
  if (!churn && args.trace) {
    MeasureMaxQps(args.seed, vertices, port, connections, &server, &engine,
                  report);
  }
  server.Stop();
  served.server.reset();
  served.engine.reset();

  // Kernel phase on the graph this workload serves, on the idle pool.
  // Under churn that is the base graph with the nominal phase's update
  // batches as one uncompacted overlay, the view traversals read just
  // before a compaction; the batches are the planned ones, so the view
  // depends only on --seed.
  pbfs::SnapshotManager snapshots(pbfs::SnapshotManager::Borrow(base));
  if (churn) {
    std::vector<pbfs::EdgeUpdate> updates;
    for (size_t i = 0; i < batches_per_attempt; ++i) {
      updates.insert(updates.end(), batches[i].updates.begin(),
                     batches[i].updates.end());
    }
    snapshots.ApplyBatch(updates);
  }
  const pbfs::SnapshotManager::Ref view = snapshots.Pin();
  report->Context("graph.kernel_overlay_vertices",
                      static_cast<double>(view->patched_vertices()), "count");
  RunKernels(args,
             {{.tag = "",
               .name = churn ? "overlay" : "kron",
               .graph = &view->graph(),
               .source_seed = pbfs::SplitMix64(args.seed * 2)}},
             args.seconds / 2, &pool, spans, report);

  // Answers are checked after the timed phases, on the idle pool.
  CheckAnswers(plan, nominal.outcomes, base, batches, &pool, report);
}

}  // namespace perfbench
