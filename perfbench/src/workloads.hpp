// The three lcsperf workloads and what they share: run options, the result
// every workload returns, and the frozen workload constants.
//
// serve_mixed  open loop, Poisson arrivals at three fixed offered rates into
//              a StreamingService (admission waves, every compute kind).
// route_fleet  closed loop, 2 clients, each with a ShardRouter over RpcShards
//              to 2 lcsshard processes serving a saved road_network snapshot.
// fresh_parts  closed loop, 1 client, ShortcutService::run_batch of 8
//              shortcut queries with explicit num_parts (partition misses).
//
// README.md has the metric definitions and the layer table.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

// -- frozen workload constants ------------------------------------------------

/// The seed a run uses unless told otherwise (README.md names the held-out
/// seed that performance changes confirm their claims on).
inline constexpr std::uint64_t kDefaultSeed = 1;
/// The graphs are the workloads' fixed data sets: generated from this
/// constant, not from the run seed, which makes the traffic.
inline constexpr std::uint64_t kGraphSeed = 1;

/// Executors: pool threads plus load-generator threads stay within 4.
inline constexpr unsigned kServePoolThreads = 3;  ///< + 1 generator thread
inline constexpr unsigned kFreshPoolThreads = 4;  ///< the client is a pool executor
inline constexpr unsigned kRouteClients = 2;      ///< + 2 single-threaded shards
inline constexpr unsigned kRouteShards = 2;

/// serve_mixed offered-rate ladder (queries per second) and the share of
/// the run each step's arrivals span.  The middle step carries the
/// headline metrics, so it gets the longest window.
inline constexpr double kLadderQps[3] = {5.0, 8.0, 12.0};
inline constexpr double kLadderShare[3] = {0.2, 0.6, 0.2};
/// Class latency limits of the max-rate rule: cheap-class tail and
/// heavy-class tail (percentiles chosen by the ten-beyond rule per step).
inline constexpr double kCheapTailLimitMs = 450.0;
inline constexpr double kHeavyTailLimitMs = 600.0;
/// A step whose generator ran later than this at its p99 is invalid.
inline constexpr double kMaxGeneratorLateMs = 25.0;

/// Graph sizes.
inline constexpr std::uint32_t kServeVertices = 500;
inline constexpr std::uint32_t kRoadVertices = 16000;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

// -- run plumbing -------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch files, sockets, traces
  std::string shard_bin;           ///< lcsshard executable (route_fleet)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;           ///< ok=false or shed
  std::vector<Metric> end_to_end;     ///< reported with --trace 0
  std::vector<Metric> per_layer;      ///< reported with --trace 1
  std::vector<std::string> problems;  ///< output-check or replay mismatches

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

RunResult run_serve_mixed(const RunOptions& opt);
RunResult run_route_fleet(const RunOptions& opt);
RunResult run_fresh_parts(const RunOptions& opt);

// -- shared helpers (common.cpp) ------------------------------------------------

/// Median of the samples (0 when empty).
double median(std::vector<double> v);
/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(long pid = 0);
/// Seconds between two now_ns() readings.
double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double rss_mb = 0.0;
  double ok_share = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
};
void add_end_to_end(RunResult& out, const EndToEnd& e);

/// Per-layer values by metric name; add_per_layer emits every per-layer
/// metric of the benchmark in a fixed order, 0 for those a workload's
/// layers never ran.
using LayerValues = std::map<std::string, double>;
void add_per_layer(RunResult& out, const LayerValues& values);

/// The p-th percentile when the samples support it by the ten-beyond rule,
/// else 0.
double tail_or_zero(const std::vector<double>& v, double p);
/// The highest percentile up to `cap` that n samples support (ten-beyond
/// rule), and the value there; {0, 0} when even the median is unsupported.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};
Tail supported_tail(const std::vector<double>& v, double cap);

/// The serve_mixed / fresh_parts snapshot: layered_random_graph(500, 4, 3.0)
/// from kGraphSeed, built with its partition pool warmed and (optionally)
/// its CH index derived, each step timed apart.
struct SnapshotSetup {
  std::shared_ptr<const lcs::service::GraphSnapshot> snap;
  double build_ms = 0.0;
  double prewarm_ms = 0.0;
  double ch_ms = 0.0;
};
SnapshotSetup make_layered_snapshot(bool with_ch);

/// Output check: re-run `count` seeded picks of the served (ok) results
/// through the idle service's run() and compare digests.
void check_against_idle_service(const lcs::service::ShortcutService& svc,
                                const std::vector<lcs::service::QueryRequest>& requests,
                                const std::vector<lcs::service::QueryResult>& served,
                                std::size_t count, lcs::Rng rng, RunResult& out);

/// Replay up to `per_kind` seeded picks per query kind of the served (ok)
/// results (replay.hpp), fail the run on a digest mismatch, and fill the
/// compute-phase per-layer values.
void replay_sample(const lcs::service::GraphSnapshot& snap, std::uint64_t service_seed,
                   const std::vector<lcs::service::QueryRequest>& requests,
                   const std::vector<lcs::service::QueryResult>& served, std::size_t per_kind,
                   lcs::Rng rng, Tracer& tracer, RunResult& out, LayerValues& layers);

/// Partition / sample cache counters between two artifact_stats() reads.
void record_artifact_delta(const lcs::service::ArtifactStats& before,
                           const lcs::service::ArtifactStats& after, LayerValues& layers);

/// Per-kind execution p50 (QueryResult::latency_ms) of served results.
void record_exec_by_kind(const std::vector<lcs::service::QueryRequest>& requests,
                         const std::vector<lcs::service::QueryResult>& served,
                         LayerValues& layers);

/// Print self time per span name, write the spans to `file`.
void summarize_trace(const Tracer& tracer, const std::filesystem::path& file);

/// A number as people read it (up to 6 significant digits).
std::string fmt(double v);

/// One line per workload-level fact, prefixed "# " so it can never be
/// mistaken for the result line.
void note(const std::string& line);

}  // namespace perfbench
