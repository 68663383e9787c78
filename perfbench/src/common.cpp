// Helpers every workload shares: metric emission, the layered snapshot
// set-up, the idle-service output check, the replay sample and the trace
// summary.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/generators.hpp"
#include "replay.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using lcs::service::ArtifactStats;
using lcs::service::GraphSnapshot;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

void add_end_to_end(RunResult& out, const EndToEnd& e) {
  out.e2e("setup_s", e.setup_s, "s");
  out.e2e("rss_mb", e.rss_mb, "MiB");
  out.e2e("ok_share", e.ok_share, "share");
  out.e2e("qps", e.qps, "1/s");
  out.e2e("p50_ms", e.p50_ms, "ms");
}

void add_per_layer(RunResult& out, const LayerValues& values) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"streaming.queue_ms.p50", "ms"},
      {"streaming.queue_ms.tail", "ms"},
      {"streaming.wave_idle_share", "share"},
      {"streaming.waves", "count"},
      {"streaming.submit_us.tail", "us"},
      {"streaming.shed", "count"},
      {"service.exec_ms.quality.p50", "ms"},
      {"service.exec_ms.build.p50", "ms"},
      {"service.exec_ms.mst.p50", "ms"},
      {"service.exec_ms.karger.p50", "ms"},
      {"service.exec_ms.sparsified.p50", "ms"},
      {"service.exec_ms.p2p.p50", "ms"},
      {"snapshot.partition.hits", "count"},
      {"snapshot.partition.misses", "count"},
      {"snapshot.partition.evictions", "count"},
      {"snapshot.partition.hit_ratio", "share"},
      {"snapshot.sample.misses", "count"},
      {"snapshot.partition_fetch_ms.p50", "ms"},
      {"snapshot.build_ms", "ms"},
      {"snapshot.pool_prewarm_ms", "ms"},
      {"snapshot.ch_build_ms", "ms"},
      {"snapshot.save_ms", "ms"},
      {"snapshot.load_ms", "ms"},
      {"snapshot.file_bytes", "bytes"},
      {"graph.partition_ms.p50", "ms"},
      {"core.kp_quality_ms.p50", "ms"},
      {"core.kp_build_ms.p50", "ms"},
      {"core.shortcut_edges", "count"},
      {"mst.boruvka_ms.p50", "ms"},
      {"congest.rounds", "count"},
      {"congest.messages", "count"},
      {"mincut.karger_ms.p50", "ms"},
      {"mincut.sparsify_ms.p50", "ms"},
      {"mincut.skeleton_cut_ms.p50", "ms"},
      {"sssp.ch_query_us.p50", "us"},
      {"sssp.ch_query_us.p99", "us"},
      {"sssp.settled_per_query", "count"},
      {"wire.encode_us.p50", "us"},
      {"wire.decode_us.p50", "us"},
      {"wire.bytes_per_query", "bytes"},
      {"rpc.round_trip_us.p50", "us"},
      {"rpc.round_trip_us.p99", "us"},
      {"rpc.transit_us.p50", "us"},
      {"router.self_us.p50", "us"},
      {"serve.cheap_p50_ms", "ms"},
      {"serve.cheap_tail_ms", "ms"},
      {"serve.heavy_p50_ms", "ms"},
      {"serve.heavy_tail_ms", "ms"},
      {"serve.max_rate_qps", "1/s"},
      {"serve.gen_late_ms.p99", "ms"},
      {"caller.tail_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  for (const auto& [name, unit] : kNames) {
    const auto it = values.find(name);
    out.layer(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(std::begin(kNames), std::end(kNames),
                                   [&](const auto& k) { return name == k.first; });
    if (!known) throw std::logic_error("per-layer metric " + name + " is not declared");
  }
}

double tail_or_zero(const std::vector<double>& v, double p) {
  return tail_supported(v.size(), p) ? percentile(v, p) : 0.0;
}

Tail supported_tail(const std::vector<double>& v, double cap) {
  const double p = std::min(cap, highest_supported_percentile(v.size()));
  if (p <= 0.0) return {};
  return {p, percentile(v, p)};
}

SnapshotSetup make_layered_snapshot(bool with_ch) {
  SnapshotSetup s;
  lcs::Rng grng = lcs::Rng(kGraphSeed).split(1);
  std::int64_t t = now_ns();
  lcs::graph::Graph g = lcs::graph::layered_random_graph(kServeVertices, 4, 3.0, grng);
  GraphSnapshot::Options opt;
  opt.prewarm_partition_pool = false;  // warmed below, timed apart
  s.snap = GraphSnapshot::build(std::move(g), opt);
  s.build_ms = static_cast<double>(now_ns() - t) / 1e6;
  t = now_ns();
  s.snap->warm_partition_pool();
  s.prewarm_ms = static_cast<double>(now_ns() - t) / 1e6;
  if (with_ch) {
    t = now_ns();
    (void)s.snap->ch_index();
    s.ch_ms = static_cast<double>(now_ns() - t) / 1e6;
  }
  return s;
}

namespace {

/// Indices of the ok results in seeded random order.
std::vector<std::size_t> shuffled_ok(const std::vector<QueryResult>& served, lcs::Rng& rng) {
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < served.size(); ++i)
    if (served[i].ok) ok.push_back(i);
  rng.shuffle(ok);
  return ok;
}

}  // namespace

void check_against_idle_service(const ShortcutService& svc,
                                const std::vector<QueryRequest>& requests,
                                const std::vector<QueryResult>& served, std::size_t count,
                                lcs::Rng rng, RunResult& out) {
  std::vector<std::size_t> picks = shuffled_ok(served, rng);
  if (picks.size() > count) picks.resize(count);
  std::size_t mismatches = 0;
  for (const std::size_t i : picks) {
    const QueryResult again = svc.run(requests[i]);
    if (again.digest() == served[i].digest()) continue;
    ++mismatches;
    out.fail("query " + std::to_string(requests[i].id) + " (" + kind_label(requests[i]) +
             ") served digest differs from an idle run()");
  }
  note("output check: " + std::to_string(picks.size()) +
       " served results re-run through an idle ShortcutService::run, " +
       std::to_string(mismatches) + " mismatches");
}

void replay_sample(const GraphSnapshot& snap, std::uint64_t service_seed,
                   const std::vector<QueryRequest>& requests,
                   const std::vector<QueryResult>& served, std::size_t per_kind, lcs::Rng rng,
                   Tracer& tracer, RunResult& out, LayerValues& layers) {
  std::unordered_map<std::string, std::size_t> taken;
  std::vector<std::size_t> chosen;
  for (const std::size_t i : shuffled_ok(served, rng))
    if (taken[kind_label(requests[i])]++ < per_kind) chosen.push_back(i);

  std::vector<ReplayPhases> phases(chosen.size());
  std::vector<QueryResult> rebuilt(chosen.size());
  // One query at a time, each as a task so library regions inside it
  // serialize as they do in the service, and no replay competes with
  // another for the cores.
  tracer.set_enabled(true);
  for (std::size_t k = 0; k < chosen.size(); ++k)
    lcs::parallel_tasks(1, [&](std::size_t) {
      rebuilt[k] = replay_query(snap, service_seed, requests[chosen[k]], tracer, phases[k]);
    });
  tracer.set_enabled(false);

  std::vector<double> fetch, compute, quality, build, boruvka, karger, sparsify, skeleton, ch;
  double shortcut_edges = 0, rounds = 0, messages = 0, settled = 0, p2p = 0;
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    const std::size_t i = chosen[k];
    // settled_nodes is digest-excluded telemetry; the exact counter it
    // feeds must still match what the service counted.
    if (rebuilt[k].digest() != served[i].digest() ||
        rebuilt[k].settled_nodes != served[i].settled_nodes)
      out.fail("replay of query " + std::to_string(requests[i].id) + " (" +
               kind_label(requests[i]) + ") does not reproduce the served result" +
               (rebuilt[k].ok ? "" : ": " + rebuilt[k].error));
    const ReplayPhases& p = phases[k];
    const auto add = [](std::vector<double>& v, double x) {
      if (x >= 0.0) v.push_back(x);
    };
    add(fetch, p.partition_fetch_ms);
    add(compute, p.partition_compute_ms);
    add(quality, p.kp_quality_ms);
    add(build, p.kp_build_ms);
    add(boruvka, p.boruvka_ms);
    add(karger, p.karger_ms);
    add(sparsify, p.sparsify_ms);
    add(skeleton, p.skeleton_cut_ms);
    add(ch, p.ch_query_us);
    shortcut_edges += static_cast<double>(p.shortcut_edges);
    rounds += static_cast<double>(p.congest_rounds);
    messages += static_cast<double>(p.congest_messages);
    settled += static_cast<double>(p.settled);
    if (p.ch_query_us >= 0.0) ++p2p;
  }
  note("replay: " + std::to_string(chosen.size()) + " served queries re-executed phase by phase");
  layers["snapshot.partition_fetch_ms.p50"] = median(fetch);
  layers["graph.partition_ms.p50"] = median(compute);
  layers["core.kp_quality_ms.p50"] = median(quality);
  layers["core.kp_build_ms.p50"] = median(build);
  layers["core.shortcut_edges"] = shortcut_edges;
  layers["mst.boruvka_ms.p50"] = median(boruvka);
  layers["congest.rounds"] = rounds;
  layers["congest.messages"] = messages;
  layers["mincut.karger_ms.p50"] = median(karger);
  layers["mincut.sparsify_ms.p50"] = median(sparsify);
  layers["mincut.skeleton_cut_ms.p50"] = median(skeleton);
  layers["sssp.ch_query_us.p50"] = median(ch);
  layers["sssp.ch_query_us.p99"] = tail_or_zero(ch, 99.0);
  layers["sssp.settled_per_query"] = p2p > 0 ? settled / p2p : 0.0;
}

void record_artifact_delta(const ArtifactStats& before, const ArtifactStats& after,
                           LayerValues& layers) {
  const double hits = static_cast<double>(after.partition.hits - before.partition.hits);
  const double misses = static_cast<double>(after.partition.misses - before.partition.misses);
  layers["snapshot.partition.hits"] = hits;
  layers["snapshot.partition.misses"] = misses;
  layers["snapshot.partition.evictions"] =
      static_cast<double>(after.partition.evictions - before.partition.evictions);
  layers["snapshot.partition.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers["snapshot.sample.misses"] =
      static_cast<double>(after.sparsified.misses - before.sparsified.misses);
}

void record_exec_by_kind(const std::vector<QueryRequest>& requests,
                         const std::vector<QueryResult>& served, LayerValues& layers) {
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t i = 0; i < served.size(); ++i)
    if (served[i].ok) by_kind[kind_label(requests[i])].push_back(served[i].latency_ms);
  for (const auto& [kind, v] : by_kind) layers["service.exec_ms." + kind + ".p50"] = median(v);
}

void summarize_trace(const Tracer& tracer, const std::filesystem::path& file) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_name[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  for (const auto& [name, v] : by_name) {
    double total = 0;
    for (const double x : v) total += x;
    std::ostringstream line;
    line << "self time " << name << ": " << v.size() << " spans, total "
         << total / 1e3 << " ms, p50 " << median(v) << " us";
    note(line.str());
  }
  std::filesystem::create_directories(file.parent_path());
  tracer.write_json(file);
  note("trace: " + std::to_string(spans.size()) + " spans (" +
       std::to_string(tracer.dropped()) + " dropped past the cap) written to " + file.string());
}

std::string fmt(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

void note(const std::string& line) { std::cout << "# " << line << std::endl; }

}  // namespace perfbench
