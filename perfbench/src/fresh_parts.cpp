// fresh_parts: a closed loop of one client calling ShortcutService::run_batch
// with batches of 4 shortcut_quality and 4 shortcut_build queries whose
// explicit num_parts (12..44) miss the partition pool, so every query derives
// its partition through the artifact cache's write path and churns its memo.
// No admission: the batch goes straight to the pool.
#include <sstream>

#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;

namespace {

struct Pass {
  std::vector<QueryRequest> requests;
  std::vector<QueryResult> results;
  std::vector<double> batch_ms;
  double elapsed_s = 0.0;
};

Pass run_pass(const ShortcutService& svc, std::uint64_t seed, double seconds, Tracer& tracer) {
  Pass p;
  lcs::Rng rng = lcs::Rng(seed).split(2);
  std::uint64_t id = 1;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::vector<QueryRequest> batch = fresh_parts_batch(id, rng);
    id += batch.size();
    const std::int64_t t0 = now_ns();
    std::vector<QueryResult> res;
    {
      const ScopedSpan span(tracer, "service.run_batch", batch.front().id);
      res = svc.run_batch(batch);
    }
    p.batch_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    p.requests.insert(p.requests.end(), batch.begin(), batch.end());
    p.results.insert(p.results.end(), res.begin(), res.end());
  }
  p.elapsed_s = seconds_between(start, now_ns());
  return p;
}

}  // namespace

RunResult run_fresh_parts(const RunOptions& opt) {
  RunResult out;
  lcs::set_num_threads(kFreshPoolThreads);

  std::vector<double> setup_s, build_ms, prewarm_ms;
  SnapshotSetup snap;
  std::unique_ptr<ShortcutService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    snap = make_layered_snapshot(false);
    svc = std::make_unique<ShortcutService>(snap.snap, opt.seed);
    setup_s.push_back(seconds_between(t0, now_ns()));
    build_ms.push_back(snap.build_ms);
    prewarm_ms.push_back(snap.prewarm_ms);
  }
  note("fresh_parts: layered_random_graph(" + std::to_string(kServeVertices) +
       ", 4, 3.0), batches of 4 quality + 4 build, pool threads " +
       std::to_string(kFreshPoolThreads) + ", setup_s median of " + std::to_string(kSetupReps));

  Tracer tracer(false);
  const Pass plain = run_pass(*svc, opt.seed, opt.seconds, tracer);
  std::size_t ok = 0;
  for (const QueryResult& r : plain.results) ok += r.ok;
  out.attempted = plain.results.size();
  out.failed = out.attempted - ok;
  {
    std::ostringstream line;
    line << "untraced: " << plain.batch_ms.size() << " batches, attempted " << out.attempted
         << " ok " << ok << " failed " << out.failed << " shed 0";
    note(line.str());
  }
  check_against_idle_service(*svc, plain.requests, plain.results, 24,
                             lcs::Rng(opt.seed).split(3), out);

  EndToEnd e;
  e.setup_s = median(setup_s);
  e.rss_mb = peak_rss_mb();
  e.ok_share = static_cast<double>(ok) / static_cast<double>(out.attempted);
  e.qps = static_cast<double>(ok) / plain.elapsed_s;
  e.p50_ms = median(plain.batch_ms);
  const Tail tail = supported_tail(plain.batch_ms, 99.0);
  note("caller tail p" + fmt(tail.percentile) + " = " + fmt(tail.value) + " ms over " +
       std::to_string(plain.batch_ms.size()) + " batches");
  add_end_to_end(out, e);
  if (!opt.trace) return out;

  LayerValues layers;
  const auto before = snap.snap->artifact_stats();
  tracer.set_enabled(true);
  const Pass traced = run_pass(*svc, opt.seed, opt.seconds, tracer);
  tracer.set_enabled(false);
  record_artifact_delta(before, snap.snap->artifact_stats(), layers);
  record_exec_by_kind(traced.requests, traced.results, layers);
  layers["snapshot.build_ms"] = median(build_ms);
  layers["snapshot.pool_prewarm_ms"] = median(prewarm_ms);
  layers["caller.tail_ms"] = tail.value;
  layers["trace.overhead_ms"] = median(traced.batch_ms) - e.p50_ms;
  // Replay from the first batches only: they are a pure function of the
  // seed, so the replayed work (and its exact counts) is too.
  const std::size_t m = std::min<std::size_t>(traced.requests.size(), 96);
  const std::vector<QueryRequest> first_requests(traced.requests.begin(),
                                                 traced.requests.begin() + m);
  const std::vector<QueryResult> first_results(traced.results.begin(),
                                               traced.results.begin() + m);
  replay_sample(*snap.snap, opt.seed, first_requests, first_results, 16,
                lcs::Rng(opt.seed).split(4), tracer, out, layers);
  add_per_layer(out, layers);
  summarize_trace(tracer, opt.work_dir / "traces" / "fresh_parts.json");
  return out;
}

}  // namespace perfbench
