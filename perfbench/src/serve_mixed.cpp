// serve_mixed: open-loop Poisson traffic at a ladder of three fixed offered
// rates into a StreamingService (drain thread on, one tenant whose buckets
// never bind, a queue bound no step reaches).
//
// One generator thread (this one) submits each arrival at its scheduled
// time; one waiter thread per cost class waits on that class's tickets in
// FIFO order, which is the order its waves publish them.  A query's latency
// runs from its scheduled send to the moment its waiter sees the result, so
// a stalled generator still charges the wait to the queries it delayed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "service/streaming.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using lcs::service::CostClass;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;
using lcs::service::StreamingOptions;
using lcs::service::StreamingService;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kTenant = "bench";

struct Step {
  double rate = 0.0;
  double window_s = 0.0;
  std::vector<double> offsets;  ///< seconds from step start
  std::vector<QueryRequest> requests;
};

/// What one ladder pass observed for one step.
struct StepRun {
  std::vector<QueryResult> results;  ///< positional; shed ones stay default
  std::vector<double> latency_ms;    ///< scheduled send -> seen by waiter; inf if not ok
  std::vector<double> late_ms;       ///< actual - scheduled send
  std::vector<double> submit_us;
  std::vector<double> outstanding;   ///< in-flight count after each submit
  std::vector<bool> shed;
  double window_s = 0.0;  ///< step start -> last result seen
};

std::vector<Step> make_schedule(std::uint64_t seed, double seconds) {
  lcs::Rng rng = lcs::Rng(seed).split(2);
  std::vector<Step> steps;
  std::uint64_t id = 1;
  for (int k = 0; k < 3; ++k) {
    Step s;
    s.rate = kLadderQps[k];
    s.window_s = seconds * kLadderShare[k];
    s.offsets = poisson_offsets(s.rate, s.window_s, rng);
    s.requests = mixed_queries(id, s.offsets.size(), kServeVertices, rng);
    id += s.offsets.size();
    steps.push_back(std::move(s));
  }
  return steps;
}

/// FIFO of admitted tickets for one cost class's waiter.
struct ClassQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, StreamingService::Ticket>> items;  // guarded by mu
  bool closed = false;                                                 // guarded by mu
};

StepRun run_step(StreamingService& svc, const Step& step, Tracer& tracer) {
  const std::size_t n = step.requests.size();
  StepRun r;
  r.results.resize(n);
  r.latency_ms.assign(n, kInf);
  r.late_ms.resize(n);
  r.submit_us.resize(n);
  r.outstanding.resize(n);
  r.shed.assign(n, false);
  if (n == 0) return r;  // a window too short for a single arrival
  std::vector<std::int64_t> seen_ns(n, 0);
  std::atomic<std::int64_t> in_flight{0};

  const std::int64_t base = now_ns() + 5'000'000;
  const auto scheduled = [&](std::size_t i) {
    return base + static_cast<std::int64_t>(step.offsets[i] * 1e9);
  };
  ClassQueue queues[2];
  const auto waiter = [&](ClassQueue& q) {
    for (;;) {
      std::pair<std::size_t, StreamingService::Ticket> item;
      {
        std::unique_lock<std::mutex> lock(q.mu);
        q.cv.wait(lock, [&] { return q.closed || !q.items.empty(); });
        if (q.items.empty()) return;
        item = std::move(q.items.front());
        q.items.pop_front();
      }
      const std::size_t i = item.first;
      QueryResult res;
      {
        const ScopedSpan span(tracer, "streaming.wait", step.requests[i].id);
        res = svc.wait(item.second);
      }
      seen_ns[i] = now_ns();
      in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (res.ok) r.latency_ms[i] = static_cast<double>(seen_ns[i] - scheduled(i)) / 1e6;
      r.results[i] = std::move(res);
    }
  };
  std::thread cheap_waiter(waiter, std::ref(queues[0]));
  std::thread heavy_waiter(waiter, std::ref(queues[1]));

  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = scheduled(i);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::int64_t sent = now_ns();
    r.late_ms[i] = static_cast<double>(sent - due) / 1e6;
    const QueryRequest& q = step.requests[i];
    StreamingService::Ticket ticket;
    {
      const ScopedSpan span(tracer, "streaming.submit", q.id);
      ticket = svc.submit(kTenant, q);
    }
    r.submit_us[i] = static_cast<double>(now_ns() - sent) / 1e3;
    if (!ticket.admitted()) {
      r.shed[i] = true;
      r.results[i].id = q.id;
      r.results[i].kind = q.kind;
      r.results[i].error = ticket.shed_text();
      r.outstanding[i] = static_cast<double>(in_flight.load());
      continue;
    }
    r.outstanding[i] = static_cast<double>(in_flight.fetch_add(1) + 1);
    ClassQueue& cq = queues[lcs::service::query_cost_class(q) == CostClass::kCheap ? 0 : 1];
    {
      const std::lock_guard<std::mutex> lock(cq.mu);
      cq.items.emplace_back(i, std::move(ticket));
    }
    cq.cv.notify_one();
  }
  for (ClassQueue& cq : queues) {
    {
      const std::lock_guard<std::mutex> lock(cq.mu);
      cq.closed = true;
    }
    cq.cv.notify_all();
  }
  cheap_waiter.join();
  heavy_waiter.join();
  const std::int64_t last = *std::max_element(seen_ns.begin(), seen_ns.end());
  r.window_s = seconds_between(base, std::max(last, scheduled(n - 1)));
  return r;
}

/// Per-step accounting and the ladder rule's inputs.
struct StepSummary {
  std::size_t attempted = 0, ok = 0, failed = 0, shed = 0;
  double late_p99_ms = 0.0;
  bool valid = true;
  bool backlog_grew = false;
  std::vector<double> all, cheap, heavy;  ///< latencies, inf when not ok
  Tail cheap_tail, heavy_tail;
  double qps = 0.0;
  LadderStep ladder;
};

StepSummary summarize(const Step& step, const StepRun& run) {
  StepSummary s;
  const std::size_t n = step.requests.size();
  s.attempted = n;
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = !run.shed[i] && run.results[i].ok;
    s.ok += ok;
    s.shed += run.shed[i];
    s.failed += !ok && !run.shed[i];
    s.all.push_back(run.latency_ms[i]);
    (lcs::service::query_cost_class(step.requests[i]) == CostClass::kCheap ? s.cheap : s.heavy)
        .push_back(run.latency_ms[i]);
  }
  s.late_p99_ms = percentile(run.late_ms, 99.0);
  s.valid = s.late_p99_ms <= kMaxGeneratorLateMs;
  // Backlog grows when the in-flight count over the last quarter of the
  // arrivals exceeds twice that over the second quarter, plus one wave.
  const auto mean_over = [&](std::size_t a, std::size_t b) {
    double sum = 0.0;
    for (std::size_t i = a; i < b; ++i) sum += run.outstanding[i];
    return b > a ? sum / static_cast<double>(b - a) : 0.0;
  };
  const double wave = 4.0 + 2.0;  // cheap_slots + heavy_slots
  s.backlog_grew = mean_over(3 * n / 4, n) > 2.0 * mean_over(n / 4, n / 2) + wave;
  s.cheap_tail = supported_tail(s.cheap, 99.0);
  s.heavy_tail = supported_tail(s.heavy, 95.0);
  s.qps = run.window_s > 0.0 ? static_cast<double>(s.ok) / run.window_s : 0.0;
  s.ladder.rate_qps = step.rate;
  s.ladder.valid = s.valid;
  s.ladder.backlog_grew = s.backlog_grew;
  s.ladder.limit_ratio = std::max(s.cheap_tail.value / kCheapTailLimitMs,
                                  s.heavy_tail.value / kHeavyTailLimitMs);
  return s;
}

std::vector<double> finite(const std::vector<double>& v) {
  std::vector<double> out;
  for (const double x : v)
    if (std::isfinite(x)) out.push_back(x);
  return out;
}

void print_step(const char* pass, std::size_t k, const StepSummary& s) {
  std::ostringstream line;
  line << pass << " step " << k << " @ " << kLadderQps[k] << " qps: attempted " << s.attempted
       << " ok " << s.ok << " failed " << s.failed << " shed " << s.shed << "; generator late p99 "
       << s.late_p99_ms << " ms" << (s.valid ? "" : " -> INVALID step, no latency reported");
  if (s.valid) {
    line << "; served " << s.qps << " qps; cheap p50 " << median(finite(s.cheap)) << " ms p"
         << s.cheap_tail.percentile << " " << s.cheap_tail.value << " ms (n=" << s.cheap.size()
         << "); heavy p50 " << median(finite(s.heavy)) << " ms p" << s.heavy_tail.percentile << " "
         << s.heavy_tail.value << " ms (n=" << s.heavy.size() << ")"
         << (s.backlog_grew ? "; backlog GREW" : "");
  }
  note(line.str());
}

struct LadderPass {
  std::vector<StepRun> runs;
  std::vector<StepSummary> steps;
};

LadderPass run_ladder(StreamingService& svc, const std::vector<Step>& schedule, Tracer& tracer,
                      const char* pass) {
  LadderPass lp;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    lp.runs.push_back(run_step(svc, schedule[k], tracer));
    lp.steps.push_back(summarize(schedule[k], lp.runs.back()));
    print_step(pass, k, lp.steps.back());
  }
  return lp;
}

}  // namespace

RunResult run_serve_mixed(const RunOptions& opt) {
  RunResult out;
  lcs::set_num_threads(kServePoolThreads);
  const std::vector<Step> schedule = make_schedule(opt.seed, opt.seconds);

  StreamingOptions so;
  so.max_queue = 1u << 20;
  so.tenants = {{kTenant, {1u << 30, 1ull << 40}, {1u << 30, 1ull << 40}}};

  // Set-up, repeated: snapshot build, pool prewarm, CH, service start.
  std::vector<double> setup_s, build_ms, prewarm_ms, ch_ms;
  SnapshotSetup snap;
  std::unique_ptr<StreamingService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const std::int64_t t0 = now_ns();
    snap = make_layered_snapshot(true);
    svc = std::make_unique<StreamingService>(ShortcutService(snap.snap, opt.seed), so);
    setup_s.push_back(seconds_between(t0, now_ns()));
    build_ms.push_back(snap.build_ms);
    prewarm_ms.push_back(snap.prewarm_ms);
    ch_ms.push_back(snap.ch_ms);
  }
  note("serve_mixed: layered_random_graph(" + std::to_string(kServeVertices) +
       ", 4, 3.0), pool threads " + std::to_string(kServePoolThreads) +
       " + 1 generator, setup_s median of " + std::to_string(kSetupReps));

  Tracer tracer(false);
  const LadderPass plain = run_ladder(*svc, schedule, tracer, "untraced");
  LadderPass traced;
  lcs::service::ArtifactStats before, after;
  if (opt.trace) {
    before = snap.snap->artifact_stats();
    tracer.set_enabled(true);
    traced = run_ladder(*svc, schedule, tracer, "traced");
    tracer.set_enabled(false);
    after = snap.snap->artifact_stats();
  }

  // Accounting over every step of the untraced pass.
  std::vector<LadderStep> ladder;
  for (const StepSummary& s : plain.steps) {
    out.attempted += s.attempted;
    out.failed += s.failed + s.shed;
    ladder.push_back(s.ladder);
  }
  const StepSummary& mid = plain.steps[1];
  if (!mid.valid)
    throw std::runtime_error("the generator fell behind at the middle rate; no latency to report");

  // Output check, off the clock: the service is idle now.
  std::vector<QueryRequest> reqs;
  std::vector<QueryResult> served;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    reqs.insert(reqs.end(), schedule[k].requests.begin(), schedule[k].requests.end());
    served.insert(served.end(), plain.runs[k].results.begin(), plain.runs[k].results.end());
  }
  check_against_idle_service(svc->service(), reqs, served, 24, lcs::Rng(opt.seed).split(3), out);

  EndToEnd e;
  e.setup_s = median(setup_s);
  e.rss_mb = peak_rss_mb();
  e.ok_share = static_cast<double>(mid.ok) / static_cast<double>(mid.attempted);
  e.qps = mid.qps;
  e.p50_ms = median(finite(mid.cheap));
  const Tail tail = supported_tail(finite(mid.all), 99.0);
  note("p50_ms is the median of " + std::to_string(mid.cheap.size()) +
       " cheap-class queries at the middle rate; caller tail p" + fmt(tail.percentile) + " = " +
       fmt(tail.value) + " ms over all " + std::to_string(mid.all.size()));
  add_end_to_end(out, e);

  if (!opt.trace) return out;

  LayerValues layers;
  std::vector<double> queue_ms, submit_us;
  std::vector<QueryRequest> treqs;
  std::vector<QueryResult> tserved;
  struct WaveSum {
    double busy_ms = 0.0;  ///< sum of member execution times
    double members = 0.0;
    double longest_ms = 0.0;
  };
  std::map<std::uint32_t, WaveSum> waves;
  double shed = 0.0;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const StepRun& run = traced.runs[k];
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      submit_us.push_back(run.submit_us[i]);
      if (run.shed[i]) {
        ++shed;
        continue;
      }
      const QueryResult& res = run.results[i];
      queue_ms.push_back(res.queue_ms);
      WaveSum& w = waves[res.wave];
      w.busy_ms += res.latency_ms;
      w.members += 1.0;
      w.longest_ms = std::max(w.longest_ms, res.latency_ms);
    }
    treqs.insert(treqs.end(), schedule[k].requests.begin(), schedule[k].requests.end());
    tserved.insert(tserved.end(), run.results.begin(), run.results.end());
  }
  double busy = 0.0, held = 0.0;
  // A wave holds every member until its longest one ends.
  for (const auto& [wave, w] : waves) {
    busy += w.busy_ms;
    held += w.members * w.longest_ms;
  }
  layers["streaming.queue_ms.p50"] = median(queue_ms);
  layers["streaming.queue_ms.tail"] = supported_tail(queue_ms, 99.0).value;
  layers["streaming.wave_idle_share"] = held > 0.0 ? 1.0 - busy / held : 0.0;
  layers["streaming.waves"] = static_cast<double>(waves.size());
  layers["streaming.submit_us.tail"] = supported_tail(submit_us, 99.0).value;
  layers["streaming.shed"] = shed;
  record_exec_by_kind(treqs, tserved, layers);
  record_artifact_delta(before, after, layers);
  layers["snapshot.build_ms"] = median(build_ms);
  layers["snapshot.pool_prewarm_ms"] = median(prewarm_ms);
  layers["snapshot.ch_build_ms"] = median(ch_ms);

  // Class tails and the max rate come from the untraced pass.
  layers["serve.cheap_p50_ms"] = median(finite(mid.cheap));
  layers["serve.cheap_tail_ms"] = mid.cheap_tail.value;
  layers["serve.heavy_p50_ms"] = median(finite(mid.heavy));
  layers["serve.heavy_tail_ms"] = mid.heavy_tail.value;
  layers["serve.max_rate_qps"] = max_rate_qps(ladder);
  double late = 0.0;
  for (const StepSummary& s : plain.steps) late = std::max(late, s.late_p99_ms);
  layers["serve.gen_late_ms.p99"] = late;
  layers["caller.tail_ms"] = tail.value;
  layers["trace.overhead_ms"] = median(finite(traced.steps[1].cheap)) - e.p50_ms;

  replay_sample(*snap.snap, opt.seed, treqs, tserved, 12, lcs::Rng(opt.seed).split(4), tracer,
                out, layers);
  add_per_layer(out, layers);
  summarize_trace(tracer, opt.work_dir / "traces" / "serve_mixed.json");
  return out;
}

}  // namespace perfbench
