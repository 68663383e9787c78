// route_fleet: a closed loop of 2 client threads, each owning a ShardRouter
// over RpcShards to the same 2 `lcsshard --threads 1` processes (4
// connections).  The shards serve a road_network snapshot that set-up saves
// to a SnapshotStore and the shards mmap-load from it.  Each request is one
// s–t query with uniform endpoints, so the CH query, the wire codec and RPC
// transit do nearly all the work.
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <thread>

#include "graph/generators.hpp"
#include "rpc/shard.hpp"
#include "service/sharded.hpp"
#include "service/snapshot_store.hpp"
#include "service/wire.hpp"
#include "sssp/ch.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using lcs::service::GraphSnapshot;
using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShardBackend;
using lcs::service::ShardRouter;

namespace {

/// Pin the calling thread to `cpu` when the host has kRouteClients +
/// kRouteShards CPUs to give (shards 0..1, clients 2..3), so thread
/// placement is the same in every run.  Returns the previous mask.
cpu_set_t pin_current_thread(unsigned cpu) {
  cpu_set_t before;
  CPU_ZERO(&before);
  pthread_getaffinity_np(pthread_self(), sizeof(before), &before);
  if (CPU_COUNT(&before) >= static_cast<int>(kRouteClients + kRouteShards) &&
      CPU_ISSET(cpu, &before)) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }
  return before;
}

/// One lcsshard child process; the destructor kills and reaps it if it is
/// still running, so no exit path leaves a shard behind.
class ShardProcess {
 public:
  /// Spawn `bin args`, pinned to `cpu` (the child inherits the spawning
  /// thread's mask, which is restored afterwards).
  ShardProcess(const std::string& bin, const std::vector<std::string>& args, unsigned cpu) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("route_fleet: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    std::vector<std::string> all{bin};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    const cpu_set_t mask = pin_current_thread(cpu);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("route_fleet: cannot start " + bin);
    }
  }
  ~ShardProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  long pid() const { return pid_; }

  /// Block until the shard prints its READY line (30 s budget).
  void wait_ready() {
    std::string buf;
    const std::int64_t deadline = now_ns() + 30'000'000'000;
    while (buf.find("READY") == std::string::npos || buf.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      const int left = static_cast<int>((deadline - now_ns()) / 1'000'000);
      if (left <= 0 || poll(&p, 1, left) <= 0)
        throw std::runtime_error("route_fleet: shard never became ready");
      char chunk[256];
      const ssize_t got = read(out_fd_, chunk, sizeof(chunk));
      if (got <= 0) throw std::runtime_error("route_fleet: shard exited before READY");
      buf.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Ask the shard to exit over its protocol and reap it (SIGKILL after 10 s).
  void stop(const std::string& endpoint) {
    if (pid_ <= 0) return;
    lcs::rpc::RpcShard(lcs::rpc::Endpoint::parse(endpoint)).shutdown_server();
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// One shard round trip as the client saw it.
struct RoundTrip {
  double rt_us = 0.0;    ///< send_batch start -> gather end
  double exec_us = 0.0;  ///< shard-side execution (QueryResult::latency_ms)
};

/// Timing decorator around a backend: spans for send_batch and gather, and
/// one RoundTrip per gathered sub-batch while tracing.
class TimingShard : public ShardBackend {
 public:
  TimingShard(std::unique_ptr<ShardBackend> inner, Tracer& tracer, std::vector<RoundTrip>& sink)
      : inner_(std::move(inner)), tracer_(tracer), sink_(sink) {}

  std::string describe() const override { return inner_->describe(); }
  lcs::service::ShardInfo info() override { return inner_->info(); }
  lcs::service::ShardInfo reattach() override { return inner_->reattach(); }
  void send_batch(const std::vector<QueryRequest>& batch) override {
    const ScopedSpan span(tracer_, "rpc.send_batch", batch.empty() ? 0 : batch.front().id);
    sent_ns_ = now_ns();
    inner_->send_batch(batch);
  }
  std::vector<QueryResult> gather() override {
    std::vector<QueryResult> res;
    {
      const ScopedSpan span(tracer_, "rpc.gather", 0);
      res = inner_->gather();
    }
    if (tracer_.enabled()) {
      RoundTrip rt;
      rt.rt_us = static_cast<double>(now_ns() - sent_ns_) / 1e3;
      for (const QueryResult& r : res) rt.exec_us += r.latency_ms * 1e3;
      sink_.push_back(rt);
    }
    return res;
  }

 private:
  std::unique_ptr<ShardBackend> inner_;
  Tracer& tracer_;
  std::vector<RoundTrip>& sink_;
  std::int64_t sent_ns_ = 0;
};

std::string hex_of(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Everything set-up builds; members are destroyed clients first.
struct Fleet {
  std::filesystem::path dir;
  std::shared_ptr<const GraphSnapshot> loaded;  ///< in-process load of the saved file
  std::vector<std::unique_ptr<ShardProcess>> shards;
  std::vector<std::string> endpoints;
  std::vector<std::vector<RoundTrip>> round_trips;  ///< per client
  std::vector<std::unique_ptr<ShardRouter>> routers;  ///< per client
  double build_ms = 0, prewarm_ms = 0, ch_ms = 0, save_ms = 0, load_ms = 0, file_bytes = 0;

  ~Fleet() {
    routers.clear();
    for (std::size_t i = 0; i < shards.size(); ++i) shards[i]->stop(endpoints[i]);
    shards.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<Fleet> set_up(const RunOptions& opt, int rep, Tracer& tracer) {
  auto f = std::make_unique<Fleet>();
  f->dir = opt.work_dir / ("route-" + std::to_string(getpid()) + "-" + std::to_string(rep));
  std::filesystem::remove_all(f->dir);
  std::filesystem::create_directories(f->dir);

  lcs::Rng grng = lcs::Rng(kGraphSeed).split(1);
  std::int64_t t = now_ns();
  GraphSnapshot::Options so;
  so.prewarm_partition_pool = false;
  const auto snap = GraphSnapshot::build(lcs::graph::road_network(kRoadVertices, grng), so);
  f->build_ms = static_cast<double>(now_ns() - t) / 1e6;
  t = now_ns();
  snap->warm_partition_pool();
  f->prewarm_ms = static_cast<double>(now_ns() - t) / 1e6;
  t = now_ns();
  (void)snap->ch_index();
  f->ch_ms = static_cast<double>(now_ns() - t) / 1e6;

  lcs::service::SnapshotStore store(f->dir / "store");
  t = now_ns();
  const std::filesystem::path file = store.save(*snap);
  f->save_ms = static_cast<double>(now_ns() - t) / 1e6;
  f->file_bytes = static_cast<double>(std::filesystem::file_size(file));
  t = now_ns();
  f->loaded = GraphSnapshot::load(file);
  f->load_ms = static_cast<double>(now_ns() - t) / 1e6;

  for (unsigned s = 0; s < kRouteShards; ++s) {
    const std::filesystem::path socket = f->dir / ("shard" + std::to_string(s) + ".sock");
    f->endpoints.push_back("unix:" + socket.string());
    f->shards.push_back(std::make_unique<ShardProcess>(
        opt.shard_bin,
        std::vector<std::string>{"--store", (f->dir / "store").string(), "--fingerprint",
                                 hex_of(snap->fingerprint()), "--listen", f->endpoints.back(),
                                 "--seed", std::to_string(opt.seed), "--threads", "1"},
        s));
  }
  for (auto& s : f->shards) s->wait_ready();
  f->round_trips.resize(kRouteClients);
  for (unsigned c = 0; c < kRouteClients; ++c) {
    std::vector<std::unique_ptr<ShardBackend>> backends;
    for (const std::string& ep : f->endpoints)
      backends.push_back(std::make_unique<TimingShard>(
          std::make_unique<lcs::rpc::RpcShard>(lcs::rpc::Endpoint::parse(ep)), tracer,
          f->round_trips[c]));
    f->routers.push_back(std::make_unique<ShardRouter>(std::move(backends)));
  }
  return f;
}

/// What a client keeps: every latency, the ok count, and the first
/// kKeptInFull requests and results whole (the output check and the replay
/// sample, both a pure function of the seed).  Latencies go into reserved
/// storage, so the benchmark's own memory grows linearly, without the jumps
/// of a reallocating vector.
constexpr std::size_t kKeptInFull = 2000;

struct ClientLog {
  std::vector<double> latency_ms;
  std::size_t ok = 0;
  std::vector<QueryRequest> first_requests;
  std::vector<QueryResult> first_results;
};

struct Pass {
  std::vector<ClientLog> clients;
  double elapsed_s = 0.0;
};

Pass run_pass(Fleet& fleet, std::uint64_t seed, double seconds, Tracer& tracer) {
  Pass p;
  p.clients.resize(kRouteClients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kRouteClients; ++c) {
    threads.emplace_back([&, c] {
      (void)pin_current_thread(kRouteShards + c);
      lcs::Rng rng = lcs::Rng(seed).split(10 + c);
      ClientLog& log = p.clients[c];
      log.latency_ms.reserve(std::size_t{1} << 21);
      const ShardRouter& router = *fleet.routers[c];
      std::uint64_t id = (std::uint64_t{c} << 40) + 1;
      while (now_ns() < deadline) {
        QueryRequest q;
        q.id = id++;
        q.kind = QueryKind::kPointToPoint;
        q.s = static_cast<std::uint32_t>(rng.uniform(kRoadVertices));
        q.t = static_cast<std::uint32_t>(rng.uniform(kRoadVertices));
        const std::int64_t t0 = now_ns();
        std::vector<QueryResult> res;
        {
          const ScopedSpan span(tracer, "router.run_batch", q.id);
          res = router.run_batch({q});
        }
        const QueryResult& r = res.front();
        log.latency_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        log.ok += r.ok && r.s == q.s && r.t == q.t;
        if (log.first_requests.size() < kKeptInFull) {
          log.first_requests.push_back(q);
          log.first_results.push_back(r);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  p.elapsed_s = seconds_between(start, now_ns());
  return p;
}

/// Every served distance in a seeded sample of each client's first requests
/// must equal bidirectional Dijkstra's over the same snapshot.
void check_distances(const GraphSnapshot& snap, const Pass& pass, lcs::Rng rng,
                     RunResult& out) {
  std::size_t checked = 0, mismatches = 0;
  for (const ClientLog& log : pass.clients) {
    for (std::size_t k = 0; k < 100 && !log.first_results.empty(); ++k) {
      const std::size_t i = rng.uniform(log.first_results.size());
      const QueryRequest& q = log.first_requests[i];
      const QueryResult& r = log.first_results[i];
      if (!r.ok) continue;
      ++checked;
      const auto ref = lcs::sssp::bidirectional_dijkstra(snap.graph(), snap.weights(), q.s, q.t);
      if (ref.distance == r.distance && r.s == q.s && r.t == q.t) continue;
      ++mismatches;
      std::ostringstream why;
      why << "s-t query " << q.s << " to " << q.t << " served distance " << r.distance
          << ", bidirectional Dijkstra says " << ref.distance;
      out.fail(why.str());
    }
  }
  note("output check: " + std::to_string(checked) +
       " served distances against bidirectional_dijkstra, " + std::to_string(mismatches) +
       " mismatches");
}

}  // namespace

RunResult run_route_fleet(const RunOptions& opt) {
  RunResult out;
  if (opt.shard_bin.empty()) throw std::runtime_error("route_fleet needs --shard-bin");
  lcs::set_num_threads(kRouteClients);
  Tracer tracer(false);

  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> build_ms, prewarm_ms, ch_ms, save_ms, load_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const std::int64_t t0 = now_ns();
    fleet = set_up(opt, rep, tracer);
    setup_s.push_back(seconds_between(t0, now_ns()));
    build_ms.push_back(fleet->build_ms);
    prewarm_ms.push_back(fleet->prewarm_ms);
    ch_ms.push_back(fleet->ch_ms);
    save_ms.push_back(fleet->save_ms);
    load_ms.push_back(fleet->load_ms);
  }
  note("route_fleet: road_network(" + std::to_string(kRoadVertices) + "), " +
       std::to_string(kRouteClients) + " clients x " + std::to_string(kRouteShards) +
       " lcsshard --threads 1, setup_s median of " + std::to_string(kSetupReps));

  const Pass plain = run_pass(*fleet, opt.seed, opt.seconds, tracer);
  std::vector<double> latency;
  std::size_t ok = 0;
  for (const ClientLog& log : plain.clients) out.attempted += log.latency_ms.size();
  latency.reserve(out.attempted);
  for (const ClientLog& log : plain.clients) {
    latency.insert(latency.end(), log.latency_ms.begin(), log.latency_ms.end());
    ok += log.ok;
  }
  out.failed = out.attempted - ok;
  note("untraced: attempted " + std::to_string(out.attempted) + " ok " + std::to_string(ok) +
       " failed " + std::to_string(out.failed) + " shed 0");
  check_distances(*fleet->loaded, plain, lcs::Rng(opt.seed).split(3), out);

  EndToEnd e;
  e.setup_s = median(setup_s);
  e.rss_mb = peak_rss_mb();
  for (const auto& s : fleet->shards) e.rss_mb += peak_rss_mb(s->pid());
  e.ok_share = static_cast<double>(ok) / static_cast<double>(out.attempted);
  e.qps = static_cast<double>(ok) / plain.elapsed_s;
  e.p50_ms = median(latency);
  const Tail tail = supported_tail(latency, 99.0);
  note("caller tail p" + fmt(tail.percentile) + " = " + fmt(tail.value) + " ms over " +
       std::to_string(latency.size()) + " requests");
  add_end_to_end(out, e);
  if (!opt.trace) return out;

  LayerValues layers;
  layers["snapshot.build_ms"] = median(build_ms);
  layers["snapshot.pool_prewarm_ms"] = median(prewarm_ms);
  layers["snapshot.ch_build_ms"] = median(ch_ms);
  layers["snapshot.save_ms"] = median(save_ms);
  layers["snapshot.load_ms"] = median(load_ms);
  layers["snapshot.file_bytes"] = fleet->file_bytes;
  layers["caller.tail_ms"] = tail.value;

  // Replay: the first requests of client 0 are a pure function of the seed,
  // so the replayed work (and its exact counts) is too.  It runs before the
  // traced pass, whose spans would otherwise fill the tracer's cap first.
  const std::vector<QueryRequest>& reqs = plain.clients.front().first_requests;
  const std::vector<QueryResult>& served = plain.clients.front().first_results;
  const std::size_t m = reqs.size();
  replay_sample(*fleet->loaded, opt.seed, reqs, served, m, lcs::Rng(opt.seed).split(4), tracer,
                out, layers);
  record_exec_by_kind(reqs, served, layers);

  // Wire codec, both directions of a single-query round trip.
  std::vector<double> encode_us, decode_us;
  double bytes = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<QueryRequest> batch{reqs[i]};
    const std::vector<QueryResult> reply{served[i]};
    std::int64_t t = now_ns();
    const auto req_bytes = lcs::service::encode_requests(batch);
    const auto res_bytes = lcs::service::encode_results(reply);
    encode_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    t = now_ns();
    const auto req_back = lcs::service::decode_requests(req_bytes.data(), req_bytes.size());
    const auto res_back = lcs::service::decode_results(res_bytes.data(), res_bytes.size());
    decode_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    bytes += static_cast<double>(req_bytes.size() + res_bytes.size());
    if (req_back.size() != 1 || req_back[0].s != reqs[i].s || req_back[0].t != reqs[i].t ||
        res_back.size() != 1 || res_back[0].digest() != served[i].digest())
      out.fail("wire round trip of query " + std::to_string(reqs[i].id) + " is not lossless");
  }
  layers["wire.encode_us.p50"] = median(encode_us);
  layers["wire.decode_us.p50"] = median(decode_us);
  layers["wire.bytes_per_query"] = m > 0 ? bytes / static_cast<double>(m) : 0.0;

  tracer.set_enabled(true);
  const Pass traced = run_pass(*fleet, opt.seed, opt.seconds, tracer);
  tracer.set_enabled(false);
  std::vector<double> traced_latency;
  for (const ClientLog& log : traced.clients)
    traced_latency.insert(traced_latency.end(), log.latency_ms.begin(), log.latency_ms.end());
  layers["trace.overhead_ms"] = median(traced_latency) - e.p50_ms;

  // RPC: round trips per shard sub-batch, transit net of shard execution and
  // the codec, and the router's own time around them.
  const double codec_us = median(encode_us) + median(decode_us);
  std::vector<double> rt, transit;
  for (const auto& client : fleet->round_trips)
    for (const RoundTrip& r : client) {
      rt.push_back(r.rt_us);
      transit.push_back(r.rt_us - r.exec_us - codec_us);
    }
  layers["rpc.round_trip_us.p50"] = median(rt);
  layers["rpc.round_trip_us.p99"] = tail_or_zero(rt, 99.0);
  layers["rpc.transit_us.p50"] = median(transit);
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<double> router_self;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "router.run_batch")
      router_self.push_back(static_cast<double>(self[i]) / 1e3);
  layers["router.self_us.p50"] = median(router_self);

  add_per_layer(out, layers);
  summarize_trace(tracer, opt.work_dir / "traces" / "route_fleet.json");
  return out;
}

}  // namespace perfbench
