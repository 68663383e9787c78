#include "replay.hpp"

#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>

#include "core/kp.hpp"
#include "mincut/mincut.hpp"
#include "mst/mst.hpp"
#include "sssp/ch.hpp"

namespace perfbench {

using lcs::Rng;
using lcs::hash64;
using lcs::service::GraphSnapshot;
using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;

namespace {

/// Run fn() under a span named `name`; store its wall time (ms) in `out_ms`.
template <typename Fn>
auto timed(Tracer& tracer, const char* name, std::uint64_t request, double& out_ms, Fn&& fn) {
  const ScopedSpan span(tracer, name, request);
  const std::int64_t start = now_ns();
  auto value = fn();
  out_ms = static_cast<double>(now_ns() - start) / 1e6;
  return value;
}

// The service's partition choice (service.cpp, query_partition): one stream
// draw either way; default-shaped queries map it onto a pool slot.
std::shared_ptr<const lcs::graph::Partition> partition_for(const GraphSnapshot& snap,
                                                           const QueryRequest& q, Rng& stream,
                                                           Tracer& tracer, ReplayPhases& ph) {
  const std::uint32_t n = snap.num_vertices();
  if (n == 0) throw std::invalid_argument("query needs a non-empty snapshot");
  const std::uint32_t pool = snap.options().partition_pool_size;
  std::uint32_t seeds = q.num_parts;
  std::uint64_t part_seed = 0;
  bool explicit_parts = false;
  if (seeds == 0 && pool > 0) {
    part_seed = GraphSnapshot::pool_seed(stream() % pool);
    seeds = snap.default_part_count();
  } else {
    if (seeds == 0)
      seeds = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::lround(std::sqrt(static_cast<double>(n)))));
    seeds = std::min(seeds, n);
    part_seed = stream();
    explicit_parts = true;
  }
  auto parts = timed(tracer, "snapshot.partition", q.id, ph.partition_fetch_ms,
                     [&] { return snap.partition(part_seed, seeds); });
  if (explicit_parts) {
    const lcs::graph::Partition fresh =
        timed(tracer, "graph.compute_partition", q.id, ph.partition_compute_ms, [&] {
          return GraphSnapshot::compute_partition(snap.graph(), part_seed, seeds);
        });
    if (fresh.parts != parts->parts)
      throw std::logic_error("replay: compute_partition differs from the cached partition");
  }
  return parts;
}

lcs::core::KpOptions kp_options(const GraphSnapshot& snap, const QueryRequest& q,
                                std::uint64_t kp_seed) {
  lcs::core::KpOptions opt;
  opt.beta = q.beta;
  opt.seed = kp_seed;
  opt.diameter = q.diameter.has_value() ? q.diameter
                 : snap.connected()     ? std::optional<unsigned>(snap.diameter_estimate())
                                        : std::nullopt;
  return opt;
}

void replay_quality(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream,
                    Tracer& tracer, ReplayPhases& ph, QueryResult& r) {
  const std::uint64_t kp_seed = stream();
  const auto parts = partition_for(snap, q, stream, tracer, ph);
  const lcs::core::KpStreamReport rep =
      timed(tracer, "core.kp_quality", q.id, ph.kp_quality_ms, [&] {
        return lcs::core::measure_kp_quality(snap.graph(), *parts,
                                             kp_options(snap, q, kp_seed), {});
      });
  r.congestion = rep.quality.congestion;
  r.dilation = rep.quality.dilation_ub;
  r.value = rep.quality.quality();
  r.cardinality = rep.num_large;
  std::uint64_t h = hash64(rep.total_shortcut_edges);
  h = hash64(h ^ rep.quality.dilation_lb);
  h = hash64(h ^ rep.quality.max_cover_radius);
  h = hash64(h ^ (rep.quality.all_covered ? 1ULL : 0ULL));
  for (const lcs::core::PartDilation& pd : rep.quality.parts) {
    h = hash64(h ^ ((static_cast<std::uint64_t>(pd.cover_radius) << 32) | pd.diameter_ub));
    h = hash64(h ^ ((static_cast<std::uint64_t>(pd.diameter_lb) << 2) |
                    (pd.covered ? 2ULL : 0ULL) | (pd.exact ? 1ULL : 0ULL)));
  }
  r.content_hash = h;
  ph.shortcut_edges = rep.total_shortcut_edges;
}

void replay_build(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream,
                  Tracer& tracer, ReplayPhases& ph, QueryResult& r) {
  const std::uint64_t kp_seed = stream();
  const auto parts = partition_for(snap, q, stream, tracer, ph);
  const lcs::core::KpBuildResult built =
      timed(tracer, "core.kp_build", q.id, ph.kp_build_ms, [&] {
        return lcs::core::build_kp_shortcuts(snap.graph(), *parts,
                                             kp_options(snap, q, kp_seed));
      });
  std::uint64_t total = 0;
  std::uint64_t h = hash64(built.shortcuts.num_parts());
  for (const auto& h_i : built.shortcuts.h) {
    total += h_i.size();
    h = hash64(h ^ h_i.size());
    for (const lcs::graph::EdgeId e : h_i) h = hash64(h ^ e);
  }
  r.value = total;
  r.cardinality = built.num_large;
  r.content_hash = h;
  ph.shortcut_edges = total;
}

void replay_mst(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream, Tracer& tracer,
                ReplayPhases& ph, QueryResult& r) {
  lcs::mst::BoruvkaOptions opt;
  opt.beta = q.beta;
  opt.seed = stream();
  if (q.diameter.has_value())
    opt.diameter = q.diameter;
  else if (snap.connected())
    opt.diameter = snap.diameter_estimate();
  const lcs::mst::BoruvkaResult res = timed(tracer, "mst.boruvka", q.id, ph.boruvka_ms, [&] {
    return lcs::mst::boruvka_mst(snap.graph(), snap.weights(), opt);
  });
  r.value = static_cast<std::uint64_t>(res.mst.weight);
  r.cardinality = res.mst.edges.size();
  r.rounds = res.total_rounds();
  std::uint64_t h = hash64(res.phases);
  for (const lcs::graph::EdgeId e : res.mst.edges) h = hash64(h ^ e);
  h = hash64(h ^ res.messages);
  r.content_hash = h;
  ph.congest_rounds = res.total_rounds();
  ph.congest_messages = res.messages;
}

void replay_mincut(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream,
                   Tracer& tracer, ReplayPhases& ph, QueryResult& r) {
  Rng local(stream());
  lcs::mincut::CutResult cut;
  if (q.karger_trials > 0) {
    cut = timed(tracer, "mincut.karger", q.id, ph.karger_ms, [&] {
      return lcs::mincut::karger_mincut(snap.graph(), snap.weights(), q.karger_trials, local);
    });
    r.rounds = q.karger_trials;
  } else {
    const std::uint64_t sample_seed = local();
    const lcs::mincut::SparsifiedSample sample =
        timed(tracer, "mincut.sparsify", q.id, ph.sparsify_ms, [&] {
          return lcs::mincut::sparsify_edges(snap.graph(), snap.weights(), q.eps, sample_seed);
        });
    const lcs::mincut::SparsifiedResult sp =
        timed(tracer, "mincut.skeleton_cut", q.id, ph.skeleton_cut_ms, [&] {
          return lcs::mincut::sparsified_mincut_on_sample(snap.graph(), snap.weights(), sample);
        });
    cut = sp.cut;
    r.rounds = static_cast<std::uint64_t>(sp.skeleton_cut);
  }
  r.value = static_cast<std::uint64_t>(cut.value);
  r.cardinality = cut.side.size();
  std::uint64_t h = hash64(cut.side.size());
  for (const lcs::graph::VertexId v : cut.side) h = hash64(h ^ v);
  r.content_hash = h;
}

void replay_point_to_point(const GraphSnapshot& snap, const QueryRequest& q, Tracer& tracer,
                           ReplayPhases& ph, QueryResult& r) {
  const std::uint32_t n = snap.num_vertices();
  if (q.s >= n || q.t >= n) throw std::invalid_argument("point-to-point endpoints out of range");
  const auto ch = snap.ch_index();
  double ms = 0.0;
  const lcs::sssp::PointToPointResult res = timed(
      tracer, "sssp.ch_query", q.id, ms, [&] { return lcs::sssp::ch_query(*ch, q.s, q.t); });
  ph.ch_query_us = ms * 1000.0;
  r.s = q.s;
  r.t = q.t;
  r.distance = res.distance;
  r.value = res.distance;
  r.cardinality = res.distance == lcs::sssp::kInfDist ? 0 : 1;
  r.settled_nodes = res.settled;
  r.content_hash =
      hash64(hash64((static_cast<std::uint64_t>(q.s) << 32) | q.t) ^ res.distance);
  ph.settled = res.settled;
}

}  // namespace

QueryResult replay_query(const GraphSnapshot& snap, std::uint64_t seed, const QueryRequest& q,
                         Tracer& tracer, ReplayPhases& phases) {
  const ScopedSpan root(tracer, "replay", q.id);
  QueryResult r;
  r.id = q.id;
  r.kind = q.kind;
  try {
    Rng stream = Rng(seed).split(q.id);
    switch (q.kind) {
      case QueryKind::kShortcutQuality: replay_quality(snap, q, stream, tracer, phases, r); break;
      case QueryKind::kShortcutBuild: replay_build(snap, q, stream, tracer, phases, r); break;
      case QueryKind::kMst: replay_mst(snap, q, stream, tracer, phases, r); break;
      case QueryKind::kMincut: replay_mincut(snap, q, stream, tracer, phases, r); break;
      case QueryKind::kPointToPoint: replay_point_to_point(snap, q, tracer, phases, r); break;
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

}  // namespace perfbench
