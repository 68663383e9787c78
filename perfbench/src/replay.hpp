// Replay of served queries through the library's public compute functions.
//
// The service runs a query as one opaque call, so its compute sub-phases are
// timed here instead: replay_query() feeds a request's inputs and RNG stream
// draws, in the service's order, to GraphSnapshot::partition,
// core::measure_kp_quality / build_kp_shortcuts, mst::boruvka_mst,
// mincut::karger_mincut / sparsify_edges / sparsified_mincut_on_sample and
// sssp::ch_query, timing each call, and rebuilds every deterministic result
// field.  Callers compare the rebuilt digest() with the served one: a
// mismatch means the replay timed different work, and fails the run.
#pragma once

#include <cstdint>

#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "trace.hpp"

namespace perfbench {

/// Sub-phase timings and work counts of one replayed query.  Phases the
/// query's kind does not run stay negative (timings) or zero (counts).
struct ReplayPhases {
  double partition_fetch_ms = -1.0;    ///< GraphSnapshot::partition (cache path)
  double partition_compute_ms = -1.0;  ///< compute_partition; explicit num_parts only
  double kp_quality_ms = -1.0;
  double kp_build_ms = -1.0;
  double boruvka_ms = -1.0;
  double karger_ms = -1.0;
  double sparsify_ms = -1.0;
  double skeleton_cut_ms = -1.0;
  double ch_query_us = -1.0;
  std::uint64_t shortcut_edges = 0;   ///< KP shortcut edges (quality and build)
  std::uint64_t congest_rounds = 0;   ///< Boruvka rounds charged
  std::uint64_t congest_messages = 0;
  std::uint64_t settled = 0;          ///< CH heap pops
};

/// Re-execute `q` as ShortcutService(snapshot, seed).run(q) would, on the
/// calling thread, recording spans under a "replay" root.  Returns the
/// rebuilt result (deterministic fields only; ok=false with the exception
/// text when the computation throws, as the service reports it).  Must run
/// inside a parallel_tasks task so library regions serialize as they do in
/// the service.
lcs::service::QueryResult replay_query(const lcs::service::GraphSnapshot& snap,
                                       std::uint64_t seed,
                                       const lcs::service::QueryRequest& q, Tracer& tracer,
                                       ReplayPhases& phases);

}  // namespace perfbench
