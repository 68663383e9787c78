// Sample statistics and schedule generation of the lcsperf benchmark.
//
// Everything here is a pure function of its arguments, so the benchmark's
// own tests (tests/test_perfbench.cpp) pin the rules the reported metrics
// rest on: the nearest-rank percentile, the ten-samples-beyond tail rule,
// the max-rate interpolation over the serve_mixed ladder, span self time,
// and seeded arrival schedules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/query.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Samples a percentile needs strictly beyond it before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty sample.
/// Infinite entries (failed requests) sort last, so a tail that reaches them
/// reads as infinite.
double percentile(std::vector<double> v, double p);

/// Samples ranked above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// Whether n samples support reporting the p-th percentile (kMinBeyond rule).
bool tail_supported(std::size_t n, double p);

/// The highest of 99.9 / 99 / 95 / 90 / 75 / 50 that n samples support;
/// 0 when even the median lacks kMinBeyond samples beyond it.
double highest_supported_percentile(std::size_t n);

/// One step of an offered-rate ladder, as the max-rate rule sees it.
struct LadderStep {
  double rate_qps = 0.0;
  bool valid = true;        ///< false: the generator fell behind its schedule
  bool backlog_grew = false;
  /// max over the class limits of (measured tail / limit); <= 1 meets them.
  double limit_ratio = 0.0;
  bool meets() const { return valid && !backlog_grew && limit_ratio <= 1.0; }
};

/// Highest offered rate that meets the latency limits with no growing
/// backlog.  Steps are in ascending rate.  Every step up to the first
/// failing one must meet; when that failing step is valid, has no growing
/// backlog and a finite ratio, the crossing (ratio == 1) is interpolated
/// linearly between it and the last meeting step; otherwise the last
/// meeting rate is reported.  All steps meeting -> the top rate; the lowest
/// step failing -> 0.
double max_rate_qps(const std::vector<LadderStep>& steps);

/// One recorded span: a timed call at a layer boundary.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-span self time: duration minus the part of [start, end) that the
/// union of its children's intervals covers.  Positionally parallel to
/// `spans`; children whose parent is absent are ignored.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Arrival offsets (seconds from step start) of a Poisson process at `rate`
/// over `seconds`, conditioned on its expected count round(rate * seconds):
/// that many uniform draws, sorted.  Fixing the count keeps every run's
/// sample size — and so the percentile a tail metric may report — equal.
std::vector<double> poisson_offsets(double rate, double seconds, lcs::Rng& rng);

/// The serve_mixed traffic mix for `count` arrivals with ids first_id...:
/// 35% shortcut_quality, 20% shortcut_build, 15% point_to_point (cheap
/// class), 15% MST, 10% Karger (32 trials), 5% sparsified mincut (eps 0.5),
/// as exact counts (largest remainders) in seeded random order, so every
/// run of a step carries the same work.  Default-shaped, so partitions come
/// from the snapshot's pool; s and t are uniform over [0, n).
std::vector<lcs::service::QueryRequest> mixed_queries(std::uint64_t first_id, std::size_t count,
                                                      std::uint32_t n, lcs::Rng& rng);

/// A fresh_parts batch with ids first_id..first_id+7: 4 shortcut_quality
/// and 4 shortcut_build queries in seeded order, each with explicit
/// num_parts uniform in [12, 44], so it misses the partition pool.
std::vector<lcs::service::QueryRequest> fresh_parts_batch(std::uint64_t first_id,
                                                          lcs::Rng& rng);

/// Short per-kind label ("quality", "build", "mst", "karger", "sparsified",
/// "p2p") used in metric names.
std::string kind_label(const lcs::service::QueryRequest& q);

}  // namespace perfbench
