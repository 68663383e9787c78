#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace perfbench {

using lcs::service::QueryKind;
using lcs::service::QueryRequest;

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t rank = nearest_rank(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool tail_supported(std::size_t n, double p) { return samples_beyond(n, p) >= kMinBeyond; }

double highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (tail_supported(n, p)) return p;
  return 0.0;
}

double max_rate_qps(const std::vector<LadderStep>& steps) {
  double last_ok = 0.0;
  double last_ratio = 0.0;
  for (const LadderStep& s : steps) {
    if (s.meets()) {
      last_ok = s.rate_qps;
      last_ratio = s.limit_ratio;
      continue;
    }
    if (last_ok == 0.0 || !s.valid || s.backlog_grew || !std::isfinite(s.limit_ratio) ||
        s.limit_ratio <= last_ratio)
      return last_ok;
    const double f = (1.0 - last_ratio) / (s.limit_ratio - last_ratio);
    return last_ok + f * (s.rate_qps - last_ok);
  }
  return last_ok;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = std::numeric_limits<std::int64_t>::min();
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

std::vector<double> poisson_offsets(double rate, double seconds, lcs::Rng& rng) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> at(count);
  for (double& a : at) a = rng.uniform_real() * seconds;
  std::sort(at.begin(), at.end());
  return at;
}

std::vector<QueryRequest> mixed_queries(std::uint64_t first_id, std::size_t count,
                                        std::uint32_t n, lcs::Rng& rng) {
  constexpr double kShare[6] = {0.35, 0.20, 0.15, 0.15, 0.10, 0.05};
  std::size_t counts[6];
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    const double exact = kShare[k] * static_cast<double>(count);
    counts[k] = static_cast<std::size_t>(exact);
    assigned += counts[k];
    remainder.emplace_back(exact - static_cast<double>(counts[k]), k);
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < count; ++i, ++assigned) ++counts[remainder[i].second];

  std::vector<std::size_t> kinds;
  for (std::size_t k = 0; k < 6; ++k) kinds.insert(kinds.end(), counts[k], k);
  rng.shuffle(kinds);
  std::vector<QueryRequest> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    QueryRequest& q = out[i];
    q.id = first_id + i;
    switch (kinds[i]) {
      case 0: q.kind = QueryKind::kShortcutQuality; break;
      case 1: q.kind = QueryKind::kShortcutBuild; break;
      case 2:
        q.kind = QueryKind::kPointToPoint;
        q.s = static_cast<std::uint32_t>(rng.uniform(n));
        q.t = static_cast<std::uint32_t>(rng.uniform(n));
        break;
      case 3: q.kind = QueryKind::kMst; break;
      case 4:
        q.kind = QueryKind::kMincut;
        q.karger_trials = 32;
        break;
      default:
        q.kind = QueryKind::kMincut;
        q.eps = 0.5;
        break;
    }
  }
  return out;
}

std::vector<QueryRequest> fresh_parts_batch(std::uint64_t first_id, lcs::Rng& rng) {
  std::vector<QueryKind> kinds(8, QueryKind::kShortcutBuild);
  std::fill(kinds.begin(), kinds.begin() + 4, QueryKind::kShortcutQuality);
  rng.shuffle(kinds);
  std::vector<QueryRequest> batch(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    batch[i].id = first_id + i;
    batch[i].kind = kinds[i];
    batch[i].num_parts = static_cast<std::uint32_t>(12 + rng.uniform(33));
  }
  return batch;
}

std::string kind_label(const QueryRequest& q) {
  switch (q.kind) {
    case QueryKind::kShortcutQuality: return "quality";
    case QueryKind::kShortcutBuild: return "build";
    case QueryKind::kMst: return "mst";
    case QueryKind::kMincut: return q.karger_trials > 0 ? "karger" : "sparsified";
    case QueryKind::kPointToPoint: return "p2p";
  }
  return "unknown";
}

}  // namespace perfbench
