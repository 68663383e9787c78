// Tests of the rules lcsperf's metrics rest on: the ten-beyond tail rule,
// max-rate interpolation, span self time, and seeded schedules.  A plain
// executable (no test framework), so the benchmark package builds anywhere
// the library does: prints each failure and exits non-zero if any.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void test_percentile_nearest_rank() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(percentile(v, 50), 50), "p50 of 1..100 is 50");
  check(near(percentile(v, 99), 99), "p99 of 1..100 is 99");
  check(near(percentile(v, 100), 100), "p100 is the maximum");
  check(near(percentile({}, 50), 0), "empty sample reads 0");
  check(std::isinf(percentile({1, 2, std::numeric_limits<double>::infinity()}, 100)),
        "failed requests sort last");
}

void test_tail_rule() {
  // p99 needs ten samples beyond it: 1000 samples leave exactly 10.
  check(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  check(tail_supported(1000, 99), "p99 supported at n=1000");
  check(!tail_supported(999, 99), "p99 unsupported at n=999");
  check(tail_supported(200, 95), "p95 supported at n=200");
  check(!tail_supported(199, 95), "p95 unsupported at n=199");
  check(near(highest_supported_percentile(1000), 99), "n=1000 -> p99");
  check(near(highest_supported_percentile(150), 90), "n=150 -> p90");
  check(near(highest_supported_percentile(39), 50), "n=39 -> p50");
  check(near(highest_supported_percentile(15), 0), "n=15 supports nothing");
  check(near(highest_supported_percentile(10000), 99.9), "n=10000 -> p99.9");
}

void test_max_rate() {
  LadderStep a{10, true, false, 0.5}, b{20, true, false, 0.9}, c{30, true, false, 1.3};
  check(near(max_rate_qps({a, b, c}), 22.5), "crossing interpolated between 20 and 30");
  c.limit_ratio = 1.0;
  check(near(max_rate_qps({a, b, c}), 30), "every step meeting -> top rate");
  c.limit_ratio = 1.3;
  c.backlog_grew = true;
  check(near(max_rate_qps({a, b, c}), 20), "growing backlog -> last meeting rate");
  c.backlog_grew = false;
  c.valid = false;
  check(near(max_rate_qps({a, b, c}), 20), "invalid step -> last meeting rate");
  c.valid = true;
  a.limit_ratio = 1.5;
  check(near(max_rate_qps({a, b, c}), 0), "lowest step failing -> 0");
  a.limit_ratio = 0.5;
  b.limit_ratio = std::numeric_limits<double>::infinity();
  check(near(max_rate_qps({a, b, c}), 10), "infinite ratio -> last meeting rate");
}

void test_self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild [12,18) inside the first child.
  std::vector<Span> s(4);
  s[0] = {1, 0, "root", 7, 0, 100};
  s[1] = {2, 1, "a", 7, 10, 30};
  s[2] = {3, 1, "b", 7, 20, 50};
  s[3] = {4, 2, "c", 7, 12, 18};
  const std::vector<std::int64_t> self = self_times_ns(s);
  check(self[0] == 60, "root self = 100 - |[10,50)|");
  check(self[1] == 14, "a self = 20 - 6");
  check(self[2] == 30, "b self = its whole span");
  check(self[3] == 6, "leaf self = its span");
  // A child sticking out of its parent only counts inside the parent.
  std::vector<Span> t(2);
  t[0] = {1, 0, "p", 0, 0, 10};
  t[1] = {2, 1, "k", 0, 5, 20};
  check(self_times_ns(t)[0] == 5, "child clipped to parent");
}

void test_schedule_reproducible() {
  lcs::Rng r1(42), r2(42), r3(43);
  const auto a = poisson_offsets(18.0, 15.0, r1);
  const auto b = poisson_offsets(18.0, 15.0, r2);
  const auto c = poisson_offsets(18.0, 15.0, r3);
  check(a.size() == 270, "count fixed at rate * seconds");
  check(a == b, "same seed, same offsets");
  check(a != c, "another seed, other offsets");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted &= a[i - 1] <= a[i];
  check(sorted && a.front() >= 0.0 && a.back() < 15.0, "offsets sorted inside the window");

  lcs::Rng q1(7), q2(7), q3(8);
  const auto x = mixed_queries(100, 270, 500, q1);
  const auto y = mixed_queries(100, 270, 500, q2);
  const auto z = mixed_queries(100, 270, 500, q3);
  bool same = x.size() == 270 && y.size() == 270, differs = false;
  std::size_t sparse = 0, quality = 0, heavy = 0;
  for (std::size_t i = 0; i < x.size() && same; ++i) {
    same = x[i].id == 100 + i && x[i].kind == y[i].kind && x[i].s == y[i].s &&
           x[i].t == y[i].t && x[i].karger_trials == y[i].karger_trials;
    differs |= x[i].kind != z[i].kind;
    sparse += x[i].kind == lcs::service::QueryKind::kMincut && x[i].karger_trials == 0;
    quality += x[i].kind == lcs::service::QueryKind::kShortcutQuality;
    heavy += lcs::service::query_cost_class(x[i]) == lcs::service::CostClass::kHeavy;
  }
  check(same, "same seed, same query mix");
  check(differs, "another seed, another order");
  const auto within_one = [](std::size_t got, double want) {
    return std::fabs(static_cast<double>(got) - want) <= 1.0;
  };
  check(within_one(quality, 0.35 * 270) && within_one(sparse, 0.05 * 270) &&
            within_one(heavy, 0.30 * 270),
        "exact shares of 270: 35% quality, 5% sparsified, 30% heavy");
  lcs::Rng f(3);
  for (int k = 0; k < 50; ++k) {
    const auto batch = fresh_parts_batch(static_cast<std::uint64_t>(8 * k), f);
    std::size_t q = 0;
    for (const auto& r : batch) {
      check(r.num_parts >= 12 && r.num_parts <= 44, "fresh_parts num_parts in [12, 44]");
      q += r.kind == lcs::service::QueryKind::kShortcutQuality;
    }
    check(batch.size() == 8 && q == 4, "fresh_parts batch: 4 quality + 4 build");
  }
}

}  // namespace

int main() {
  test_percentile_nearest_rank();
  test_tail_rule();
  test_max_rate();
  test_self_time();
  test_schedule_reproducible();
  if (g_failures == 0) std::printf("lcsperf_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
