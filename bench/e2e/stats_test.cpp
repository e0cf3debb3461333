// Unit tests for bench/e2e/stats.hpp (run by the e2e project's ctest).
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "util/rng.hpp"

using namespace closfair;
using namespace closfair::e2e;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void median_and_quartiles() {
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle pair");

  // Expected values from Python: statistics.quantiles(data, n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.q1, 2.75) && near(a.median, 5.5) && near(a.q3, 8.25),
         "quartiles of 1..10 match statistics.quantiles");
  const Quartiles b = quartiles({5.0, 1.0, 3.0});
  expect(near(b.q1, 1.0) && near(b.median, 3.0) && near(b.q3, 5.0),
         "quartiles of three values match statistics.quantiles");
  const Quartiles c = quartiles({2.0, 4.0});
  expect(near(c.q1, 1.5) && near(c.median, 3.0) && near(c.q3, 4.5),
         "quartiles of two values extrapolate like statistics.quantiles");
  const Quartiles d = quartiles({7.0});
  expect(d.q1 == 7.0 && d.median == 7.0 && d.q3 == 7.0, "single value");
}

void pooled_tail_ladder() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // 100 samples: p90 has 10 beyond it, p99 only 1.
  const Tail t = pooled_tail(v);
  expect(t.q == 0.9 && t.value == 90.0 && t.count == 100, "100 samples support p90");

  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Tail u = pooled_tail(v);
  expect(u.q == 0.99 && u.value == 990.0 && u.count == 1000, "1000 samples support p99");
  expect(pooled_tail(v, 0.9).q == 0.9, "max_q caps the ladder");

  const Tail small = pooled_tail({1.0, 3.0, 2.0});
  expect(small.q == 1.0 && small.value == 3.0, "three samples report their maximum");
  expect(pooled_tail({}).q == 0.0 && pooled_tail({}).count == 0, "no samples");
}

/// Ten one-second windows of ~1 ms latencies; a 50 ms stall in one window
/// must leave the windowed p99 where it was and move the pooled p99.9.
void stall_moves_pooled_not_windowed() {
  Rng rng(42);
  std::vector<double> times;
  std::vector<double> latency_ms;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 1000; ++i) {
      times.push_back(w + i / 1000.0);
      latency_ms.push_back(0.8 + 0.4 * rng.next_double());
    }
  }
  const double windowed_before =
      windowed_percentile(split_windows(times, latency_ms, 0.0, 1.0, 10), 0.99);
  const double pooled_before = pooled_tail(latency_ms).value;

  // Requests due during a 50 ms stall starting at t = 3.2 s wait out the
  // rest of it: latency falls linearly from 50 ms to the normal level.
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double into = times[i] - 3.2;
    if (into >= 0.0 && into < 0.05) latency_ms[i] += (0.05 - into) * 1000.0;
  }
  const double windowed_after =
      windowed_percentile(split_windows(times, latency_ms, 0.0, 1.0, 10), 0.99);
  const Tail pooled_after = pooled_tail(latency_ms);

  expect(split_windows(times, latency_ms, 0.0, 1.0, 10)[3].size() == 1000,
         "samples land in the window holding their time");
  expect(pooled_after.q == 0.999, "10,000 samples support p99.9");
  expect(std::fabs(windowed_after - windowed_before) <= 0.01 * windowed_before,
         "a stall in one window does not move the windowed p99");
  expect(pooled_after.value >= 10.0 * pooled_before, "the stall moves the pooled p99.9");
}

}  // namespace

int main() {
  median_and_quartiles();
  pooled_tail_ladder();
  stall_moves_pooled_not_windowed();
  if (g_failures == 0) std::printf("stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
