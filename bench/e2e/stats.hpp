// Summary statistics for the end-to-end benchmark.
//
// Timings are reported the way bench/e2e/README.md defines them: a median,
// plus the highest percentile the sample supports (at least ten samples
// beyond it) with its sample count, and — for open-loop latency — the median
// of per-window p99s, which one stalled window cannot move. quartiles()
// reproduces Python's statistics.quantiles(values, n=4), the spread the
// benchmark's run-to-run stability is judged by (compare.py).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace closfair::e2e {

/// Nearest-rank q-percentile (q in [0, 1]) of an ascending sample; 0 when
/// empty.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

/// Middle value (mean of the two middle values for an even count), like
/// Python's statistics.median; 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// First quartile, median and third quartile by Python's default
/// ("exclusive") statistics.quantiles(n=4) method. A single value is its own
/// quartiles; an empty sample gives zeros.
inline Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  const std::size_t m = ld + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, ld - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

/// The highest percentile of a pooled sample that still has at least
/// `min_beyond` samples above it, from the ladder p50/p90/p99/p99.9/p99.99
/// capped at `max_q`. A sample too small for even the median reports its
/// maximum (q = 1); an empty one reports q = 0.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t count = 0;
};

inline Tail pooled_tail(std::vector<double> values, double max_q = 0.9999,
                        std::size_t min_beyond = 10) {
  Tail tail;
  tail.count = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()) - 1e-9));
    if (q > max_q + 1e-12 || values.size() < rank + min_beyond) break;
    tail.q = q;
    tail.value = percentile_sorted(values, q);
  }
  if (tail.q == 0.0) {
    tail.q = 1.0;
    tail.value = values.back();
  }
  return tail;
}

/// Median over windows of each window's q-percentile (empty windows are
/// skipped). With q = 0.99 this is the windowed p99: one stalled window moves
/// it by at most one order statistic of the per-window p99s.
inline double windowed_percentile(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(percentile(window, q));
  }
  return median(std::move(per_window));
}

/// Split (time, value) samples into `count` windows of `width` from t0;
/// samples outside [t0, t0 + count * width) are dropped.
inline std::vector<std::vector<double>> split_windows(const std::vector<double>& times,
                                                      const std::vector<double>& values,
                                                      double t0, double width,
                                                      std::size_t count) {
  std::vector<std::vector<double>> windows(count);
  for (std::size_t i = 0; i < times.size() && i < values.size(); ++i) {
    const double k = std::floor((times[i] - t0) / width);
    if (k >= 0.0 && k < static_cast<double>(count)) {
      windows[static_cast<std::size_t>(k)].push_back(values[i]);
    }
  }
  return windows;
}

}  // namespace closfair::e2e
