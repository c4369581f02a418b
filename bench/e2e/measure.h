// Named metrics and the order statistics the benchmark reports.

#ifndef GRAPHLOG_BENCH_E2E_MEASURE_H_
#define GRAPHLOG_BENCH_E2E_MEASURE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace graphlog::e2e {

/// One reported number: `<workload>.<name> <value> <unit>`, plus an
/// optional note (the percentile and sample count of a tail).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The tail percentile for a sample of `planned` ops: the highest of
/// p99, p95 and p90 that leaves at least ten samples beyond it (p50 when
/// none does). Chosen from the planned op count, which a workload fixes,
/// so every run of a workload reports the same percentile.
inline double TailPercentile(size_t planned) {
  for (double p : {99.0, 95.0, 90.0}) {
    if (static_cast<double>(planned) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50;
}

}  // namespace graphlog::e2e

#endif  // GRAPHLOG_BENCH_E2E_MEASURE_H_
