// Latency summaries and the metric table the benchmark prints.
#ifndef XDB_BENCH_REPORT_H_
#define XDB_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xdb_bench {

/// True when `n` samples support the q-quantile: at least ten samples lie
/// beyond it (n * (1 - q) >= 10). A p99 therefore needs 1000 samples.
bool PercentileSupported(size_t n, double q);

/// Nearest-rank q-quantile (q in [0, 1]) of `samples`, which it sorts.
/// 0 for an empty vector.
double Quantile(std::vector<double>* samples, double q);

/// Median of `values` (copied; 0 when empty).
double Median(std::vector<double> values);

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

/// An ordered name -> (value, unit) table. Set() replaces an existing name.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// One "<prefix> <name> <value> <unit>" line per metric.
  std::string ToLines(const std::string& prefix) const;

 private:
  std::vector<MetricValue> values_;
};

/// A number with all its significant digits.
std::string FormatNumber(double v);

}  // namespace xdb_bench

#endif  // XDB_BENCH_REPORT_H_
