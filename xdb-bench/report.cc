#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace xdb_bench {

bool PercentileSupported(size_t n, double q) {
  // The epsilon lets 1000 * (1 - 0.99) count as the ten it is.
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= samples->size()) idx = samples->size() - 1;
  return (*samples)[idx];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (MetricValue& m : values_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  values_.push_back(MetricValue{name, value, unit});
}

std::string MetricTable::ToLines(const std::string& prefix) const {
  std::string out;
  for (const MetricValue& m : values_) {
    out += prefix + " " + m.name + " " + FormatNumber(m.value) + " " + m.unit +
           "\n";
  }
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace xdb_bench
