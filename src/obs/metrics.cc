#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace xdb {
namespace obs {

size_t Counter::CellIndex() {
  // Distinct small id per thread; hashed so consecutive ids don't all pile
  // into neighboring cells of every counter in the same order.
  static std::atomic<size_t> next{0};
  thread_local size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return (id * 0x9E3779B97F4A7C15ull >> 56) % kCells;
}

uint64_t HistogramData::Quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen > rank) {
      // Clamp the edge estimate by the observed extremes so tiny samples
      // don't report a bucket edge far above the actual max.
      uint64_t edge = i < bounds.size() ? bounds[i] : max;
      return std::min(std::max(edge, min), max);
    }
  }
  return max;
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(uint64_t value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Snapshot() const {
  HistogramData d;
  d.bounds = bounds_;
  d.counts.reserve(buckets_.size());
  for (const auto& b : buckets_)
    d.counts.push_back(b.load(std::memory_order_relaxed));
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  uint64_t mn = min_.load(std::memory_order_relaxed);
  d.min = mn == UINT64_MAX ? 0 : mn;
  d.max = max_.load(std::memory_order_relaxed);
  return d;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::ExponentialBounds(uint64_t start,
                                                   size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  uint64_t edge = start == 0 ? 1 : start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    if (edge > UINT64_MAX / 2) break;  // saturated; overflow bucket takes over
    edge *= 2;
  }
  return bounds;
}

const char* MetricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const Metric* MetricsSnapshot::Find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

uint64_t MetricsSnapshot::Value(const std::string& name) const {
  const Metric* m = Find(name);
  return m == nullptr ? 0 : m->value;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(metrics.size() * 64 + 2);
  out.push_back('{');
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out.push_back(',');
    out.append("\n  ");
    json::AppendString(&out, m.name);
    out.append(": {\"kind\": \"");
    out.append(MetricKindName(m.kind));
    out.append("\"");
    if (m.kind == MetricKind::kHistogram) {
      out.append(", \"count\": ");
      json::AppendU64(&out, m.hist.count);
      out.append(", \"sum\": ");
      json::AppendU64(&out, m.hist.sum);
      out.append(", \"min\": ");
      json::AppendU64(&out, m.hist.min);
      out.append(", \"max\": ");
      json::AppendU64(&out, m.hist.max);
      out.append(", \"bounds\": ");
      json::AppendU64Array(&out, m.hist.bounds);
      out.append(", \"counts\": ");
      json::AppendU64Array(&out, m.hist.counts);
    } else {
      out.append(", \"value\": ");
      json::AppendU64(&out, m.value);
    }
    out.push_back('}');
  }
  out.append("\n}\n");
  return out;
}

namespace {

/// Display unit derived from the metric-name suffix convention
/// (`_us`, `_bytes`; everything else is a pure count and gets no suffix).
const char* MetricUnit(const std::string& name) {
  auto ends_with = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_us") || ends_with(".us")) return "us";
  if (ends_with("_bytes") || ends_with(".bytes")) return "bytes";
  return "";
}

void AppendValueWithUnit(std::string* out, uint64_t v, const char* unit) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 "%s", v, unit);
  out->append(buf);
}

}  // namespace

std::string MetricsSnapshot::ToText() const {
  size_t width = 0;
  for (const Metric& m : metrics) width = std::max(width, m.name.size());
  std::string out;
  for (const Metric& m : metrics) {
    out.append(m.name);
    out.append(width - m.name.size() + 2, ' ');
    char buf[160];
    if (m.kind == MetricKind::kHistogram) {
      const HistogramData& h = m.hist;
      const char* unit = MetricUnit(m.name);
      std::snprintf(buf, sizeof(buf), "count=%" PRIu64 " ", h.count);
      out.append(buf);
      // Empty histograms render their extremes/quantiles as '-' instead of
      // the internal sentinels (min starts at UINT64_MAX, max at 0).
      if (h.count == 0) {
        out.append("avg=- p50=- p99=- min=- max=-");
      } else {
        out.append("avg=");
        AppendValueWithUnit(&out, h.sum / h.count, unit);
        out.append(" p50=");
        AppendValueWithUnit(&out, h.Quantile(0.5), unit);
        out.append(" p99=");
        AppendValueWithUnit(&out, h.Quantile(0.99), unit);
        out.append(" min=");
        AppendValueWithUnit(&out, h.min, unit);
        out.append(" max=");
        AppendValueWithUnit(&out, h.max, unit);
      }
      // Bucket bounds with units, so a reader knows both the histogram's
      // resolution and what its numbers measure.
      if (!h.bounds.empty()) {
        std::snprintf(buf, sizeof(buf), " buckets=%zux[", h.bounds.size());
        out.append(buf);
        AppendValueWithUnit(&out, h.bounds.front(), unit);
        out.append("..");
        AppendValueWithUnit(&out, h.bounds.back(), unit);
        out.push_back(']');
      }
    } else {
      const char* unit = MetricUnit(m.name);
      std::snprintf(buf, sizeof(buf), "%" PRIu64 "%s", m.value, unit);
      out.append(buf);
    }
    out.push_back('\n');
  }
  return out;
}

namespace {

Status ReadKind(json::Reader* in, MetricKind* kind) {
  std::string name;
  XDB_RETURN_NOT_OK(in->ReadString(&name));
  for (MetricKind k :
       {MetricKind::kCounter, MetricKind::kGauge, MetricKind::kHistogram}) {
    if (name == MetricKindName(k)) {
      *kind = k;
      return Status::OK();
    }
  }
  return in->Error("unknown metric kind " + name);
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::ReadJson(json::Reader* in) {
  MetricsSnapshot snap;
  XDB_RETURN_NOT_OK(in->ReadObject([&](const std::string& name) {
    Metric& m = snap.metrics.emplace_back();
    m.name = name;
    return in->ReadObject([&](const std::string& key) -> Status {
      if (key == "kind") return ReadKind(in, &m.kind);
      if (key == "value") return in->ReadU64(&m.value);
      if (key == "count") return in->ReadU64(&m.hist.count);
      if (key == "sum") return in->ReadU64(&m.hist.sum);
      if (key == "min") return in->ReadU64(&m.hist.min);
      if (key == "max") return in->ReadU64(&m.hist.max);
      if (key == "bounds") return in->ReadU64Array(&m.hist.bounds);
      if (key == "counts") return in->ReadU64Array(&m.hist.counts);
      return in->Error("unknown metric key " + key);
    });
  }));
  return snap;
}

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  json::Reader in(json);
  XDB_ASSIGN_OR_RETURN(MetricsSnapshot snap, ReadJson(&in));
  XDB_RETURN_NOT_OK(in.ExpectEnd());
  return snap;
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  MutexLock lock(mu_);
  for (const Named& n : named_)
    if (n.name == name && n.counter != nullptr) return n.counter;
  counters_.emplace_back();
  named_.push_back(Named{name, &counters_.back(), nullptr, nullptr});
  return &counters_.back();
}

Gauge* MetricsRegistry::AddGauge(const std::string& name) {
  MutexLock lock(mu_);
  for (const Named& n : named_)
    if (n.name == name && n.gauge != nullptr) return n.gauge;
  gauges_.emplace_back();
  named_.push_back(Named{name, nullptr, &gauges_.back(), nullptr});
  return &gauges_.back();
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  MutexLock lock(mu_);
  for (const Named& n : named_)
    if (n.name == name && n.histogram != nullptr) return n.histogram;
  histograms_.emplace_back(std::move(bounds));
  named_.push_back(Named{name, nullptr, nullptr, &histograms_.back()});
  return &histograms_.back();
}

void MetricsRegistry::AddCollector(
    std::function<void(std::vector<Metric>*)> collect) {
  MutexLock lock(mu_);
  collectors_.push_back(std::move(collect));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    MutexLock lock(mu_);
    snap.metrics.reserve(named_.size());
    for (const Named& n : named_) {
      Metric m;
      m.name = n.name;
      if (n.counter != nullptr) {
        m.kind = MetricKind::kCounter;
        m.value = n.counter->value();
      } else if (n.gauge != nullptr) {
        m.kind = MetricKind::kGauge;
        int64_t v = n.gauge->value();
        m.value = v < 0 ? 0 : static_cast<uint64_t>(v);
      } else {
        m.kind = MetricKind::kHistogram;
        m.hist = n.histogram->Snapshot();
      }
      snap.metrics.push_back(std::move(m));
    }
    // Collector callbacks reach into other components (buffer manager
    // shards, WAL commit state) and take their locks; mu_ is a leaf in that
    // order (registration never calls out), so holding it here is safe and
    // keeps the callback list stable.
    for (const auto& c : collectors_) c(&snap.metrics);
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return snap;
}

}  // namespace obs
}  // namespace xdb
