#include "tracer.h"

#include <algorithm>
#include <chrono>

namespace xdb_bench {

Tracer::Tracer(bool enabled, uint32_t thread_tag)
    : enabled_(enabled), op_base_(static_cast<uint64_t>(thread_tag) << 48) {}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  if (open_.empty()) {
    s.op_id = op_base_ | ++next_op_;
  } else {
    s.parent = open_.back();
    s.op_id = spans_[static_cast<size_t>(s.parent)].op_id;
  }
  spans_.push_back(std::move(s));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost-first; tolerate a skipped End by unwinding to id.
  while (!open_.empty()) {
    const int64_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::AddChild(const std::string& name, uint64_t start_ns,
                      uint64_t end_ns) {
  if (!enabled_ || open_.empty()) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.back();
  s.op_id = spans_[static_cast<size_t>(s.parent)].op_id;
  spans_.push_back(std::move(s));
}

void Tracer::Merge(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::string Tracer::ToTsv() const {
  std::string out = "op_id\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out += std::to_string(s.op_id) + "\t" + std::to_string(s.parent) + "\t" +
           s.name + "\t" + std::to_string(s.start_ns) + "\t" +
           std::to_string(s.end_ns) + "\n";
  }
  return out;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent >= 0)
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& p = spans[i];
    const uint64_t dur = p.end_ns > p.start_ns ? p.end_ns - p.start_ns : 0;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i]) {
      const uint64_t b = std::max(spans[c].start_ns, p.start_ns);
      const uint64_t e = std::min(spans[c].end_ns, p.end_ns);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_b = 0, cur_e = 0;
    bool have = false;
    for (const auto& [b, e] : iv) {
      if (have && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (have) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      have = true;
    }
    if (have) covered += cur_e - cur_b;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

std::map<std::string, SpanStats> SummarizeSpans(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans.size(); i++) {
    SpanStats& s = out[spans[i].name];
    s.count++;
    const uint64_t dur = spans[i].end_ns > spans[i].start_ns
                             ? spans[i].end_ns - spans[i].start_ns
                             : 0;
    s.total_us += static_cast<double>(dur) / 1000.0;
    s.self_us += static_cast<double>(self[i]) / 1000.0;
  }
  return out;
}

double CounterDelta::Value(const std::string& name) const {
  return static_cast<double>(after.Value(name)) -
         static_cast<double>(before.Value(name));
}

namespace {
const xdb::obs::HistogramData* Hist(const xdb::obs::MetricsSnapshot& s,
                                    const std::string& name) {
  const xdb::obs::Metric* m = s.Find(name);
  return m != nullptr && m->kind == xdb::obs::MetricKind::kHistogram ? &m->hist
                                                                    : nullptr;
}
}  // namespace

double CounterDelta::HistSum(const std::string& name) const {
  const auto* a = Hist(after, name);
  const auto* b = Hist(before, name);
  return (a ? static_cast<double>(a->sum) : 0.0) -
         (b ? static_cast<double>(b->sum) : 0.0);
}

}  // namespace xdb_bench
