// Engine-wide metrics registry: cheap always-on counters, gauges, and
// fixed-bucket histograms, registered by dotted name and snapshotted into one
// coherent, serializable view.
//
// DB2-class engines expose buffer/lock/log counters as first-class monitor
// elements; this is that facility for the reproduction. Design constraints:
//
//  * Hot path is lock-free. Counters are sharded atomic cells (one per
//    cache line) so concurrent incrementers never bounce a shared line;
//    histograms are per-bucket atomics. No mutex is ever taken by Add() /
//    Observe() / Set().
//  * Registration is rare and pointer-stable. Components register once at
//    open time (under the registry mutex) and keep the returned pointer;
//    metric objects live in deques so later registrations never move them.
//  * Components that already maintain mutex-guarded stats structs (buffer
//    manager shards, lock manager, WAL commit state) are bridged by
//    *collectors*: callbacks that append Metric values at snapshot time, so
//    each number keeps exactly one source of truth.
//
// Naming scheme (enforced by convention, documented in DESIGN.md):
// `component.noun` or `component.subsystem.noun`, plural for event counts —
// `buffer.hits`, `wal.group_commit.batch_size`, `lock.deadlocks`,
// `query.latency_us`. Unit suffixes (`_us`, `_bytes`) when not a pure count.
#ifndef XDB_OBS_METRICS_H_
#define XDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace xdb {
namespace obs {

/// Monotonic event count. Increments are relaxed atomic adds on one of
/// kCells thread-striped cells; value() sums the cells (reads may observe a
/// mid-flight total, which is fine for monitoring counters).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[CellIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  /// Threads stripe across cells by a cheap thread-local id, so two threads
  /// hammering one counter usually touch different cache lines.
  static size_t CellIndex();
  Cell cells_[kCells];
};

/// Point-in-time level (pool occupancy, open collections). Set/Add, signed.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Value snapshot of one histogram: cumulative-free per-bucket counts plus
/// count/sum/min/max. bounds[i] is bucket i's inclusive upper edge; one
/// implicit overflow bucket catches everything above bounds.back(), so
/// counts.size() == bounds.size() + 1.
struct HistogramData {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;

  /// Approximate quantile from the bucket counts (upper edge of the bucket
  /// holding the q-th observation). q in [0,1]. Returns 0 on empty data.
  uint64_t Quantile(double q) const;
  bool operator==(const HistogramData&) const = default;
};

/// Fixed-bucket histogram for latencies and sizes. Observe() is two relaxed
/// atomic RMWs plus a branchless-ish bucket search over a small fixed bounds
/// array; min/max are maintained with CAS loops (rarely contended — they only
/// retry while the running extreme is actually moving).
class Histogram {
 public:
  /// `bounds` must be strictly increasing; values land in the first bucket
  /// whose upper edge >= value, or the implicit overflow bucket.
  explicit Histogram(std::vector<uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);
  HistogramData Snapshot() const;
  void Reset();

  /// 1, 2, 4, ... doubling upper edges: `count` buckets starting at `start`.
  static std::vector<uint64_t> ExponentialBounds(uint64_t start, size_t count);
  /// Microsecond latency default: 1us..~67s in 27 doubling buckets.
  static std::vector<uint64_t> LatencyBoundsUs() {
    return ExponentialBounds(1, 27);
  }

 private:
  const std::vector<uint64_t> bounds_;
  std::deque<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1 cells
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* MetricKindName(MetricKind k);

/// One named value in a snapshot.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/gauge value (gauges are clamped at 0 on the wire; engine gauges
  /// are all non-negative levels).
  uint64_t value = 0;
  HistogramData hist;  // kHistogram only
};

/// One coherent view over every registered metric plus every collector's
/// contribution, sorted by name. "Coherent" means one pass at one moment —
/// individual counters are read atomically but the set is not a global
/// atomic cut (standard for monitoring snapshots).
struct MetricsSnapshot {
  std::vector<Metric> metrics;

  const Metric* Find(const std::string& name) const;
  /// Counter/gauge value by name; 0 when absent (missing metrics read as
  /// zero so invariant checks stay simple).
  uint64_t Value(const std::string& name) const;

  /// JSON object keyed by metric name; histograms nest their bucket arrays.
  /// Stable key order (sorted by name) so diffs and goldens are meaningful.
  std::string ToJson() const;
  /// Aligned human-readable table; histograms render count/avg/p50/p99/max.
  std::string ToText() const;
  /// Parses ToJson() output back (round-trip tested). Anything else returns
  /// InvalidArgument.
  static Result<MetricsSnapshot> FromJson(const std::string& json);
  /// Reads one ToJson() object from `in` and leaves `in` just past it: the
  /// body of FromJson, and how DebugSnapshot reads its embedded metrics.
  static Result<MetricsSnapshot> ReadJson(json::Reader* in);
};

/// The registry: owns native metric objects, keeps collector callbacks, and
/// produces snapshots. Thread-safe; see the header comment for the
/// registration-vs-hot-path split.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registering an existing name returns the existing object (idempotent,
  /// so component re-opens — scrub rebuilds — don't double-register).
  Counter* AddCounter(const std::string& name) XDB_EXCLUDES(mu_);
  Gauge* AddGauge(const std::string& name) XDB_EXCLUDES(mu_);
  Histogram* AddHistogram(const std::string& name,
                          std::vector<uint64_t> bounds) XDB_EXCLUDES(mu_);

  /// Snapshot-time bridge for components with their own mutex-guarded stats:
  /// the callback appends Metric values (already carrying canonical names).
  void AddCollector(std::function<void(std::vector<Metric>*)> collect)
      XDB_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const XDB_EXCLUDES(mu_);

 private:
  struct Named {
    std::string name;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable Mutex mu_{LockRank::kMetricsRegistry};
  /// Deques for pointer stability across registrations.
  std::deque<Counter> counters_ XDB_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ XDB_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ XDB_GUARDED_BY(mu_);
  std::vector<Named> named_ XDB_GUARDED_BY(mu_);
  std::vector<std::function<void(std::vector<Metric>*)>> collectors_
      XDB_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_METRICS_H_
