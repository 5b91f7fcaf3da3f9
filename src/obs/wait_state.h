// Wait-state attribution: always-on span accounting that answers "where did
// this query's latency go" — buffer-pool miss I/O, lock-manager blocking,
// WAL group-commit waits, latch acquisition, freshness (min_csn) waits,
// index probes, and replication apply.
//
// Three rollups share one instrumentation point (the WaitSpan guard):
//
//  * engine-wide: every span lands in a per-state histogram
//    (`wait.<state>.us`) via the engine's WaitSink — the cluster-wide wait
//    profile a DBA reads first;
//  * per-query: when the executing thread carries a QueryWaitScope, the span
//    also accumulates into that query's WaitStats, which EXPLAIN/trace and
//    the slow-query log render as the per-query wait breakdown;
//  * slow queries: Collection::ExecuteCompiled copies the accumulated
//    WaitStats into a SlowQueryRecord when the query crosses
//    EngineOptions::slow_query_us.
//
// Cost contract (same budget as the PR 5 counters): an armed span is two
// steady-clock reads plus one lock-free Histogram::Observe and two relaxed
// atomic adds; a disarmed span (no sink, no scope — or accounting globally
// off for A/B benching) is a branch. Spans take no locks and are safe under
// any held mutex.
//
// Lock-rank discipline (checked by xdb_lint's wait-span-rank rule): each
// wait state is pinned to the LockRank of the component it instruments; a
// span guard must not stay open across the construction of a mutex guard
// ranked BELOW that component — a span that swallows a coarser lock's wait
// would attribute foreign blocking to its own state.
#ifndef XDB_OBS_WAIT_STATE_H_
#define XDB_OBS_WAIT_STATE_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace xdb {
namespace obs {

enum class WaitState : uint8_t {
  kBufferIo = 0,   // buffer-pool miss: page read + checksum verify, or a
                   // wait for another fixer's in-flight read of the page
  kLockWait = 1,   // LockManager blocking (document/node lock conflicts)
  kWalCommit = 2,  // WAL group-commit: fsync leadership or follower wait
  kLatch = 3,      // collection structure-latch acquisition
  kFreshness = 4,  // min_csn wait against the replica's applied watermark
  kIndexProbe = 5, // value/structural index B+tree probes
  kReplApply = 6,  // replicated-segment apply (replicas)
};
inline constexpr size_t kWaitStateCount = 7;

/// Stable lowercase token used in metric names, EXPLAIN output and the
/// slow-query log ("buffer_io", "lock_wait", ...).
const char* WaitStateName(WaitState s);

/// Process-global kill switch for A/B overhead benching (bench_wait_
/// accounting). Defaults to on; production code never touches it.
void SetWaitAccountingEnabled(bool enabled);
bool WaitAccountingEnabled();

/// One query's accumulated waits. Fields are relaxed atomics so parallel
/// chunk workers sharing the coordinating query's WaitStats can add
/// concurrently; readers (the rollup at query end) see totals once the
/// fan-out has joined.
struct WaitStats {
  std::atomic<uint64_t> total_us[kWaitStateCount] = {};
  std::atomic<uint64_t> count[kWaitStateCount] = {};

  void Add(WaitState s, uint64_t us) {
    const size_t i = static_cast<size_t>(s);
    total_us[i].fetch_add(us, std::memory_order_relaxed);
    count[i].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t TotalUs(WaitState s) const {
    return total_us[static_cast<size_t>(s)].load(std::memory_order_relaxed);
  }
  uint64_t Count(WaitState s) const {
    return count[static_cast<size_t>(s)].load(std::memory_order_relaxed);
  }
  /// Sum across every state.
  uint64_t GrandTotalUs() const {
    uint64_t t = 0;
    for (size_t i = 0; i < kWaitStateCount; ++i)
      t += total_us[i].load(std::memory_order_relaxed);
    return t;
  }
  void Reset() {
    for (size_t i = 0; i < kWaitStateCount; ++i) {
      total_us[i].store(0, std::memory_order_relaxed);
      count[i].store(0, std::memory_order_relaxed);
    }
  }
};

/// The engine-wide sink: one `wait.<state>.us` histogram per state (its
/// count/sum double as the per-state event count and total microseconds, so
/// no separate counters are needed). Per-engine, registered into the
/// engine's MetricsRegistry at Open; components hold a pointer the same way
/// they hold the EventLog.
class WaitSink {
 public:
  WaitSink() = default;
  WaitSink(const WaitSink&) = delete;
  WaitSink& operator=(const WaitSink&) = delete;

  /// Registers the per-state histograms (idempotent via AddHistogram).
  void Register(MetricsRegistry* registry);

  /// Lock-free; safe under any held mutex. No-op before Register().
  void Record(WaitState s, uint64_t us) {
    Histogram* h = hist_[static_cast<size_t>(s)];
    if (h != nullptr) h->Observe(us);
  }

  /// Snapshot helper for tests: the histogram backing one state (null
  /// before Register()).
  Histogram* histogram(WaitState s) const {
    return hist_[static_cast<size_t>(s)];
  }

 private:
  Histogram* hist_[kWaitStateCount] = {};
};

/// Installs `stats` as the calling thread's current query accumulator for
/// the scope's lifetime (restoring the previous one on exit, so nested
/// engine-in-engine use keeps working). The coordinating thread installs it
/// at query start; ParallelFor chunk lambdas re-install the same WaitStats
/// on their worker thread so fan-out waits attribute to the owning query.
class QueryWaitScope {
 public:
  explicit QueryWaitScope(WaitStats* stats);
  ~QueryWaitScope();
  QueryWaitScope(const QueryWaitScope&) = delete;
  QueryWaitScope& operator=(const QueryWaitScope&) = delete;

  /// The calling thread's current accumulator (null outside any scope).
  static WaitStats* current();

 private:
  WaitStats* prev_;
};

/// RAII span: construction stamps the start, Finish() (or destruction)
/// records the elapsed microseconds into the sink and the thread's current
/// QueryWaitScope accumulator. Both targets optional; with neither (or with
/// accounting globally disabled) the span never reads the clock.
class WaitSpan {
 public:
  WaitSpan(WaitSink* sink, WaitState state)
      : state_(state),
        sink_(sink),
        stats_(QueryWaitScope::current()) {
    if ((sink_ != nullptr || stats_ != nullptr) && WaitAccountingEnabled()) {
      start_us_ = NowUs();
      armed_ = true;
    }
  }
  ~WaitSpan() { Finish(); }
  WaitSpan(const WaitSpan&) = delete;
  WaitSpan& operator=(const WaitSpan&) = delete;

  /// Ends the span early (idempotent). Returns the elapsed microseconds
  /// recorded (0 when disarmed).
  uint64_t Finish() {
    if (!armed_) return 0;
    armed_ = false;
    const uint64_t us = NowUs() - start_us_;
    if (sink_ != nullptr) sink_->Record(state_, us);
    if (stats_ != nullptr) stats_->Add(state_, us);
    return us;
  }

 private:
  static uint64_t NowUs();

  WaitState state_;
  WaitSink* sink_;
  WaitStats* stats_;
  uint64_t start_us_ = 0;
  bool armed_ = false;
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_WAIT_STATE_H_
