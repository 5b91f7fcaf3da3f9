// Slow-query log: a bounded lock-free ring of completed query profiles that
// crossed EngineOptions::slow_query_us. The concurrent sibling of the
// EventLog: the same ring (obs/seqlock_ring.h) with larger inline string
// capacity for the query text.
//
// Record() is wait-free and called from the query path after the result is
// assembled, so it must never block or allocate shared state; Recent() is
// how EXPLAIN-less production queries get diagnosed after the fact
// (DebugSnapshot / xdb_top surface it).
#ifndef XDB_OBS_SLOW_QUERY_LOG_H_
#define XDB_OBS_SLOW_QUERY_LOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/seqlock_ring.h"
#include "obs/wait_state.h"

namespace xdb {
namespace obs {

/// One captured slow query: identity, outcome, and the wait-state breakdown
/// accumulated by the query's WaitStats. Strings are truncated to the ring
/// slot's inline capacity at record time.
struct SlowQueryRecord {
  uint64_t seq = 0;           // global record order, starts at 0
  uint64_t timestamp_us = 0;  // wall clock at completion, us since epoch
  uint64_t wall_us = 0;       // total execution wall time
  uint64_t results = 0;
  uint64_t parallelism = 1;
  std::string collection;
  std::string query;
  std::string access_method;
  uint64_t wait_us[kWaitStateCount] = {};
  uint64_t wait_count[kWaitStateCount] = {};

  /// Sum of the per-state wait totals.
  uint64_t TotalWaitUs() const {
    uint64_t t = 0;
    for (size_t i = 0; i < kWaitStateCount; ++i) t += wait_us[i];
    return t;
  }
  /// One line: "seq=3 ts=... wall=1234us coll=c method=docid-list
  /// results=9 par=2 waits[buffer_io=900us/12 ...] q=//a//b".
  std::string ToString() const;
};

class SlowQueryLog {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit SlowQueryLog(size_t capacity = 128) : ring_(capacity) {}
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Wait-free, lock-free, safe under any held mutex. `rec.seq` is ignored
  /// (the ring assigns it); strings are truncated to the inline capacities.
  void Record(const SlowQueryRecord& rec);

  /// The most recent records in record order (oldest first), at most `max`.
  /// Slots a writer is concurrently overwriting, and records dropped because
  /// their slot was still being written, are skipped.
  std::vector<SlowQueryRecord> Recent(size_t max = SIZE_MAX) const;

  /// How many records have been pushed out of the ring since construction.
  uint64_t overwritten() const { return ring_.overwritten(); }
  /// Total records ever written (dropped ones included).
  uint64_t recorded() const { return ring_.written(); }
  size_t capacity() const { return ring_.capacity(); }

  static constexpr size_t kMaxQuery = 184;
  static constexpr size_t kMaxCollection = 40;
  static constexpr size_t kMaxAccessMethod = 24;

 private:
  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> timestamp_us{0};
    std::atomic<uint64_t> wall_us{0};
    std::atomic<uint64_t> results{0};
    std::atomic<uint64_t> parallelism{0};
    std::array<std::atomic<uint64_t>, kWaitStateCount> wait_us{};
    std::array<std::atomic<uint64_t>, kWaitStateCount> wait_count{};
    InlineString<kMaxCollection> collection;
    InlineString<kMaxQuery> query;
    InlineString<kMaxAccessMethod> method;
  };

  SeqlockRing<Slot> ring_;
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_SLOW_QUERY_LOG_H_
