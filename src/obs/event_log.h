// Structured event log: a bounded lock-free ring of timestamped engine
// events (checkpoints, scrub findings, quarantines, deadlock victims,
// group-commit rounds, transient-I/O retries).
//
// Unlike the metrics registry (aggregates), this answers "what happened,
// in order, recently" — the first thing needed when a counter looks wrong.
// Requirements that shape the design:
//
//  * Emit() is wait-free for writers and safe from any thread, including
//    under a held component mutex (it takes no locks, so it cannot deadlock
//    against any lock order).
//  * Bounded memory: a fixed ring, overwrite-oldest. Readers learn how many
//    events they missed via overwritten().
//  * TSan-clean without locks: every slot byte readers can observe is an
//    atomic word, under the slot protocol of obs/seqlock_ring.h. Recent()
//    re-validates the stamp after copying and discards torn slots instead
//    of blocking; a writer that finds its slot still owned by a lapped
//    writer drops its event.
#ifndef XDB_OBS_EVENT_LOG_H_
#define XDB_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/seqlock_ring.h"

namespace xdb {
namespace obs {

enum class EventKind : uint8_t {
  kRecoveryBegin = 1,
  kRecoveryEnd = 2,
  kCheckpointBegin = 3,
  kCheckpointEnd = 4,
  kScrubBegin = 5,
  kScrubFinding = 6,
  kScrubEnd = 7,
  kPageQuarantined = 8,
  kCollectionQuarantined = 9,
  kDeadlockVictim = 10,
  kLockTimeout = 11,
  kGroupCommitRound = 12,
  kIoRetry = 13,
  kWalTornTail = 14,
  kWalCorruptRecords = 15,
  kStatsDegraded = 16,
  kPlanCacheInvalidated = 17,
  kReplicaStalled = 18,
  kReplicaCaughtUp = 19,
  kPromoted = 20,
};
const char* EventKindName(EventKind k);

/// One decoded event. arg0/arg1 are kind-specific (page id, batch size,
/// transaction id, …) — documented at each emit site; `message` is a short
/// human string (component + detail), truncated to the slot's inline
/// capacity at emit time.
struct Event {
  uint64_t seq = 0;           // global emit order, starts at 0
  uint64_t timestamp_us = 0;  // wall clock, microseconds since epoch
  EventKind kind = EventKind::kRecoveryBegin;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  std::string message;

  std::string ToString() const;  // "seq=12 ts=... checkpoint.end ... msg"
};

class EventLog {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit EventLog(size_t capacity = 1024) : ring_(capacity) {}
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Wait-free, lock-free, safe under any held mutex. The message is
  /// truncated to kMaxMessage bytes.
  void Emit(EventKind kind, uint64_t arg0, uint64_t arg1,
            const std::string& message);
  void Emit(EventKind kind, const std::string& message) {
    Emit(kind, 0, 0, message);
  }

  /// The most recent events in emit order (oldest first), at most `max`.
  /// Slots a writer is concurrently overwriting, and events dropped because
  /// their slot was still being written, are skipped, so under heavy write
  /// load the result can be slightly shorter than the ring.
  std::vector<Event> Recent(size_t max = SIZE_MAX) const;

  /// How many events have been pushed out of the ring since construction.
  uint64_t overwritten() const { return ring_.overwritten(); }
  /// Total events ever emitted (dropped ones included).
  uint64_t emitted() const { return ring_.written(); }
  size_t capacity() const { return ring_.capacity(); }

  static constexpr size_t kMaxMessage = 104;

 private:
  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> timestamp_us{0};
    std::atomic<uint64_t> kind{0};
    std::atomic<uint64_t> arg0{0};
    std::atomic<uint64_t> arg1{0};
    InlineString<kMaxMessage> message;
  };

  SeqlockRing<Slot> ring_;
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_EVENT_LOG_H_
