#include "obs/event_log.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace xdb {
namespace obs {

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kRecoveryBegin:
      return "recovery.begin";
    case EventKind::kRecoveryEnd:
      return "recovery.end";
    case EventKind::kCheckpointBegin:
      return "checkpoint.begin";
    case EventKind::kCheckpointEnd:
      return "checkpoint.end";
    case EventKind::kScrubBegin:
      return "scrub.begin";
    case EventKind::kScrubFinding:
      return "scrub.finding";
    case EventKind::kScrubEnd:
      return "scrub.end";
    case EventKind::kPageQuarantined:
      return "page.quarantined";
    case EventKind::kCollectionQuarantined:
      return "collection.quarantined";
    case EventKind::kDeadlockVictim:
      return "lock.deadlock_victim";
    case EventKind::kLockTimeout:
      return "lock.timeout";
    case EventKind::kGroupCommitRound:
      return "wal.group_commit_round";
    case EventKind::kIoRetry:
      return "io.retry";
    case EventKind::kWalTornTail:
      return "wal.torn_tail";
    case EventKind::kWalCorruptRecords:
      return "wal.corrupt_records";
    case EventKind::kStatsDegraded:
      return "stats.degraded";
    case EventKind::kPlanCacheInvalidated:
      return "plan_cache.invalidated";
    case EventKind::kReplicaStalled:
      return "repl.replica_stalled";
    case EventKind::kReplicaCaughtUp:
      return "repl.replica_caught_up";
    case EventKind::kPromoted:
      return "repl.promoted";
  }
  return "unknown";
}

std::string Event::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "seq=%" PRIu64 " ts=%" PRIu64 " %s arg0=%" PRIu64
                " arg1=%" PRIu64 " ",
                seq, timestamp_us, EventKindName(kind), arg0, arg1);
  return std::string(buf) + message;
}

namespace {
uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void EventLog::Emit(EventKind kind, uint64_t arg0, uint64_t arg1,
                    const std::string& message) {
  ring_.Write([&](Slot& slot) {
    slot.timestamp_us.store(NowMicros(), std::memory_order_relaxed);
    slot.kind.store(static_cast<uint64_t>(kind), std::memory_order_relaxed);
    slot.arg0.store(arg0, std::memory_order_relaxed);
    slot.arg1.store(arg1, std::memory_order_relaxed);
    slot.message.Store(message);
  });
}

std::vector<Event> EventLog::Recent(size_t max) const {
  return ring_.Recent<Event>(max, [](const Slot& slot) {
    Event e;
    e.timestamp_us = slot.timestamp_us.load(std::memory_order_relaxed);
    e.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
    e.arg0 = slot.arg0.load(std::memory_order_relaxed);
    e.arg1 = slot.arg1.load(std::memory_order_relaxed);
    e.message = slot.message.Load();
    return e;
  });
}

}  // namespace obs
}  // namespace xdb
