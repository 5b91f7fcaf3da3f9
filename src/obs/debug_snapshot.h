// DebugSnapshot: one deterministic, serializable view of engine health —
// the metrics snapshot, recent events, captured slow queries, per-collection
// statistics epochs and buffer residency, and the replication watermarks.
//
// This is the struct the introspection surface is built from: Engine::
// DebugSnapshot() assembles it, tools/xdb_top renders it (human text or
// --json), and the future network layer's admin endpoint will serialize it
// per request. Determinism contract: collections sorted by name, metrics
// sorted by name (MetricsSnapshot's own contract), events and slow queries
// in sequence order — so ToJson() of equal states is byte-equal and
// FromJson(ToJson(s)).ToJson() == ToJson(s) (round-trip pinned by tests and
// the CI schema smoke-test).
#ifndef XDB_OBS_DEBUG_SNAPSHOT_H_
#define XDB_OBS_DEBUG_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"

namespace xdb {
namespace obs {

struct DebugSnapshot {
  /// Wall clock at capture, microseconds since epoch.
  uint64_t captured_at_us = 0;
  /// "primary" or "replica".
  std::string role = "primary";
  /// Replication watermark (0 on a never-promoted primary).
  uint64_t applied_csn = 0;
  /// WAL positions (0 / 0 when the engine has no WAL).
  uint64_t wal_size = 0;
  uint64_t wal_durable_upto = 0;

  struct CollectionInfo {
    std::string name;
    uint64_t doc_count = 0;
    uint64_t node_count = 0;  // running estimate
    uint64_t stats_epoch = 0;
    /// Buffer-pool residency: frames holding a page vs. the pool's frame
    /// capacity, plus the cumulative hit/miss counters.
    uint64_t buffer_resident = 0;
    uint64_t buffer_capacity = 0;
    uint64_t buffer_hits = 0;
    uint64_t buffer_misses = 0;

    bool operator==(const CollectionInfo&) const = default;
  };
  std::vector<CollectionInfo> collections;  // sorted by name

  MetricsSnapshot metrics;
  std::vector<Event> events;                 // oldest first
  std::vector<SlowQueryRecord> slow_queries; // oldest first

  /// Canonical JSON (stable key order; the round-trip contract above).
  std::string ToJson() const;
  /// Human rendering: header, collections, wait profile, slow queries,
  /// recent events (what xdb_top prints without --json).
  std::string ToText() const;
  /// Parses ToJson() output back. Anything else — an unknown key, an event
  /// kind EventKindName cannot name, a wait array whose length is not
  /// kWaitStateCount, or what json::Reader rejects — returns InvalidArgument.
  static Result<DebugSnapshot> FromJson(const std::string& json);
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_DEBUG_SNAPSHOT_H_
