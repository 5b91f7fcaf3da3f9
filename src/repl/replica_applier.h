// ReplicaApplier: the replica-side half of WAL-shipping replication.
//
// The applier drains segments off a ShipTransport and drives a read-only
// replica Engine through Engine::ApplyReplicatedRecords — the same redo
// switch crash recovery uses — publishing the applied-CSN watermark that
// gates freshness-bounded queries (QueryOptions::min_csn).
//
// Every seam is defended:
//  * Corrupt segment (bad magic / CRC / truncated): counted, dropped, and
//    the stream is re-requested from the replica's applied watermark. The
//    replica never applies damaged bytes — segment CRC first, then each
//    WAL record's own CRC inside the apply path.
//  * Duplicate segment (end <= applied): counted, skipped, re-acked.
//  * Gap (offset > applied, e.g. a dropped delivery): counted, resync
//    requested, kReplicaStalled emitted; kReplicaCaughtUp when the stream
//    knits back together.
//  * Crash mid-apply: ApplyReplicatedRecords lands bytes in the replica's
//    own WAL before applying, so reopen replays them and the watermark
//    (catalog replica_wal_base + local WAL length) is exact or an
//    undercount — never an overcount, so re-shipped segments are skipped
//    as duplicates or re-applied idempotently.
//
// Promotion (Promote()) runs the engine's full Scrub + checkpoint pass and
// lifts the read-only gate; a promoted engine refuses further segments.
#ifndef XDB_REPL_REPLICA_APPLIER_H_
#define XDB_REPL_REPLICA_APPLIER_H_

#include <cstdint>
#include <memory>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "repl/ship_transport.h"

namespace xdb {
namespace repl {

struct ApplierOptions {
  /// Checkpoint the replica after this many applied payload bytes, folding
  /// its local WAL into table spaces and truncating it (0 = never; the
  /// local WAL then grows until someone checkpoints the engine directly).
  uint64_t checkpoint_every_bytes = 8 * 1024 * 1024;
};

class ReplicaApplier {
 public:
  /// `replica` must have been opened with EngineOptions::replica = true.
  static Result<std::unique_ptr<ReplicaApplier>> Attach(
      Engine* replica, ShipTransport* transport,
      const ApplierOptions& options = {});

  /// Consumes at most one pending segment (apply, duplicate-skip, or
  /// resync-request — all count as consuming). Returns false when the
  /// transport has nothing pending. Transport-level damage is healed
  /// internally and is NOT an error; only local failures (replica media
  /// damage, a lock wait behind a replica reader that timed out, applying
  /// to a promoted engine) surface as statuses. After one, the applier
  /// re-requests the stream from its watermark, which has moved past the
  /// segment's records that did apply.
  Result<bool> ApplyOnce();

  /// Drains every pending segment.
  Status CatchUp();

  /// The replica engine's published watermark.
  uint64_t applied_csn() const { return engine_->applied_csn(); }

  /// Scrub + checkpoint + lift the read-only gate. See Engine::Promote().
  Status Promote() { return engine_->Promote(); }

 private:
  ReplicaApplier(Engine* replica, ShipTransport* transport,
                 const ApplierOptions& options);

  Engine* const engine_;
  ShipTransport* const transport_;
  const ApplierOptions options_;

  /// True between a detected break (gap/corruption) and the next applied
  /// segment; edges emit kReplicaStalled / kReplicaCaughtUp.
  bool stalled_ = false;
  uint64_t applied_since_checkpoint_ = 0;

  obs::Counter* segments_ = nullptr;
  obs::Counter* records_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* duplicates_ = nullptr;
  obs::Counter* gaps_ = nullptr;
  obs::Counter* corrupt_segments_ = nullptr;
  obs::Gauge* csn_gauge_ = nullptr;
};

}  // namespace repl
}  // namespace xdb

#endif  // XDB_REPL_REPLICA_APPLIER_H_
