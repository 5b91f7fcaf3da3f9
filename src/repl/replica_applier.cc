#include "repl/replica_applier.h"

#include <string>
#include <utility>

#include "repl/wal_segment.h"

namespace xdb {
namespace repl {

Result<std::unique_ptr<ReplicaApplier>> ReplicaApplier::Attach(
    Engine* replica, ShipTransport* transport, const ApplierOptions& options) {
  if (!replica->is_replica())
    return Status::InvalidArgument(
        "applier needs an engine opened with EngineOptions::replica");
  auto applier = std::unique_ptr<ReplicaApplier>(
      new ReplicaApplier(replica, transport, options));
  // A replica resuming after a restart re-announces its watermark so the
  // shipper's retention floor and lag gauge start correct.
  transport->AckApplied(replica->applied_csn());
  return applier;
}

ReplicaApplier::ReplicaApplier(Engine* replica, ShipTransport* transport,
                               const ApplierOptions& options)
    : engine_(replica), transport_(transport), options_(options) {
  obs::MetricsRegistry* m = engine_->metrics();
  segments_ = m->AddCounter("repl.apply.segments");
  records_ = m->AddCounter("repl.apply.records");
  bytes_ = m->AddCounter("repl.apply.bytes");
  duplicates_ = m->AddCounter("repl.apply.duplicates");
  gaps_ = m->AddCounter("repl.apply.gaps");
  corrupt_segments_ = m->AddCounter("repl.apply.corrupt_segments");
  csn_gauge_ = m->AddGauge("repl.apply.csn");
  csn_gauge_->Set(static_cast<int64_t>(engine_->applied_csn()));
}

Result<bool> ReplicaApplier::ApplyOnce() {
  std::string encoded;
  XDB_ASSIGN_OR_RETURN(bool got, transport_->Receive(&encoded));
  if (!got) return false;

  const uint64_t applied = engine_->applied_csn();

  Result<WalSegment> decoded = DecodeSegment(encoded);
  if (!decoded.ok()) {
    // Mangled in transit (or spooled through damaged media). Drop it and
    // pull the stream back to our watermark; the shipper re-reads those
    // bytes from its WAL, so one intact copy eventually arrives.
    corrupt_segments_->Add(1);
    transport_->RequestResync(applied);
    if (!stalled_) {
      stalled_ = true;
      engine_->events()->Emit(obs::EventKind::kReplicaStalled, applied, 0,
                              "repl: corrupt segment, resync requested");
    }
    return true;
  }
  WalSegment seg = decoded.MoveValue();

  if (seg.end_csn() <= applied) {
    // Re-shipped after a resync, a duplicated delivery, or our own ack was
    // lost. Already durably applied — skip, but re-ack so the primary's
    // retention floor advances.
    duplicates_->Add(1);
    transport_->AckApplied(applied);
    return true;
  }

  if (seg.stream_offset != applied) {
    // A hole (dropped or reordered delivery), or a segment straddling our
    // watermark (possible only after delivery-layer truncation games).
    // Either way these bytes cannot extend the stream: re-request from the
    // watermark.
    gaps_->Add(1);
    transport_->RequestResync(applied);
    if (!stalled_) {
      stalled_ = true;
      engine_->events()->Emit(obs::EventKind::kReplicaStalled, applied,
                              seg.stream_offset,
                              "repl: stream gap, resync requested");
    }
    return true;
  }

  // Contiguous: land it. Local media damage or a promoted engine surface
  // here as real errors — those are *this* node's problems, not the
  // stream's.
  WalReplayInfo info;
  Status st =
      engine_->ApplyReplicatedRecords(seg.payload, seg.end_csn(), &info);
  // A failed apply drops the segment from the record that failed, where the
  // watermark now is: re-request the stream from there.
  if (!st.ok()) transport_->RequestResync(engine_->applied_csn());
  XDB_RETURN_NOT_OK(st);

  segments_->Add(1);
  records_->Add(info.records_replayed);
  bytes_->Add(seg.payload.size());
  csn_gauge_->Set(static_cast<int64_t>(seg.end_csn()));
  transport_->AckApplied(seg.end_csn());
  if (stalled_) {
    stalled_ = false;
    engine_->events()->Emit(obs::EventKind::kReplicaCaughtUp, seg.end_csn(),
                            0, "repl: stream resumed");
  }

  applied_since_checkpoint_ += seg.payload.size();
  if (options_.checkpoint_every_bytes > 0 &&
      applied_since_checkpoint_ >= options_.checkpoint_every_bytes) {
    applied_since_checkpoint_ = 0;
    XDB_RETURN_NOT_OK(engine_->Checkpoint());
  }
  return true;
}

Status ReplicaApplier::CatchUp() {
  while (true) {
    XDB_ASSIGN_OR_RETURN(bool consumed, ApplyOnce());
    if (!consumed) return Status::OK();
  }
}

}  // namespace repl
}  // namespace xdb
