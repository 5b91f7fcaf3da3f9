// WalLog: append-only write-ahead log with per-record CRCs.
//
// The paper reuses relational "logging, backup and recovery" unchanged; this
// is the minimal real implementation of that contract: document-level redo
// records are appended before data pages are written, and replay after a
// crash reconstructs committed state.
#ifndef XDB_STORAGE_WAL_LOG_H_
#define XDB_STORAGE_WAL_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/coding.h"  // Crc32, shared with page checksums
#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/wait_state.h"
#include "storage/io_retry.h"

namespace xdb {

/// Log record types understood by the engine's recovery pass.
enum class WalRecordType : uint8_t {
  kInsertDocument = 1,
  kDeleteDocument = 2,
  kUpdateNode = 3,
  kCommit = 4,
  kAbort = 5,
  kCheckpoint = 6,
  kInsertSubtree = 7,
  kDeleteSubtree = 8,
  /// Name-dictionary entry interned since the last checkpoint. Logged before
  /// any record whose token payload references the name: the catalog only
  /// persists the dictionary at checkpoint time, so without these records a
  /// crash would leave replayed documents pointing at unknown name ids.
  kDefineName = 9,
  /// DDL redo records. The catalog only persists collections, value indexes
  /// and schemas at checkpoint time; without these a crash after DDL (but
  /// before the next checkpoint) silently dropped the object *and* every
  /// subsequent document record referencing it. They also carry DDL to
  /// replicas over the WAL-shipping stream.
  kCreateCollection = 10,
  kDropCollection = 11,
  kCreateValueIndex = 12,
  kDropValueIndex = 13,
  kRegisterSchema = 14,
  kCreateStructuralIndex = 15,
  kDropStructuralIndex = 16,
};

/// What Replay() found besides the replayable records. A torn tail (the last
/// record truncated or CRC-failing, nothing after it) is the normal crash
/// signature; corrupt records *followed by intact ones* are media damage and
/// are skipped with a count so recovery can warn instead of silently
/// truncating history.
struct WalReplayInfo {
  uint64_t records_replayed = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t bytes_skipped = 0;
  /// LSN of the first corrupt (skipped) record, UINT64_MAX when none were.
  /// A replica recovering its local log must not count anything at or past
  /// this point as applied: the skipped bytes came off the replication
  /// stream, and acking them would lose their updates forever.
  uint64_t first_corrupt_lsn = UINT64_MAX;
  /// LSN one past the last record the scan consumed (replayed or skipped):
  /// where a tailer resumes, and where any torn tail begins. Includes the
  /// scan's base LSN, so it is directly comparable to log offsets.
  uint64_t end_lsn = 0;
  bool torn_tail = false;
};

/// The one WAL-record framing loop: walks `buf` (whose first byte sits at
/// `base_lsn` in its log), CRC-checks each record and calls `visit` for the
/// intact ones, with exactly Replay()'s torn-tail / mid-log-corruption
/// semantics. Shared by crash recovery (WalLog::Replay), the replication
/// shipper's segment reader and the replica's segment apply, so the three
/// paths cannot drift.
Status ScanWalRecords(
    Slice buf, uint64_t base_lsn,
    const std::function<Status(uint64_t lsn, WalRecordType, Slice)>& visit,
    WalReplayInfo* info);

/// Group-commit counters: `commits` counts Commit() calls, `syncs` the
/// fdatasync rounds issued on their behalf. Under concurrent commit load
/// syncs < commits — followers piggyback on the leader's fsync.
struct WalCommitStats {
  uint64_t commits = 0;
  uint64_t syncs = 0;
};

class WalLog {
 public:
  ~WalLog();

  /// Opens (creating if absent) the log at `path` for appending.
  static Result<std::unique_ptr<WalLog>> Open(const std::string& path);

  /// Appends a record framed [len][type][crc][payload], with a CRC over
  /// the length, type and payload; returns its LSN (byte offset). Not yet
  /// durable until Sync().
  Result<uint64_t> Append(WalRecordType type, Slice payload)
      XDB_EXCLUDES(mu_);

  /// Appends already-framed record bytes verbatim (a shipped replication
  /// segment's payload: [len][type][crc][payload]... as produced by Append on
  /// another log). Returns the LSN the first byte landed at. The caller is
  /// responsible for the bytes being whole, intact records — they are
  /// CRC-verified again when replayed or re-shipped.
  Result<uint64_t> AppendRaw(Slice framed_records) XDB_EXCLUDES(mu_);

  /// Forces all appended records to stable storage.
  Status Sync();

  /// Group commit: makes everything appended so far durable, coalescing
  /// concurrent callers onto one fdatasync. The caller snapshots the current
  /// end of log as its commit sequence number; if a sync covering that CSN
  /// is already running it waits on the condvar for the leader's round (or a
  /// retry round after a failed one) instead of issuing its own, so N
  /// concurrent committers cost far fewer than N fsyncs.
  Status Commit() XDB_EXCLUDES(commit_mu_);

  /// Snapshot of the group-commit counters (copied under the lock).
  WalCommitStats commit_stats() const XDB_EXCLUDES(commit_mu_);

  /// Replays every intact record in order. Stops cleanly at a torn tail
  /// (truncated or CRC-failing last record), which is the normal crash case;
  /// CRC-failing records with intact data after them are mid-log corruption:
  /// skipped and counted in `info` (which may be null) so callers can warn.
  Status Replay(
      const std::function<Status(uint64_t lsn, WalRecordType, Slice)>& visit,
      WalReplayInfo* info = nullptr) XDB_EXCLUDES(mu_);

  /// Truncates the log (after a checkpoint has made its contents redundant).
  Status Reset() XDB_EXCLUDES(mu_);

  /// Reset() unless the retention hook (see set_retain_hook) reports that a
  /// tailer still needs bytes in the log. Returns whether it truncated.
  /// Checkpoints use this so an attached replication shipper never loses
  /// unshipped (or un-acknowledged) records to a WAL truncation.
  Result<bool> MaybeReset() XDB_EXCLUDES(mu_);

  /// Drops everything at and after `lsn` (a clean record boundary). Used by
  /// a replica to cut a torn tail off its local log after recovery so later
  /// raw appends land on an intact boundary. Not valid concurrently with
  /// appends or commits.
  Status TruncateTo(uint64_t lsn) XDB_EXCLUDES(mu_);

  /// Reads whole, CRC-intact records starting at `from_lsn`, stopping at the
  /// durable boundary (min(synced_upto_, size)) so a tailer never reads past
  /// group commit's sync point — the bytes beyond it may still be rewritten
  /// by a torn-tail crash. Appends the raw framed bytes to `out` (cleared
  /// first), stops after `max_bytes` (always making progress: the first
  /// record is included even when larger), and reports the resume point and
  /// record count. An empty `out` with OK means nothing durable is pending.
  /// A CRC-failing record *inside* the durable region is media damage:
  /// everything before it is returned, and the next call (starting at it)
  /// fails with kCorruption instead of shipping damaged bytes.
  Status ReadDurable(uint64_t from_lsn, size_t max_bytes, std::string* out,
                     uint64_t* end_lsn, uint32_t* record_count)
      XDB_EXCLUDES(mu_);

  /// Byte offset the log is durable up to (highest synced CSN).
  uint64_t durable_upto() const XDB_EXCLUDES(commit_mu_);
  /// Bumped by every Reset(); lets a tailer detect that LSNs restarted.
  uint64_t reset_generation() const XDB_EXCLUDES(commit_mu_);

  /// Installs (or clears, with nullptr) the retention hook consulted by
  /// MaybeReset(): it receives the log's current reset generation and
  /// returns the lowest LSN a tailer still needs; the log is only truncated
  /// when that is >= size(). The generation lets a tailer whose position is
  /// still in a previous log epoch's coordinates refuse truncation (return
  /// 0) instead of comparing a stale offset against the new log. Called
  /// under the log's append/replay mutex — the hook must not call back into
  /// this WalLog.
  void set_retain_hook(std::function<uint64_t(uint64_t reset_gen)> hook)
      XDB_EXCLUDES(mu_);

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  void set_retry_policy(const RetryPolicy& p) { retry_policy_ = p; }
  void set_io_clock(IoClock* clock) { clock_ = clock; }
  /// Engine-owned observability sinks (may be null). The histogram records
  /// the number of Commit() calls each leader fsync round absorbed; the
  /// event log gets one kGroupCommitRound event per successful round.
  /// Install before concurrent use.
  void set_event_log(obs::EventLog* events) { events_ = events; }
  void set_batch_size_histogram(obs::Histogram* h) { batch_hist_ = h; }
  /// Destination for kWalCommit spans covering each Commit() call — the
  /// leader's fsync and the followers' condvar waits alike (engine-owned,
  /// may be null). Install before concurrent use.
  void set_wait_sink(obs::WaitSink* sink) { wait_sink_ = sink; }
  IoStatsSnapshot io_stats() const { return SnapshotIoStats(io_stats_); }

  /// Test-only: runs once per Commit(), right after the CSN snapshot with no
  /// WAL lock held — the exact window where a concurrent checkpoint Reset()
  /// used to livelock the commit. Re-entrant WalLog calls are allowed. Not
  /// thread-safe; install before concurrent use.
  void set_commit_race_hook_for_test(std::function<void()> hook) {
    commit_race_hook_ = std::move(hook);
  }

 private:
  WalLog() = default;

  /// Shared body of Append/AppendRaw: lands `rec` (already framed) at the
  /// current end of log under mu_.
  Result<uint64_t> AppendFramedLocked(Slice rec) XDB_REQUIRES(mu_);
  /// Shared body of Reset/MaybeReset.
  Status ResetLocked() XDB_REQUIRES(mu_) XDB_EXCLUDES(commit_mu_);

  /// Serializes appends (LSN assignment + pwrite) and replay/reset against
  /// each other. fd_/path_ are fixed after Open; size_ is atomic so size()
  /// and Sync() stay lock-free.
  Mutex mu_{LockRank::kWalAppend};
  int fd_ = -1;
  std::string path_;
  std::atomic<uint64_t> size_{0};
  /// Lowest LSN a tailer (replication shipper) still needs, or null when no
  /// tailer is attached. See set_retain_hook().
  std::function<uint64_t(uint64_t)> retain_hook_ XDB_GUARDED_BY(mu_);
  RetryPolicy retry_policy_;
  IoClock* clock_ = nullptr;
  IoStats io_stats_;

  /// Group-commit state. Lock order: mu_ before commit_mu_ (Reset() takes
  /// both); Commit() takes only commit_mu_ and drops it around the fsync.
  mutable Mutex commit_mu_{LockRank::kWalCommit};
  CondVar commit_cv_;
  /// Byte offset the log is durable up to (the highest synced CSN).
  uint64_t synced_upto_ XDB_GUARDED_BY(commit_mu_) = 0;
  /// Bumped by Reset(). Commit() snapshots it with its CSN: a bump means a
  /// checkpoint truncated the log out from under the commit, so its CSN
  /// refers to bytes that no longer exist and can never be "synced" — the
  /// commit returns OK (the checkpoint made its record's effects durable)
  /// instead of fsyncing the now-short log forever.
  uint64_t reset_gen_ XDB_GUARDED_BY(commit_mu_) = 0;
  /// True while a leader is inside fdatasync with commit_mu_ dropped.
  bool sync_active_ XDB_GUARDED_BY(commit_mu_) = false;
  WalCommitStats commit_stats_ XDB_GUARDED_BY(commit_mu_);
  /// Commit() calls since the last published leader round; becomes that
  /// round's batch size. (A commit already covered by a previous round at
  /// entry is still counted into the next batch — an acceptable skew for a
  /// monitoring histogram, noted in DESIGN.md.)
  uint64_t round_commits_ XDB_GUARDED_BY(commit_mu_) = 0;
  obs::EventLog* events_ = nullptr;
  obs::Histogram* batch_hist_ = nullptr;
  obs::WaitSink* wait_sink_ = nullptr;
  /// See set_commit_race_hook_for_test().
  std::function<void()> commit_race_hook_;
};

}  // namespace xdb

#endif  // XDB_STORAGE_WAL_LOG_H_
