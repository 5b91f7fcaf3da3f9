// Engine: the database facade — collections, schema registry, the shared
// name dictionary, transactions, WAL-based recovery, and catalog
// persistence. This is the integration point of Figure 1: XML services and
// relational-style services over one data management infrastructure.
#ifndef XDB_ENGINE_ENGINE_H_
#define XDB_ENGINE_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/transaction.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/catalog.h"
#include "engine/collection.h"
#include "engine/wal_record.h"
#include "obs/debug_snapshot.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/wait_state.h"
#include "schema/schema_compiler.h"
#include "schema/validator_vm.h"
#include "storage/wal_log.h"
#include "util/thread_pool.h"
#include "xml/name_dictionary.h"
#include "xml/parser.h"

namespace xdb {

struct EngineOptions {
  /// Directory for table spaces, WAL and catalog. Ignored when in_memory.
  std::string dir;
  /// Pure in-memory engine: no files, no WAL (tests and CPU benches).
  bool in_memory = false;
  /// Write-ahead logging for document operations.
  bool enable_wal = true;
  /// Maximum threads evaluating one query (including the caller). Values
  /// > 1 create a shared work-stealing pool of num_query_threads - 1
  /// helpers; queries opt in per call via QueryOptions::parallelism (0 =
  /// this default). 1 keeps the serial executor with no pool at all.
  int num_query_threads = 1;
  /// Fsync the WAL after every logged document operation. Concurrent
  /// committers coalesce onto one fdatasync (group commit). Off by default:
  /// the engine's durability unit is the checkpoint, and WAL records reach
  /// the OS (surviving a process crash) without the fsync cost.
  bool sync_commits = false;
  /// Compiled-plan cache entries per collection (0 disables the cache).
  /// Entries are keyed by (query text, force mode, want_values, stats
  /// epoch), so any document or index change implicitly invalidates them.
  size_t plan_cache_capacity = 64;
  /// Open as a read-only replica: every local mutation API (document ops and
  /// DDL alike) fails with kNotSupported, and state changes arrive only
  /// through ApplyReplicatedRecords() — the WAL-shipping apply path driven
  /// by repl::ReplicaApplier. Queries can demand freshness via
  /// QueryOptions::min_csn against the applied-CSN watermark. Requires
  /// enable_wal (the replica's durability is its own local WAL) and implies
  /// the engine stays read-only until Promote(). Ignored when in_memory.
  bool replica = false;
  /// Queries whose wall time is at least this many microseconds land in the
  /// engine's slow-query ring (Engine::slow_queries(), xdb_top, and
  /// DebugSnapshot()) with their full wait-state breakdown. 0 disables
  /// capture. Always-on: the check is one comparison per query.
  uint64_t slow_query_us = 10000;
};

/// What Engine::Scrub() found and fixed across the whole database.
struct ScrubReport {
  std::vector<CollectionScrubReport> collections;
  /// Stats of the filtered WAL replay run for rebuilt collections (zero when
  /// nothing needed a rebuild).
  WalReplayInfo replay;
  /// True when no collection had any damage.
  bool clean = true;
};

/// What Open() observed while recovering: WAL replay stats plus any
/// collections that had to be quarantined for later repair.
struct RecoveryInfo {
  WalReplayInfo wal;
  std::vector<std::string> quarantined_collections;
  /// Human-readable summary of anything abnormal; empty on a clean open.
  std::string warning;
};

class Engine {
 public:
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens (or creates) a database. Runs catalog load + WAL replay.
  static Result<std::unique_ptr<Engine>> Open(const EngineOptions& options);

  Result<Collection*> CreateCollection(const std::string& name,
                                       const CollectionOptions& options = {})
      XDB_EXCLUDES(mu_);
  Result<Collection*> GetCollection(const std::string& name)
      XDB_EXCLUDES(mu_);
  Status DropCollection(const std::string& name) XDB_EXCLUDES(mu_);

  /// Registers a schema: parse + compile to the binary format + store in
  /// the catalog (Figure 4's registration path).
  Status RegisterSchema(const std::string& name, Slice schema_text)
      XDB_EXCLUDES(mu_);
  Result<const schema::CompiledSchema*> FindSchema(const std::string& name)
      XDB_EXCLUDES(mu_);

  /// Begins a transaction (kLocking or kSnapshot isolation).
  Transaction Begin(IsolationMode mode = IsolationMode::kLocking);
  Status Commit(Transaction* txn) { return txns_->Commit(txn); }
  Status Abort(Transaction* txn) { return txns_->Abort(txn); }

  /// Flushes data, persists the catalog, truncates the WAL. Takes each
  /// collection's latch shared, which excludes concurrent writers while
  /// their pages flush.
  Status Checkpoint() XDB_EXCLUDES(mu_);

  /// Sweeps every table space: verifies every page checksum and every data
  /// page's record envelope, rebuilds damaged collections from still-readable
  /// records plus a filtered WAL replay, and checkpoints the repaired state.
  /// Quarantined collections come back online when repair succeeds.
  Result<ScrubReport> Scrub();

  /// WAL replay stats and quarantine decisions from the last Open().
  const RecoveryInfo& recovery_info() const { return recovery_; }

  // ---- replication (see src/repl/ and DESIGN.md "Replication & failover") --

  /// True while this engine is a read-only replica (cleared by Promote()).
  bool is_replica() const {
    return replica_.load(std::memory_order_acquire);
  }

  /// The replication-stream CSN this replica has durably applied and
  /// published. 0 on a never-promoted primary (a primary's position is its
  /// shipper's end CSN; local reads there are fresh by definition); a
  /// promoted replica retains its promotion-time value.
  uint64_t applied_csn() const {
    return applied_csn_.load(std::memory_order_acquire);
  }

  /// Blocks until applied_csn() >= min_csn, at most `timeout_us`
  /// microseconds (0 = fail immediately when behind), then kStale. On a
  /// primary it returns OK without waiting. Queries call this when
  /// QueryOptions::min_csn is set — the read-your-writes gate.
  Status WaitForFreshness(uint64_t min_csn, uint64_t timeout_us)
      XDB_EXCLUDES(fresh_mu_);

  /// Replica only. Durably lands `framed_records` (whole, CRC-intact WAL
  /// records exactly as shipped) in the replica's own WAL, applies them
  /// through the shared replay path, and publishes `publish_csn` as the new
  /// applied watermark. The local append happens BEFORE the apply: a crash
  /// at any point replays the local WAL on reopen, so the invariant
  /// `applied_csn == catalog.replica_wal_base + local_wal_bytes` holds
  /// across restarts. Records are applied idempotently (a re-shipped
  /// duplicate segment is the applier's job to drop; record-level re-apply
  /// after a crash is tolerated the same way crash recovery tolerates it).
  /// When a record fails to apply, the records before it stay applied and
  /// logged and the watermark moves to the failed record, where the resync
  /// resumes; the failed record and the rest of the segment are dropped.
  Status ApplyReplicatedRecords(Slice framed_records, uint64_t publish_csn,
                                WalReplayInfo* info = nullptr)
      XDB_EXCLUDES(mu_);

  /// Turns a replica into a writable primary. Runs Scrub() — the full page
  /// sweep + repair + checkpoint pass — so the promoted engine starts from a
  /// verified, checkpointed image, then lifts the read-only gate and emits
  /// kPromoted. After promotion ApplyReplicatedRecords() fails; a stale
  /// primary's segments can never be applied over promoted state.
  Status Promote() XDB_EXCLUDES(mu_);

  /// One coherent snapshot of every engine metric: buffer pool, WAL and
  /// group commit, lock manager, tablespace I/O and retries, record manager,
  /// query counters. Names follow the `component.noun` scheme documented in
  /// DESIGN.md §Observability.
  obs::MetricsSnapshot MetricsSnapshot() const XDB_EXCLUDES(mu_);

  /// The most recent structured engine events, oldest first (checkpoints,
  /// scrub findings, quarantines, deadlock victims, group-commit rounds,
  /// I/O retries).
  std::vector<obs::Event> RecentEvents(size_t max = SIZE_MAX) const {
    return events_.Recent(max);
  }

  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::EventLog* events() { return &events_; }
  /// Engine-wide wait-state histograms (wait.<state>.us); components record
  /// into it, queries additionally attribute spans to themselves via
  /// obs::QueryWaitScope. Registered against metrics_ at Open.
  obs::WaitSink* wait_sink() { return &wait_sink_; }
  /// The slow-query ring (see EngineOptions::slow_query_us).
  obs::SlowQueryLog* slow_queries() { return &slow_queries_; }
  uint64_t slow_query_threshold_us() const { return options_.slow_query_us; }

  /// One deterministic, serializable view of engine health: metrics
  /// snapshot, recent events, slow queries, per-collection stats epochs and
  /// buffer residency, WAL positions and the replication watermark. The
  /// struct xdb_top renders and CI's schema smoke-test round-trips.
  obs::DebugSnapshot DebugSnapshot() const XDB_EXCLUDES(mu_);

  /// Always-on query instrumentation, registered at Open. Pointers into
  /// metrics_ (stable for the engine's lifetime); null only before Open
  /// finishes wiring.
  struct QueryMetrics {
    obs::Counter* executions = nullptr;
    obs::Counter* parallel_executions = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  const QueryMetrics& query_metrics() const { return query_metrics_; }
  /// btree.descents: root-to-leaf walks over every B+tree of every
  /// collection (Insert, Delete, Seek, each run of a sorted batch).
  obs::Counter* btree_descents() const { return btree_descents_; }

  NameDictionary* dict() { return &dict_; }
  LockManager* locks() { return &locks_; }
  TransactionManager* txns() { return txns_.get(); }
  /// Shared query worker pool; null when the engine is configured serial
  /// (num_query_threads <= 1).
  util::ThreadPool* query_pool() { return query_pool_.get(); }
  /// The write-ahead log (null for in-memory engines or enable_wal=false).
  /// Exposed for tests and benches inspecting commit/sync counters.
  WalLog* wal() { return wal_.get(); }
  const EngineOptions& options() const { return options_; }
  /// The engine's parser drops whitespace-only text (data-centric mode).
  Parser MakeParser() {
    ParserOptions po;
    po.strip_whitespace_text = true;
    return Parser(&dict_, po);
  }

 private:
  friend class Collection;
  Engine() : locks_() {}

  /// Opens (or, with `create`, creates) a collection's storage. An existing
  /// collection then restores its statistics (RestoreStats); storage damage
  /// in either step opens it quarantined instead of failing.
  Result<std::unique_ptr<Collection>> OpenCollection(
      const CollectionMeta& meta, bool create,
      const CollectionOptions& options) XDB_REQUIRES(mu_);
  /// Restores `coll`'s statistics from the catalog's blob. A collection
  /// without a usable blob re-derives them from its stored data
  /// (Collection::DeriveStats) and logs the cause as a kStatsDerived event,
  /// as does one whose V1-V7 DocID tree listed other documents than its
  /// NodeID index (Collection::ReconcileLegacyDocList).
  Status RestoreStats(Collection* coll) XDB_REQUIRES(mu_);
  /// Replays the WAL. When `filter` is set, only records for which
  /// filter(collection, doc_id) returns true are applied (Scrub uses this to
  /// skip documents it already salvaged); kDefineName and DDL records always
  /// apply. Replay stats land in `info` when non-null.
  using ReplayFilter = std::function<bool(const std::string&, uint64_t)>;
  Status ReplayWal(const ReplayFilter& filter = {},
                   WalReplayInfo* info = nullptr) XDB_EXCLUDES(mu_);
  /// The one redo-application switch: applies a single WAL record to engine
  /// state. Crash recovery (ReplayWal), scrub's filtered replay, and the
  /// replica applier (ApplyReplicatedRecords) all funnel through here so
  /// the paths cannot drift. Every field is decoded (DecodeWalRecord)
  /// before anything applies: a record at `lsn` that does not decode fails
  /// with Corruption naming its LSN and type. A write runs the client's own
  /// body, without its guard or WAL record. Storage damage during apply
  /// quarantines the collection and returns OK (the record is skipped, the
  /// WAL survives).
  Status ApplyWalRecordLocked(uint64_t lsn, WalRecordType type, Slice payload,
                              const ReplayFilter& filter) XDB_REQUIRES(mu_);
  /// kNotSupported while the engine is a read-only replica; checked by every
  /// public mutation. Replay and replica apply never pass it: they run the
  /// write bodies, which do not guard.
  Status GuardWritable() const;
  /// Body of CreateCollection/DropCollection without the lock, shared with
  /// DDL replay. Neither logs; the public wrappers do.
  Result<Collection*> CreateCollectionLocked(const std::string& name,
                                             const CollectionOptions& options)
      XDB_REQUIRES(mu_);
  Status DropCollectionLocked(const std::string& name) XDB_REQUIRES(mu_);
  /// Installs a compiled schema binary, the form the catalog and the WAL
  /// record carry; RegisterSchema and DDL replay both install with it.
  Status RegisterSchemaBinaryLocked(const std::string& name, Slice binary)
      XDB_REQUIRES(mu_);
  /// Publishes a new applied-CSN watermark and wakes freshness waiters.
  void PublishAppliedCsn(uint64_t csn) XDB_EXCLUDES(fresh_mu_);
  /// The one WAL append (a no-op without a WAL): encodes `rec`, after a
  /// kDefineName record for each name interned since the last one logged
  /// when `rec` carries tokens, then group-commits under sync_commits. A
  /// client write logs between its X lock and its latch; DDL logs once it
  /// succeeded locally, since a failed DDL must never replicate (the crash
  /// window only orphans a table-space file the next create truncates).
  Status LogRecord(const WalRecord& rec) XDB_EXCLUDES(wal_names_mu_);

  /// Aggregates per-component stats into one snapshot; registered as a
  /// registry collector at Open (takes mu_, then each component's own lock).
  void CollectComponentMetrics(std::vector<obs::Metric>* out) const
      XDB_EXCLUDES(mu_);

  // options_, dict_, locks_, txns_ and wal_ are fixed after Open() and
  // internally synchronized; mu_ guards the mutable catalog state below it.
  EngineOptions options_;
  // Observability sinks. Declared before every component that holds a
  // pointer into them (locks_, wal_, collections_ storage) so they are
  // destroyed last; both are internally synchronized.
  obs::MetricsRegistry metrics_;
  obs::EventLog events_;
  /// Wait-state sink and slow-query ring: same lifetime rule as metrics_/
  /// events_ (components hold raw pointers into them).
  obs::WaitSink wait_sink_;
  obs::SlowQueryLog slow_queries_{128};
  QueryMetrics query_metrics_;
  obs::Counter* btree_descents_ = nullptr;
  /// Engine-wide plan-cache counters (query.plan_cache.*), shared by every
  /// collection's cache; registered at Open alongside query_metrics_.
  query::PlanCache::Counters plan_cache_counters_;
  NameDictionary dict_;
  LockManager locks_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<WalLog> wal_;
  // Mutable so the const metrics collector can walk collections_.
  mutable Mutex mu_{LockRank::kEngineCatalog};
  std::map<std::string, std::unique_ptr<Collection>> collections_
      XDB_GUARDED_BY(mu_);
  std::map<std::string, schema::CompiledSchema> schemas_ XDB_GUARDED_BY(mu_);
  CatalogData catalog_ XDB_GUARDED_BY(mu_);
  /// The next collection's lock space (Collection::lock_space_).
  LockSpace next_lock_space_ XDB_GUARDED_BY(mu_) = 0;
  /// Set when Open completes; only an opened engine checkpoints on
  /// destruction.
  bool opened_ = false;
  /// num_query_threads - 1 work-stealing helpers shared by all collections
  /// (the querying thread itself is the final executor). Fixed after Open.
  /// Declared after collections_ so ~Engine joins the pool — and drains any
  /// still-queued ParallelFor chunk tasks — while the collections those
  /// tasks reference are still alive.
  std::unique_ptr<util::ThreadPool> query_pool_;
  RecoveryInfo recovery_;
  // Dictionary entries with id < wal_names_logged_ are durable (in the
  // checkpointed catalog or already in the WAL).
  Mutex wal_names_mu_{LockRank::kWalNames};
  size_t wal_names_logged_ XDB_GUARDED_BY(wal_names_mu_) = 0;
  /// Read-only replica gate; set from options at Open, cleared by Promote().
  std::atomic<bool> replica_{false};
  /// Replica only: stream CSN at byte 0 of the local WAL (the in-memory twin
  /// of catalog.replica_wal_base; changes only when the WAL resets).
  uint64_t replica_wal_base_ XDB_GUARDED_BY(mu_) = 0;
  /// The published replication watermark (replicas only). Written under
  /// fresh_mu_ (so waiters don't miss wakeups) but atomic so the query-path
  /// fast check is a single load. fresh_mu_ is a leaf lock: acquired with
  /// mu_ held (ApplyReplicatedRecords) and never the other way around.
  std::atomic<uint64_t> applied_csn_{0};
  Mutex fresh_mu_{LockRank::kEngineFreshness};
  CondVar fresh_cv_;
};

}  // namespace xdb

#endif  // XDB_ENGINE_ENGINE_H_
