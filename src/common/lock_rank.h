// LockRank: the engine's global lock-acquisition order as one enum.
//
// Every Mutex/SharedMutex in the engine is constructed with a rank from this
// table. A thread may only acquire a lock whose rank is STRICTLY GREATER than
// every lock it already holds — so the prose lock DAG in DESIGN.md
// ("Threading model & lock order") is machine-checked on any single
// execution when the engine is built with -DXDB_LOCK_ORDER_CHECK=ON (see
// common/lock_order.h), no unlucky race timing required. Equal ranks never
// nest, not even across distinct instances: the sharded structures (buffer
// shards, thread-pool worker deques, per-collection latches) are all
// designed to hold at most one instance of their tier at a time, and the
// checker enforces that design too.
//
// Ranks are spaced by 10 so a future subsystem can slot between two tiers
// without renumbering the world. Lower rank = acquired earlier (outermost).
//
// The order below is derived from the real nesting in the code, each edge
// observable in a concrete path:
//
//   rank                  lock                        held across / inside
//   ----                  ----                        --------------------
//   kMetricsRegistry      obs::MetricsRegistry::mu_   Snapshot() runs every
//                                                     collector callback under
//                                                     it; collectors take
//                                                     Engine::mu_, shard locks,
//                                                     WAL commit_mu_, ...
//   kEngineCatalog        Engine::mu_                 held across WAL append
//                                                     (DDL logging, replay),
//                                                     collection latches
//                                                     (Checkpoint), LockManager
//                                                     (replay txns), storage
//                                                     open/recovery
//   kCollectionDdl        Collection::ddl_mu_         held across the latched
//                                                     index build AND its WAL
//                                                     record (create/drop must
//                                                     log in application order)
//   kWalNames             Engine::wal_names_mu_       held across wal_->Append
//                                                     and dict_.Name in
//                                                     LogRecord; taken under
//                                                     Engine::mu_ in Checkpoint
//   kWalAppend            WalLog::mu_                 held across replay
//                                                     visitors (which re-enter
//                                                     the engine: LockManager,
//                                                     latches, storage);
//                                                     Reset takes commit_mu_
//                                                     inside it
//   kWalCommit            WalLog::commit_mu_          group-commit rounds;
//                                                     dropped around fsync
//   kLockManager          LockManager::mu_            ranked before the latch
//                                                     so "never block on a doc
//                                                     lock while holding the
//                                                     latch" aborts instead of
//                                                     deadlocking
//   kCollectionLatch      Collection::latch_          structure latch; held
//                                                     across record/index/
//                                                     buffer mutation and
//                                                     stats notes
//   kRecordManager        RecordManager::mu_          held across buffer-pool
//                                                     fixes (page search +
//                                                     insert are one critical
//                                                     section)
//   kBufferShard          BufferManager::Shard::mu    held across dirty-
//                                                     victim writeback (a miss
//                                                     reads with it dropped);
//                                                     never two shards at once
//                                                     (BorrowFrame re-homes
//                                                     one donor at a time)
//   kBufferLsn            BufferManager::lsn_mu_      taken inside a shard
//                                                     lock during write-back
//   kTableSpace           TableSpace::mu_             in-memory page writes
//                                                     under a shard lock
//                                                     (writeback)
//   kCollectionDocId      Collection::docid_mu_       doc-id allocation; leaf
//   kNameDictionary       NameDictionary::mu_         interning under the
//                                                     exclusive latch and
//                                                     under wal_names_mu_
//   kCollectionStats      query::CollectionStats::mu_ stats notes under the
//                                                     exclusive latch; leaf
//   kPlanCache            query::PlanCache::mu_       invalidation under the
//                                                     exclusive latch; leaf
//   kEngineFreshness      Engine::fresh_mu_           CSN publish under
//                                                     Engine::mu_; leaf
//   kThreadPoolWorker     ThreadPool::Worker::mu      deque push/pop; one
//                                                     instance at a time
//                                                     (steal probes release
//                                                     their own lock first)
//   kThreadPoolIdle       ThreadPool::idle_mu_        idle-wait bookkeeping
//   kSyncLatch            util::Latch::mu_            ParallelFor completion
//                                                     countdown; leaf
//   kShipTransport        repl transports' mu_        delivery queues/spools;
//                                                     fault consult happens
//                                                     before acquisition
//   kFaultInjector        testing::FaultInjector::mu_ consulted inside WAL,
//                                                     shard and table-space
//                                                     critical sections: the
//                                                     global leaf
//
// kTest* ranks exist for tests/lockorder_test.cc fixtures only.
#ifndef XDB_COMMON_LOCK_RANK_H_
#define XDB_COMMON_LOCK_RANK_H_

#include <cstdint>

namespace xdb {

enum class LockRank : uint16_t {
  kMetricsRegistry = 10,
  kEngineCatalog = 20,
  kCollectionDdl = 30,
  kWalNames = 40,
  kWalAppend = 50,
  kWalCommit = 60,
  kLockManager = 70,
  kCollectionLatch = 80,
  kRecordManager = 90,
  kBufferShard = 100,
  kBufferLsn = 110,
  kTableSpace = 120,
  kCollectionDocId = 130,
  kNameDictionary = 140,
  kCollectionStats = 150,
  kPlanCache = 160,
  kEngineFreshness = 170,
  kThreadPoolWorker = 180,
  kThreadPoolIdle = 190,
  kSyncLatch = 200,
  kShipTransport = 210,
  kFaultInjector = 220,

  // Reserved for the lock-order enforcer's own test fixtures.
  kTestLow = 1000,
  kTestMid = 1010,
  kTestHigh = 1020,
};

/// Human-readable enumerator name ("kWalAppend") for abort messages.
const char* LockRankName(LockRank rank);

}  // namespace xdb

#endif  // XDB_COMMON_LOCK_RANK_H_
