// LockManager: document and subdocument (node-ID) locking, Section 5.
//
// One lock table, keyed by (lock space, DocID), holds (transaction, node
// ID, mode) locks; a document lock is the lock at the document node, ID ""
// ("if we allow direct access to the XML data from value indexes ... a
// DocID locking scheme is required"). Each collection has its own lock
// space, so equal DocIDs never meet.
//
// Node IDs are the multiple-granularity hierarchy [Gray et al.]: "ancestor-
// descendant relationship can be checked by testing if one is a prefix of
// the other." Two locks of different transactions conflict when their
// modes are incompatible and they are on the same node, or one node is a
// proper ancestor of the other and its lock is S, SIX or X. The intention
// modes IS and IX cover nothing below their node: the finer locks they
// announce meet an ancestor's S or X by the prefix rule themselves. So
// disjoint subtrees never conflict, and a subtree writer needs one X lock.
//
// Deadlocks are detected eagerly: before a transaction blocks, its edges in
// the waits-for graph are checked for a cycle, and the requester is chosen
// as the victim (immediate kDeadlock) — no waiting out a timeout. The
// timeout remains as a backstop for waits the graph cannot see (e.g. a
// holder stuck outside the lock manager); both are counted separately.
#ifndef XDB_CC_LOCK_MANAGER_H_
#define XDB_CC_LOCK_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/event_log.h"
#include "obs/wait_state.h"

namespace xdb {

using TxnId = uint64_t;
/// A collection's lock space, numbered by the engine as it creates or opens
/// the collection (not persisted: lock tables are not).
using LockSpace = uint32_t;

enum class LockMode : uint8_t { kIS = 0, kIX = 1, kS = 2, kSIX = 3, kX = 4 };

const char* LockModeName(LockMode m);
bool LockModesCompatible(LockMode a, LockMode b);
/// True if holding `held` already implies `wanted`.
bool LockModeCovers(LockMode held, LockMode wanted);
/// Least mode covering both.
LockMode LockModeSupremum(LockMode a, LockMode b);

struct LockManagerStats {
  uint64_t acquisitions = 0;
  uint64_t waits = 0;
  uint64_t timeouts = 0;
  /// Waits-for cycles caught at acquire time (victim aborted immediately).
  uint64_t deadlocks = 0;
  /// Prefix tests between two different node IDs of one document.
  uint64_t node_prefix_checks = 0;
};

class LockManager {
 public:
  explicit LockManager(std::chrono::milliseconds default_timeout =
                           std::chrono::milliseconds(1000))
      : timeout_(default_timeout) {}

  /// Acquires (or upgrades) a lock on the subtree at `node_id` ("" = the
  /// document node) of `doc_id` in `space`. An own lock whose mode covers
  /// the request, on this node or on an ancestor in S, SIX or X, satisfies
  /// it; else the grant is the supremum of the request and the own lock on
  /// this node (S + IX = SIX). Blocks until granted; kDeadlock for a
  /// waits-for-cycle victim or a timeout.
  Status LockNode(TxnId txn, LockSpace space, uint64_t doc_id, Slice node_id,
                  LockMode mode) XDB_EXCLUDES(mu_);

  /// The document lock: the lock at the document node.
  Status LockDocument(TxnId txn, LockSpace space, uint64_t doc_id,
                      LockMode mode) XDB_EXCLUDES(mu_) {
    return LockNode(txn, space, doc_id, Slice(), mode);
  }

  /// Releases everything `txn` holds and wakes waiters. Visits only the
  /// documents `txn` holds locks on.
  void ReleaseAll(TxnId txn) XDB_EXCLUDES(mu_);

  LockManagerStats stats() const XDB_EXCLUDES(mu_);

  /// Destination for kDeadlockVictim / kLockTimeout events (engine-owned,
  /// may be null). Emit() is lock-free, so it is safe under mu_. Install
  /// before concurrent use.
  void set_event_log(obs::EventLog* events) { events_ = events; }

  /// Destination for kLockWait spans: one span per wait-loop iteration, so
  /// the uncontended grant path never reads a clock (engine-owned, may be
  /// null). Install before concurrent use.
  void set_wait_sink(obs::WaitSink* sink) { wait_sink_ = sink; }

 private:
  struct NodeLock {
    TxnId txn;
    std::string node_id;
    LockMode mode;
  };
  /// One document's granted locks (a transaction holds at most one per
  /// node) and the number of requests waiting on them.
  struct DocLocks {
    std::vector<NodeLock> held;
    int waiters = 0;
  };

  using DocKey = std::pair<LockSpace, uint64_t>;

  /// Transactions whose granted locks in `dl` conflict with `txn`'s
  /// request; empty when it can be granted.
  std::vector<TxnId> Blockers(const DocLocks& dl, TxnId txn, Slice node_id,
                              LockMode mode) XDB_REQUIRES(mu_);
  /// True if adding edges txn -> blockers closes a cycle in waits_for_.
  bool WouldDeadlock(TxnId txn, const std::vector<TxnId>& blockers) const
      XDB_REQUIRES(mu_);

  std::chrono::milliseconds timeout_;
  mutable Mutex mu_{LockRank::kLockManager};
  CondVar cv_;
  std::map<DocKey, DocLocks> table_ XDB_GUARDED_BY(mu_);
  /// Per transaction, the documents it holds locks on, each added at its
  /// first grant there: what ReleaseAll visits.
  std::map<TxnId, std::vector<DocKey>> held_docs_ XDB_GUARDED_BY(mu_);
  /// Waits-for edges of currently blocked transactions (refreshed on every
  /// wait iteration, erased on grant/timeout/victim).
  std::map<TxnId, std::vector<TxnId>> waits_for_ XDB_GUARDED_BY(mu_);
  LockManagerStats stats_ XDB_GUARDED_BY(mu_);
  obs::EventLog* events_ = nullptr;
  obs::WaitSink* wait_sink_ = nullptr;
};

}  // namespace xdb

#endif  // XDB_CC_LOCK_MANAGER_H_
