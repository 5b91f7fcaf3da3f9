#include "cc/lock_manager.h"

#include <vector>

#include "xml/node_id.h"

namespace xdb {

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIS: return "IS";
    case LockMode::kIX: return "IX";
    case LockMode::kS: return "S";
    case LockMode::kSIX: return "SIX";
    case LockMode::kX: return "X";
  }
  return "?";
}

bool LockModesCompatible(LockMode a, LockMode b) {
  // Classic multiple-granularity compatibility matrix [Gray et al.].
  static const bool kCompat[5][5] = {
      //            IS     IX     S      SIX    X
      /* IS  */ {true,  true,  true,  true,  false},
      /* IX  */ {true,  true,  false, false, false},
      /* S   */ {true,  false, true,  false, false},
      /* SIX */ {true,  false, false, false, false},
      /* X   */ {false, false, false, false, false},
  };
  return kCompat[static_cast<int>(a)][static_cast<int>(b)];
}

bool LockModeCovers(LockMode held, LockMode wanted) {
  if (held == wanted) return true;
  switch (held) {
    case LockMode::kX: return true;
    case LockMode::kSIX:
      return wanted == LockMode::kIS || wanted == LockMode::kIX ||
             wanted == LockMode::kS;
    case LockMode::kS: return wanted == LockMode::kIS;
    case LockMode::kIX: return wanted == LockMode::kIS;
    case LockMode::kIS: return false;
  }
  return false;
}

LockMode LockModeSupremum(LockMode a, LockMode b) {
  if (LockModeCovers(a, b)) return a;
  if (LockModeCovers(b, a)) return b;
  // {S,IX} -> SIX; everything else unresolvable below X.
  if ((a == LockMode::kS && b == LockMode::kIX) ||
      (a == LockMode::kIX && b == LockMode::kS))
    return LockMode::kSIX;
  return LockMode::kX;
}

namespace {

/// S, SIX and X lock the subtree below their node; IS and IX only announce
/// finer locks there.
bool LocksSubtree(LockMode m) {
  return m == LockMode::kS || m == LockMode::kSIX || m == LockMode::kX;
}

/// "doc 7, S" for the document node, "doc 7 node 02.04, X" below it.
std::string LockTarget(uint64_t doc_id, Slice node_id, LockMode mode) {
  std::string out = "doc " + std::to_string(doc_id);
  if (!node_id.empty()) out += " node " + nodeid::ToString(node_id);
  return out + ", " + LockModeName(mode);
}

}  // namespace

std::vector<TxnId> LockManager::Blockers(const DocLocks& dl, TxnId txn,
                                         Slice node_id, LockMode mode) {
  std::vector<TxnId> out;
  for (const NodeLock& held : dl.held) {
    if (held.txn == txn || LockModesCompatible(held.mode, mode)) continue;
    Slice h(held.node_id);
    bool conflict = h == node_id;
    if (!conflict) {
      // Different nodes meet only through a subtree lock on the ancestor.
      stats_.node_prefix_checks++;
      conflict = node_id.StartsWith(h) ? LocksSubtree(held.mode)
                                       : h.StartsWith(node_id) &&
                                             LocksSubtree(mode);
    }
    if (conflict) out.push_back(held.txn);
  }
  return out;
}

bool LockManager::WouldDeadlock(TxnId txn,
                                const std::vector<TxnId>& blockers) const {
  // DFS over waits_for_ starting from the transactions blocking `txn`: if
  // any path leads back to `txn`, granting the wait would close a cycle.
  std::vector<TxnId> stack(blockers);
  std::vector<TxnId> seen;
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (cur == txn) return true;
    bool visited = false;
    for (TxnId s : seen) visited = visited || s == cur;
    if (visited) continue;
    seen.push_back(cur);
    auto it = waits_for_.find(cur);
    if (it == waits_for_.end()) continue;
    stack.insert(stack.end(), it->second.begin(), it->second.end());
  }
  return false;
}

Status LockManager::LockNode(TxnId txn, LockSpace space, uint64_t doc_id,
                             Slice node_id, LockMode mode) {
  MutexLock lock(mu_);
  const DocKey key{space, doc_id};
  DocLocks& dl = table_[key];
  // A request that fails leaves no empty entry behind: ReleaseAll only
  // visits the entries its transaction holds locks in.
  auto drop_if_unused = [&] {
    if (dl.held.empty() && dl.waiters == 0) table_.erase(key);
  };
  // Re-entrant: an own lock on this node, or a subtree lock above it, may
  // cover the request; an own lock on this node is upgraded.
  LockMode grant = mode;
  for (const NodeLock& own : dl.held) {
    if (own.txn != txn) continue;
    const bool same = Slice(own.node_id) == node_id;
    const bool above = !same && node_id.StartsWith(Slice(own.node_id)) &&
                       LocksSubtree(own.mode);
    if ((same || above) && LockModeCovers(own.mode, mode)) return Status::OK();
    if (same) grant = LockModeSupremum(own.mode, mode);
  }
  auto deadline = std::chrono::steady_clock::now() + timeout_;
  bool waited = false;
  for (;;) {
    std::vector<TxnId> blockers = Blockers(dl, txn, node_id, grant);
    if (blockers.empty()) break;
    if (WouldDeadlock(txn, blockers)) {
      waits_for_.erase(txn);
      drop_if_unused();
      stats_.deadlocks++;
      std::string target = LockTarget(doc_id, node_id, grant);
      if (events_ != nullptr)
        events_->Emit(obs::EventKind::kDeadlockVictim, txn, doc_id,
                      "lock " + target);
      return Status::Deadlock("waits-for cycle (" + target + ")");
    }
    waits_for_[txn] = std::move(blockers);
    waited = true;
    dl.waiters++;
    // One span per blocked iteration: only threads that actually sleep on
    // the condvar pay for wait accounting.
    obs::WaitSpan wait_span(wait_sink_, obs::WaitState::kLockWait);
    bool ok = cv_.WaitUntil(lock, deadline) != std::cv_status::timeout;
    wait_span.Finish();
    dl.waiters--;
    if (!ok) {
      waits_for_.erase(txn);
      drop_if_unused();
      stats_.timeouts++;
      std::string target = LockTarget(doc_id, node_id, grant);
      if (events_ != nullptr)
        events_->Emit(obs::EventKind::kLockTimeout, txn, doc_id,
                      "lock " + target);
      return Status::Deadlock("lock timeout (" + target + ")");
    }
  }
  waits_for_.erase(txn);
  if (waited) stats_.waits++;
  // An upgrade raises the own lock on this node; a first lock is added, and
  // a first lock in this document is remembered for ReleaseAll.
  bool holds_here = false;
  NodeLock* own = nullptr;
  for (NodeLock& l : dl.held) {
    if (l.txn != txn) continue;
    holds_here = true;
    if (Slice(l.node_id) == node_id) own = &l;
  }
  if (own != nullptr) own->mode = grant;
  else dl.held.push_back(NodeLock{txn, node_id.ToString(), grant});
  if (!holds_here) held_docs_[txn].push_back(key);
  stats_.acquisitions++;
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  MutexLock lock(mu_);
  waits_for_.erase(txn);
  auto docs = held_docs_.find(txn);
  if (docs == held_docs_.end()) return;  // holds nothing, frees nothing
  for (const DocKey& key : docs->second) {
    auto it = table_.find(key);
    std::erase_if(it->second.held,
                  [&](const NodeLock& l) { return l.txn == txn; });
    if (it->second.held.empty() && it->second.waiters == 0) table_.erase(it);
  }
  held_docs_.erase(docs);
  cv_.NotifyAll();
}

LockManagerStats LockManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace xdb
