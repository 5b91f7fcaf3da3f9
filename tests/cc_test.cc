// Concurrency-control tests: MGL compatibility, DocID locks, node-ID prefix
// locks (the subdocument protocol of Section 5.2), and document-level
// multiversioning (Section 5.1).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "btree/btree.h"
#include "cc/lock_manager.h"
#include "cc/transaction.h"
#include "cc/version_manager.h"
#include "pack/record_builder.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"
#include "xml/node_id.h"
#include "xml/parser.h"

namespace xdb {
namespace {

/// The lock space of the one collection these tests lock documents in.
constexpr LockSpace kSpace = 0;

TEST(LockModeTest, CompatibilityMatrix) {
  using L = LockMode;
  EXPECT_TRUE(LockModesCompatible(L::kIS, L::kIX));
  EXPECT_TRUE(LockModesCompatible(L::kIS, L::kS));
  EXPECT_TRUE(LockModesCompatible(L::kIS, L::kSIX));
  EXPECT_FALSE(LockModesCompatible(L::kIS, L::kX));
  EXPECT_TRUE(LockModesCompatible(L::kIX, L::kIX));
  EXPECT_FALSE(LockModesCompatible(L::kIX, L::kS));
  EXPECT_FALSE(LockModesCompatible(L::kS, L::kSIX));
  EXPECT_TRUE(LockModesCompatible(L::kS, L::kS));
  EXPECT_FALSE(LockModesCompatible(L::kX, L::kX));
}

TEST(LockModeTest, CoversAndSupremum) {
  using L = LockMode;
  EXPECT_TRUE(LockModeCovers(L::kX, L::kS));
  EXPECT_TRUE(LockModeCovers(L::kSIX, L::kIX));
  EXPECT_FALSE(LockModeCovers(L::kS, L::kIX));
  EXPECT_EQ(LockModeSupremum(L::kS, L::kIX), L::kSIX);
  EXPECT_EQ(LockModeSupremum(L::kS, L::kX), L::kX);
  EXPECT_EQ(LockModeSupremum(L::kIS, L::kS), L::kS);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kS).ok());
  EXPECT_TRUE(lm.LockDocument(2, kSpace, 10, LockMode::kS).ok());
  EXPECT_TRUE(lm.LockDocument(3, kSpace, 10, LockMode::kIS).ok());
}

TEST(LockManagerTest, ExclusiveBlocksAndTimesOut) {
  LockManager lm(std::chrono::milliseconds(50));
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kS).ok());
  Status st = lm.LockDocument(2, kSpace, 10, LockMode::kX);
  EXPECT_TRUE(st.IsDeadlock());
  EXPECT_GE(lm.stats().timeouts, 1u);
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm(std::chrono::milliseconds(2000));
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kX).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status st = lm.LockDocument(2, kSpace, 10, LockMode::kX);
    acquired = st.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(lm.stats().waits, 1u);
}

TEST(LockManagerTest, UpgradeSharedToExclusive) {
  LockManager lm(std::chrono::milliseconds(50));
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kS).ok());
  // Same transaction upgrades its own lock.
  EXPECT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kX).ok());
  // Now others are blocked entirely.
  EXPECT_TRUE(lm.LockDocument(2, kSpace, 10, LockMode::kS).IsDeadlock());
}

TEST(LockManagerTest, DifferentDocumentsDontConflict) {
  LockManager lm(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockDocument(2, kSpace, 11, LockMode::kX).ok());
}

TEST(LockManagerTest, EqualDocIdsInOtherSpacesDontConflict) {
  LockManager lm(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockDocument(2, kSpace + 1, 10, LockMode::kX).ok());
}

// A release frees its own transaction's locks and no other's, however many
// another transaction holds: T1's S locks on 1,600 documents outlast 100
// lock-and-release rounds of T2 on another document, and go only with T1's
// own release.
TEST(LockManagerTest, ReleaseFreesOnlyItsOwnTransactionsLocks) {
  LockManager lm(std::chrono::milliseconds(20));
  constexpr uint64_t kDocs = 1600;
  for (uint64_t d = 0; d < kDocs; d++)
    ASSERT_TRUE(lm.LockDocument(1, kSpace, d, LockMode::kS).ok()) << d;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(lm.LockDocument(2, kSpace, kDocs, LockMode::kX).ok()) << i;
    lm.ReleaseAll(2);
  }
  for (uint64_t d : {uint64_t{0}, kDocs / 2, kDocs - 1})
    EXPECT_TRUE(lm.LockDocument(3, kSpace, d, LockMode::kX).IsDeadlock()) << d;
  EXPECT_EQ(lm.stats().timeouts, 3u);
  lm.ReleaseAll(1);
  for (uint64_t d = 0; d < kDocs; d++)
    ASSERT_TRUE(lm.LockDocument(3, kSpace, d, LockMode::kX).ok()) << d;
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.LockDocument(4, kSpace, kDocs - 1, LockMode::kX).ok());
}

// Classic two-transaction cross request. The waits-for cycle check must
// pick a victim immediately — the 10 s timeout here is deliberately huge so
// a fall-back-to-timeout implementation fails the elapsed-time assertion.
TEST(LockManagerTest, WaitsForCycleVictimizedImmediately) {
  LockManager lm(std::chrono::milliseconds(10000));
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kX).ok());
  ASSERT_TRUE(lm.LockDocument(2, kSpace, 11, LockMode::kX).ok());

  auto start = std::chrono::steady_clock::now();
  Status s1, s2;
  std::thread t1([&] {
    s1 = lm.LockDocument(1, kSpace, 11, LockMode::kX);  // blocks on txn 2
    if (!s1.ok()) lm.ReleaseAll(1);             // victim aborts
  });
  std::thread t2([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    s2 = lm.LockDocument(2, kSpace, 10, LockMode::kX);  // closes the cycle
    if (!s2.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  // Exactly one victim; the survivor is granted once the victim releases.
  EXPECT_NE(s1.ok(), s2.ok());
  EXPECT_TRUE((s1.ok() ? s2 : s1).IsDeadlock());
  EXPECT_GE(lm.stats().deadlocks, 1u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
  EXPECT_LT(elapsed.count(), 5000) << "deadlock resolved by timeout, not by "
                                      "cycle detection";
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

// The waits-for graph spans both lock types: a document wait and a node wait
// can close one cycle.
TEST(LockManagerTest, MixedDocAndNodeLockCycleDetected) {
  LockManager lm(std::chrono::milliseconds(10000));
  std::string node = nodeid::ChildId(1);
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kX).ok());
  ASSERT_TRUE(lm.LockNode(2, kSpace, 11, node, LockMode::kX).ok());

  Status s1, s2;
  std::thread t1([&] {
    s1 = lm.LockNode(1, kSpace, 11, node, LockMode::kX);
    if (!s1.ok()) lm.ReleaseAll(1);
  });
  std::thread t2([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    s2 = lm.LockDocument(2, kSpace, 10, LockMode::kX);
    if (!s2.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();

  EXPECT_NE(s1.ok(), s2.ok());
  EXPECT_TRUE((s1.ok() ? s2 : s1).IsDeadlock());
  EXPECT_GE(lm.stats().deadlocks, 1u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(NodeLockTest, DisjointSubtreesCoexist) {
  LockManager lm(std::chrono::milliseconds(50));
  std::string left = nodeid::ChildId(1) + nodeid::ChildId(1);   // /1/1
  std::string right = nodeid::ChildId(1) + nodeid::ChildId(2);  // /1/2
  EXPECT_TRUE(lm.LockNode(1, kSpace, 10, left, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, right, LockMode::kX).ok());
}

TEST(NodeLockTest, AncestorDescendantConflict) {
  LockManager lm(std::chrono::milliseconds(50));
  std::string parent = nodeid::ChildId(1);
  std::string child = parent + nodeid::ChildId(2);
  ASSERT_TRUE(lm.LockNode(1, kSpace, 10, parent, LockMode::kX).ok());
  // A descendant lock by another transaction conflicts (prefix test).
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, child, LockMode::kX).IsDeadlock());
  // And the reverse: descendant held, ancestor requested.
  lm.ReleaseAll(1);
  ASSERT_TRUE(lm.LockNode(1, kSpace, 10, child, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, parent, LockMode::kX).IsDeadlock());
}

TEST(NodeLockTest, SharedOnOverlapIsFine) {
  LockManager lm(std::chrono::milliseconds(50));
  std::string parent = nodeid::ChildId(1);
  std::string child = parent + nodeid::ChildId(2);
  EXPECT_TRUE(lm.LockNode(1, kSpace, 10, parent, LockMode::kS).ok());
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, child, LockMode::kS).ok());
}

TEST(NodeLockTest, ReentrantViaAncestorLock) {
  LockManager lm(std::chrono::milliseconds(50));
  std::string parent = nodeid::ChildId(1);
  std::string child = parent + nodeid::ChildId(2);
  ASSERT_TRUE(lm.LockNode(1, kSpace, 10, parent, LockMode::kX).ok());
  // The same transaction's descendant request is covered.
  EXPECT_TRUE(lm.LockNode(1, kSpace, 10, child, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockNode(1, kSpace, 10, child, LockMode::kS).ok());
}

TEST(NodeLockTest, WholeTreeLockViaEmptyId) {
  LockManager lm(std::chrono::milliseconds(50));
  ASSERT_TRUE(lm.LockNode(1, kSpace, 10, Slice(), LockMode::kX).ok());
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, nodeid::ChildId(1), LockMode::kX)
                  .IsDeadlock());
}

// A document lock is the lock at the document node: the two are one lock.
TEST(NodeLockTest, DocumentLockIsTheLockAtTheDocumentNode) {
  LockManager lm(std::chrono::milliseconds(50));
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kS).ok());
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, Slice(), LockMode::kX).IsDeadlock());
  EXPECT_GE(lm.stats().timeouts, 1u);
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, Slice(), LockMode::kS).ok());
}

// Intention modes lock their own node only, so a document IX leaves other
// transactions' subtree locks to the prefix rule.
TEST(NodeLockTest, DocumentIntentionDoesNotBlockSubtreeWriter) {
  LockManager lm(std::chrono::milliseconds(50));
  std::string left = nodeid::ChildId(1) + nodeid::ChildId(1);
  std::string right = nodeid::ChildId(1) + nodeid::ChildId(2);
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kIX).ok());
  EXPECT_TRUE(lm.LockNode(2, kSpace, 10, left, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockDocument(3, kSpace, 10, LockMode::kIX).ok());
  EXPECT_TRUE(lm.LockNode(3, kSpace, 10, right, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockNode(4, kSpace, 10, left, LockMode::kS).IsDeadlock());
  EXPECT_TRUE(lm.LockDocument(4, kSpace, 10, LockMode::kS).IsDeadlock());
}

// One re-entrancy and upgrade rule on every node: an own lock covers the
// request on its node, or below it in S, SIX or X; otherwise the own lock
// on the node is raised to the supremum.
TEST(NodeLockTest, OwnLocksCoverOrUpgrade) {
  LockManager lm(std::chrono::milliseconds(50));
  ASSERT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kS).ok());
  const uint64_t granted = lm.stats().acquisitions;
  EXPECT_TRUE(
      lm.LockNode(1, kSpace, 10, nodeid::ChildId(1), LockMode::kS).ok());
  EXPECT_EQ(lm.stats().acquisitions, granted);
  // S + IX on the document node is SIX, which admits only IS.
  EXPECT_TRUE(lm.LockDocument(1, kSpace, 10, LockMode::kIX).ok());
  EXPECT_TRUE(lm.LockDocument(2, kSpace, 10, LockMode::kIS).ok());
  EXPECT_TRUE(lm.LockDocument(3, kSpace, 10, LockMode::kIX).IsDeadlock());
  EXPECT_TRUE(lm.LockDocument(3, kSpace, 10, LockMode::kS).IsDeadlock());
}

class VersionFixture {
 public:
  VersionFixture() {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 128);
    tree_ = BTree::Create(bm_.get()).MoveValue();
    versions_ = std::make_unique<VersionManager>(tree_.get());
  }

  // Builds one packed record for a tiny document and registers it.
  Rid AddDocVersion(uint64_t doc, uint64_t ver, const std::string& xml,
                    Rid rid) {
    Parser parser(&dict_);
    TokenWriter tokens;
    EXPECT_TRUE(parser.Parse(xml, &tokens).ok());
    auto records = PackDocument(tokens.data()).MoveValue();
    EXPECT_EQ(records.size(), 1u);
    EXPECT_TRUE(versions_->AddRecord(doc, ver, records[0].bytes, rid).ok());
    return rid;
  }

  NameDictionary dict_;
  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<VersionManager> versions_;
};

TEST(VersionManagerTest, SnapshotSeesOnlyPublishedVersions) {
  VersionFixture fx;
  uint64_t v1 = fx.versions_->AllocateVersion();
  fx.AddDocVersion(1, v1, "<a>v1</a>", Rid{10, 0});
  // Unpublished: a snapshot taken now sees nothing.
  uint64_t snap0 = fx.versions_->BeginSnapshot();
  EXPECT_FALSE(fx.versions_->EffectiveVersion(1, snap0).ok());
  fx.versions_->Publish(v1);
  uint64_t snap1 = fx.versions_->BeginSnapshot();
  EXPECT_EQ(fx.versions_->EffectiveVersion(1, snap1).value(), v1);

  // A second version: old snapshot keeps seeing v1.
  uint64_t v2 = fx.versions_->AllocateVersion();
  fx.AddDocVersion(1, v2, "<a>v2</a>", Rid{20, 0});
  fx.versions_->Publish(v2);
  EXPECT_EQ(fx.versions_->EffectiveVersion(1, snap1).value(), v1);
  uint64_t snap2 = fx.versions_->BeginSnapshot();
  EXPECT_EQ(fx.versions_->EffectiveVersion(1, snap2).value(), v2);
  // Lookups resolve to version-appropriate RIDs.
  EXPECT_EQ(fx.versions_->Lookup(1, snap1, nodeid::ChildId(1)).value(),
            (Rid{10, 0}));
  EXPECT_EQ(fx.versions_->Lookup(1, snap2, nodeid::ChildId(1)).value(),
            (Rid{20, 0}));
}

TEST(VersionManagerTest, ListAndPurge) {
  VersionFixture fx;
  uint64_t v1 = fx.versions_->AllocateVersion();
  uint64_t v2 = fx.versions_->AllocateVersion();
  uint64_t v3 = fx.versions_->AllocateVersion();
  fx.AddDocVersion(1, v1, "<a>one</a>", Rid{10, 0});
  fx.AddDocVersion(1, v2, "<a>two</a>", Rid{20, 0});
  fx.AddDocVersion(1, v3, "<a>three</a>", Rid{30, 0});
  fx.versions_->Publish(v3);

  std::vector<Rid> rids;
  ASSERT_TRUE(
      fx.versions_->ListDocRecords(1, fx.versions_->BeginSnapshot(), &rids)
          .ok());
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], (Rid{30, 0}));

  // Purge everything older than v3: v1 and v2 entries go, reporting rids.
  std::vector<Rid> freed;
  ASSERT_TRUE(fx.versions_->PurgeVersionsBefore(1, v3, &freed).ok());
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_FALSE(fx.versions_->EffectiveVersion(1, v2).ok());
  EXPECT_EQ(fx.versions_->EffectiveVersion(1, v3).value(), v3);
}

TEST(VersionManagerTest, EntryCopyBetweenVersions) {
  VersionFixture fx;
  uint64_t v1 = fx.versions_->AllocateVersion();
  fx.AddDocVersion(1, v1, "<a><b>x</b></a>", Rid{10, 0});
  fx.versions_->Publish(v1);
  std::vector<std::pair<std::string, Rid>> entries;
  ASSERT_TRUE(fx.versions_->ListVersionEntries(1, v1, &entries).ok());
  ASSERT_FALSE(entries.empty());
  uint64_t v2 = fx.versions_->AllocateVersion();
  for (auto& [upper, rid] : entries) {
    (void)rid;
    ASSERT_TRUE(fx.versions_->AddEntry(1, v2, upper, Rid{99, 0}).ok());
  }
  fx.versions_->Publish(v2);
  EXPECT_EQ(fx.versions_->Lookup(1, fx.versions_->BeginSnapshot(),
                                 nodeid::ChildId(1))
                .value(),
            (Rid{99, 0}));
}

TEST(TransactionManagerTest, CommitPublishesAbortDoesNot) {
  VersionFixture fx;
  LockManager lm(std::chrono::milliseconds(50));
  TransactionManager tm(&lm);

  Transaction writer = tm.Begin(IsolationMode::kLocking);
  uint64_t ver = tm.WriteVersion(&writer, fx.versions_.get()).value();
  fx.AddDocVersion(1, ver, "<a>committed</a>", Rid{10, 0});
  Transaction reader = tm.Begin(IsolationMode::kSnapshot);
  uint64_t snap_before = tm.Snapshot(&reader, fx.versions_.get());
  EXPECT_FALSE(fx.versions_->EffectiveVersion(1, snap_before).ok());
  ASSERT_TRUE(tm.Commit(&writer).ok());
  Transaction reader2 = tm.Begin(IsolationMode::kSnapshot);
  uint64_t snap_after = tm.Snapshot(&reader2, fx.versions_.get());
  EXPECT_TRUE(fx.versions_->EffectiveVersion(1, snap_after).ok());

  // Aborted writer's version never becomes visible.
  Transaction aborter = tm.Begin(IsolationMode::kLocking);
  uint64_t aver = tm.WriteVersion(&aborter, fx.versions_.get()).value();
  fx.AddDocVersion(2, aver, "<a>aborted</a>", Rid{11, 0});
  ASSERT_TRUE(tm.Abort(&aborter).ok());
  Transaction reader3 = tm.Begin(IsolationMode::kSnapshot);
  EXPECT_FALSE(
      fx.versions_
          ->EffectiveVersion(2, tm.Snapshot(&reader3, fx.versions_.get()))
          .ok());
}

TEST(TransactionManagerTest, DoubleCommitRejected) {
  LockManager lm;
  TransactionManager tm(&lm);
  Transaction txn = tm.Begin(IsolationMode::kLocking);
  ASSERT_TRUE(tm.Commit(&txn).ok());
  EXPECT_FALSE(tm.Commit(&txn).ok());
  EXPECT_FALSE(tm.Abort(&txn).ok());
}

TEST(ConcurrentLockingTest, ManyThreadsDisjointSubtrees) {
  LockManager lm(std::chrono::milliseconds(2000));
  constexpr int kThreads = 8;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      TxnId txn = static_cast<TxnId>(t + 1);
      std::string subtree =
          nodeid::ChildId(1) + nodeid::ChildId(static_cast<uint32_t>(t + 1));
      for (int iter = 0; iter < 50; iter++) {
        if (lm.LockDocument(txn, kSpace, 5, LockMode::kIX).ok() &&
            lm.LockNode(txn, kSpace, 5, subtree, LockMode::kX).ok()) {
          successes++;
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), kThreads * 50);
}

}  // namespace
}  // namespace xdb
