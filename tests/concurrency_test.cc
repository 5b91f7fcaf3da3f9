// Multithreaded stress harness for the concurrent core: engine-level
// insert/query/delete with a checkpointer, buffer-manager fetch/evict/
// writeback contention and in-flight miss reads, lock-manager grant/release
// and deadlock storms, parallel WAL appends, concurrent name-dictionary
// interning, and fault-injector counter integrity. Runs under TSan in CI;
// thread and iteration counts are kept small enough for instrumented
// single-core runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cc/lock_manager.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "repl/replica_applier.h"
#include "repl/ship_transport.h"
#include "repl/wal_shipper.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"
#include "storage/wal_log.h"
#include "common/lock_order.h"
#include "testing/fault_injector.h"
#include "leak_check.h"
#include "xml/name_dictionary.h"

namespace xdb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xdb_conc_") + name + "_" +
           std::to_string(::getpid())))
      .string();
}

/// Removes a file or directory tree on scope exit.
class PathGuard {
 public:
  explicit PathGuard(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
  }
  ~PathGuard() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A status a blocking/contended operation may legitimately return: success,
/// a lock timeout or deadlock victim, or racing with a concurrent delete.
bool AcceptableContention(const Status& st) {
  return st.ok() || st.IsDeadlock() || st.IsBusy() || st.IsNotFound();
}

// ---------------------------------------------------------------------------
// Engine: concurrent document insert / query / delete with a checkpointer.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencyTest, InsertQueryDeleteWithCheckpointer) {
  PathGuard dir(TempPath("engine"));
  EngineOptions opts;
  opts.dir = dir.path();
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();

  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 20;
  constexpr int kDeletePairs = 10;

  std::vector<std::vector<uint64_t>> inserted(kWriters);
  std::atomic<bool> stop{false};
  std::atomic<int> query_failures{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; i++) {
        std::string xml = "<note><to>w" + std::to_string(w) + "-" +
                          std::to_string(i) + "</to></note>";
        auto res = coll->InsertDocument(nullptr, xml);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        inserted[w].push_back(res.value());
      }
    });
  }

  // Inserts documents and immediately deletes them again — by the end they
  // contribute nothing, but while running they contend with every reader.
  threads.emplace_back([&] {
    for (int i = 0; i < kDeletePairs; i++) {
      auto res = coll->InsertDocument(nullptr, "<note><to>gone</to></note>");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      Status st = coll->DeleteDocument(nullptr, res.value());
      ASSERT_TRUE(AcceptableContention(st)) << st.ToString();
    }
  });

  // Reader: full scans and point reads racing the writers.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto qres = coll->Query(nullptr, "/note/to");
      if (!qres.ok() && !AcceptableContention(qres.status()))
        query_failures.fetch_add(1);
      auto ids = coll->ListDocIds();
      if (ids.ok() && !ids.value().empty()) {
        auto text = coll->GetDocumentText(nullptr, ids.value().front());
        if (!text.ok() && !AcceptableContention(text.status()))
          query_failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  // Checkpointer: flushes pages + truncates the WAL while everyone works.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status st = engine->Checkpoint();
      ASSERT_TRUE(st.ok()) << st.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (int w = 0; w < kWriters + 1; w++) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters + 1; t < threads.size(); t++) threads[t].join();

  EXPECT_EQ(query_failures.load(), 0);

  // Every writer-inserted document is present exactly once, ids distinct.
  std::set<uint64_t> all_ids;
  for (const auto& ids : inserted)
    for (uint64_t id : ids) EXPECT_TRUE(all_ids.insert(id).second);
  EXPECT_EQ(all_ids.size(), size_t{kWriters * kInsertsPerWriter});
  EXPECT_EQ(coll->DocCount().value(), all_ids.size());
  for (uint64_t id : all_ids)
    EXPECT_TRUE(coll->GetDocumentText(nullptr, id).ok());

  // Survives a clean shutdown + recovery.
  engine.reset();
  engine = Engine::Open(opts).MoveValue();
  coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->DocCount().value(), all_ids.size());
  for (uint64_t id : all_ids)
    EXPECT_TRUE(coll->GetDocumentText(nullptr, id).ok());
}

TEST(EngineConcurrencyTest, ConcurrentInsertsGetDistinctDocIds) {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 15;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        auto res = coll->InsertDocument(nullptr, "<d><v>x</v></d>");
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        ids[t].push_back(res.value());
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<uint64_t> distinct;
  for (const auto& v : ids)
    for (uint64_t id : v) EXPECT_TRUE(distinct.insert(id).second);
  EXPECT_EQ(distinct.size(), size_t{kThreads * kPerThread});
  EXPECT_EQ(coll->DocCount().value(), distinct.size());
}

// ---------------------------------------------------------------------------
// BufferManager: fetch / evict / writeback contention on a tiny pool.
// ---------------------------------------------------------------------------

TEST(BufferManagerConcurrencyTest, FetchEvictWritebackContention) {
  PathGuard file(TempPath("bm"));
  auto space = TableSpace::Create(file.path()).MoveValue();
  // Pool far smaller than the working set: every thread's loop evicts the
  // others' pages constantly, hammering the LRU/writeback path.
  BufferManager bm(space.get(), /*capacity=*/8);

  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 12;
  constexpr int kRounds = 40;

  // Each thread owns a disjoint set of pages (pins don't exclude other
  // pinners — payload exclusivity is the caller's job, as in the engine
  // where the collection latch serializes writers).
  std::vector<std::vector<PageId>> pages(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int p = 0; p < kPagesPerThread; p++) {
      auto h = bm.NewPage();
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      pages[t].push_back(h.value().page_id());
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; round++) {
        for (int p = 0; p < kPagesPerThread; p++) {
          auto h = bm.FixPage(pages[t][p]);
          ASSERT_TRUE(h.ok()) << h.status().ToString();
          char* data = h.value().MutableData();
          // Thread-and-page tag, rewritten every round.
          data[0] = static_cast<char>('A' + t);
          data[1] = static_cast<char>(p);
          data[2] = static_cast<char>(round & 0x7F);
        }
      }
    });
  }
  // Stats reader races the workers (stats() copies under the lock).
  std::atomic<bool> stop{false};
  std::thread stats_reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      BufferManagerStats s = bm.stats();
      // Every eviction is driven by a fetch (hit/miss) or by one of the
      // kThreads * kPagesPerThread NewPage allocations, which claim a frame
      // without counting as a fetch.
      EXPECT_GE(s.hits + s.misses + kThreads * kPagesPerThread, s.evictions);
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  stats_reader.join();

  ASSERT_TRUE(bm.FlushAll().ok());
  // Every page holds its owner's final tag.
  for (int t = 0; t < kThreads; t++) {
    for (int p = 0; p < kPagesPerThread; p++) {
      auto h = bm.FixPage(pages[t][p]);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(h.value().data()[0], static_cast<char>('A' + t));
      EXPECT_EQ(h.value().data()[1], static_cast<char>(p));
      EXPECT_EQ(h.value().data()[2], static_cast<char>((kRounds - 1) & 0x7F));
    }
  }
  BufferManagerStats s = bm.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.writebacks, 0u);
}

// ---------------------------------------------------------------------------
// LockManager: grant/release and deadlock storms.
// ---------------------------------------------------------------------------

/// The lock space of the one collection the storms lock documents in.
constexpr LockSpace kSpace = 0;

TEST(LockManagerConcurrencyTest, GrantReleaseStorm) {
  LockManager lm(std::chrono::milliseconds(100));
  constexpr int kThreads = 6;
  constexpr int kIters = 120;
  constexpr int kDocs = 4;
  std::atomic<uint64_t> granted{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // xorshift, seeded per thread: no shared RNG state.
      uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      const LockMode modes[] = {LockMode::kIS, LockMode::kIX, LockMode::kS,
                                LockMode::kX};
      for (int i = 0; i < kIters; i++) {
        TxnId txn = static_cast<TxnId>(t) * kIters + i + 1;
        uint64_t doc = next() % kDocs;
        LockMode mode = modes[next() % 4];
        Status st = lm.LockDocument(txn, kSpace, doc, mode);
        if (st.ok()) {
          granted.fetch_add(1);
          if ((mode == LockMode::kIX || mode == LockMode::kIS) &&
              next() % 2 == 0) {
            // Subdocument lock under the intention lock.
            Status ns = lm.LockNode(txn, kSpace, doc, Slice("\x01\x02"),
                                    mode == LockMode::kIX ? LockMode::kX
                                                          : LockMode::kS);
            EXPECT_TRUE(AcceptableContention(ns)) << ns.ToString();
          }
        } else {
          EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(granted.load(), 0u);
  // Everything was released: an X lock on every doc must grant instantly.
  for (uint64_t doc = 0; doc < kDocs; doc++)
    EXPECT_TRUE(lm.LockDocument(999999, kSpace, doc, LockMode::kX).ok());
  lm.ReleaseAll(999999);
  EXPECT_GE(lm.stats().acquisitions, granted.load());
}

TEST(LockManagerConcurrencyTest, DeadlockStormResolvesWithoutHanging) {
  LockManager lm(std::chrono::milliseconds(200));
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::atomic<uint64_t> deadlocks{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Opposite acquisition orders on two docs: classic deadlock recipe.
      uint64_t first = (t % 2 == 0) ? 1 : 2;
      uint64_t second = (t % 2 == 0) ? 2 : 1;
      for (int i = 0; i < kIters; i++) {
        TxnId txn = static_cast<TxnId>(t) * kIters + i + 1;
        Status st = lm.LockDocument(txn, kSpace, first, LockMode::kX);
        if (st.ok()) {
          st = lm.LockDocument(txn, kSpace, second, LockMode::kX);
          if (st.IsDeadlock()) deadlocks.fetch_add(1);
          else EXPECT_TRUE(st.ok()) << st.ToString();
        } else {
          EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  // The storm must finish (no hang) and leave the table clean.
  EXPECT_TRUE(lm.LockDocument(777777, kSpace, 1, LockMode::kX).ok());
  EXPECT_TRUE(lm.LockDocument(777777, kSpace, 2, LockMode::kX).ok());
  lm.ReleaseAll(777777);
  // The waits-for graph catches cycles eagerly; timeouts remain a backstop.
  LockManagerStats s = lm.stats();
  EXPECT_EQ(s.deadlocks + s.timeouts >= deadlocks.load(), true);
}

// ---------------------------------------------------------------------------
// WAL: parallel appends with a concurrent syncer, then ordered replay.
// ---------------------------------------------------------------------------

TEST(WalConcurrencyTest, ParallelAppendsReplayIntact) {
  PathGuard file(TempPath("wal"));
  auto wal = WalLog::Open(file.path()).MoveValue();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 80;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        // Payload encodes (thread, seq) so replay can check per-thread order.
        std::string payload = std::to_string(t) + ":" + std::to_string(i);
        auto lsn = wal->Append(WalRecordType::kInsertDocument, payload);
        ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      }
    });
  }
  std::thread syncer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(wal->Sync().ok());
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  syncer.join();

  // Replay sees every record exactly once, LSNs strictly increasing, and
  // each thread's records in its append order.
  std::vector<int> next_seq(kThreads, 0);
  uint64_t last_lsn = 0;
  uint64_t count = 0;
  bool first = true;
  Status st = wal->Replay([&](uint64_t lsn, WalRecordType type,
                              Slice payload) -> Status {
    EXPECT_EQ(type, WalRecordType::kInsertDocument);
    EXPECT_TRUE(first || lsn > last_lsn);
    first = false;
    last_lsn = lsn;
    std::string s = payload.ToString();
    size_t colon = s.find(':');
    EXPECT_NE(colon, std::string::npos);
    int t = std::stoi(s.substr(0, colon));
    int seq = std::stoi(s.substr(colon + 1));
    EXPECT_EQ(seq, next_seq[t]);
    next_seq[t] = seq + 1;
    count++;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, uint64_t{kThreads * kPerThread});
  for (int t = 0; t < kThreads; t++) EXPECT_EQ(next_seq[t], kPerThread);
}

// ---------------------------------------------------------------------------
// WAL group commit: concurrent committers coalesce onto shared fsyncs.
// ---------------------------------------------------------------------------

TEST(WalConcurrencyTest, GroupCommitCoalescesFsyncs) {
  PathGuard file(TempPath("wal_gc"));
  auto wal = WalLog::Open(file.path()).MoveValue();

  // Phased rounds make the coalescing deterministic: all of a round's
  // records are appended before its committers start, so every committer of
  // the round shares one leader's fsync (one sync per round, kThreads
  // commits). Interleaved commit loads coalesce opportunistically; this
  // shape pins down the lower bound.
  constexpr int kRounds = 25;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; round++) {
    for (int i = 0; i < kThreads; i++) {
      std::string payload =
          std::to_string(round) + ":" + std::to_string(i);
      ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, payload).ok());
    }
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; t++) {
      committers.emplace_back([&] {
        Status st = wal->Commit();
        ASSERT_TRUE(st.ok()) << st.ToString();
      });
    }
    for (auto& th : committers) th.join();
  }

  WalCommitStats stats = wal->commit_stats();
  EXPECT_EQ(stats.commits, uint64_t{kRounds * kThreads});
  EXPECT_GT(stats.syncs, 0u);
  // Every round coalesces its kThreads committers onto (at least) one shared
  // fsync; a few extra retry rounds are tolerated, full serialization isn't.
  EXPECT_LE(stats.syncs, uint64_t{2 * kRounds});
  EXPECT_LT(stats.syncs, stats.commits);

  // Everything committed is replayable, in order.
  uint64_t count = 0;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice) -> Status {
                    count++;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, uint64_t{kRounds * kThreads});
}

TEST(WalConcurrencyTest, InterleavedAppendCommitStressReplaysIntact) {
  PathGuard file(TempPath("wal_gc2"));
  auto wal = WalLog::Open(file.path()).MoveValue();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string payload = std::to_string(t) + ":" + std::to_string(i);
        ASSERT_TRUE(
            wal->Append(WalRecordType::kInsertDocument, payload).ok());
        Status st = wal->Commit();
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  WalCommitStats stats = wal->commit_stats();
  EXPECT_EQ(stats.commits, uint64_t{kThreads * kPerThread});
  EXPECT_GT(stats.syncs, 0u);
  EXPECT_LE(stats.syncs, stats.commits);

  // Per-thread append order survives, every record exactly once.
  std::vector<int> next_seq(kThreads, 0);
  uint64_t count = 0;
  Status st = wal->Replay(
      [&](uint64_t, WalRecordType, Slice payload) -> Status {
        std::string s = payload.ToString();
        size_t colon = s.find(':');
        EXPECT_NE(colon, std::string::npos);
        int t = std::stoi(s.substr(0, colon));
        int seq = std::stoi(s.substr(colon + 1));
        EXPECT_EQ(seq, next_seq[t]);
        next_seq[t] = seq + 1;
        count++;
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, uint64_t{kThreads * kPerThread});
}

TEST(WalConcurrencyTest, CommitRacingResetDoesNotLivelock) {
  PathGuard file(TempPath("wal_gc_reset"));
  auto wal = WalLog::Open(file.path()).MoveValue();

  // A checkpoint's Reset() truncates the log while committers hold CSNs
  // snapshotted against the pre-truncation size. Regression test for a
  // livelock: such a commit must return (the checkpoint superseded its
  // record), not fsync forever chasing a target the shrunken log can never
  // reach. The assertion is termination itself.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<bool> stop{false};
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; t++) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string payload = std::to_string(t) + ":" + std::to_string(i);
        ASSERT_TRUE(
            wal->Append(WalRecordType::kInsertDocument, payload).ok());
        Status st = wal->Commit();
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(wal->Reset().ok());
      std::this_thread::yield();
    }
  });
  for (auto& th : committers) th.join();
  stop.store(true, std::memory_order_release);
  resetter.join();

  // The log still works after the storm: a fresh append group-commits and
  // replays.
  ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "tail").ok());
  ASSERT_TRUE(wal->Commit().ok());
  uint64_t count = 0;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice) -> Status {
                    count++;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_GE(count, 1u);
}

TEST(EngineConcurrencyTest, SyncCommitsWithConcurrentCheckpointer) {
  PathGuard dir(TempPath("engine_gc_ckpt"));
  EngineOptions opts;
  opts.dir = dir.path();
  opts.sync_commits = true;
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();

  // Writers group-commit every insert while a checkpointer repeatedly
  // flushes and truncates the WAL — the engine-level shape of the
  // commit-vs-reset race above (writers commit outside the collection
  // latch, Checkpoint resets the log concurrently).
  constexpr int kThreads = 3;
  constexpr int kPerThread = 15;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        auto res = coll->InsertDocument(
            nullptr, "<d><v>t" + std::to_string(t) + "-" +
                         std::to_string(i) + "</v></d>");
        ASSERT_TRUE(res.ok()) << res.status().ToString();
      }
    });
  }
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status st = engine->Checkpoint();
      ASSERT_TRUE(AcceptableContention(st)) << st.ToString();
      std::this_thread::yield();
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  checkpointer.join();

  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(coll->DocCount().value(), uint64_t{kThreads * kPerThread});
}

TEST(EngineConcurrencyTest, SyncCommitsDurableAcrossReopenWithFewerSyncs) {
  PathGuard dir(TempPath("engine_gc"));
  EngineOptions opts;
  opts.dir = dir.path();
  opts.sync_commits = true;
  std::set<uint64_t> inserted;
  {
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    // DDL durability is checkpoint-based (CreateCollection is not WAL-logged);
    // checkpoint now so the crash below only loses what group commit protects.
    ASSERT_TRUE(engine->Checkpoint().ok());
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10;
    std::vector<std::vector<uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; i++) {
          auto res = coll->InsertDocument(
              nullptr, "<d><v>t" + std::to_string(t) + "-" +
                           std::to_string(i) + "</v></d>");
          ASSERT_TRUE(res.ok()) << res.status().ToString();
          ids[t].push_back(res.value());
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const auto& v : ids) inserted.insert(v.begin(), v.end());
    ASSERT_EQ(inserted.size(), size_t{kThreads * kPerThread});

    WalCommitStats stats = engine->wal()->commit_stats();
    // One commit per logged operation (insert + any name-definition riders
    // commit once), never more syncs than commits.
    EXPECT_GE(stats.commits, uint64_t{kThreads * kPerThread});
    EXPECT_GT(stats.syncs, 0u);
    EXPECT_LE(stats.syncs, stats.commits);
    // Abandon the engine without a clean shutdown: every insert already
    // group-committed, so recovery must find all of them in the WAL.
    IntentionallyLeaked(engine.release());
  }
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->DocCount().value(), inserted.size());
  for (uint64_t id : inserted)
    EXPECT_TRUE(coll->GetDocumentText(nullptr, id).ok());
}

// ---------------------------------------------------------------------------
// Sharded buffer pool: cross-shard contention, eviction correctness, stats.
// ---------------------------------------------------------------------------

TEST(BufferManagerConcurrencyTest, ShardedPoolContentionAndStatsAggregate) {
  PathGuard file(TempPath("bm_shard"));
  auto space = TableSpace::Create(file.path()).MoveValue();
  // Explicitly sharded and still starved: 4 shards of 4 frames each, with a
  // working set several times the capacity, so every shard runs its own
  // eviction loop concurrently.
  BufferManager bm(space.get(), /*capacity=*/16, /*shards=*/4);
  ASSERT_EQ(bm.shard_count(), 4u);

  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 16;
  constexpr int kRounds = 30;

  std::vector<std::vector<PageId>> pages(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int p = 0; p < kPagesPerThread; p++) {
      auto h = bm.NewPage();
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      pages[t].push_back(h.value().page_id());
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; round++) {
        for (int p = 0; p < kPagesPerThread; p++) {
          auto h = bm.FixPage(pages[t][p]);
          ASSERT_TRUE(h.ok()) << h.status().ToString();
          char* data = h.value().MutableData();
          data[0] = static_cast<char>('A' + t);
          data[1] = static_cast<char>(p);
          data[2] = static_cast<char>(round & 0x7F);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_TRUE(bm.FlushAll().ok());
  // Eviction/writeback never crossed wires: every page reads back its
  // owner's final tag.
  for (int t = 0; t < kThreads; t++) {
    for (int p = 0; p < kPagesPerThread; p++) {
      auto h = bm.FixPage(pages[t][p]);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(h.value().data()[0], static_cast<char>('A' + t));
      EXPECT_EQ(h.value().data()[1], static_cast<char>(p));
      EXPECT_EQ(h.value().data()[2], static_cast<char>((kRounds - 1) & 0x7F));
    }
  }

  // The aggregate equals the per-shard sum, and the starved pool evicted.
  BufferManagerStats total = bm.stats();
  BufferManagerStats summed;
  for (size_t s = 0; s < bm.shard_count(); s++) {
    BufferManagerStats ss = bm.shard_stats(s);
    summed.hits += ss.hits;
    summed.misses += ss.misses;
    summed.evictions += ss.evictions;
    summed.writebacks += ss.writebacks;
    summed.checksum_failures += ss.checksum_failures;
  }
  EXPECT_EQ(total.hits, summed.hits);
  EXPECT_EQ(total.misses, summed.misses);
  EXPECT_EQ(total.evictions, summed.evictions);
  EXPECT_EQ(total.writebacks, summed.writebacks);
  EXPECT_EQ(total.checksum_failures, summed.checksum_failures);
  EXPECT_GT(total.evictions, 0u);
  EXPECT_GT(total.writebacks, 0u);
}

// ---------------------------------------------------------------------------
// BufferManager: in-flight miss reads. A transient read fault sends the
// reading fixer into retry backoff on a ParkingClock, which holds it there
// until the test releases it, so the test decides when the read finishes.
// ---------------------------------------------------------------------------

/// IoClock whose sleeps block until Release().
class ParkingClock : public IoClock {
 public:
  void SleepMicros(uint64_t) override {
    parked_.store(true, std::memory_order_release);
    while (!released_.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool parked() const { return parked_.load(std::memory_order_acquire); }
  void Release() { released_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> parked_{false};
  std::atomic<bool> released_{false};
};

/// Polls `done` until it holds or `timeout` passes; returns whether it held.
template <typename Pred>
bool WaitUntil(Pred done,
               std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Writes one stamped page of `fill` bytes to `space` through a throwaway
/// pool, so pools built on the space afterwards must read it in.
PageId WriteFilledPage(TableSpace* space, char fill) {
  BufferManager writer(space, /*capacity=*/1);
  PageHandle h = writer.NewPage().MoveValue();
  std::memset(h.MutableData(), fill, writer.page_size());
  const PageId id = h.page_id();
  h.Release();
  EXPECT_TRUE(writer.FlushAll().ok());
  return id;
}

std::unique_ptr<TableSpace> InMemorySpace() {
  TableSpaceOptions opts;
  opts.in_memory = true;
  return TableSpace::Create("", opts).MoveValue();
}

// A miss reads its page without the shard lock: while one fixer's read is
// parked, a hit on a resident page and a miss on a third page of the same
// (only) shard both complete.
TEST(BufferManagerConcurrencyTest, InFlightReadLeavesTheShardOpen) {
  ParkingClock clock;
  auto space = InMemorySpace();
  const PageId resident = WriteFilledPage(space.get(), 'R');
  const PageId parked_page = WriteFilledPage(space.get(), 'P');
  const PageId third = WriteFilledPage(space.get(), 'T');
  BufferManager bm(space.get(), /*capacity=*/4, /*shards=*/1);
  ASSERT_EQ(bm.shard_count(), 1u);
  ASSERT_TRUE(bm.FixPage(resident).ok());

  space->set_io_clock(&clock);
  testing::ScopedFaultInjector fi;
  fi->Arm(testing::FaultPoint::kTableSpaceRead, 1,
          testing::FaultKind::kTransientError);
  std::thread reader([&] {
    auto h = bm.FixPage(parked_page);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(h.value().data()[0], 'P');
  });
  const bool parked = WaitUntil([&] { return clock.parked(); });
  std::atomic<bool> done{false};
  std::thread other([&] {
    auto hit = bm.FixPage(resident);
    EXPECT_TRUE(hit.ok()) << hit.status().ToString();
    auto miss = bm.FixPage(third);
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    EXPECT_EQ(miss.value().data()[0], 'T');
    done.store(true, std::memory_order_release);
  });
  const bool unblocked =
      WaitUntil([&] { return done.load(std::memory_order_acquire); },
                std::chrono::seconds(5));
  // Release unconditionally: a shard blocked behind the parked read then
  // fails the expectations below instead of hanging the test.
  clock.Release();
  reader.join();
  other.join();
  EXPECT_TRUE(parked) << "the transient read fault never parked the reader";
  EXPECT_TRUE(unblocked)
      << "a hit and a miss waited for another page's in-flight read";
  BufferManagerStats s = bm.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(space->io_stats().reads, s.misses);
}

struct FixOutcome {
  Status status;
  std::string bytes;
};

/// Fixes `page` from `threads` threads at once while the first table-space
/// read parks in retry backoff, so the other fixers find that read in
/// flight. Returns each thread's status and the page bytes it saw.
std::vector<FixOutcome> FixBehindParkedRead(BufferManager* bm,
                                            TableSpace* space, PageId page,
                                            int threads) {
  ParkingClock clock;
  space->set_io_clock(&clock);
  testing::ScopedFaultInjector fi;
  fi->Arm(testing::FaultPoint::kTableSpaceRead, 1,
          testing::FaultKind::kTransientError);
  std::atomic<int> started{0};
  std::vector<FixOutcome> out(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      started.fetch_add(1, std::memory_order_acq_rel);
      auto h = bm->FixPage(page);
      out[t].status = h.status();
      if (h.ok()) out[t].bytes.assign(h.value().data(), bm->page_size());
    });
  }
  EXPECT_TRUE(WaitUntil([&] {
    return clock.parked() && started.load(std::memory_order_acquire) == threads;
  }));
  // Let the other fixers reach the page before the read finishes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  clock.Release();
  for (auto& w : workers) w.join();
  space->set_io_clock(nullptr);
  return out;
}

// N fixers of one non-resident page: one of them reads it, the others wait
// for that read and count as hits, and all see the same bytes.
TEST(BufferManagerConcurrencyTest, ConcurrentFixersOfOnePageReadItOnce) {
  auto space = InMemorySpace();
  const PageId page = WriteFilledPage(space.get(), 'S');
  BufferManager bm(space.get(), /*capacity=*/4, /*shards=*/1);
  constexpr int kThreads = 6;
  auto outcomes = FixBehindParkedRead(&bm, space.get(), page, kThreads);

  const std::string expected(bm.page_size(), 'S');
  for (int t = 0; t < kThreads; t++) {
    EXPECT_TRUE(outcomes[t].status.ok())
        << "thread " << t << ": " << outcomes[t].status.ToString();
    EXPECT_TRUE(outcomes[t].bytes == expected)
        << "thread " << t << " saw other bytes";
  }
  BufferManagerStats s = bm.stats();
  EXPECT_EQ(space->io_stats().reads, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

// N fixers of one corrupt page: the one read fails its checksum, every
// fixer gets kCorruption, the page is quarantined once, and the frame the
// read used goes back to the pool.
TEST(BufferManagerConcurrencyTest, ConcurrentFixersOfOneCorruptPageAllFail) {
  auto space = InMemorySpace();
  const PageId page = WriteFilledPage(space.get(), 'C');
  const PageId other_a = WriteFilledPage(space.get(), 'A');
  const PageId other_b = WriteFilledPage(space.get(), 'B');
  {
    std::string raw(space->page_size(), '\0');
    ASSERT_TRUE(space->ReadPage(page, raw.data()).ok());
    raw[kPageHeaderSize + 7] ^= 0x04;
    ASSERT_TRUE(space->WritePage(page, raw.data()).ok());
  }
  const uint64_t reads_before = space->io_stats().reads;
  BufferManager bm(space.get(), /*capacity=*/2, /*shards=*/1);
  constexpr int kThreads = 6;
  auto outcomes = FixBehindParkedRead(&bm, space.get(), page, kThreads);

  for (int t = 0; t < kThreads; t++)
    EXPECT_TRUE(outcomes[t].status.IsCorruption())
        << "thread " << t << ": " << outcomes[t].status.ToString();
  EXPECT_EQ(space->io_stats().reads - reads_before, 1u);
  EXPECT_EQ(bm.stats().checksum_failures, 1u);
  EXPECT_EQ(bm.quarantined_pages(), std::vector<PageId>{page});
  // Nothing stays resident, and both frames can hold other pages at once.
  EXPECT_EQ(bm.resident_frames(), 0u);
  auto a = bm.FixPage(other_a);
  auto b = bm.FixPage(other_b);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(b.ok()) << b.status().ToString();
}

// ---------------------------------------------------------------------------
// Parallel query execution racing writers and a checkpointer.
// ---------------------------------------------------------------------------

TEST(ParallelQueryConcurrencyTest, ParallelQueriesWithWritersAndCheckpointer) {
  PathGuard dir(TempPath("parq"));
  EngineOptions opts;
  opts.dir = dir.path();
  opts.num_query_threads = 4;
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();

  // Enough documents that PartitionForParallelism actually fans out.
  constexpr int kSeedDocs = 24;
  for (int i = 0; i < kSeedDocs; i++) {
    auto res = coll->InsertDocument(
        nullptr,
        "<doc><k>" + std::to_string(i) + "</k><v>seed</v></doc>");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }

  std::atomic<bool> stop{false};
  std::atomic<int> query_failures{0};
  std::atomic<uint64_t> queries_run{0};
  std::vector<std::thread> threads;

  // Parallel queriers: every query fans its candidate docs over the pool.
  for (int q = 0; q < 2; q++) {
    threads.emplace_back([&] {
      QueryOptions qopts;
      qopts.parallelism = 4;
      while (!stop.load(std::memory_order_acquire)) {
        auto res = coll->Query(nullptr, "/doc/k", qopts);
        if (res.ok()) {
          EXPECT_GE(res.value().nodes.size(), size_t{kSeedDocs});
          queries_run.fetch_add(1);
        } else if (!AcceptableContention(res.status())) {
          query_failures.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }
  // Writer: inserts race the parallel readers.
  threads.emplace_back([&] {
    for (int i = 0; i < 20; i++) {
      auto res = coll->InsertDocument(
          nullptr, "<doc><k>w" + std::to_string(i) + "</k></doc>");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
    }
  });
  // Checkpointer: flushes the (sharded) pool under the shared latch.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status st = engine->Checkpoint();
      ASSERT_TRUE(st.ok()) << st.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  threads[2].join();  // writer finishes its fixed batch
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  threads[0].join();
  threads[1].join();
  threads[3].join();

  EXPECT_EQ(query_failures.load(), 0);
  EXPECT_GT(queries_run.load(), 0u);
  // Final parallel count agrees with the serial one.
  QueryOptions serial;
  serial.parallelism = 1;
  QueryOptions parallel;
  parallel.parallelism = 4;
  auto s = coll->Query(nullptr, "/doc/k", serial);
  auto p = coll->Query(nullptr, "/doc/k", parallel);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s.value().nodes.size(), size_t{kSeedDocs + 20});
  EXPECT_EQ(p.value().nodes.size(), s.value().nodes.size());

  // The stress ran entirely deadlock-free, and the always-on query metrics
  // saw the whole run — including the fan-out of the parallel queries.
  obs::MetricsSnapshot snap = engine->MetricsSnapshot();
  EXPECT_EQ(snap.Value("lock.deadlocks"), 0u);
  EXPECT_EQ(snap.Value("lock.timeouts"), 0u);
  EXPECT_GE(snap.Value("query.executions"), queries_run.load());
  EXPECT_GT(snap.Value("query.parallel_executions"), 0u);
  const obs::Metric* lat = snap.Find("query.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->hist.count, queries_run.load());
}

// ---------------------------------------------------------------------------
// Plan cache vs index DDL: cached plans hold ValueIndex pointers, so a
// query must never execute a plan compiled against an index set that a
// concurrent create/drop has since changed. The executor re-validates the
// collection's index-structure version under the probe latch and replans;
// this storm tries to catch a stale plan slipping through (a dangling
// probe would crash or return wrong counts).
// ---------------------------------------------------------------------------

TEST(PlanCacheConcurrencyTest, QueriesRaceIndexCreateAndDrop) {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  opts.plan_cache_capacity = 32;
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();

  constexpr int kDocs = 30;
  for (int i = 0; i < kDocs; i++) {
    auto res = coll->InsertDocument(
        nullptr,
        "<doc><k>k" + std::to_string(i) + "</k><v>x</v></doc>");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }

  std::atomic<bool> stop{false};
  std::atomic<int> query_failures{0};
  std::atomic<uint64_t> queries_run{0};
  std::vector<std::thread> threads;

  // Queriers: the same indexable query over and over, so cached plans keep
  // getting compiled against whatever index set currently exists. Results
  // must stay exact no matter which plan (or replan) served them.
  for (int q = 0; q < 3; q++) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto res = coll->Query(nullptr, "/doc[k = \"k7\"]/v");
        if (res.ok()) {
          if (res.value().nodes.size() != 1u) query_failures.fetch_add(1);
          queries_run.fetch_add(1);
        } else if (!AcceptableContention(res.status())) {
          query_failures.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }

  // DDL churn: create and drop the index the query wants to probe.
  threads.emplace_back([&] {
    for (int round = 0; round < 60; round++) {
      ValueIndexDef def{"k", "/doc/k", ValueType::kString, 64};
      Status cs = coll->CreateValueIndex(def);
      ASSERT_TRUE(cs.ok()) << cs.ToString();
      std::this_thread::yield();
      Status ds = coll->DropValueIndex("k");
      ASSERT_TRUE(ds.ok()) << ds.ToString();
    }
  });

  threads.back().join();
  stop.store(true, std::memory_order_release);
  for (int q = 0; q < 3; q++) threads[q].join();

  EXPECT_EQ(query_failures.load(), 0);
  EXPECT_GT(queries_run.load(), 0u);
  // The index churn invalidated the cache every round (2 per round), and
  // no cached plan ever probed a dropped index (no crash, exact answers).
  obs::MetricsSnapshot snap = engine->MetricsSnapshot();
  EXPECT_GE(snap.Value("query.plan_cache.invalidations"), 120u);
  EXPECT_GE(snap.Value("query.executions"), queries_run.load());
}

// ---------------------------------------------------------------------------
// Observability: metrics snapshots and event-log reads racing the engine's
// own emitters (exercised under TSan in CI).
// ---------------------------------------------------------------------------

TEST(ObservabilityConcurrencyTest, SnapshotsRaceQueriesAndCheckpoints) {
  PathGuard dir(TempPath("obs"));
  EngineOptions opts;
  opts.dir = dir.path();
  opts.sync_commits = true;  // group commit emits events + batch histogram
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(coll->InsertDocument(
                        nullptr,
                        "<doc><k>" + std::to_string(i) + "</k></doc>")
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Writers drive WAL commits, buffer traffic, and lock activity.
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto res = coll->InsertDocument(
            nullptr, "<doc><k>w" + std::to_string(w) + "_" +
                         std::to_string(i++) + "</k></doc>");
        ASSERT_TRUE(res.ok()) << res.status().ToString();
      }
    });
  }
  // Queriers tick the always-on counters and the latency histogram.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto res = coll->Query(nullptr, "/doc/k");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
    }
  });
  // Checkpointer emits checkpoint events while snapshots are being taken.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(engine->Checkpoint().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Snapshotters and event readers race everything above.
  std::atomic<uint64_t> snapshots_taken{0};
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&] {
      uint64_t last_emitted = 0;
      while (!stop.load(std::memory_order_acquire)) {
        obs::MetricsSnapshot snap = engine->MetricsSnapshot();
        // Monotonic counters never go backwards between snapshots.
        uint64_t emitted = snap.Value("events.emitted");
        ASSERT_GE(emitted, last_emitted);
        last_emitted = emitted;
        ASSERT_FALSE(snap.ToJson().empty());
        std::vector<obs::Event> events = engine->RecentEvents(64);
        for (size_t i = 1; i < events.size(); i++)
          ASSERT_LT(events[i - 1].seq, events[i].seq);
        snapshots_taken.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  obs::MetricsSnapshot final_snap = engine->MetricsSnapshot();
  EXPECT_GT(final_snap.Value("wal.commits"), 0u);
  EXPECT_GT(final_snap.Value("query.executions"), 0u);
  EXPECT_GT(final_snap.Value("events.emitted"), 0u);
  EXPECT_EQ(final_snap.Value("lock.deadlocks"), 0u);
}

// ---------------------------------------------------------------------------
// NameDictionary: concurrent interning of overlapping name sets.
// ---------------------------------------------------------------------------

TEST(NameDictionaryConcurrencyTest, ConcurrentInterningIsConsistent) {
  NameDictionary dict;
  constexpr int kThreads = 6;
  constexpr int kShared = 40;
  constexpr int kPrivate = 20;

  std::vector<std::vector<std::pair<std::string, NameId>>> observed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Everyone interns the shared names (racing to create them) plus a
      // private tail nobody else touches.
      for (int i = 0; i < kShared; i++) {
        std::string name = "shared-" + std::to_string(i);
        observed[t].emplace_back(name, dict.Intern(name));
      }
      for (int i = 0; i < kPrivate; i++) {
        std::string name = "t" + std::to_string(t) + "-" + std::to_string(i);
        observed[t].emplace_back(name, dict.Intern(name));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Same name always produced the same id, and every id round-trips.
  std::map<std::string, NameId> canonical;
  for (const auto& per_thread : observed) {
    for (const auto& [name, id] : per_thread) {
      auto [it, fresh] = canonical.emplace(name, id);
      if (!fresh) {
        EXPECT_EQ(it->second, id) << name;
      }
      EXPECT_EQ(dict.Lookup(name), id);
      auto round = dict.Name(id);
      ASSERT_TRUE(round.ok());
      EXPECT_EQ(round.value(), name);
    }
  }
  // Empty name (id 0) + shared + per-thread privates.
  EXPECT_EQ(dict.size(), size_t{1 + kShared + kThreads * kPrivate});
}

// ---------------------------------------------------------------------------
// FaultInjector: counters and crash mode under concurrent hammering.
// ---------------------------------------------------------------------------

TEST(FaultInjectorConcurrencyTest, CountersExactUnderConcurrentOps) {
  testing::FaultInjector fi;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; i++) {
        Status st = fi.OnOp(testing::FaultPoint::kWalSync);
        EXPECT_TRUE(st.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fi.op_count(testing::FaultPoint::kWalSync),
            uint64_t{kThreads * kPerThread});
  EXPECT_FALSE(fi.fired());
}

TEST(FaultInjectorConcurrencyTest, ArmedFaultFiresExactlyOnceAndCrashes) {
  testing::FaultInjector fi;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  // Fire on an operation some thread will reach mid-storm, then enter crash
  // mode: the firing op and every write-side op after it fail.
  fi.Arm(testing::FaultPoint::kWalSync, /*nth=*/kThreads * kPerThread / 2,
         testing::FaultKind::kError);
  fi.set_crash_after_fire(true);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; i++) {
        if (!fi.OnOp(testing::FaultPoint::kWalSync).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_TRUE(fi.fired());
  // Counting stops at the crash (post-crash ops fail without being
  // counted), so the counter lands exactly on the armed op despite four
  // threads racing through it.
  EXPECT_EQ(fi.op_count(testing::FaultPoint::kWalSync),
            uint64_t{kThreads * kPerThread / 2});
  // The armed op and everything after it failed: exactly half the storm.
  EXPECT_EQ(failures.load(), uint64_t{kThreads * kPerThread / 2 + 1});
}

// ---------------------------------------------------------------------------
// Replication: a shipping/applying pipeline racing replica readers.
// ---------------------------------------------------------------------------

// One thread writes on the primary, one pumps the shipper, one pumps the
// applier, and several readers query the replica throughout — some with a
// freshness bound, some without. Every read must be OK-and-consistent or an
// explicit kStale; the monotone watermark means a reader's observed document
// count never goes backwards. Runs under TSan, so the shipper's retention
// hook, the applier's checkpointing, and the freshness wait all get raced
// for real.
TEST(ReplicationConcurrencyTest, ApplyVsReadStorm) {
  PathGuard pdir(TempPath("repl_p"));
  PathGuard rdir(TempPath("repl_r"));
  std::filesystem::create_directories(pdir.path());
  std::filesystem::create_directories(rdir.path());
  EngineOptions popts;
  popts.dir = pdir.path();
  EngineOptions ropts;
  ropts.dir = rdir.path();
  ropts.replica = true;
  auto primary = Engine::Open(popts).MoveValue();
  auto replica = Engine::Open(ropts).MoveValue();

  repl::InProcessTransport transport;
  repl::ShipperOptions sopts;
  sopts.max_segment_bytes = 256;  // small segments → frequent watermark moves
  repl::WalShipper shipper(primary.get(), &transport, sopts);
  repl::ApplierOptions aopts;
  aopts.checkpoint_every_bytes = 4096;  // replica checkpoints mid-storm
  auto applier =
      repl::ReplicaApplier::Attach(replica.get(), &transport, aopts)
          .MoveValue();

  Collection* pcoll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(pcoll->InsertDocument(nullptr, "<d><n>seed</n></d>").ok());
  // Replicate the DDL before readers start so GetCollection always succeeds.
  ASSERT_TRUE(shipper.ShipAll().ok());
  ASSERT_TRUE(applier->CatchUp().ok());
  Collection* rcoll = replica->GetCollection("docs").value();

  constexpr int kDocs = 60;  // small: TSan runs this on one core
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_csn{0};
  // Start latch: the writer's ~10 ms of inserts begin only once every
  // reader has finished one query, so no reader can miss the storm.
  std::atomic<int> readers_ready{0};

  std::thread writer([&] {
    while (readers_ready.load(std::memory_order_acquire) < kReaders)
      std::this_thread::yield();
    for (int i = 0; i < kDocs; i++) {
      auto res = pcoll->InsertDocument(
          nullptr, "<d><n>" + std::to_string(i) + "</n></d>");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      if (i % 16 == 0) {
        ASSERT_TRUE(primary->Checkpoint().ok());
      }
    }
  });
  std::thread ship([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status s = shipper.ShipAll();
      ASSERT_TRUE(s.ok()) << s.ToString();
      write_csn.store(shipper.shipped_csn(), std::memory_order_release);
      std::this_thread::yield();
    }
  });
  std::thread apply([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status s = applier->CatchUp();
      ASSERT_TRUE(s.ok()) << s.ToString();
      std::this_thread::yield();
    }
  });

  std::atomic<int> stale_reads{0}, fresh_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      uint64_t last_count = 0;
      int iter = 0;
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        QueryOptions qo;
        if (r == 0 && ++iter % 3 == 0) {
          // Chase the shipped watermark with a small wait budget: either
          // the applier gets there in time (OK) or we get an explicit
          // kStale — never a silently short answer.
          qo.min_csn = write_csn.load(std::memory_order_acquire);
          qo.freshness_timeout_us = 500;
        }
        auto res = rcoll->Query(nullptr, "/d/n", qo);
        // Released whatever the outcome, so a failing reader cannot hang
        // the writer. A first query is unbounded: it cannot be Stale.
        if (first) {
          first = false;
          readers_ready.fetch_add(1, std::memory_order_release);
        }
        if (res.status().IsStale()) {
          stale_reads.fetch_add(1);
          continue;
        }
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        fresh_reads.fetch_add(1);
        const uint64_t count = res.value().nodes.size();
        // Inserts only: the applied prefix, hence the count, is monotone.
        ASSERT_GE(count, last_count) << "replica read went backwards";
        last_count = count;
      }
    });
  }

  writer.join();
  stop.store(true, std::memory_order_release);
  ship.join();
  apply.join();
  for (auto& th : readers) th.join();
  // Drain with the pumps stopped (the shipper and applier are
  // single-caller objects): a few rounds converge any trailing resync.
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(shipper.ShipAll().ok());
    ASSERT_TRUE(applier->CatchUp().ok());
  }

  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  EXPECT_EQ(rcoll->DocCount().value(), uint64_t{kDocs} + 1);
  QueryOptions fresh;
  fresh.min_csn = shipper.shipped_csn();
  EXPECT_EQ(rcoll->Query(nullptr, "/d/n", fresh).value().nodes.size(),
            uint64_t{kDocs} + 1);
  EXPECT_GE(fresh_reads.load(), kReaders);
}

// ---------------------------------------------------------------------------
// Lock-order enforcer: the engine's real lock DAG under a mixed workload.
// ---------------------------------------------------------------------------

// Regression for the xdb-check rank assignment: drives every heavy lock
// chain at once — document writes (LockManager → WAL → latch → storage),
// queries (latch → buffer), index DDL (ddl_mu_ → latch → WAL), checkpoints
// (catalog → latch → WAL reset → commit), and metrics snapshots (registry →
// every component lock) — in one process. Built with XDB_LOCK_ORDER_CHECK=ON
// (the asan-ubsan and tsan CI lanes) any rank inversion introduced into
// these paths aborts the test; the end-of-test assertions additionally pin
// that no code path leaks a held-stack entry.
TEST(LockOrderEnforcerTest, MixedWorkloadRespectsRankDag) {
  PathGuard dir(TempPath("lockorder"));
  EngineOptions opts;
  opts.dir = dir.path();
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();

  constexpr int kDocs = 24;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int i = 0; i < kDocs; i++) {
      std::string doc =
          "<d><n v='" + std::to_string(i) + "'>x</n></d>";
      ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
    }
    EXPECT_EQ(lock_order::HeldDepthForTest(), 0);
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto res = coll->Query(nullptr, "/d/n", {});
      ASSERT_TRUE(AcceptableContention(res.status()))
          << res.status().ToString();
    }
    EXPECT_EQ(lock_order::HeldDepthForTest(), 0);
  });
  std::thread ddl([&] {
    for (int i = 0; i < 4 && !stop.load(std::memory_order_acquire); i++) {
      ValueIndexDef def{"vidx", "/d/n", ValueType::kString, 64};
      ASSERT_TRUE(AcceptableContention(coll->CreateValueIndex(def)));
      ASSERT_TRUE(AcceptableContention(coll->DropValueIndex("vidx")));
    }
    EXPECT_EQ(lock_order::HeldDepthForTest(), 0);
  });
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(engine->Checkpoint().ok());
      std::this_thread::yield();
    }
    EXPECT_EQ(lock_order::HeldDepthForTest(), 0);
  });
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)engine->metrics()->Snapshot();
      std::this_thread::yield();
    }
    EXPECT_EQ(lock_order::HeldDepthForTest(), 0);
  });

  writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  ddl.join();
  checkpointer.join();
  snapshotter.join();

  EXPECT_EQ(coll->DocCount().value(), uint64_t{kDocs});
  EXPECT_EQ(lock_order::HeldDepthForTest(), 0);
}

}  // namespace
}  // namespace xdb
