// Fault-injection and crash-recovery tests: armed storage faults (torn
// writes, silent corruption, I/O errors) fired at exact operations, followed
// by the same recovery path a real crash would take. The WAL torn-tail sweep
// truncates the final record at every byte offset and asserts recovery
// yields exactly the pre-crash committed state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/catalog.h"
#include "engine/engine.h"
#include "leak_check.h"
#include "legacy_catalog.h"
#include "obs/event_log.h"
#include "repl/replica_applier.h"
#include "repl/ship_transport.h"
#include "repl/wal_segment.h"
#include "repl/wal_shipper.h"
#include "query/stats.h"
#include "storage/buffer_manager.h"
#include "storage/io_retry.h"
#include "storage/page.h"
#include "storage/tablespace.h"
#include "storage/wal_log.h"
#include "testing/differential.h"
#include "testing/fault_injector.h"
#include "util/workload.h"

namespace xdb {
namespace testing {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xdb_fault_") + name + "_" +
           std::to_string(::getpid())))
      .string();
}

class FileGuard {
 public:
  explicit FileGuard(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~FileGuard() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// XORs one byte of a file in place (media-corruption simulation).
void FlipByte(const std::string& path, uint64_t offset, uint8_t mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ mask));
}

/// IoClock that records the requested sleeps instead of sleeping.
class FakeClock : public IoClock {
 public:
  void SleepMicros(uint64_t us) override { sleeps.push_back(us); }
  std::vector<uint64_t> sleeps;
};

// --- retry policy unit tests ---

TEST(RetryPolicyTest, TransientFailuresAreRetriedWithBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 100;
  policy.max_backoff_us = 10000;
  FakeClock clock;
  IoStats stats;
  int calls = 0;
  obs::EventLog events(16);
  Status s = RetryTransient(policy, &clock, &stats, &events, "op",
                            [&]() -> Status {
    if (++calls < 3) return Status::TransientIOError("blip");
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
  // Each backoff leaves an io.retry event carrying the attempt number.
  std::vector<obs::Event> retry_events = events.Recent();
  ASSERT_EQ(retry_events.size(), 2u);
  EXPECT_EQ(retry_events[0].kind, obs::EventKind::kIoRetry);
  EXPECT_EQ(retry_events[0].message, "op");
  EXPECT_EQ(stats.retries.load(), 2u);
  EXPECT_EQ(stats.transient_errors.load(), 2u);
  EXPECT_EQ(stats.permanent_failures.load(), 0u);
  // Exponential backoff with up to 50% jitter: [100,150], then [200,300].
  ASSERT_EQ(clock.sleeps.size(), 2u);
  EXPECT_GE(clock.sleeps[0], 100u);
  EXPECT_LE(clock.sleeps[0], 150u);
  EXPECT_GE(clock.sleeps[1], 200u);
  EXPECT_LE(clock.sleeps[1], 300u);
}

TEST(RetryPolicyTest, PermanentErrorsAreNotRetried) {
  FakeClock clock;
  IoStats stats;
  int calls = 0;
  Status s = RetryTransient(RetryPolicy{}, &clock, &stats, nullptr, "op", [&] {
    calls++;
    return Status::IOError("disk on fire");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_FALSE(s.IsTransient());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps.empty());
  EXPECT_EQ(stats.permanent_failures.load(), 1u);
}

TEST(RetryPolicyTest, ExhaustionSurfacesAsPermanentFailure) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  FakeClock clock;
  IoStats stats;
  int calls = 0;
  Status s = RetryTransient(policy, &clock, &stats, nullptr, "flaky op", [&] {
    calls++;
    return Status::TransientIOError("still flaky");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_FALSE(s.IsTransient()) << "exhaustion must not itself be retried";
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps.size(), 2u);
  EXPECT_EQ(stats.transient_errors.load(), 3u);
  EXPECT_EQ(stats.retries.load(), 2u);
  EXPECT_EQ(stats.permanent_failures.load(), 1u);
}

// --- injector mechanics against a table space ---

TEST(FaultInjectorTest, ArmedFaultFiresExactlyOnce) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  PageId p = ts->AllocatePage().value();
  std::string buf(ts->page_size(), 'A');

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kTableSpaceWrite, 2, FaultKind::kError);
  EXPECT_TRUE(ts->WritePage(p, buf.data()).ok());
  Status s = ts->WritePage(p, buf.data());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(ts->WritePage(p, buf.data()).ok());  // one-shot
  EXPECT_TRUE(fi->fired());
  EXPECT_EQ(fi->op_count(FaultPoint::kTableSpaceWrite), 3u);
}

TEST(FaultInjectorTest, TornPageWriteLandsPrefixOnly) {
  FileGuard file(TempPath("torn_page"));
  auto ts = TableSpace::Create(file.path()).MoveValue();
  PageId p = ts->AllocatePage().value();
  std::string a(ts->page_size(), 'A');
  ASSERT_TRUE(ts->WritePage(p, a.data()).ok());

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kTableSpaceWrite, 1, FaultKind::kTornWrite, 10);
  std::string b(ts->page_size(), 'B');
  EXPECT_TRUE(ts->WritePage(p, b.data()).IsIOError());

  std::string back(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, back.data()).ok());
  EXPECT_EQ(back.substr(0, 10), std::string(10, 'B'));  // the torn prefix
  EXPECT_EQ(back.substr(10), a.substr(10));             // old bytes beyond it
}

TEST(FaultInjectorTest, SilentReadCorruptionFlipsOneBit) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  PageId p = ts->AllocatePage().value();
  std::string data(ts->page_size(), 'Q');
  ASSERT_TRUE(ts->WritePage(p, data.data()).ok());

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kTableSpaceRead, 1, FaultKind::kCorruptBit, 5);
  std::string back(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, back.data()).ok());  // corruption is silent
  EXPECT_NE(back, data);
  EXPECT_EQ(back[5], static_cast<char>('Q' ^ 0x01));
}

TEST(FaultInjectorTest, ShortReadSurfacesAsError) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  PageId p = ts->AllocatePage().value();
  std::string data(ts->page_size(), 'R');
  ASSERT_TRUE(ts->WritePage(p, data.data()).ok());

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kTableSpaceRead, 1, FaultKind::kShortRead, 16);
  std::string back(ts->page_size(), '\0');
  EXPECT_TRUE(ts->ReadPage(p, back.data()).IsIOError());
}

TEST(FaultInjectorTest, CrashModeFailsEverythingAfterTheFault) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  PageId p = ts->AllocatePage().value();
  std::string buf(ts->page_size(), 'C');

  ScopedFaultInjector fi;
  fi->set_crash_after_fire(true);
  fi->Arm(FaultPoint::kTableSpaceWrite, 2, FaultKind::kError);
  EXPECT_TRUE(ts->WritePage(p, buf.data()).ok());
  EXPECT_TRUE(ts->WritePage(p, buf.data()).IsIOError());  // the fault
  EXPECT_TRUE(ts->WritePage(p, buf.data()).IsIOError());  // dead process
  EXPECT_TRUE(ts->WritePage(p, buf.data()).IsIOError());
  fi->Reset();
  EXPECT_TRUE(ts->WritePage(p, buf.data()).ok());  // "reboot"
}

TEST(FaultInjectorTest, BufferWritebackFaultSurfacesThroughFlush) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(ts.get(), 8);
  {
    PageHandle h = bm.NewPage().MoveValue();
    std::memset(h.MutableData(), 'D', bm.page_size());
  }
  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kBufferWriteback, 1, FaultKind::kError);
  EXPECT_TRUE(bm.FlushAll().IsIOError());
  EXPECT_TRUE(bm.FlushAll().ok());  // one-shot: retry succeeds
}

TEST(FaultInjectorTest, TransientWriteFaultIsMaskedByRetry) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  FakeClock clock;
  ts->set_io_clock(&clock);
  PageId p = ts->AllocatePage().value();
  std::string buf(ts->page_size(), 'T');

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kTableSpaceWrite, 1, FaultKind::kTransientError);
  EXPECT_TRUE(ts->WritePage(p, buf.data()).ok());  // masked, not surfaced
  EXPECT_TRUE(fi->fired());
  EXPECT_EQ(ts->io_stats().retries, 1u);
  EXPECT_EQ(ts->io_stats().transient_errors, 1u);
  EXPECT_EQ(ts->io_stats().permanent_failures, 0u);
  EXPECT_EQ(clock.sleeps.size(), 1u);

  std::string back(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, back.data()).ok());
  EXPECT_EQ(back, buf);
}

TEST(FaultInjectorTest, TransientReadAndSyncFaultsAreMasked) {
  FileGuard file(TempPath("transient_rs"));
  auto ts = TableSpace::Create(file.path()).MoveValue();
  FakeClock clock;
  ts->set_io_clock(&clock);
  PageId p = ts->AllocatePage().value();
  std::string buf(ts->page_size(), 'S');
  ASSERT_TRUE(ts->WritePage(p, buf.data()).ok());

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kTableSpaceRead, 1, FaultKind::kTransientError);
  std::string back(ts->page_size(), '\0');
  EXPECT_TRUE(ts->ReadPage(p, back.data()).ok());
  EXPECT_EQ(back, buf);
  fi->Arm(FaultPoint::kTableSpaceSync, 1, FaultKind::kTransientError);
  EXPECT_TRUE(ts->Sync().ok());
  EXPECT_EQ(ts->io_stats().retries, 2u);
}

TEST(WalFaultTest, TransientAppendFaultIsMaskedByRetry) {
  FileGuard file(TempPath("wal_transient"));
  auto wal = WalLog::Open(file.path()).MoveValue();
  FakeClock clock;
  wal->set_io_clock(&clock);
  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kWalAppend, 1, FaultKind::kTransientError);
  ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "masked").ok());
  EXPECT_EQ(wal->io_stats().retries, 1u);
  std::vector<std::string> seen;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
                   seen.push_back(payload.ToString());
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "masked");
}

// --- WAL faults ---

TEST(WalFaultTest, SyncFailureSurfaces) {
  FileGuard file(TempPath("wal_sync"));
  auto wal = WalLog::Open(file.path()).MoveValue();
  ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "x").ok());
  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kWalSync, 1, FaultKind::kError);
  EXPECT_TRUE(wal->Sync().IsIOError());
  EXPECT_TRUE(wal->Sync().ok());
}

TEST(WalFaultTest, SilentlyCorruptedAppendIsDroppedAtReplay) {
  FileGuard file(TempPath("wal_corrupt"));
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "first").ok());
    ScopedFaultInjector fi;
    // Flip a bit inside the payload region of the second record.
    fi->Arm(FaultPoint::kWalAppend, 1, FaultKind::kCorruptBit, 12);
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "second").ok());
  }
  auto wal = WalLog::Open(file.path()).MoveValue();
  std::vector<std::string> seen;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
                   seen.push_back(payload.ToString());
                   return Status::OK();
                 })
                  .ok());
  // The CRC catches the corruption; replay stops cleanly before it.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
}

// Mid-log corruption (a CRC-failing record with intact records *after* it)
// is media damage, not a crash artifact: replay must skip it, keep going,
// and report it — silently truncating history there would drop the intact
// tail records.
TEST(WalFaultTest, MidLogCorruptionIsSkippedAndCounted) {
  FileGuard file(TempPath("wal_midlog"));
  uint64_t lsn2 = 0;
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "first").ok());
    lsn2 = wal->Append(WalRecordType::kInsertDocument, "second").value();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "third").ok());
  }
  // Flip a payload byte of the middle record ([len u32][type u8][crc u32]
  // header is 9 bytes).
  FlipByte(file.path(), lsn2 + 9 + 2, 0x40);
  auto wal = WalLog::Open(file.path()).MoveValue();
  std::vector<std::string> seen;
  WalReplayInfo info;
  ASSERT_TRUE(wal->Replay(
                     [&](uint64_t, WalRecordType, Slice payload) {
                       seen.push_back(payload.ToString());
                       return Status::OK();
                     },
                     &info)
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_EQ(seen[1], "third");
  EXPECT_EQ(info.records_replayed, 2u);
  EXPECT_EQ(info.corrupt_records_skipped, 1u);
  EXPECT_EQ(info.bytes_skipped, 9u + 6u);
  EXPECT_FALSE(info.torn_tail);
}

// A corrupt *last* record with nothing after it is indistinguishable from a
// torn final write — that stays the clean torn-tail case, not a warning.
TEST(WalFaultTest, CorruptLastRecordIsATornTailNotMidLogDamage) {
  FileGuard file(TempPath("wal_tail_crc"));
  uint64_t lsn2 = 0;
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "first").ok());
    lsn2 = wal->Append(WalRecordType::kInsertDocument, "second").value();
  }
  FlipByte(file.path(), lsn2 + 9 + 2, 0x40);
  auto wal = WalLog::Open(file.path()).MoveValue();
  std::vector<std::string> seen;
  WalReplayInfo info;
  ASSERT_TRUE(wal->Replay(
                     [&](uint64_t, WalRecordType, Slice payload) {
                       seen.push_back(payload.ToString());
                       return Status::OK();
                     },
                     &info)
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(info.corrupt_records_skipped, 0u);
  EXPECT_TRUE(info.torn_tail);
}

// The torn-tail sweep (table-driven): the final record of the log is torn at
// *every* byte offset via the injector, and recovery must yield exactly the
// committed records before it — never an error, never a partial record.
TEST(WalFaultTest, TornTailSweepRecoversCommittedPrefixAtEveryOffset) {
  const std::string payloads[] = {"alpha-record", "beta-record",
                                  "the-final-record-that-tears"};
  // Record layout is [len u32][type u8][crc u32][payload].
  const size_t final_size = 4 + 1 + 4 + payloads[2].size();
  for (size_t keep = 0; keep < final_size; keep++) {
    FileGuard file(TempPath("wal_torn_sweep"));
    {
      auto wal = WalLog::Open(file.path()).MoveValue();
      ASSERT_TRUE(
          wal->Append(WalRecordType::kInsertDocument, payloads[0]).ok());
      ASSERT_TRUE(
          wal->Append(WalRecordType::kInsertDocument, payloads[1]).ok());
      ScopedFaultInjector fi;
      fi->Arm(FaultPoint::kWalAppend, 1, FaultKind::kTornWrite,
              static_cast<uint32_t>(keep));
      EXPECT_TRUE(wal->Append(WalRecordType::kInsertDocument, payloads[2])
                      .status()
                      .IsIOError())
          << "keep=" << keep;
    }
    auto wal = WalLog::Open(file.path()).MoveValue();
    std::vector<std::string> seen;
    Status s = wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
      seen.push_back(payload.ToString());
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << "keep=" << keep << ": " << s.ToString();
    ASSERT_EQ(seen.size(), 2u) << "keep=" << keep;
    EXPECT_EQ(seen[0], payloads[0]);
    EXPECT_EQ(seen[1], payloads[1]);
  }
}

// Group-commit variant of the torn-tail sweep: the first two records are made
// durable through WalLog::Commit() — the group-commit path, one fdatasync
// covering both — and then the third record tears at every byte offset.
// Recovery must always yield exactly the synced prefix.
TEST(WalFaultTest, GroupCommitTornTailSweepRecoversSyncedPrefix) {
  const std::string payloads[] = {"alpha-record", "beta-record",
                                  "the-final-record-that-tears"};
  const size_t final_size = 4 + 1 + 4 + payloads[2].size();
  for (size_t keep = 0; keep < final_size; keep++) {
    FileGuard file(TempPath("wal_group_torn_sweep"));
    {
      auto wal = WalLog::Open(file.path()).MoveValue();
      ASSERT_TRUE(
          wal->Append(WalRecordType::kInsertDocument, payloads[0]).ok());
      ASSERT_TRUE(
          wal->Append(WalRecordType::kInsertDocument, payloads[1]).ok());
      ASSERT_TRUE(wal->Commit().ok());
      auto stats = wal->commit_stats();
      EXPECT_EQ(stats.commits, 1u) << "keep=" << keep;
      EXPECT_EQ(stats.syncs, 1u) << "keep=" << keep;
      ScopedFaultInjector fi;
      fi->Arm(FaultPoint::kWalAppend, 1, FaultKind::kTornWrite,
              static_cast<uint32_t>(keep));
      EXPECT_TRUE(wal->Append(WalRecordType::kInsertDocument, payloads[2])
                      .status()
                      .IsIOError())
          << "keep=" << keep;
    }
    auto wal = WalLog::Open(file.path()).MoveValue();
    std::vector<std::string> seen;
    Status s = wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
      seen.push_back(payload.ToString());
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << "keep=" << keep << ": " << s.ToString();
    ASSERT_EQ(seen.size(), 2u) << "keep=" << keep;
    EXPECT_EQ(seen[0], payloads[0]);
    EXPECT_EQ(seen[1], payloads[1]);
  }
}

// A failed fsync fails the Commit() that led the round without marking its
// CSN durable; the next Commit() becomes the retry leader, re-syncs, and the
// record is durable after all. Guards against a failed round poisoning
// synced_upto_ (which would make later commits no-op on unsynced data).
TEST(WalFaultTest, GroupCommitSyncFaultIsRetriedByNextCommit) {
  FileGuard file(TempPath("wal_group_sync_fault"));
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "solo").ok());
    {
      ScopedFaultInjector fi;
      fi->Arm(FaultPoint::kWalSync, 1, FaultKind::kError, 0);
      EXPECT_TRUE(wal->Commit().IsIOError());
    }
    EXPECT_TRUE(wal->Commit().ok());
    auto stats = wal->commit_stats();
    EXPECT_EQ(stats.commits, 2u);
    EXPECT_EQ(stats.syncs, 2u);
    // Coverage reached: a third commit piggybacks, no extra fsync.
    EXPECT_TRUE(wal->Commit().ok());
    EXPECT_EQ(wal->commit_stats().syncs, 2u);
  }
  auto wal = WalLog::Open(file.path()).MoveValue();
  std::vector<std::string> seen;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
                   seen.push_back(payload.ToString());
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "solo");
}

// Same sweep at the file level (plain truncation instead of a torn write):
// guards the boundary case where the tail is cut *between* records.
TEST(WalFaultTest, TruncationSweepAcrossRecordBoundary) {
  FileGuard file(TempPath("wal_truncate"));
  uint64_t lsn3 = 0, full = 0;
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "one").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kCommit, "two").ok());
    lsn3 = wal->Append(WalRecordType::kInsertDocument, "three").value();
    full = wal->size();
  }
  for (uint64_t cut = lsn3; cut <= full; cut++) {
    std::string copy = TempPath("wal_truncate_copy");
    std::filesystem::copy_file(file.path(), copy,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(copy, cut);
    auto wal = WalLog::Open(copy).MoveValue();
    std::vector<std::string> seen;
    ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
                     seen.push_back(payload.ToString());
                     return Status::OK();
                   })
                    .ok())
        << "cut=" << cut;
    if (cut == full) {
      ASSERT_EQ(seen.size(), 3u);
      EXPECT_EQ(seen[2], "three");
    } else {
      ASSERT_EQ(seen.size(), 2u) << "cut=" << cut;
      EXPECT_EQ(seen[0], "one");
      EXPECT_EQ(seen[1], "two");
    }
    std::remove(copy.c_str());
  }
}

// --- engine-level crash recovery: committed documents survive, documents
// whose insert failed vanish ---

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("xdb_fault_engine_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++)))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineOptions FileOptions() {
    EngineOptions opts;
    opts.dir = dir_;
    return opts;
  }

  /// The bit-flip sweep: for each of `pages` pages of `space` (a table
  /// space under dir_), restores dir_ from a pristine copy of its state at
  /// the call, flips one bit of that page and runs `check`. The offset
  /// within the page varies so headers, payload bytes, and slot directories
  /// all get hit across the sweep.
  void SweepPageBitFlips(const std::string& space, uint64_t pages,
                         const std::function<void()>& check) {
    const std::string pristine = dir_ + "_pristine";
    std::filesystem::remove_all(pristine);
    std::filesystem::copy(dir_, pristine,
                          std::filesystem::copy_options::recursive);
    for (uint64_t page = 0; page < pages && !HasFatalFailure(); page++) {
      SCOPED_TRACE("page=" + std::to_string(page));
      std::filesystem::remove_all(dir_);
      std::filesystem::copy(pristine, dir_,
                            std::filesystem::copy_options::recursive);
      uint64_t off =
          page * kDefaultPageSize + (page * 997 + 13) % kDefaultPageSize;
      FlipByte(space, off, 1u << (page % 8));
      check();
    }
    std::filesystem::remove_all(pristine);
  }

  std::string dir_;
  static int counter_;
};
int EngineFaultTest::counter_ = 0;

// Regression (found by this harness): names interned after the last
// checkpoint existed only in memory, so a crash left replayed documents
// pointing at unknown name ids — the doc id came back but its text read as
// "Corruption: unknown name id". kDefineName WAL records now rebuild the
// dictionary tail during replay.
TEST_F(EngineFaultTest, WalReplayRestoresNamesInternedAfterCheckpoint) {
  uint64_t doc = 0;
  const std::string xml = "<brand attr=\"v\">new<nested/></brand>";
  {
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    coll->InsertDocument(nullptr, "<old>1</old>").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    // "brand", "attr", "nested" are all new names with no checkpoint after.
    doc = coll->InsertDocument(nullptr, xml).value();
  }
  {
    Engine* engine = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = engine->GetCollection("docs").value();
    auto text = coll->GetDocumentText(nullptr, doc);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(text.value(), xml);
    // Crash again without a checkpoint: the second replay sees the same
    // kDefineName records plus one for the name added below — both the
    // idempotent-redo and the append-after-replay paths must hold.
    coll->InsertDocument(nullptr, "<later>2</later>").value();
  }
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), xml);
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc + 1).value(), "<later>2</later>");
}

TEST_F(EngineFaultTest, CommittedSurviveUncommittedVanishAcrossFaultSweep) {
  // Fault the Nth post-checkpoint WAL append for several N; each insert
  // appends one redo record, so fault_op = n kills insert n and (in crash
  // mode) everything after it.
  for (uint64_t fault_op : {1u, 2u, 3u, 5u}) {
    SetUp();  // fresh dir per sweep point
    std::vector<std::pair<uint64_t, std::string>> committed;
    uint64_t precheckpoint_doc = 0;
    {
      // Crash idiom (see PersistenceTest): leak the engine so destructors
      // never flush; only WAL + checkpointed pages survive.
      Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
      Collection* coll = crashed->CreateCollection("docs").value();
      // Uses the same element/attribute names as the post-checkpoint inserts
      // so those append exactly one WAL record each (no kDefineName records
      // for freshly interned names would shift the fault's op count).
      precheckpoint_doc =
          coll->InsertDocument(nullptr, "<doc n=\"base\">safe</doc>").value();
      ASSERT_TRUE(crashed->Checkpoint().ok());

      ScopedFaultInjector fi;
      fi->set_crash_after_fire(true);
      fi->Arm(FaultPoint::kWalAppend, fault_op, FaultKind::kTornWrite, 6);
      Random rng(fault_op);
      for (int i = 0; i < 6; i++) {
        std::string xml = "<doc n=\"" + std::to_string(i) + "\">" +
                          std::to_string(rng.Uniform(100000)) + "</doc>";
        auto r = coll->InsertDocument(nullptr, xml);
        if (r.ok()) committed.emplace_back(r.value(), xml);
      }
      EXPECT_EQ(committed.size(), fault_op - 1);
    }
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    // The pre-crash committed state, exactly.
    EXPECT_EQ(coll->GetDocumentText(nullptr, precheckpoint_doc).value(),
              "<doc n=\"base\">safe</doc>");
    for (const auto& [doc_id, xml] : committed) {
      EXPECT_EQ(coll->GetDocumentText(nullptr, doc_id).value(), xml)
          << "fault_op=" << fault_op;
    }
    auto ids = coll->ListDocIds().value();
    EXPECT_EQ(ids.size(), 1 + committed.size()) << "fault_op=" << fault_op;
    // And the store is fully usable after recovery.
    uint64_t fresh =
        coll->InsertDocument(nullptr, "<post>recovery</post>").value();
    EXPECT_EQ(coll->GetDocumentText(nullptr, fresh).value(),
              "<post>recovery</post>");
    engine.reset();
    TearDown();
  }
}

// The committed-survive sweep again with sync_commits=true: every committed
// insert goes through the WAL group-commit path (append + fdatasync) before
// it returns. Crash recovery must behave exactly as in checkpoint-durability
// mode, and the commit stats must show the group-commit path engaged.
TEST_F(EngineFaultTest, SyncCommitsCommittedSurviveAcrossFaultSweep) {
  for (uint64_t fault_op : {1u, 3u, 5u}) {
    SetUp();  // fresh dir per sweep point
    EngineOptions opts = FileOptions();
    opts.sync_commits = true;
    std::vector<std::pair<uint64_t, std::string>> committed;
    uint64_t precheckpoint_doc = 0;
    {
      Engine* crashed =
          IntentionallyLeaked(Engine::Open(opts).MoveValue().release());
      Collection* coll = crashed->CreateCollection("docs").value();
      precheckpoint_doc =
          coll->InsertDocument(nullptr, "<doc n=\"base\">safe</doc>").value();
      ASSERT_TRUE(crashed->Checkpoint().ok());

      ScopedFaultInjector fi;
      fi->set_crash_after_fire(true);
      fi->Arm(FaultPoint::kWalAppend, fault_op, FaultKind::kTornWrite, 6);
      Random rng(fault_op);
      for (int i = 0; i < 6; i++) {
        std::string xml = "<doc n=\"" + std::to_string(i) + "\">" +
                          std::to_string(rng.Uniform(100000)) + "</doc>";
        auto r = coll->InsertDocument(nullptr, xml);
        if (r.ok()) committed.emplace_back(r.value(), xml);
      }
      EXPECT_EQ(committed.size(), fault_op - 1);
      // Each successful insert ran one Commit(); a commit never takes more
      // than one fsync here, and commits before the fault all synced.
      auto stats = crashed->wal()->commit_stats();
      EXPECT_GE(stats.commits, committed.size()) << "fault_op=" << fault_op;
      EXPECT_LE(stats.syncs, stats.commits) << "fault_op=" << fault_op;
      EXPECT_GT(stats.syncs, 0u) << "fault_op=" << fault_op;
    }
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    EXPECT_EQ(coll->GetDocumentText(nullptr, precheckpoint_doc).value(),
              "<doc n=\"base\">safe</doc>");
    for (const auto& [doc_id, xml] : committed) {
      EXPECT_EQ(coll->GetDocumentText(nullptr, doc_id).value(), xml)
          << "fault_op=" << fault_op;
    }
    auto ids = coll->ListDocIds().value();
    EXPECT_EQ(ids.size(), 1 + committed.size()) << "fault_op=" << fault_op;
    uint64_t fresh =
        coll->InsertDocument(nullptr, "<post>recovery</post>").value();
    EXPECT_EQ(coll->GetDocumentText(nullptr, fresh).value(),
              "<post>recovery</post>");
    engine.reset();
    TearDown();
  }
}

TEST_F(EngineFaultTest, CheckpointSyncFaultLeavesStoreRecoverable) {
  uint64_t doc_a = 0, doc_b = 0;
  {
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    doc_a = coll->InsertDocument(nullptr, "<a>checkpointed</a>").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    doc_b = coll->InsertDocument(nullptr, "<b>walled</b>").value();
    ScopedFaultInjector fi;
    fi->Arm(FaultPoint::kTableSpaceSync, 1, FaultKind::kError);
    // The failed checkpoint must not reset the WAL: doc_b's redo record is
    // still the only durable trace of it.
    EXPECT_FALSE(crashed->Checkpoint().ok());
  }
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc_a).value(),
            "<a>checkpointed</a>");
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc_b).value(), "<b>walled</b>");
}

// --- planner statistics durability (the catalog's statistics section) ---

/// True when some recent event records statistics re-derived at open.
bool SawStatsDerived(Engine* engine) {
  for (const obs::Event& e : engine->RecentEvents())
    if (e.kind == obs::EventKind::kStatsDerived) return true;
  return false;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

/// Runs `query` planned (EXPLAIN on) and as a forced scan; the two must
/// return the same nodes and the plan must have been priced.
void ExpectPlannedMatchesScan(Collection* coll, const std::string& query) {
  QueryOptions planned;
  planned.explain = true;
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto a = coll->Query(nullptr, query, planned);
  auto b = coll->Query(nullptr, query, scan);
  ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
  EXPECT_NE(a.value().PlanText().find("(cost-based)"), std::string::npos)
      << a.value().PlanText();
  ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size()) << query;
  for (size_t i = 0; i < a.value().nodes.size(); i++) {
    EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id) << query;
    EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id)
        << query;
  }
}

/// Runs `query` as a forced scan, then forced through the DocID and NodeID
/// lists and planned: every answer must equal the scan's, which must not be
/// empty.
void ExpectEveryPlanMatchesScan(Collection* coll, const std::string& query) {
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  const NodeSequence want = coll->Query(nullptr, query, scan).value().nodes;
  EXPECT_FALSE(want.empty()) << query;
  for (ForceMethod force :
       {ForceMethod::kDocIdList, ForceMethod::kNodeIdList}) {
    QueryOptions forced;
    forced.force = force;
    auto got = coll->Query(nullptr, query, forced);
    ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
    ASSERT_EQ(got.value().nodes.size(), want.size()) << query;
    for (size_t i = 0; i < want.size(); i++) {
      EXPECT_EQ(got.value().nodes[i].doc_id, want[i].doc_id) << query;
      EXPECT_EQ(got.value().nodes[i].node_id, want[i].node_id) << query;
    }
  }
  ExpectPlannedMatchesScan(coll, query);
}

/// The statistics every re-derivation must reproduce: doc count, each value
/// index's entry count, each structural index's per-name counts and spans.
/// With `insert_only`, also the node count and every KMV sketch, which
/// deletes let drift.
void ExpectDerivedStats(const query::CollectionStatsSnapshot& got,
                        const query::CollectionStatsSnapshot& want,
                        bool insert_only) {
  EXPECT_EQ(got.doc_count, want.doc_count);
  if (insert_only) {
    EXPECT_EQ(got.node_count, want.node_count);
  }
  ASSERT_EQ(got.indexes.size(), want.indexes.size());
  for (const auto& [name, w] : want.indexes) {
    SCOPED_TRACE("value index " + name);
    ASSERT_EQ(got.indexes.count(name), 1u);
    const query::IndexStatsSnapshot& g = got.indexes.at(name);
    EXPECT_EQ(g.entry_count, w.entry_count);
    if (insert_only) {
      EXPECT_EQ(g.distinct_keys, w.distinct_keys);
      EXPECT_EQ(g.sample_keys, w.sample_keys);
    }
  }
  ASSERT_EQ(got.structural.size(), want.structural.size());
  for (const auto& [name, w] : want.structural) {
    SCOPED_TRACE("structural index " + name);
    ASSERT_EQ(got.structural.count(name), 1u);
    const query::StructuralStatsSnapshot& g = got.structural.at(name);
    EXPECT_EQ(g.entry_count, w.entry_count);
    EXPECT_EQ(g.other_count, w.other_count);
    ASSERT_EQ(g.names.size(), w.names.size());
    for (const auto& [elem, ns] : w.names) {
      ASSERT_EQ(g.names.count(elem), 1u) << elem;
      EXPECT_EQ(g.names.at(elem).count, ns.count) << elem;
      EXPECT_EQ(g.names.at(elem).span_sum, ns.span_sum) << elem;
    }
  }
}

// Stats written at checkpoint plus WAL replay of post-checkpoint writes
// must reproduce the exact pre-crash statistics: the reopened engine keeps
// planning cost-based, with the document counts including the replayed
// inserts (replay re-runs the same incremental maintenance the original
// inserts did).
TEST_F(EngineFaultTest, StatsSurviveCheckpointAndCrashReplay) {
  uint64_t pre_crash_epoch = 0;
  {
    Engine* crashed =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(coll->CreateValueIndex({"k", "/doc/k", ValueType::kString, 64})
                    .ok());
    for (int i = 0; i < 6; i++) {
      ASSERT_TRUE(coll->InsertDocument(nullptr, "<doc><k>a" +
                                                    std::to_string(i) +
                                                    "</k></doc>")
                      .ok());
    }
    ASSERT_TRUE(crashed->Checkpoint().ok());
    // Two more documents live only in the WAL.
    for (int i = 6; i < 8; i++) {
      ASSERT_TRUE(coll->InsertDocument(nullptr, "<doc><k>a" +
                                                    std::to_string(i) +
                                                    "</k></doc>")
                      .ok());
    }
    pre_crash_epoch = coll->stats()->epoch();
  }
  Engine* engine =
      IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
  Collection* coll = engine->GetCollection("docs").value();
  query::CollectionStatsSnapshot snap = coll->stats()->Snapshot();
  EXPECT_EQ(snap.doc_count, 8u);
  EXPECT_EQ(snap.epoch, pre_crash_epoch);
  ASSERT_EQ(snap.indexes.count("k"), 1u);
  EXPECT_EQ(snap.indexes.at("k").entry_count, 8u);
  // And the planner actually uses them: EXPLAIN says cost-based.
  QueryOptions o;
  o.explain = true;
  auto res = coll->Query(nullptr, "/doc[k = \"a3\"]", o);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().nodes.size(), 1u);
  EXPECT_NE(res.value().PlanText().find("(cost-based)"),
            std::string::npos)
      << res.value().PlanText();
}

// Structural-index DDL through the full durability matrix: a create that
// made the checkpoint (catalog V4 entry + checkpointed B+tree pages), a
// create and an insert that live only in the WAL (kCreateStructuralIndex
// redo + backfill replay), then a WAL-only drop across a second crash.
TEST_F(EngineFaultTest, StructuralIndexDdlSurvivesCrashReplay) {
  {
    Engine* crashed =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(coll->CreateStructuralIndex({"pre_ckpt", ""}).ok());
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a><b><c>1</c></b></a>").ok());
    ASSERT_TRUE(crashed->Checkpoint().ok());
    // WAL-only tail: a per-name index (backfilled over the checkpointed
    // document) and a second document that both indexes must cover.
    ASSERT_TRUE(coll->CreateStructuralIndex({"post_ckpt", "b"}).ok());
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>2</b></a>").ok());
  }
  {
    Engine* engine =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = engine->GetCollection("docs").value();
    StructuralIndex* pre = coll->FindStructuralIndex("pre_ckpt");
    StructuralIndex* post = coll->FindStructuralIndex("post_ckpt");
    ASSERT_NE(pre, nullptr);
    ASSERT_NE(post, nullptr);
    // pre_ckpt covers all names: 3 elements in doc 1, 2 in doc 2. post_ckpt
    // covers only <b>: one per document (the first via backfill replay).
    EXPECT_EQ(pre->CountEntries().value(), 5u);
    EXPECT_EQ(post->CountEntries().value(), 2u);
    QueryOptions structural;
    structural.force = ForceMethod::kStructural;
    QueryOptions scan;
    scan.force = ForceMethod::kScan;
    for (const char* q : {"//b", "//a//c", "//c"}) {
      auto a = coll->Query(nullptr, q, structural);
      auto b = coll->Query(nullptr, q, scan);
      ASSERT_TRUE(a.ok() && b.ok()) << q;
      ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size()) << q;
      for (size_t i = 0; i < a.value().nodes.size(); i++) {
        EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id) << q;
        EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id)
            << q;
      }
    }
    // Drop the all-names index and crash without a checkpoint: only the
    // kDropStructuralIndex WAL record carries the intent.
    ASSERT_TRUE(coll->DropStructuralIndex("pre_ckpt").ok());
  }
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->FindStructuralIndex("pre_ckpt"), nullptr);
  StructuralIndex* post = coll->FindStructuralIndex("post_ckpt");
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->CountEntries().value(), 2u);
  QueryOptions structural;
  structural.force = ForceMethod::kStructural;
  auto res = coll->Query(nullptr, "//b", structural);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().nodes.size(), 2u);
}

// A fresh collection checkpointed before any write carries stats epoch 0,
// a valid empty state.
TEST_F(EngineFaultTest, FreshCollectionEpochZeroStaysValidAcrossReopen) {
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    engine->CreateCollection("docs").value();
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<doc><k>x</k></doc>").ok());
  EXPECT_EQ(coll->Query(nullptr, "/doc/k").value().nodes.size(), 1u);
}

// Every byte of a checkpointed catalog, one bit flipped at a time. The body
// (magic, CRC, length, roots, indexes, dictionary) is covered by its CRC: a
// flip there fails Open with Corruption and leaves the file as it was, so a
// second Open fails too. A flip in the statistics section loses only the
// statistics: the collection re-derives them from its stored data and
// plans on them exactly as before.
TEST_F(EngineFaultTest, CatalogByteFlipsAreDetected) {
  query::CollectionStatsSnapshot want;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    for (int i = 0; i < 12; i++) {
      std::string xml = "<doc><k>v" + std::to_string(i % 5) + "</k>";
      if (i % 4 == 0) xml += "<note>n" + std::to_string(i) + "</note>";
      ASSERT_TRUE(coll->InsertDocument(nullptr, xml + "</doc>").ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    want = coll->stats()->Snapshot();
  }
  const std::string catalog = dir_ + "/catalog.xdb";
  const std::string pristine_bytes = ReadFileBytes(catalog);
  ASSERT_GT(pristine_bytes.size(), 12u);
  const uint64_t body_end = 12 + DecodeFixed32(pristine_bytes.data() + 8);
  ASSERT_LT(body_end, pristine_bytes.size());
  const std::string pristine = dir_ + "_pristine";
  std::filesystem::remove_all(pristine);
  std::filesystem::copy(dir_, pristine,
                        std::filesystem::copy_options::recursive);
  for (uint64_t off = 0; off < pristine_bytes.size() && !HasFatalFailure();
       off++) {
    SCOPED_TRACE("byte=" + std::to_string(off));
    std::filesystem::remove_all(dir_);
    std::filesystem::copy(pristine, dir_,
                          std::filesystem::copy_options::recursive);
    FlipByte(catalog, off, static_cast<uint8_t>(1u << (off % 8)));
    const std::string flipped = ReadFileBytes(catalog);
    auto opened = Engine::Open(FileOptions());
    if (off < body_end) {
      ASSERT_FALSE(opened.ok());
      EXPECT_TRUE(opened.status().IsCorruption())
          << opened.status().ToString();
      EXPECT_EQ(ReadFileBytes(catalog), flipped);
      EXPECT_TRUE(Engine::Open(FileOptions()).status().IsCorruption());
      continue;
    }
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto engine = opened.MoveValue();
    EXPECT_TRUE(SawStatsDerived(engine.get()));
    Collection* coll = engine->GetCollection("docs").value();
    ExpectDerivedStats(coll->stats()->Snapshot(), want, /*insert_only=*/true);
    ExpectPlannedMatchesScan(coll, "/doc[k = \"v2\"]");
    ExpectPlannedMatchesScan(coll, "//note");
  }
  std::filesystem::remove_all(pristine);
}

// A blob that passes the section's CRC but fails Restore part way (a
// truncated one here) is re-derived like a lost one: the derivation resets
// whatever the failed Restore applied.
TEST_F(EngineFaultTest, StatsBlobFailingRestoreIsReDerived) {
  query::CollectionStatsSnapshot want;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    for (int i = 0; i < 9; i++) {
      ASSERT_TRUE(coll->InsertDocument(nullptr, "<doc><k>v" +
                                                    std::to_string(i % 3) +
                                                    "</k></doc>")
                      .ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    want = coll->stats()->Snapshot();
  }
  const std::string catalog = dir_ + "/catalog.xdb";
  CatalogData cat = LoadCatalog(catalog).MoveValue();
  std::string& blob = cat.stats.at("docs");
  blob.resize(blob.size() - 3);
  ASSERT_TRUE(SaveCatalog(cat, catalog).ok());
  auto engine = Engine::Open(FileOptions()).MoveValue();
  EXPECT_TRUE(SawStatsDerived(engine.get()));
  Collection* coll = engine->GetCollection("docs").value();
  ExpectDerivedStats(coll->stats()->Snapshot(), want, /*insert_only=*/true);
  ExpectPlannedMatchesScan(coll, "/doc[k = \"v1\"]");
}

// A catalog from before the statistics section (V5, the last format whose
// statistics lived in stats.xdb) opens by re-deriving every collection's
// statistics from its stored data; a leftover stats.xdb, here one holding
// wrong numbers, is ignored. After an insert-only history the derivation
// reproduces everything the engine maintained: counts and every sketch.
TEST_F(EngineFaultTest, V5CatalogReDerivesInsertOnlyStats) {
  for (const bool stats_file : {false, true}) {
    SCOPED_TRACE(stats_file ? "with stats.xdb" : "without stats.xdb");
    SetUp();  // fresh dir per mode
    query::CollectionStatsSnapshot want;
    {
      auto engine = Engine::Open(FileOptions()).MoveValue();
      Collection* coll = engine->CreateCollection("docs").value();
      ASSERT_TRUE(
          coll->CreateValueIndex({"k", "/doc/k", ValueType::kString, 64})
              .ok());
      ASSERT_TRUE(
          coll->CreateValueIndex({"n", "//n", ValueType::kDouble, 64}).ok());
      ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
      // More distinct keys than the sketch holds, so it saturates.
      for (int i = 0; i < 90; i++) {
        ASSERT_TRUE(coll->InsertDocument(
                            nullptr, "<doc a=\"" + std::to_string(i) +
                                         "\"><k>key" + std::to_string(i) +
                                         "</k><p><n>" + std::to_string(i % 7) +
                                         "</n></p></doc>")
                        .ok());
      }
      ASSERT_TRUE(engine->Checkpoint().ok());
      want = coll->stats()->Snapshot();
    }
    ASSERT_TRUE(
        RewriteAsLegacyCatalog(dir_ + "/catalog.xdb", kCatalogMagicV5));
    if (stats_file) {
      query::CollectionStats empty;
      std::string blob;
      empty.Serialize(&blob);
      ASSERT_TRUE(WriteLegacyStatsFile(dir_ + "/stats.xdb", {{"docs", blob}}));
    }
    {
      auto engine = Engine::Open(FileOptions()).MoveValue();
      EXPECT_TRUE(SawStatsDerived(engine.get()));
      Collection* coll = engine->GetCollection("docs").value();
      ExpectDerivedStats(coll->stats()->Snapshot(), want,
                         /*insert_only=*/true);
      ExpectPlannedMatchesScan(coll, "/doc[k = \"key7\"]");
      ExpectPlannedMatchesScan(coll, "/doc/p[n > 4]");
    }
    TearDown();
  }
}

// The same upgrade after deletes, subtree edits and text updates: the
// counts that maintenance keeps exact (documents, index entries, structural
// per-name counts and spans) come back equal.
TEST_F(EngineFaultTest, V5CatalogReDerivesStatsAfterEdits) {
  query::CollectionStatsSnapshot want;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "//k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    std::vector<uint64_t> docs;
    for (int i = 0; i < 20; i++) {
      docs.push_back(coll->InsertDocument(
                             nullptr, "<doc><s><k>a" + std::to_string(i) +
                                          "</k><k>b</k></s><t>x</t></doc>")
                         .value());
    }
    for (int i = 0; i < 20; i += 3)
      ASSERT_TRUE(coll->DeleteDocument(nullptr, docs[i]).ok());
    QueryOptions scan;
    scan.force = ForceMethod::kScan;
    for (int i = 1; i < 20; i += 3) {
      auto s = coll->Query(nullptr, "/doc/s", scan).value().nodes;
      ASSERT_FALSE(s.empty());
      const ResultNode& target = s[static_cast<size_t>(i) % s.size()];
      ASSERT_TRUE(coll->InsertSubtree(nullptr, target.doc_id, target.node_id,
                                      "", "<u><k>c</k><k>d</k></u>")
                      .ok());
      auto t = coll->Query(nullptr, "/doc/t", scan).value().nodes;
      ASSERT_TRUE(
          coll->DeleteSubtree(nullptr, t[0].doc_id, t[0].node_id).ok());
      auto k = coll->Query(nullptr, "//k/text()", scan).value().nodes;
      ASSERT_TRUE(coll->UpdateTextNode(nullptr, k[0].doc_id, k[0].node_id,
                                       "z" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    want = coll->stats()->Snapshot();
  }
  ASSERT_TRUE(RewriteAsLegacyCatalog(dir_ + "/catalog.xdb", kCatalogMagicV5));
  auto engine = Engine::Open(FileOptions()).MoveValue();
  EXPECT_TRUE(SawStatsDerived(engine.get()));
  Collection* coll = engine->GetCollection("docs").value();
  ExpectDerivedStats(coll->stats()->Snapshot(), want, /*insert_only=*/false);
  ExpectPlannedMatchesScan(coll, "/doc/s[k = \"b\"]");
  ExpectPlannedMatchesScan(coll, "//u");
}

// A V6 catalog's value indexes hold (DocID, RID, NodeID) postings. Reopened
// under this engine, each value index opens at a new, empty root and the
// statistics re-derivation refills it: the refilled index equals a fresh
// backfill, the structural index keeps its root, and every plan answers as
// a forced scan does.
TEST_F(EngineFaultTest, V6CatalogRebuildsValueIndexes) {
  query::CollectionStatsSnapshot want;
  LegacyDocIdRoots roots;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    CollectionOptions copts;
    copts.record_budget = 96;  // documents span records, with proxies
    Collection* coll = engine->CreateCollection("docs", copts).value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/s/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(
        coll->CreateValueIndex({"n", "//n", ValueType::kDouble, 64}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    for (int i = 0; i < 30; i++) {
      ASSERT_TRUE(coll->InsertDocument(
                          nullptr, "<doc><s><k>k" + std::to_string(i % 6) +
                                       "</k><p><n>" + std::to_string(i % 9) +
                                       "</n></p></s><t>filler text " +
                                       std::to_string(i) + "</t></doc>")
                      .ok());
    }
    QueryOptions scan;
    scan.force = ForceMethod::kScan;
    auto s = coll->Query(nullptr, "/doc/s", scan).value().nodes;
    ASSERT_TRUE(coll->InsertSubtree(nullptr, s[3].doc_id, s[3].node_id, "",
                                    "<k>k1</k>")
                    .ok());
    auto n = coll->Query(nullptr, "//n/text()", scan).value().nodes;
    ASSERT_TRUE(coll->UpdateTextNode(nullptr, n[5].doc_id, n[5].node_id, "7")
                    .ok());
    roots["docs"] = WriteLegacyDocIdTree(coll, coll->ListDocIds().value());
    ASSERT_NE(roots["docs"], kInvalidPageId);
    ASSERT_TRUE(engine->Checkpoint().ok());
    want = coll->stats()->Snapshot();
  }
  const std::string catalog = dir_ + "/catalog.xdb";
  const CollectionMeta before =
      LoadCatalog(catalog).value().collections["docs"];
  ASSERT_TRUE(RewriteAsV6Catalog(catalog, roots));
  auto engine = Engine::Open(FileOptions()).MoveValue();
  EXPECT_TRUE(SawStatsDerived(engine.get()));
  Collection* coll = engine->GetCollection("docs").value();
  const CollectionMeta after = coll->meta();
  ASSERT_EQ(after.value_indexes.size(), 2u);
  for (size_t i = 0; i < 2; i++)
    EXPECT_NE(after.value_indexes[i].root, before.value_indexes[i].root) << i;
  EXPECT_EQ(after.structural_indexes[0].root,
            before.structural_indexes[0].root);
  ExpectDerivedStats(coll->stats()->Snapshot(), want, /*insert_only=*/false);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
  for (const std::string q :
       {"/doc/s[k = \"k1\"]", "/doc/s[p/n > 4]", "//p[n = 7]", "/doc[s/k]/t"})
    ExpectEveryPlanMatchesScan(coll, q);
}

// A V7 catalog names a DocID tree per collection, which this engine does
// not keep: the NodeID index lists the documents. The root is read past
// (the tree's pages stay unreferenced), and everything else opens as it
// was: the same documents and texts, the statistics restored rather than
// re-derived, and every plan answering as a forced scan.
TEST_F(EngineFaultTest, V7CatalogOpensUnchanged) {
  std::map<uint64_t, std::string> texts;
  query::CollectionStatsSnapshot want;
  LegacyDocIdRoots roots;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    CollectionOptions copts;
    copts.record_budget = 96;  // documents span records, with proxies
    Collection* coll = engine->CreateCollection("docs", copts).value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/s/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    for (int i = 0; i < 24; i++) {
      const std::string xml = "<doc><s><k>k" + std::to_string(i % 5) +
                              "</k></s><t>filler text " + std::to_string(i) +
                              "</t></doc>";
      texts[coll->InsertDocument(nullptr, xml).value()] = xml;
    }
    for (auto it = texts.begin(); it != texts.end();) {
      if (it->first % 4 != 0) {
        ++it;
        continue;
      }
      ASSERT_TRUE(coll->DeleteDocument(nullptr, it->first).ok());
      it = texts.erase(it);
    }
    roots["docs"] = WriteLegacyDocIdTree(coll, coll->ListDocIds().value());
    ASSERT_NE(roots["docs"], kInvalidPageId);
    ASSERT_TRUE(engine->Checkpoint().ok());
    want = coll->stats()->Snapshot();
  }
  const std::string catalog = dir_ + "/catalog.xdb";
  ASSERT_TRUE(RewriteAsV7Catalog(catalog, roots));
  ASSERT_EQ(DecodeFixed32(ReadFileBytes(catalog).data()), kCatalogMagicV7);
  auto engine = Engine::Open(FileOptions()).MoveValue();
  EXPECT_FALSE(SawStatsDerived(engine.get()));
  Collection* coll = engine->GetCollection("docs").value();
  ExpectDerivedStats(coll->stats()->Snapshot(), want, /*insert_only=*/true);
  std::vector<uint64_t> ids;
  for (const auto& [id, xml] : texts) {
    ids.push_back(id);
    EXPECT_EQ(coll->GetDocumentText(nullptr, id).value(), xml);
  }
  EXPECT_EQ(coll->ListDocIds().value(), ids);
  for (const std::string q : {"/doc/s[k = \"k1\"]", "/doc[s/k = \"k3\"]/t"})
    ExpectEveryPlanMatchesScan(coll, q);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
}

// An older engine's insert whose build failed part way never reached the
// DocID tree, but kept the records and NodeID entries it had stored.
// Opening its V7 catalog drops them once, so the failed document is never
// listed, and re-derives the statistics, which described the other list.
TEST_F(EngineFaultTest, V7CatalogDropsDocumentsItsDocIdTreeDoesNotList) {
  std::map<uint64_t, std::string> texts;
  uint64_t live_records = 0;
  uint64_t orphan = 0;
  LegacyDocIdRoots roots;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    CollectionOptions copts;
    copts.record_budget = 96;  // documents span records, with proxies
    Collection* coll = engine->CreateCollection("docs", copts).value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/s/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    std::vector<uint64_t> ids;
    for (int i = 0; i < 5; i++) {
      const std::string xml = "<doc><s><k>k" + std::to_string(i % 3) +
                              "</k></s><t>" + std::string(150, 'x') +
                              "</t><u>" + std::to_string(i) + "</u></doc>";
      ids.push_back(coll->InsertDocument(nullptr, xml).value());
      texts[ids.back()] = xml;
    }
    live_records = coll->records()->stats().live_records;
    roots["docs"] = WriteLegacyDocIdTree(coll, ids);
    ASSERT_NE(roots["docs"], kInvalidPageId);
    // The failed build's leftovers: the first half of a document's records
    // stored again under the next DocID, with their NodeID entries.
    orphan = ids.back() + 1;
    NodeIdEntries entries;
    ASSERT_TRUE(
        coll->node_index()->ListDocEntries(ids[0], Slice(), &entries).ok());
    std::vector<Rid> rids;
    for (const auto& [upper, rid] : entries)
      if (std::find(rids.begin(), rids.end(), rid) == rids.end())
        rids.push_back(rid);
    ASSERT_GE(rids.size(), 2u);
    for (size_t i = 0; i < (rids.size() + 1) / 2; i++) {
      std::string bytes;
      ASSERT_TRUE(coll->records()->Get(rids[i], &bytes).ok());
      const Rid rid = coll->records()->Insert(bytes).value();
      ASSERT_TRUE(coll->node_index()->AddRecord(orphan, bytes, rid).ok());
    }
    ASSERT_EQ(coll->ListDocIds().value().size(), ids.size() + 1);
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  const std::string catalog = dir_ + "/catalog.xdb";
  ASSERT_TRUE(RewriteAsV7Catalog(catalog, roots));
  auto engine = Engine::Open(FileOptions()).MoveValue();
  EXPECT_TRUE(SawStatsDerived(engine.get()));
  Collection* coll = engine->GetCollection("docs").value();
  ASSERT_FALSE(coll->needs_repair());
  std::vector<uint64_t> ids;
  for (const auto& [id, xml] : texts) {
    ids.push_back(id);
    EXPECT_EQ(coll->GetDocumentText(nullptr, id).value(), xml);
  }
  EXPECT_EQ(coll->ListDocIds().value(), ids);
  EXPECT_EQ(coll->DocCount().value(), ids.size());
  EXPECT_EQ(coll->stats()->Snapshot().doc_count, ids.size());
  EXPECT_TRUE(
      coll->node_index()->Lookup(orphan, Slice()).status().IsNotFound());
  EXPECT_EQ(coll->records()->stats().live_records, live_records);
  for (const std::string q : {"/doc/s[k = \"k1\"]", "/doc[s/k = \"k2\"]/u"})
    ExpectEveryPlanMatchesScan(coll, q);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
}

// Planning reads the document count from the statistics snapshot, so
// EXPLAIN's docs= must equal the stored documents after every path that
// changes them: inserts, deletes, crash replay and a scrub rebuild.
TEST_F(EngineFaultTest, ExplainDocCountMatchesStoredDocuments) {
  auto expect_docs = [](Collection* coll) {
    QueryOptions o;
    o.explain = true;
    auto res = coll->Query(nullptr, "/doc[k = \"v1\"]", o);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const uint64_t stored = coll->DocCount().value();
    EXPECT_NE(res.value().PlanText().find(" docs=" + std::to_string(stored) +
                                          " "),
              std::string::npos)
        << "stored=" << stored << "\n"
        << res.value().PlanText();
  };
  {
    Engine* crashed =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(crashed->Checkpoint().ok());
    std::vector<uint64_t> docs;
    for (int i = 0; i < 30; i++) {
      docs.push_back(
          coll->InsertDocument(nullptr, "<doc><k>v" + std::to_string(i % 4) +
                                            "</k></doc>")
              .value());
    }
    expect_docs(coll);
    for (int i = 0; i < 30; i += 4)
      ASSERT_TRUE(coll->DeleteDocument(nullptr, docs[i]).ok());
    expect_docs(coll);
  }
  {
    Engine* crashed =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->GetCollection("docs").value();
    expect_docs(coll);
    EXPECT_EQ(coll->DocCount().value(), 22u);
    ASSERT_TRUE(coll->buffer_manager()->FlushAll().ok());
  }
  for (uint64_t p = 1; p <= 2; p++)
    FlipByte(dir_ + "/docs.xts", p * kDefaultPageSize + 100 + p, 0x20);
  auto engine = Engine::Open(FileOptions()).MoveValue();
  auto rep = engine->Scrub();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_EQ(rep.value().collections.size(), 1u);
  EXPECT_TRUE(rep.value().collections[0].rebuilt);
  expect_docs(engine->GetCollection("docs").value());
}

// The catalog's field decoders, reached past its CRCs: a real catalog (two
// collections, one MVCC, with value and structural indexes, a schema, the
// dictionary and statistics) is mutated by bit flips, byte sets and
// truncations of its body or its statistics section, then re-sealed with
// a valid CRC and length. Every mutant must decode to a Status, and those
// that open an engine must list and query every collection they name to a
// Status or an answer: no crash, hang or unbounded allocation. Seeded from
// gtest's random seed, so --gtest_shuffle --gtest_repeat walks new mutants.
TEST(CatalogFuzzTest, ResealedMutantsEndInStatus) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  SCOPED_TRACE("gtest random seed " + std::to_string(seed));
  Random rng(seed);
  const std::string dir = TempPath("catalog_fuzz");
  const std::string pristine = dir + "_pristine";
  std::filesystem::remove_all(pristine);
  {
    EngineOptions opts;
    opts.dir = pristine;
    auto engine = Engine::Open(opts).MoveValue();
    ASSERT_TRUE(
        engine->RegisterSchema("catalog", workload::CatalogSchemaText()).ok());
    CollectionOptions validated;
    validated.schema = "catalog";
    Collection* catalog =
        engine->CreateCollection("catalog", validated).value();
    ASSERT_TRUE(catalog
                    ->CreateValueIndex({"regprice",
                                        "/Catalog/Categories/Product/RegPrice",
                                        ValueType::kDecimal, 128})
                    .ok());
    ASSERT_TRUE(catalog->CreateStructuralIndex({"structure", ""}).ok());
    Random docs(7);
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(catalog
                      ->InsertDocument(nullptr, workload::GenCatalogXml(
                                                    &docs, {}))
                      .ok());
    CollectionOptions mvcc;
    mvcc.mvcc = true;
    Collection* versioned = engine->CreateCollection("versioned", mvcc).value();
    ASSERT_TRUE(
        versioned->CreateValueIndex({"k", "//k", ValueType::kString, 64}).ok());
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(versioned
                      ->InsertDocument(nullptr, "<r><k>v" + std::to_string(i) +
                                                    "</k></r>")
                      .ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  const std::string bytes = ReadFileBytes(pristine + "/catalog.xdb");
  ASSERT_GT(bytes.size(), 16u);
  const uint32_t body_len = DecodeFixed32(bytes.data() + 8);
  ASSERT_LE(16u + body_len, bytes.size());
  const std::string body = bytes.substr(12, body_len);
  const std::string section = bytes.substr(16 + body_len);
  auto reseal = [&](const std::string& b, const std::string& sec) {
    std::string out = bytes.substr(0, 4);  // the magic
    PutFixed32(&out, Crc32(b.data(), b.size()));
    PutFixed32(&out, static_cast<uint32_t>(b.size()));
    out += b;
    PutFixed32(&out, Crc32(sec.data(), sec.size()));
    return out + sec;
  };
  auto mutate = [&](std::string s) {
    for (uint64_t n = 1 + rng.Uniform(3); n > 0 && !s.empty(); n--) {
      const size_t at = rng.Uniform(s.size());
      switch (rng.Uniform(3)) {
        case 0:
          s[at] = static_cast<char>(s[at] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          s[at] = static_cast<char>(rng.Uniform(256));
          break;
        default:
          s.resize(at);
      }
    }
    return s;
  };
  auto mutant = [&] {
    return rng.Uniform(2) == 0 ? reseal(mutate(body), section)
                               : reseal(body, mutate(section));
  };
  ASSERT_TRUE(CatalogData::Deserialize(reseal(body, section)).ok());
  // The magic is 2+ bits from every older one: no one-bit flip of it opens.
  for (int bit = 0; bit < 32; bit++) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_TRUE(CatalogData::Deserialize(flipped).status().IsCorruption())
        << "magic bit " << bit;
  }

  size_t decoded = 0;
  for (int i = 0; i < 20000; i++)
    decoded += CatalogData::Deserialize(mutant()).ok() ? 1 : 0;

  size_t opened = 0;
  for (int i = 0; i < 300 && !HasFatalFailure(); i++) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir,
                          std::filesystem::copy_options::recursive);
    const std::string m = mutant();
    ASSERT_TRUE(WriteBytes(dir + "/catalog.xdb", m));
    EngineOptions opts;
    opts.dir = dir;
    auto engine = Engine::Open(opts);
    if (!engine.ok()) continue;
    opened++;
    const CatalogData cat = CatalogData::Deserialize(m).MoveValue();
    for (const auto& [name, meta] : cat.collections) {
      auto coll = engine.value()->GetCollection(name);
      if (!coll.ok()) continue;
      (void)coll.value()->ListDocIds();
      (void)coll.value()->Query(nullptr, meta.mvcc_enabled
                                             ? "/r[k = \"v2\"]"
                                             : "//Product[RegPrice > 10]");
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(pristine);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(opened, 0u);
}

/// The WAL of a primary that runs every write and every DDL once: it
/// registers a schema, creates an MVCC collection under it and a plain one
/// with a value and a structural index, inserts a document, updates its
/// text, inserts and deletes a subtree, inserts and deletes a second
/// document, then drops both indexes and the MVCC collection. Returns the
/// records in log order; with `crash_image`, the directory is also copied
/// there while the engine is open, as a crash would leave it.
std::vector<std::pair<WalRecordType, std::string>> LogOneOfEachWrite(
    const std::string& dir, const std::string& crash_image = "") {
  std::filesystem::remove_all(dir);
  EngineOptions opts;
  opts.dir = dir;
  auto engine = Engine::Open(opts).MoveValue();
  EXPECT_TRUE(
      engine->RegisterSchema("s", "root a; element a { text: string; }").ok());
  CollectionOptions mvcc;
  mvcc.mvcc = true;
  mvcc.schema = "s";
  EXPECT_TRUE(engine->CreateCollection("m", mvcc).ok());
  Collection* c = engine->CreateCollection("c").value();
  EXPECT_TRUE(c->CreateValueIndex({"v", "/a/b", ValueType::kDecimal, 32}).ok());
  EXPECT_TRUE(c->CreateStructuralIndex({"st", "b"}).ok());
  const uint64_t doc = c->InsertDocument(nullptr, "<a><b>1</b></a>").value();
  auto node = [&](const char* path) {
    return c->Query(nullptr, path).value().nodes.at(0).node_id;
  };
  EXPECT_TRUE(c->UpdateTextNode(nullptr, doc, node("/a/b/text()"), "2").ok());
  const std::string sub =
      c->InsertSubtree(nullptr, doc, node("/a"), node("/a/b"), "<c/>").value();
  EXPECT_TRUE(c->DeleteSubtree(nullptr, doc, sub).ok());
  EXPECT_TRUE(c->DeleteDocument(nullptr, c->InsertDocument(
                                             nullptr, "<a><b>3</b></a>")
                                             .value())
                  .ok());
  EXPECT_TRUE(c->DropValueIndex("v").ok());
  EXPECT_TRUE(c->DropStructuralIndex("st").ok());
  EXPECT_TRUE(engine->DropCollection("m").ok());
  EXPECT_TRUE(engine->wal()->Commit().ok());
  if (!crash_image.empty()) {
    std::filesystem::remove_all(crash_image);
    std::filesystem::copy(dir, crash_image,
                          std::filesystem::copy_options::recursive);
  }
  std::vector<std::pair<WalRecordType, std::string>> records;
  WalReplayInfo info;
  EXPECT_TRUE(ScanWalRecords(ReadFileBytes(dir + "/wal.log"), 0,
                             [&](uint64_t, WalRecordType type, Slice payload) {
                               records.emplace_back(type, payload.ToString());
                               return Status::OK();
                             },
                             &info)
                  .ok());
  engine.reset();
  std::filesystem::remove_all(dir);
  return records;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// Every record type's payload bytes, pinned to the format the writer has
// always used, so a log an older build left replays unchanged. Each payload
// also decodes and re-encodes to itself.
TEST(WalRecordTest, EncodedBytesArePinned) {
  const std::vector<std::pair<WalRecordType, std::string>> golden = {
      {WalRecordType::kRegisterSchema, "017348435358000161010161010100000000"},
      {WalRecordType::kCreateCollection, "016d010173"},
      {WalRecordType::kCreateCollection, "01630000"},
      {WalRecordType::kCreateValueIndex, "01630176042f612f620320000000"},
      {WalRecordType::kCreateStructuralIndex, "01630273740162"},
      {WalRecordType::kDefineName, "0100000061"},
      {WalRecordType::kDefineName, "0200000062"},
      {WalRecordType::kInsertDocument,
       "01630100000000000000010300010000030002000007000131040402"},
      {WalRecordType::kUpdateNode, "016301000000000000000302020232"},
      {WalRecordType::kDefineName, "0300000063"},
      {WalRecordType::kInsertSubtree,
       "0163010000000000000001020202020103000300000402"},
      {WalRecordType::kDeleteSubtree, "016301000000000000000204"},
      {WalRecordType::kInsertDocument,
       "01630200000000000000010300010000030002000007000133040402"},
      {WalRecordType::kDeleteDocument, "01630200000000000000"},
      {WalRecordType::kDropValueIndex, "01630176"},
      {WalRecordType::kDropStructuralIndex, "0163027374"},
      {WalRecordType::kDropCollection, "016d"},
  };
  const auto records = LogOneOfEachWrite(TempPath("wal_golden"));
  ASSERT_EQ(records.size(), golden.size());
  std::set<WalRecordType> types;
  for (size_t i = 0; i < records.size(); i++) {
    const auto& [type, payload] = records[i];
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(static_cast<int>(type), static_cast<int>(golden[i].first));
    EXPECT_EQ(Hex(payload), golden[i].second);
    Result<WalRecord> rec = DecodeWalRecord(type, payload);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(EncodeWalRecord(rec.value()), payload);
    types.insert(type);
  }
  EXPECT_EQ(types.size(), 13u);  // every type the writer emits
}

// The WAL record decoder, reached past the CRC: real records of every type
// (LogOneOfEachWrite) are mutated by bit flips, byte sets and truncations,
// and one in eight is read as another type, any of 0..17. 20,000 mutants
// go through DecodeWalRecord, and 300 are appended with a valid CRC after
// the real log, which Engine::Open then replays. Each must end in a record
// or a Status, an open engine or a Status: no crash, hang or unbounded
// allocation. Seeded from gtest's random seed, so --gtest_shuffle
// --gtest_repeat walks new mutants.
TEST(WalRecordFuzzTest, MutantsEndInStatus) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  SCOPED_TRACE("gtest random seed " + std::to_string(seed));
  Random rng(seed);
  const std::string dir = TempPath("wal_fuzz");
  const std::string pristine = dir + "_pristine";
  const auto records = LogOneOfEachWrite(dir + "_writer", pristine);
  ASSERT_FALSE(records.empty());
  auto mutant = [&] {
    auto [type, s] = records[rng.Uniform(records.size())];
    if (rng.Uniform(8) == 0) type = static_cast<WalRecordType>(rng.Uniform(18));
    for (uint64_t n = 1 + rng.Uniform(3); n > 0 && !s.empty(); n--) {
      const size_t at = rng.Uniform(s.size());
      switch (rng.Uniform(3)) {
        case 0:
          s[at] = static_cast<char>(s[at] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          s[at] = static_cast<char>(rng.Uniform(256));
          break;
        default:
          s.resize(at);
      }
    }
    return std::make_pair(type, s);
  };

  size_t decoded = 0;
  for (int i = 0; i < 20000; i++) {
    const auto [type, payload] = mutant();
    decoded += DecodeWalRecord(type, payload).ok() ? 1 : 0;
  }

  size_t opened = 0;
  for (int i = 0; i < 300 && !HasFatalFailure(); i++) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir,
                          std::filesystem::copy_options::recursive);
    {
      auto wal = WalLog::Open(dir + "/wal.log").MoveValue();
      const auto [type, payload] = mutant();
      ASSERT_TRUE(wal->Append(type, payload).ok());
      ASSERT_TRUE(wal->Commit().ok());
    }
    EngineOptions opts;
    opts.dir = dir;
    auto engine = Engine::Open(opts);
    if (!engine.ok()) continue;
    opened++;
    auto coll = engine.value()->GetCollection("c");
    if (!coll.ok()) continue;
    (void)coll.value()->ListDocIds();
    (void)coll.value()->Query(nullptr, "/a[b > 1]");
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(pristine);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(opened, 0u);
}

// An index type byte outside kString..kDate names no key encoding: such an
// index would reject every key and stay silently empty. The catalog and the
// WAL decoders both refuse it as Corruption.
TEST_F(EngineFaultTest, UnknownValueTypeFailsOpen) {
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/k", ValueType::kString, 64}).ok());
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<doc><k>v</k></doc>").ok());
  }
  const std::string catalog = dir_ + "/catalog.xdb";
  CatalogData cat = LoadCatalog(catalog).MoveValue();
  cat.collections.at("docs").value_indexes[0].def.type = ValueType(9);
  ASSERT_TRUE(SaveCatalog(cat, catalog).ok());
  auto opened = Engine::Open(FileOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();

  // The same type in a logged DDL record.
  cat.collections.at("docs").value_indexes.clear();
  ASSERT_TRUE(SaveCatalog(cat, catalog).ok());
  uint64_t lsn = 0;
  {
    auto wal = WalLog::Open(dir_ + "/wal.log").MoveValue();
    std::string payload;
    PutLengthPrefixed(&payload, "docs");
    PutLengthPrefixed(&payload, "bad");
    PutLengthPrefixed(&payload, "/doc/k");
    payload.push_back(9);
    PutFixed32(&payload, 64);
    lsn = wal->Append(WalRecordType::kCreateValueIndex, payload).value();
    ASSERT_TRUE(wal->Commit().ok());
  }
  opened = Engine::Open(FileOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_NE(opened.status().ToString().find("lsn " + std::to_string(lsn)),
            std::string::npos)
      << opened.status().ToString();
}

// A document record that passes its CRC but whose node-ID field does not
// decode fails Open like an undecodable DDL record; it is not storage
// damage, so it does not merely quarantine the collection.
TEST_F(EngineFaultTest, UndecodableUpdateRecordFailsOpen) {
  uint64_t doc = 0;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    doc = coll->InsertDocument(nullptr, "<doc><k>v</k></doc>").value();
  }
  uint64_t lsn = 0;
  {
    auto wal = WalLog::Open(dir_ + "/wal.log").MoveValue();
    std::string payload;
    PutLengthPrefixed(&payload, "docs");
    PutFixed64(&payload, doc);
    PutVarint32(&payload, 200);  // a node-ID length past the payload's end
    payload.append("\x02\x02");
    lsn = wal->Append(WalRecordType::kUpdateNode, payload).value();
    ASSERT_TRUE(wal->Commit().ok());
  }
  auto opened = Engine::Open(FileOptions());
  ASSERT_FALSE(opened.ok()) << "opened; quarantined: "
                            << opened.value()
                                   ->GetCollection("docs")
                                   .value()
                                   ->needs_repair();
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_NE(opened.status().ToString().find("lsn " + std::to_string(lsn)),
            std::string::npos)
      << opened.status().ToString();
}

// --- corruption scrub & repair ---

/// Byte offset of the n-th (1-based) WAL record of `type`, or 0 if absent.
uint64_t NthWalRecordOffset(const std::string& path, WalRecordType type,
                            int n) {
  std::ifstream f(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  uint64_t pos = 0;
  int seen = 0;
  while (pos + 9 <= data.size()) {
    uint32_t len = DecodeFixed32(data.data() + pos);
    if (static_cast<WalRecordType>(data[pos + 4] & 0x7F) == type && ++seen == n)
      return pos;
    pos += 9 + len;
  }
  return 0;
}

TEST_F(EngineFaultTest, RecoveryWarnsAboutMidLogWalCorruption) {
  uint64_t docs[3];
  {
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    docs[0] = coll->InsertDocument(nullptr, "<d>one</d>").value();
    docs[1] = coll->InsertDocument(nullptr, "<d>two</d>").value();
    docs[2] = coll->InsertDocument(nullptr, "<d>three</d>").value();
    // Crash without flushing: the WAL is the only copy of all three.
  }
  uint64_t rec2 = NthWalRecordOffset(dir_ + "/wal.log",
                                     WalRecordType::kInsertDocument, 2);
  ASSERT_GT(rec2, 0u);
  FlipByte(dir_ + "/wal.log", rec2 + 9 + 4, 0x08);  // inside the payload

  auto engine = Engine::Open(FileOptions()).MoveValue();
  const RecoveryInfo& info = engine->recovery_info();
  EXPECT_EQ(info.wal.corrupt_records_skipped, 1u);
  EXPECT_FALSE(info.wal.torn_tail);
  EXPECT_NE(info.warning.find("corrupt mid-log"), std::string::npos)
      << info.warning;
  // Records around the damage still replay.
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->GetDocumentText(nullptr, docs[0]).value(), "<d>one</d>");
  EXPECT_FALSE(coll->GetDocumentText(nullptr, docs[1]).ok());
  EXPECT_EQ(coll->GetDocumentText(nullptr, docs[2]).value(), "<d>three</d>");
}

/// Byte offsets of every record of the WAL at `path`, in log order.
std::vector<uint64_t> WalRecordOffsets(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  std::vector<uint64_t> out;
  for (uint64_t pos = 0; pos + 9 <= data.size();
       pos += 9 + DecodeFixed32(data.data() + pos))
    out.push_back(pos);
  return out;
}

/// Rewrites the WAL at `path` in the framing of logs written before the
/// record CRC covered the header: unmarked type bytes, each CRC over the
/// payload alone.
void RewriteWalWithPayloadCrcs(const std::string& path) {
  std::string data;
  {
    std::ifstream f(path, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  }
  for (uint64_t pos : WalRecordOffsets(path)) {
    const uint32_t len = DecodeFixed32(data.data() + pos);
    data[pos + 4] = static_cast<char>(data[pos + 4] & 0x7F);
    std::string crc;
    PutFixed32(&crc, Crc32(data.data() + pos + 9, len));
    data.replace(pos + 5, 4, crc);
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Every stored document of `coll`, by ID; a document that does not read
/// back maps to its error.
std::map<uint64_t, std::string> ReadAllDocs(Collection* coll) {
  std::map<uint64_t, std::string> out;
  auto ids = coll->ListDocIds();
  if (!ids.ok()) return {{0, ids.status().ToString()}};
  for (uint64_t id : ids.value()) {
    auto text = coll->GetDocumentText(nullptr, id);
    out[id] = text.ok() ? text.value() : text.status().ToString();
  }
  return out;
}

// Regression: the record CRC covered the payload only, so a flipped type
// byte passed it. A delete record turned into type 6 (kCheckpoint) read as
// a document record of no known kind and applied as nothing: the deleted
// document came back after recovery with no warning. The CRC now covers
// the length and type bytes. A damaged record inside the log is skipped
// with a recovery warning; the last record of the log is indistinguishable
// from a torn final write and is reported as a torn tail.
TEST_F(EngineFaultTest, FlippedWalTypeNeverRestoresADeletedDocSilently) {
  for (bool delete_is_last : {true, false}) {
    SCOPED_TRACE(delete_is_last ? "delete is the last record"
                                : "delete is mid-log");
    SetUp();
    uint64_t doc = 0;
    {
      Engine* crashed = IntentionallyLeaked(
          Engine::Open(FileOptions()).MoveValue().release());
      Collection* coll = crashed->CreateCollection("docs").value();
      doc = coll->InsertDocument(nullptr, "<d>gone</d>").value();
      ASSERT_TRUE(crashed->Checkpoint().ok());
      ASSERT_TRUE(coll->DeleteDocument(nullptr, doc).ok());
      if (!delete_is_last) {
        ASSERT_TRUE(coll->InsertDocument(nullptr, "<d>kept</d>").ok());
      }
    }
    const uint64_t rec = NthWalRecordOffset(
        dir_ + "/wal.log", WalRecordType::kDeleteDocument, 1);
    ASSERT_GT(WalRecordOffsets(dir_ + "/wal.log").size(), 0u);
    FlipByte(dir_ + "/wal.log", rec + 4, 0x04);  // type 2 -> 6

    auto opened = Engine::Open(FileOptions());
    if (!opened.ok()) {
      EXPECT_TRUE(opened.status().IsCorruption())
          << opened.status().ToString();
      continue;
    }
    auto engine = opened.MoveValue();
    const RecoveryInfo& info = engine->recovery_info();
    const bool back = engine->GetCollection("docs")
                          .value()
                          ->GetDocumentText(nullptr, doc)
                          .ok();
    EXPECT_TRUE(!back || !info.warning.empty() || info.wal.torn_tail)
        << "the deleted document is back without a warning";
    if (delete_is_last) {
      EXPECT_TRUE(info.wal.torn_tail);
    } else {
      EXPECT_EQ(info.wal.corrupt_records_skipped, 1u);
      EXPECT_NE(info.warning.find("corrupt mid-log"), std::string::npos)
          << info.warning;
    }
  }
}

// Every bit of every record header of a small WAL, one at a time: no flip
// may change the recovered documents unless recovery says so — Open fails
// with Corruption, or the recovery warning names the damage. A flip in the
// last record's header is a torn final write as far as any reader can tell
// and must be reported as a torn tail.
TEST_F(EngineFaultTest, WalHeaderBitFlipSweepNeverChangesDocsSilently) {
  {
    Engine* crashed =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<d><v>0</v></d>").ok());
    ASSERT_TRUE(crashed->Checkpoint().ok());
    uint64_t a = coll->InsertDocument(nullptr, "<d><v>1</v></d>").value();
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<d><v>2</v></d>").ok());
    ASSERT_TRUE(coll->DeleteDocument(nullptr, a).ok());
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<d><v>3</v></d>").ok());
  }
  const std::string wal = dir_ + "/wal.log";
  const std::vector<uint64_t> records = WalRecordOffsets(wal);
  ASSERT_EQ(records.size(), 4u);
  std::map<uint64_t, std::string> expected;
  const std::string pristine = dir_ + "_pristine";
  std::filesystem::remove_all(pristine);
  std::filesystem::copy(dir_, pristine,
                        std::filesystem::copy_options::recursive);
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    expected = ReadAllDocs(engine->GetCollection("docs").value());
    ASSERT_EQ(expected.size(), 3u);
  }
  for (size_t r = 0; r < records.size() && !HasFatalFailure(); r++) {
    for (uint64_t bit = 0; bit < 9 * 8; bit++) {
      SCOPED_TRACE("record " + std::to_string(r) + " header bit " +
                   std::to_string(bit));
      std::filesystem::remove_all(dir_);
      std::filesystem::copy(pristine, dir_,
                            std::filesystem::copy_options::recursive);
      FlipByte(wal, records[r] + bit / 8, static_cast<uint8_t>(1u << (bit % 8)));
      auto opened = Engine::Open(FileOptions());
      if (!opened.ok()) {
        EXPECT_TRUE(opened.status().IsCorruption())
            << opened.status().ToString();
        continue;
      }
      auto engine = opened.MoveValue();
      const RecoveryInfo& info = engine->recovery_info();
      if (ReadAllDocs(engine->GetCollection("docs").value()) == expected)
        continue;
      const bool last = r + 1 == records.size();
      EXPECT_TRUE(!info.warning.empty() || (last && info.wal.torn_tail))
          << "documents changed silently; torn_tail=" << info.wal.torn_tail;
    }
  }
  std::filesystem::remove_all(pristine);
}

// A WAL written before the record CRC covered the header (unmarked type
// bytes, payload-only CRCs) still replays, to the same documents.
TEST_F(EngineFaultTest, OldFramingWalReplaysToTheSameDocs) {
  std::map<uint64_t, std::string> expected;
  {
    Engine* crashed =
        IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    // New names after the checkpoint: kDefineName records ride along.
    for (int i = 0; i < 4; i++)
      coll->InsertDocument(nullptr, "<n" + std::to_string(i) + ">" +
                                        std::to_string(i) + "</n" +
                                        std::to_string(i) + ">")
          .value();
    ASSERT_TRUE(coll->DeleteDocument(nullptr, 2).ok());
    expected = ReadAllDocs(coll);
  }
  RewriteWalWithPayloadCrcs(dir_ + "/wal.log");
  auto engine = Engine::Open(FileOptions()).MoveValue();
  const RecoveryInfo& info = engine->recovery_info();
  EXPECT_EQ(info.warning, "");
  EXPECT_FALSE(info.wal.torn_tail);
  EXPECT_EQ(info.wal.records_replayed,
            WalRecordOffsets(dir_ + "/wal.log").size());
  EXPECT_EQ(ReadAllDocs(engine->GetCollection("docs").value()), expected);
}

// A record that passes its CRC but has a type the writer never emits is
// undecodable: Open fails with Corruption naming its LSN.
TEST_F(EngineFaultTest, UnemittedWalRecordTypeFailsOpen) {
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    ASSERT_TRUE(engine->CreateCollection("docs").ok());
  }
  uint64_t lsn = 0;
  {
    auto wal = WalLog::Open(dir_ + "/wal.log").MoveValue();
    std::string payload;
    PutLengthPrefixed(&payload, "docs");
    PutFixed64(&payload, 1);
    lsn = wal->Append(WalRecordType::kCheckpoint, payload).value();
    ASSERT_TRUE(wal->Commit().ok());
  }
  auto opened = Engine::Open(FileOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_NE(opened.status().ToString().find("lsn " + std::to_string(lsn)),
            std::string::npos)
      << opened.status().ToString();
}

// A refused write logs nothing replay would refuse again: deleting the
// root element is refused before its record is logged, so the engine
// reopens after a crash with the document whole.
TEST_F(EngineFaultTest, RefusedRootDeleteLeavesTheLogReplayable) {
  uint64_t doc = 0;
  {
    Engine* crashed = IntentionallyLeaked(
        Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    doc = coll->InsertDocument(nullptr, "<a><b>1</b></a>").value();
    const std::string root =
        coll->Query(nullptr, "/a").value().nodes.at(0).node_id;
    EXPECT_EQ(coll->DeleteSubtree(nullptr, doc, root).code(),
              Status::Code::kInvalidArgument);
  }
  auto reopened = Engine::Open(FileOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Collection* coll = reopened.value()->GetCollection("docs").value();
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), "<a><b>1</b></a>");
}

TEST_F(EngineFaultTest, ScrubOnCleanStoreReportsClean) {
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  uint64_t doc = coll->InsertDocument(nullptr, "<ok>fine</ok>").value();
  auto rep = engine->Scrub();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value().clean);
  ASSERT_EQ(rep.value().collections.size(), 1u);
  const CollectionScrubReport& c = rep.value().collections[0];
  EXPECT_EQ(c.collection, "docs");
  EXPECT_GT(c.pages_scanned, 0u);
  EXPECT_EQ(c.checksum_failures, 0u);
  EXPECT_EQ(c.envelope_failures, 0u);
  EXPECT_FALSE(c.rebuilt);
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), "<ok>fine</ok>");
}

TEST_F(EngineFaultTest, ScrubCountsMatchInjectedFaults) {
  uint64_t doc = 0;
  uint64_t flipped_pages = 3;
  {
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    doc = coll->InsertDocument(nullptr, "<d>payload</d>").value();
    // Enough filler for two data pages after the NodeID root, so pages 1-3
    // all hold data.
    for (int i = 0; i < 40; i++)
      coll->InsertDocument(nullptr, "<filler>" + std::string(100, 'f') +
                                        std::to_string(i) + "</filler>")
          .value();
    ASSERT_TRUE(coll->buffer_manager()->FlushAll().ok());
  }
  // Corrupt a known number of distinct pages (skipping the header page).
  for (uint64_t p = 1; p <= flipped_pages; p++)
    FlipByte(dir_ + "/docs.xts", p * kDefaultPageSize + 100 + p, 0x20);

  auto engine = Engine::Open(FileOptions()).MoveValue();
  auto rep = engine->Scrub();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(rep.value().clean);
  ASSERT_EQ(rep.value().collections.size(), 1u);
  const CollectionScrubReport& c = rep.value().collections[0];
  EXPECT_EQ(c.checksum_failures + c.envelope_failures, flipped_pages);
  EXPECT_TRUE(c.rebuilt);
  EXPECT_EQ(c.docs_lost, 0u);
  EXPECT_EQ(c.docs_salvaged + c.docs_recovered_from_wal, 41u);
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), "<d>payload</d>");
  EXPECT_EQ(coll->DocCount().value(), 41u);
}

// The NodeID index is the document list, so a failed insert must leave no
// NodeID entry of its document. A writeback error part way through a
// 200-element insert into a full 8-page pool fails it after some of its
// records were stored and indexed; the insert frees them again, and the
// listing, the count and the statistics all agree on the five documents
// stored before it.
TEST_F(EngineFaultTest, FailedInsertIsNeverListed) {
  auto engine = Engine::Open(FileOptions()).MoveValue();
  CollectionOptions co;
  co.buffer_pages = 8;
  co.record_budget = 64;
  Collection* coll = engine->CreateCollection("docs", co).value();
  auto doc = [](int elements) {
    std::string xml = "<doc>";
    for (int i = 0; i < elements; i++)
      xml += "<e>" + std::string(80, 'x') + std::to_string(i) + "</e>";
    return xml + "</doc>";
  };
  std::vector<uint64_t> docs;
  for (int d = 0; d < 5; d++)
    docs.push_back(coll->InsertDocument(nullptr, doc(40)).value());
  const uint64_t live_records = coll->records()->stats().live_records;
  {
    ScopedFaultInjector fi;
    fi->Arm(FaultPoint::kBufferWriteback, 1, FaultKind::kError);
    auto failed = coll->InsertDocument(nullptr, doc(200));
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  }
  const uint64_t failed_doc = docs.back() + 1;
  EXPECT_EQ(coll->ListDocIds().value(), docs);
  EXPECT_EQ(coll->DocCount().value(), 5u);
  EXPECT_EQ(coll->stats()->Snapshot().doc_count, 5u);
  EXPECT_TRUE(
      coll->node_index()->Lookup(failed_doc, Slice()).status().IsNotFound());
  NodeIdEntries entries;
  ASSERT_TRUE(
      coll->node_index()->ListDocEntries(failed_doc, Slice(), &entries).ok());
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(coll->records()->stats().live_records, live_records);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
}

// A document of `elements` <e> elements, each with a short <k> key (for a
// value index) and filler, so it spans many records at a small budget.
std::string KeyedDocument(int elements) {
  std::string xml = "<doc>";
  for (int i = 0; i < elements; i++)
    xml += "<e><k>k" + std::to_string(i % 7) + "</k>" + std::string(60, 'x') +
           "</e>";
  return xml + "</doc>";
}

// The failed insert with a value and a structural index, its writeback
// fault moved through every writeback of the insert in turn, so it lands in
// the build, in index maintenance and in the build's undo. Whatever it hit,
// the document is never listed: a failed build is undone, and a failure in
// index maintenance (whose postings cannot be undone with certainty) or in
// the undo quarantines the collection. Scrub then rebuilds it from the WAL,
// where the failed insert is followed by a delete, so it stays gone.
TEST_F(EngineFaultTest, FailedInsertWithIndexesIsNeverListed) {
  const std::string big = KeyedDocument(120);
  // Per faulted writeback: the records the failed build had stored, and
  // whether the collection was quarantined.
  std::vector<std::pair<uint64_t, bool>> outcomes;
  uint64_t full = 0;  // records the whole document takes
  for (uint64_t n = 1; full == 0 && n <= 1000 && !HasFatalFailure(); n++) {
    SCOPED_TRACE("writeback " + std::to_string(n));
    SetUp();
    auto engine = Engine::Open(FileOptions()).MoveValue();
    CollectionOptions co;
    co.buffer_pages = 8;
    co.record_budget = 64;
    Collection* coll = engine->CreateCollection("docs", co).value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/e/k", ValueType::kString, 16}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    std::vector<uint64_t> docs;
    for (int d = 0; d < 5; d++)
      docs.push_back(coll->InsertDocument(nullptr, KeyedDocument(20)).value());
    const uint64_t inserts = coll->records()->stats().inserts;
    auto failed = [&] {
      ScopedFaultInjector fi;
      fi->Arm(FaultPoint::kBufferWriteback, n, FaultKind::kError);
      return coll->InsertDocument(nullptr, big);
    }();
    const uint64_t stored = coll->records()->stats().inserts - inserts;
    if (failed.ok()) {
      full = stored;
    } else {
      EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
      outcomes.emplace_back(stored, coll->needs_repair());
      if (coll->needs_repair()) {
        EXPECT_FALSE(coll->ListDocIds().ok());
        ASSERT_TRUE(engine->Scrub().ok());
        ASSERT_FALSE(coll->needs_repair());
      }
      EXPECT_EQ(coll->ListDocIds().value(), docs);
      EXPECT_EQ(coll->DocCount().value(), docs.size());
      EXPECT_EQ(coll->stats()->Snapshot().doc_count, docs.size());
      EXPECT_TRUE(coll->node_index()
                      ->Lookup(docs.back() + 1, Slice())
                      .status()
                      .IsNotFound());
      EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
    }
    engine.reset();
    TearDown();
  }
  ASSERT_GT(full, 0u) << "the insert never got past its faults";
  uint64_t undone = 0, in_indexing = 0;
  for (const auto& [stored, quarantined] : outcomes) {
    undone += !quarantined;
    // A fault after the build stored every record hit index maintenance.
    if (stored == full) {
      in_indexing++;
      EXPECT_TRUE(quarantined);
    }
  }
  EXPECT_GT(undone, 0u);
  EXPECT_GT(in_indexing, 0u);
}

// The failed insert under a crash: once the fault fires every write fails,
// the undo's and those of any eviction a later read needs, at each
// writeback of the insert in turn. Until the crash the document is never
// listed: its build is undone, or the collection is quarantined, and a
// listing either fails or names the other documents. (Recovery then redoes
// the insert its WAL record logged: the delete that follows a failed
// insert cannot be logged after the crash.)
TEST_F(EngineFaultTest, FailedInsertUnderCrashIsNeverListed) {
  const std::string big = KeyedDocument(120);
  uint64_t quarantined = 0, undone = 0;
  bool finished = false;
  for (uint64_t n = 1; !finished && n <= 1000 && !HasFatalFailure(); n++) {
    SCOPED_TRACE("writeback " + std::to_string(n));
    SetUp();
    Engine* crashed = IntentionallyLeaked(
        Engine::Open(FileOptions()).MoveValue().release());
    CollectionOptions co;
    co.buffer_pages = 8;
    co.record_budget = 64;
    Collection* coll = crashed->CreateCollection("docs", co).value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"k", "/doc/e/k", ValueType::kString, 16}).ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    std::vector<uint64_t> docs;
    for (int d = 0; d < 5; d++)
      docs.push_back(coll->InsertDocument(nullptr, KeyedDocument(20)).value());
    ScopedFaultInjector fi;
    fi->set_crash_after_fire(true);
    fi->Arm(FaultPoint::kBufferWriteback, n, FaultKind::kError);
    auto failed = coll->InsertDocument(nullptr, big);
    if (failed.ok()) {
      finished = true;
    } else if (coll->needs_repair()) {
      quarantined++;
      EXPECT_FALSE(coll->ListDocIds().ok());
      EXPECT_FALSE(coll->DocCount().ok());
    } else {
      undone++;
      auto ids = coll->ListDocIds();
      if (ids.ok()) {
        EXPECT_EQ(ids.value(), docs);
      } else {
        EXPECT_TRUE(ids.status().IsIOError()) << ids.status().ToString();
      }
    }
    TearDown();
  }
  EXPECT_TRUE(finished);
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(undone, 0u);
}

// Scrub salvage probes every allocated DocID in the NodeID index, so a
// damaged page costs the documents it holds and no more, and the report
// accounts for every document: salvaged or lost. Here the WAL is empty, so
// salvage is the only way back, and the NodeID index has two leaves; a
// walk over them would stop at a damaged one and account for nothing. A
// collection quarantined at open (a damaged header or root page) has
// nothing to probe: Scrub counts all of its documents lost.
TEST_F(EngineFaultTest, ScrubAccountsForEveryDocument) {
  constexpr uint64_t kDocs = 60;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    CollectionOptions co;
    co.record_budget = 128;
    Collection* coll = engine->CreateCollection("docs", co).value();
    for (uint64_t i = 0; i < kDocs; i++) {
      std::string xml = "<doc>";
      for (const char* part : {"a", "b", "c"})
        xml += std::string("<") + part + ">" + std::string(70, 'x') +
               std::to_string(i) + "</" + part + ">";
      ASSERT_TRUE(coll->InsertDocument(nullptr, xml + "</doc>").ok());
    }
    const BtreeStats index = coll->node_index()->tree()->ComputeStats().value();
    ASSERT_EQ(index.entries, 3 * kDocs);
    ASSERT_EQ(index.leaf_pages, 2u);
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  const std::string space = dir_ + "/docs.xts";
  const uint64_t pages =
      std::filesystem::file_size(space) / kDefaultPageSize;
  uint64_t partial = 0;      // damaged pages that cost some documents, not all
  uint64_t quarantined = 0;  // damaged pages that quarantined the collection
  SweepPageBitFlips(space, pages, [&] {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    if (coll->needs_repair()) quarantined++;
    auto rep = engine->Scrub();
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_EQ(rep.value().collections.size(), 1u);
    const CollectionScrubReport& c = rep.value().collections[0];
    EXPECT_TRUE(c.rebuilt);
    EXPECT_EQ(c.docs_recovered_from_wal, 0u);
    EXPECT_EQ(c.docs_salvaged + c.docs_lost, kDocs);
    EXPECT_EQ(coll->DocCount().value(), c.docs_salvaged);
    if (c.docs_lost > 0 && c.docs_salvaged > 0) partial++;
  });
  EXPECT_GT(partial, 0u);
  EXPECT_GT(quarantined, 0u);
}

// The tentpole acceptance test: flip one byte in *every* page of a populated
// table space (one page at a time, fresh store each time). Required
// invariants: the store always opens; every pre-repair read is either
// correct or kCorruption — never a wrong answer, never a crash; Scrub()
// always succeeds; after Scrub() every document reads back correct and
// nothing is lost (every insert is still in the WAL); a second Scrub()
// reports clean.
TEST_F(EngineFaultTest, BitFlipSweepNeverWrongNeverLost) {
  std::map<uint64_t, std::string> expected;
  {
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    // Checkpoint first so the catalog knows the collection while every
    // insert's redo record stays in the WAL (nothing may be lost below).
    ASSERT_TRUE(crashed->Checkpoint().ok());
    for (int i = 0; i < 6; i++) {
      std::string xml = "<doc n=\"" + std::to_string(i) + "\"><v>" +
                        std::to_string(i * 1234567) + "</v></doc>";
      uint64_t id = coll->InsertDocument(nullptr, xml).value();
      expected[id] = xml;
    }
    // One document big enough to span overflow chains.
    std::string big = "<big>" + std::string(24000, 'x') + "</big>";
    uint64_t big_id = coll->InsertDocument(nullptr, big).value();
    expected[big_id] = big;
    ASSERT_TRUE(coll->buffer_manager()->FlushAll().ok());
    // Crash idiom: leak the engine so nothing checkpoints.
  }
  const std::string space = dir_ + "/docs.xts";
  const uint64_t pages =
      std::filesystem::file_size(space) / kDefaultPageSize;
  ASSERT_GT(pages, 8u) << "workload too small to be a meaningful sweep";

  SweepPageBitFlips(space, pages, [&] {
    auto opened = Engine::Open(FileOptions());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto engine = opened.MoveValue();
    Collection* coll = engine->GetCollection("docs").value();

    // Phase 1 — detection: right answer or a corruption error, nothing else.
    size_t refused = 0;
    for (const auto& [id, xml] : expected) {
      auto text = coll->GetDocumentText(nullptr, id);
      if (text.ok()) {
        EXPECT_EQ(text.value(), xml) << "silent wrong answer, doc " << id;
      } else {
        EXPECT_TRUE(text.status().IsCorruption()) << text.status().ToString();
        refused++;
      }
    }

    // Phase 2 — repair.
    auto rep = engine->Scrub();
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    uint64_t lost = 0;
    for (const auto& c : rep.value().collections) lost += c.docs_lost;
    EXPECT_EQ(lost, 0u);
    if (refused > 0 ||
        !engine->recovery_info().quarantined_collections.empty()) {
      EXPECT_FALSE(rep.value().clean)
          << "reads failed but the scrub saw nothing";
    }

    // Phase 3 — everything is back, bit for bit.
    for (const auto& [id, xml] : expected) {
      auto text = coll->GetDocumentText(nullptr, id);
      ASSERT_TRUE(text.ok()) << "doc " << id << " lost: "
                             << text.status().ToString();
      EXPECT_EQ(text.value(), xml);
    }

    // Phase 4 — the repaired store passes a clean scrub.
    auto rep2 = engine->Scrub();
    ASSERT_TRUE(rep2.ok()) << rep2.status().ToString();
    EXPECT_TRUE(rep2.value().clean);
  });
}

// The same sweep through the node-level read path. Whole-document reads
// above go through StoredDocSource; NodeID-list and structural-scan plans
// instead look each anchor up in the NodeID index and fetch its record,
// and that recheck once read any failure as "no match", answering OK with
// the damaged anchors silently missing. Every forced node-level run must
// return the pristine answer or kCorruption, and the parallel recheck must
// refuse exactly when the serial one does.
TEST_F(EngineFaultTest, NodeLevelBitFlipSweepNeverWrong) {
  const char* kQuery = "/doc/item[price > 10]/name";
  EngineOptions opts = FileOptions();
  opts.num_query_threads = 4;
  NodeSequence expected;
  {
    auto engine = Engine::Open(opts).MoveValue();
    CollectionOptions co;
    co.record_budget = 200;  // several records per document
    Collection* coll = engine->CreateCollection("docs", co).value();
    ASSERT_TRUE(
        coll->CreateValueIndex({"price", "/doc/item/price", ValueType::kDouble})
            .ok());
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    for (int d = 0; d < 6; d++) {
      std::string xml = "<doc>";
      for (int i = d * 40; i < d * 40 + 40; i++)
        xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
               std::to_string(i % 37) + "</price></item>";
      ASSERT_TRUE(coll->InsertDocument(nullptr, xml + "</doc>").ok());
    }
    QueryOptions scan;
    scan.force = ForceMethod::kScan;
    scan.want_values = true;
    expected = coll->Query(nullptr, kQuery, scan).value().nodes;
    ASSERT_GT(expected.size(), 100u);
    // A clean checkpoint: reopening redoes nothing over the damage.
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  const std::string space = dir_ + "/docs.xts";
  const uint64_t pages =
      std::filesystem::file_size(space) / kDefaultPageSize;
  ASSERT_GT(pages, 8u) << "workload too small to be a meaningful sweep";

  size_t refused = 0;
  SweepPageBitFlips(space, pages, [&] {
    auto opened = Engine::Open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto engine = opened.MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    const std::pair<ForceMethod, query::AccessMethod> kPlans[] = {
        {ForceMethod::kNodeIdList, query::AccessMethod::kNodeIdList},
        {ForceMethod::kStructural, query::AccessMethod::kStructuralScan}};
    for (const auto& [force, method] : kPlans) {
      Status serial;
      for (int parallelism : {1, 4}) {
        SCOPED_TRACE("force=" + std::to_string(static_cast<int>(force)) +
                     " parallelism=" + std::to_string(parallelism));
        QueryOptions o;
        o.force = force;
        o.want_values = true;
        o.parallelism = parallelism;
        auto res = coll->Query(nullptr, kQuery, o);
        if (parallelism == 1) serial = res.status();
        EXPECT_EQ(res.status().code(), serial.code())
            << "serial=" << serial.ToString()
            << " parallel=" << res.status().ToString();
        if (!res.ok()) {
          EXPECT_TRUE(res.status().IsCorruption()) << res.status().ToString();
          refused++;
          continue;
        }
        const QueryResult& r = res.value();
        EXPECT_EQ(r.stats.method, method);
        EXPECT_EQ(r.profile.chunks > 1, parallelism > 1);
        ASSERT_EQ(r.nodes.size(), expected.size()) << "silent wrong answer";
        for (size_t i = 0; i < expected.size(); i++) {
          EXPECT_EQ(r.nodes[i].doc_id, expected[i].doc_id);
          EXPECT_EQ(r.nodes[i].node_id, expected[i].node_id);
          EXPECT_EQ(r.nodes[i].string_value, expected[i].string_value);
        }
      }
    }
  });
  EXPECT_GT(refused, 0u) << "no damaged page was ever read";
}

// ---------------------------------------------------------------------------
// Replication fault sweep: every way a delivery can go wrong — torn segment
// tails, mid-segment bit flips on the spool, a primary crash mid-ship, and a
// promotion that races stale deliveries — must end in either convergence to
// the primary's exact state or an explicit refusal. Never a wrong answer.
// ---------------------------------------------------------------------------

class ReplFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("xdb_fault_repl_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter_++)))
            .string();
    primary_dir_ = stem + "_p";
    replica_dir_ = stem + "_r";
    spool_dir_ = stem + "_s";
    for (const std::string& d : {primary_dir_, replica_dir_, spool_dir_}) {
      std::filesystem::remove_all(d);
      std::filesystem::create_directories(d);
    }
  }
  void TearDown() override {
    for (const std::string& d : {primary_dir_, replica_dir_, spool_dir_})
      std::filesystem::remove_all(d);
  }

  EngineOptions PrimaryOptions() {
    EngineOptions opts;
    opts.dir = primary_dir_;
    return opts;
  }
  EngineOptions ReplicaOptions() {
    EngineOptions opts;
    opts.dir = replica_dir_;
    opts.replica = true;
    return opts;
  }

  static void Pump(repl::WalShipper* shipper, repl::ReplicaApplier* applier,
                   int rounds = 8) {
    for (int i = 0; i < rounds; i++) {
      Status s = shipper->ShipAll();
      ASSERT_TRUE(s.ok()) << s.ToString();
      s = applier->CatchUp();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  std::string primary_dir_, replica_dir_, spool_dir_;
  static int counter_;
};
int ReplFaultTest::counter_ = 0;

// Torn deliveries at every interesting cut point: inside the magic, inside
// the header, one byte into the payload, one byte short of complete. Each
// truncated segment must be quarantined (corrupt counter), trigger a resync,
// and the stream must converge to the exact document set.
TEST_F(ReplFaultTest, TruncatedDeliverySweepQuarantinesAndResyncs) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  repl::InProcessTransport transport;
  repl::WalShipper shipper(primary.get(), &transport);
  auto applier =
      repl::ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>seed</a>").ok());
  Pump(&shipper, applier.get());

  const uint32_t cuts[] = {0, 2, static_cast<uint32_t>(repl::kSegmentHeaderSize) - 1,
                           static_cast<uint32_t>(repl::kSegmentHeaderSize) + 1, 48};
  uint64_t expect_docs = 1;
  for (uint32_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>cut" + std::to_string(cut) +
                                                  "</a>")
                    .ok());
    expect_docs++;
    ScopedFaultInjector fi;
    // bytes = 4 | (len << 8): truncate the next delivery to `cut` bytes.
    fi->Arm(FaultPoint::kShipTransport, 1, FaultKind::kNetworkError,
            4u + (static_cast<uint64_t>(cut) << 8));
    Pump(&shipper, applier.get());
    ASSERT_EQ(replica->applied_csn(), shipper.shipped_csn());
    ASSERT_EQ(replica->GetCollection("docs").value()->DocCount().value(),
              expect_docs);
  }
  const auto snap = replica->MetricsSnapshot();
  // Every cut except ones that happened to keep the segment whole was
  // detected; resyncs healed them all.
  EXPECT_GE(snap.Value("repl.apply.corrupt_segments"), 4u);
  const auto psnap = primary->MetricsSnapshot();
  EXPECT_GE(psnap.Value("repl.ship.resyncs"), 4u);
}

// Media corruption on the shipping spool itself: flip one byte of a spooled
// segment file before the replica reads it. The CRC catches it, the applier
// requests a resync, and fresh segments (written after the resync rewound
// the shipper) converge the replica. The flipped file stays quarantined on
// disk — it is simply never read again.
TEST_F(ReplFaultTest, SpoolBitFlipSweepHealsViaResync) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  auto transport = repl::FileTransport::Open(spool_dir_).MoveValue();
  repl::WalShipper shipper(primary.get(), transport.get());
  auto applier =
      repl::ReplicaApplier::Attach(replica.get(), transport.get()).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();

  uint64_t expect_docs = 0;
  // Sweep the flip across header bytes, the CRC field, and payload bytes.
  const uint64_t offsets[] = {0, 4, 13, 21, 25, 29,
                              repl::kSegmentHeaderSize + 7,
                              repl::kSegmentHeaderSize + 63};
  for (uint64_t off : offsets) {
    SCOPED_TRACE("offset=" + std::to_string(off));
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>f" + std::to_string(off) +
                                                  "</a>")
                    .ok());
    expect_docs++;
    // Ship (spools a fresh segment file) but do not apply yet.
    ASSERT_TRUE(shipper.ShipAll().ok());
    ASSERT_GT(transport->next_write_seq(), 0u);
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%08llu",
                  static_cast<unsigned long long>(transport->next_write_seq() -
                                                  1));
    const std::string path = spool_dir_ + "/" + name;
    const uint64_t size = std::filesystem::file_size(path);
    FlipByte(path, off % size, 1u << (off % 8));
    // Apply sees the damage, resyncs; subsequent rounds re-ship cleanly.
    Pump(&shipper, applier.get());
    ASSERT_EQ(replica->applied_csn(), shipper.shipped_csn());
    ASSERT_EQ(replica->GetCollection("docs").value()->DocCount().value(),
              expect_docs);
  }
  // Not every flip lands in CRC-covered bytes: a stream_offset flip shows
  // up as a continuity gap, and flips in the advisory wal_gen/record_count
  // fields deliver a byte-identical payload (harmless by construction).
  // Magic, length, CRC and payload flips must all be caught as corruption.
  const auto snap = replica->MetricsSnapshot();
  EXPECT_GE(snap.Value("repl.apply.corrupt_segments"), 4u);
  EXPECT_GE(snap.Value("repl.apply.corrupt_segments") +
                snap.Value("repl.apply.gaps"),
            5u);
}

// Primary crashes mid-ship: some segments delivered, some not, then the
// machine dies. A reopened primary (fresh shipper, stream position zero)
// re-ships from genesis; the replica skips exact duplicates and resyncs on
// the first segment that straddles its watermark. No document is lost,
// duplicated, or torn.
TEST_F(ReplFaultTest, PrimaryCrashMidShipResyncsExactlyOnce) {
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  repl::InProcessTransport transport;
  auto applier =
      repl::ReplicaApplier::Attach(replica.get(), &transport).MoveValue();

  {
    Engine* crashed = IntentionallyLeaked(
        Engine::Open(PrimaryOptions()).MoveValue().release());
    repl::ShipperOptions sopts;
    sopts.max_segment_bytes = 96;  // several segments for 12 docs
    repl::WalShipper shipper(crashed, &transport, sopts);
    Collection* coll = crashed->CreateCollection("docs").value();
    for (int i = 0; i < 12; i++)
      ASSERT_TRUE(
          coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
              .ok());
    // Ship a strict prefix, apply it, then crash with the rest unshipped.
    ASSERT_TRUE(shipper.ShipOnce().value());
    ASSERT_TRUE(shipper.ShipOnce().value());
    ASSERT_TRUE(applier->CatchUp().ok());
    ASSERT_GT(replica->applied_csn(), 0u);
    ASSERT_LT(replica->applied_csn(), crashed->wal()->size());
  }

  // Reopen: WAL replay restores all 12 documents on the primary. The new
  // shipper knows nothing of the old one's progress and uses different
  // segment boundaries, so its early segments are duplicates and at least
  // one straddles the replica's watermark — exercising both heal paths.
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  repl::ShipperOptions sopts;
  sopts.max_segment_bytes = 200;
  repl::WalShipper shipper(primary.get(), &transport, sopts);
  Pump(&shipper, applier.get(), /*rounds=*/12);

  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  Collection* rcoll = replica->GetCollection("docs").value();
  ASSERT_EQ(rcoll->DocCount().value(), 12u);
  for (uint64_t d = 1; d <= 12; d++)
    EXPECT_EQ(rcoll->GetDocumentText(nullptr, d).value(),
              "<a>" + std::to_string(d - 1) + "</a>");
  const auto snap = replica->MetricsSnapshot();
  EXPECT_GT(snap.Value("repl.apply.duplicates") +
                snap.Value("repl.apply.gaps"),
            0u);
}

// Promote under fire: deliveries are being dropped when the replica is
// promoted. Whatever prefix it applied is exactly a prefix of the primary's
// history (never a torn or reordered subset), the promoted node accepts its
// own writes, and everything the stale primary ships afterwards is refused.
TEST_F(ReplFaultTest, PromoteUnderFaultsKeepsTimelinesApart) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  repl::InProcessTransport transport;
  repl::ShipperOptions sopts;
  sopts.max_segment_bytes = 96;
  repl::WalShipper shipper(primary.get(), &transport, sopts);
  auto applier =
      repl::ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();

  ScopedFaultInjector fi;
  fi->Arm(FaultPoint::kShipTransport, 3, FaultKind::kNetworkError, 1);  // drop
  fi->Arm(FaultPoint::kShipTransport, 5, FaultKind::kNetworkError, 1);  // drop
  for (int i = 0; i < 10; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
            .ok());
  // One ship pass + one apply pass only: with drops armed the replica is
  // likely mid-stream, possibly stalled on a gap. Promote right there.
  ASSERT_TRUE(shipper.ShipAll().ok());
  ASSERT_TRUE(applier->CatchUp().ok());

  ASSERT_TRUE(applier->Promote().ok());
  Collection* rcoll = replica->GetCollection("docs").value();
  const uint64_t kept = rcoll->DocCount().value();
  ASSERT_LE(kept, 10u);
  // Prefix property: every surviving document is bit-identical to the
  // primary's copy — applied segments are whole records in order.
  for (uint64_t d = 1; d <= kept; d++)
    EXPECT_EQ(rcoll->GetDocumentText(nullptr, d).value(),
              "<a>" + std::to_string(d - 1) + "</a>");

  // The new timeline diverges...
  ASSERT_TRUE(rcoll->InsertDocument(nullptr, "<a>newborn</a>").ok());
  // ...and the old primary keeps writing and shipping into the void. The
  // first rounds may spend themselves on gap-resync housekeeping (the
  // replica was possibly stalled when promoted), but the moment a segment
  // actually lines up with the watermark the promoted node refuses it.
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>stale</a>").ok());
  bool refused = false;
  for (int round = 0; round < 6 && !refused; round++) {
    ASSERT_TRUE(shipper.ShipAll().ok());
    Status s = applier->CatchUp();
    if (s.IsNotSupported()) {
      refused = true;
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    ASSERT_EQ(rcoll->DocCount().value(), kept + 1)
        << "stale timeline leaked into the promoted node";
  }
  EXPECT_TRUE(refused);
  EXPECT_EQ(rcoll->DocCount().value(), kept + 1);
  EXPECT_EQ(rcoll->GetDocumentText(nullptr, kept + 1).value(),
            "<a>newborn</a>");
}

}  // namespace
}  // namespace testing
}  // namespace xdb
