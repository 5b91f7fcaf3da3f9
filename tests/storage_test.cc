// Tests for the storage substrate: table spaces, buffer manager, slotted
// records (inline / overflow / forwarding), and the WAL.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/coding.h"
#include "common/random.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/record_manager.h"
#include "storage/tablespace.h"
#include "storage/wal_log.h"
#include "testing/fault_injector.h"

namespace xdb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xdb_test_") + name + "_" +
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

TEST(TableSpaceTest, CreateAllocateReadWrite) {
  FileGuard file(TempPath("ts1"));
  auto ts = TableSpace::Create(file.path()).MoveValue();
  ASSERT_NE(ts, nullptr);
  PageId p1 = ts->AllocatePage().value();
  PageId p2 = ts->AllocatePage().value();
  EXPECT_NE(p1, p2);
  EXPECT_NE(p1, 0u);  // page 0 is the header

  std::string data(ts->page_size(), 'A');
  ASSERT_TRUE(ts->WritePage(p1, data.data()).ok());
  std::string readback(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p1, readback.data()).ok());
  EXPECT_EQ(readback, data);
}

TEST(TableSpaceTest, FreeListRecyclesPages) {
  FileGuard file(TempPath("ts2"));
  auto ts = TableSpace::Create(file.path()).MoveValue();
  PageId p1 = ts->AllocatePage().value();
  PageId count_before = ts->page_count();
  ASSERT_TRUE(ts->FreePage(p1).ok());
  PageId p2 = ts->AllocatePage().value();
  EXPECT_EQ(p2, p1);  // recycled
  EXPECT_EQ(ts->page_count(), count_before);
  // Recycled pages come back zeroed.
  std::string buf(ts->page_size(), 'x');
  ASSERT_TRUE(ts->ReadPage(p2, buf.data()).ok());
  for (char c : buf) ASSERT_EQ(c, '\0');
}

TEST(TableSpaceTest, PersistsAcrossReopen) {
  FileGuard file(TempPath("ts3"));
  PageId p;
  {
    auto ts = TableSpace::Create(file.path()).MoveValue();
    p = ts->AllocatePage().value();
    std::string data(ts->page_size(), 'Z');
    ASSERT_TRUE(ts->WritePage(p, data.data()).ok());
    ASSERT_TRUE(ts->Sync().ok());
  }
  auto ts = TableSpace::Open(file.path()).MoveValue();
  ASSERT_NE(ts, nullptr);
  std::string buf(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Z');
}

TEST(TableSpaceTest, InMemoryMode) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  PageId p = ts->AllocatePage().value();
  std::string data(ts->page_size(), 'M');
  ASSERT_TRUE(ts->WritePage(p, data.data()).ok());
  std::string buf(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, buf.data()).ok());
  EXPECT_EQ(buf, data);
}

TEST(TableSpaceTest, OpenRejectsGarbage) {
  FileGuard file(TempPath("ts4"));
  {
    std::FILE* f = std::fopen(file.path().c_str(), "wb");
    std::fputs("this is not a table space header at all padding padding "
               "padding padding",
               f);
    std::fclose(f);
  }
  EXPECT_FALSE(TableSpace::Open(file.path()).ok());
}

void PatchFile(const std::string& path, uint64_t offset, const char* bytes,
               size_t n) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes, static_cast<std::streamsize>(n));
}

// Format migration: spaces created without checksums are format v1 (no
// per-page header, full page payload) and keep working across reopen.
TEST(TableSpaceFormatTest, UncheckedV1SpacesStillOpen) {
  FileGuard file(TempPath("fmt_v1"));
  PageId p;
  {
    TableSpaceOptions opts;
    opts.page_checksums = false;
    auto ts = TableSpace::Create(file.path(), opts).MoveValue();
    EXPECT_EQ(ts->format_version(), kTableSpaceFormatV1);
    EXPECT_EQ(ts->data_offset(), 0u);
    EXPECT_EQ(ts->usable_page_size(), ts->page_size());
    p = ts->AllocatePage().value();
    std::string data(ts->page_size(), 'L');
    ASSERT_TRUE(ts->WritePage(p, data.data()).ok());
    ASSERT_TRUE(ts->Sync().ok());
  }
  auto ts = TableSpace::Open(file.path()).MoveValue();
  EXPECT_EQ(ts->format_version(), kTableSpaceFormatV1);
  std::string buf(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, buf.data()).ok());
  EXPECT_EQ(buf[0], 'L');
  // And a v1 BufferManager exposes the full page, no header reserve.
  BufferManager bm(ts.get(), 4);
  EXPECT_EQ(bm.page_size(), ts->page_size());
}

// Pre-versioning files have zeros where the format/crc fields now live —
// they must be probed as legacy v1, not rejected.
TEST(TableSpaceFormatTest, LegacyZeroVersionHeaderOpensAsV1) {
  FileGuard file(TempPath("fmt_v0"));
  {
    TableSpaceOptions opts;
    opts.page_checksums = false;
    auto ts = TableSpace::Create(file.path(), opts).MoveValue();
    ASSERT_TRUE(ts->AllocatePage().ok());
    ASSERT_TRUE(ts->Sync().ok());
  }
  const char zeros[8] = {0};
  PatchFile(file.path(), 16, zeros, sizeof(zeros));  // wipe version + crc
  auto opened = TableSpace::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->format_version(), kTableSpaceFormatV1);
}

TEST(TableSpaceFormatTest, V2DefaultReservesPageHeader) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  EXPECT_EQ(ts->format_version(), kTableSpaceFormatV2);
  EXPECT_EQ(ts->data_offset(), kPageHeaderSize);
  EXPECT_EQ(ts->usable_page_size(), ts->page_size() - kPageHeaderSize);
}

// Writeback stamps the page header (LSN + CRC); fetch verifies it.
TEST(BufferManagerChecksumTest, WritebackStampsHeaderWithLsn) {
  FileGuard file(TempPath("bm_stamp"));
  auto ts = TableSpace::Create(file.path()).MoveValue();
  BufferManager bm(ts.get(), 4);
  bm.set_lsn_source([] { return uint64_t{42}; });
  PageId p;
  {
    PageHandle h = bm.NewPage().MoveValue();
    p = h.page_id();
    std::memset(h.MutableData(), 'S', bm.page_size());
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  std::string raw(ts->page_size(), '\0');
  ASSERT_TRUE(ts->ReadPage(p, raw.data()).ok());
  EXPECT_TRUE(VerifyPageChecksum(raw.data(), ts->page_size(), p).ok());
  EXPECT_EQ(PageLsn(raw.data()), 42u);
  EXPECT_EQ(raw[kPageHeaderSize], 'S');  // payload starts after the header
}

// A bit flip on disk is detected at fetch: kCorruption, page quarantined,
// stats recorded — never silently served.
TEST(BufferManagerChecksumTest, FetchDetectsOnDiskCorruption) {
  FileGuard file(TempPath("bm_detect"));
  auto ts = TableSpace::Create(file.path()).MoveValue();
  PageId p;
  {
    BufferManager bm(ts.get(), 4);
    PageHandle h = bm.NewPage().MoveValue();
    p = h.page_id();
    std::memset(h.MutableData(), 'C', bm.page_size());
  }  // dtor flushes
  const char flip = 'C' ^ 0x04;
  PatchFile(file.path(),
            static_cast<uint64_t>(p) * ts->page_size() + kPageHeaderSize + 7,
            &flip, 1);

  BufferManager bm(ts.get(), 4);
  Status st = bm.FixPage(p).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // The buffer manager is the single owner of this count
  // (`buffer.checksum_failures`); the tablespace I/O stats no longer mirror
  // it.
  EXPECT_EQ(bm.stats().checksum_failures, 1u);
  ASSERT_EQ(bm.quarantined_pages().size(), 1u);
  EXPECT_EQ(bm.quarantined_pages()[0], p);
  // Quarantine is sticky: the page stays refused without re-reading it.
  EXPECT_TRUE(bm.FixPage(p).status().IsCorruption());
}

TEST(BufferManagerTest, HitsAndMisses) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(ts.get(), 4);
  PageId p = ts->AllocatePage().value();
  {
    PageHandle h = bm.FixPage(p).MoveValue();
    EXPECT_EQ(bm.stats().misses, 1u);
  }
  {
    PageHandle h = bm.FixPage(p).MoveValue();
    EXPECT_EQ(bm.stats().hits, 1u);
  }
}

TEST(BufferManagerTest, EvictsLruAndWritesBack) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(ts.get(), 2);
  PageId pages[3];
  for (auto& p : pages) p = ts->AllocatePage().value();
  {
    PageHandle h = bm.FixPage(pages[0]).MoveValue();
    h.MutableData()[0] = 'D';
  }
  { PageHandle h = bm.FixPage(pages[1]).MoveValue(); }
  // Third page forces eviction of pages[0] (coldest unpinned).
  { PageHandle h = bm.FixPage(pages[2]).MoveValue(); }
  EXPECT_GE(bm.stats().evictions, 1u);
  EXPECT_GE(bm.stats().writebacks, 1u);
  // The dirty byte survived eviction.
  PageHandle h = bm.FixPage(pages[0]).MoveValue();
  EXPECT_EQ(h.data()[0], 'D');
}

// A failed eviction writeback must leave its victim evictable: it stays on
// the LRU, and its dirty bytes reach the table space on the next, successful
// eviction.
TEST(BufferManagerTest, FailedEvictionWritebackKeepsVictimEvictable) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(ts.get(), 2);
  PageId pages[3];
  for (auto& p : pages) p = ts->AllocatePage().value();
  for (int i = 0; i < 2; i++) {
    PageHandle h = bm.FixPage(pages[i]).MoveValue();
    std::memset(h.MutableData(), 'a' + i, bm.page_size());
  }
  {
    testing::ScopedFaultInjector fi;
    fi->Arm(testing::FaultPoint::kBufferWriteback, 1,
            testing::FaultKind::kError);
    fi->Arm(testing::FaultPoint::kBufferWriteback, 2,
            testing::FaultKind::kError);
    for (int attempt = 0; attempt < 2; attempt++) {
      Status st = bm.FixPage(pages[2]).status();
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
  }
  // No fault armed and nothing pinned: the third page must fit.
  {
    auto h = bm.FixPage(pages[2]);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
  }
  // Both dirty pages were evicted by now, so these fixes read them back.
  for (int i = 0; i < 2; i++) {
    auto h = bm.FixPage(pages[i]);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(h.value().data()[0], static_cast<char>('a' + i));
    EXPECT_EQ(h.value().data()[bm.page_size() - 1],
              static_cast<char>('a' + i));
  }
  EXPECT_EQ(bm.stats().writebacks, 2u);
}

TEST(BufferManagerTest, AllPinnedReportsBusy) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(ts.get(), 2);
  PageId p1 = ts->AllocatePage().value();
  PageId p2 = ts->AllocatePage().value();
  PageId p3 = ts->AllocatePage().value();
  PageHandle h1 = bm.FixPage(p1).MoveValue();
  PageHandle h2 = bm.FixPage(p2).MoveValue();
  auto res = bm.FixPage(p3);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsBusy());
}

// One shard per 16 frames, a power of two capped at 8: scan_large's
// 64-frame pool gets 4 shards for its 4 query threads, and pools under 32
// frames stay single-shard.
TEST(BufferManagerTest, DefaultShardCountPolicy) {
  for (size_t frames : {1, 2, 8, 16, 31})
    EXPECT_EQ(BufferManager::DefaultShardCount(frames), 1u) << frames;
  for (size_t frames : {32, 48, 63})
    EXPECT_EQ(BufferManager::DefaultShardCount(frames), 2u) << frames;
  for (size_t frames : {64, 100, 127})
    EXPECT_EQ(BufferManager::DefaultShardCount(frames), 4u) << frames;
  for (size_t frames : {128, 512, 4096})
    EXPECT_EQ(BufferManager::DefaultShardCount(frames), 8u) << frames;

  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  EXPECT_EQ(BufferManager(ts.get(), 64).shard_count(), 4u);
  EXPECT_EQ(BufferManager(ts.get(), 16).shard_count(), 1u);
}

TEST(BufferManagerTest, SkewedPinsBorrowFramesAcrossShards) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto ts = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(ts.get(), /*capacity=*/8, /*shards=*/4);
  ASSERT_EQ(bm.shard_count(), 4u);

  // Gather page ids that all hash to one shard (the manager's Fibonacci
  // hash, replicated here) — more of them than the shard's own 8/4 = 2
  // frames, so pinning them all only works if the shard borrows frames.
  auto shard_of = [](PageId id) {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> 32) & 3;
  };
  std::vector<PageId> skewed;
  size_t target_shard = 0;
  while (skewed.size() < 6) {
    PageId id = ts->AllocatePage().value();
    if (skewed.empty()) target_shard = shard_of(id);
    if (shard_of(id) == target_shard) skewed.push_back(id);
  }

  std::vector<PageHandle> pins;
  for (PageId id : skewed) {
    auto h = bm.FixPage(id);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    pins.push_back(h.MoveValue());
  }

  // Fill the remaining frames with arbitrary pages, then one more pin must
  // report Busy: borrowing extends a shard's reach to the whole pool, not
  // beyond it.
  while (pins.size() < 8) {
    PageId id = ts->AllocatePage().value();
    auto h = bm.FixPage(id);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    pins.push_back(h.MoveValue());
  }
  PageId extra = ts->AllocatePage().value();
  auto res = bm.FixPage(extra);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsBusy());

  // Unpinning any page frees capacity for any shard (via eviction or
  // another borrow).
  pins.pop_back();
  EXPECT_TRUE(bm.FixPage(extra).ok());
}

class RecordManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 64);
    rm_ = std::make_unique<RecordManager>(bm_.get());
  }

  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<RecordManager> rm_;
};

TEST_F(RecordManagerTest, InsertGetDelete) {
  Rid rid = rm_->Insert("hello record").value();
  std::string out;
  ASSERT_TRUE(rm_->Get(rid, &out).ok());
  EXPECT_EQ(out, "hello record");
  ASSERT_TRUE(rm_->Delete(rid).ok());
  EXPECT_TRUE(rm_->Get(rid, &out).IsNotFound());
}

TEST_F(RecordManagerTest, ManySmallRecordsSpanPages) {
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; i++) {
    rids.push_back(rm_->Insert("record-" + std::to_string(i)).value());
  }
  EXPECT_GT(rm_->stats().data_pages, 1u);
  for (int i = 0; i < 2000; i++) {
    std::string out;
    ASSERT_TRUE(rm_->Get(rids[i], &out).ok()) << i;
    EXPECT_EQ(out, "record-" + std::to_string(i));
  }
}

TEST_F(RecordManagerTest, OverflowRecordRoundTrip) {
  std::string big(20000, 'B');
  for (size_t i = 0; i < big.size(); i++) big[i] = static_cast<char>('a' + i % 26);
  Rid rid = rm_->Insert(big).value();
  EXPECT_GE(rm_->stats().overflow_records, 1u);
  std::string out;
  ASSERT_TRUE(rm_->Get(rid, &out).ok());
  EXPECT_EQ(out, big);
  ASSERT_TRUE(rm_->Delete(rid).ok());
}

TEST_F(RecordManagerTest, UpdateInPlaceKeepsRid) {
  Rid rid = rm_->Insert("short").value();
  ASSERT_TRUE(rm_->Update(rid, "a bit longer value").ok());
  std::string out;
  ASSERT_TRUE(rm_->Get(rid, &out).ok());
  EXPECT_EQ(out, "a bit longer value");
}

TEST_F(RecordManagerTest, UpdateGrowthForwardsButRidStable) {
  // Fill a page so in-place growth is impossible.
  std::vector<Rid> rids;
  for (int i = 0; i < 12; i++)
    rids.push_back(rm_->Insert(std::string(300, 'a' + i)).value());
  Rid victim = rids[3];
  std::string grown(2500, 'G');
  ASSERT_TRUE(rm_->Update(victim, grown).ok());
  std::string out;
  ASSERT_TRUE(rm_->Get(victim, &out).ok());
  EXPECT_EQ(out, grown);
  // And everyone else is untouched.
  for (int i = 0; i < 12; i++) {
    if (rids[i] == victim) continue;
    ASSERT_TRUE(rm_->Get(rids[i], &out).ok());
    EXPECT_EQ(out, std::string(300, 'a' + i));
  }
  // Update a forwarded record again.
  ASSERT_TRUE(rm_->Update(victim, "tiny now").ok());
  ASSERT_TRUE(rm_->Get(victim, &out).ok());
  EXPECT_EQ(out, "tiny now");
}

TEST_F(RecordManagerTest, UpdateNearInlineLimitUsesOverflow) {
  // Regression: a record just under the inline maximum cannot be relocated
  // (the moved-in cell adds an 8-byte home-RID prefix); the update must
  // route through an overflow chain instead of corrupting the page.
  const size_t near_max = 4083 - 4;  // page 4096: max_inline - epsilon
  Rid rid = rm_->Insert(std::string(100, 'a')).value();
  // Park another record so in-place growth is impossible.
  rm_->Insert(std::string(3800, 'b')).value();
  std::string big(near_max, 'c');
  ASSERT_TRUE(rm_->Update(rid, big).ok());
  std::string out;
  ASSERT_TRUE(rm_->Get(rid, &out).ok());
  EXPECT_EQ(out, big);
  // Repeated churn around the limit stays healthy.
  for (int i = 0; i < 50; i++) {
    std::string payload(near_max - 60 + static_cast<size_t>(i), 'd');
    ASSERT_TRUE(rm_->Update(rid, payload).ok()) << i;
    ASSERT_TRUE(rm_->Get(rid, &out).ok()) << i;
    ASSERT_EQ(out, payload) << i;
  }
}

TEST_F(RecordManagerTest, ScanVisitsEveryRecordOnce) {
  std::set<std::string> expected;
  for (int i = 0; i < 50; i++) {
    std::string rec = "rec" + std::to_string(i);
    expected.insert(rec);
    rm_->Insert(rec).value();
  }
  // Include an overflow and a forwarded record.
  rm_->Insert(std::string(9000, 'O')).value();
  expected.insert(std::string(9000, 'O'));

  std::multiset<std::string> seen;
  ASSERT_TRUE(rm_->ScanAll([&](Rid, Slice data) {
                  seen.insert(data.ToString());
                  return Status::OK();
                })
                  .ok());
  EXPECT_EQ(seen.size(), expected.size());
  for (const auto& e : expected) EXPECT_EQ(seen.count(e), 1u) << e.substr(0, 16);
}

TEST_F(RecordManagerTest, UpdatePreservesOtherOverflowChains) {
  Rid a = rm_->Insert(std::string(10000, 'A')).value();
  Rid b = rm_->Insert(std::string(10000, 'B')).value();
  ASSERT_TRUE(rm_->Update(a, std::string(12000, 'C')).ok());
  std::string out;
  ASSERT_TRUE(rm_->Get(b, &out).ok());
  EXPECT_EQ(out, std::string(10000, 'B'));
  ASSERT_TRUE(rm_->Get(a, &out).ok());
  EXPECT_EQ(out, std::string(12000, 'C'));
}

TEST(RecordManagerPersistTest, RecoverRebuildsFreeSpace) {
  FileGuard file(TempPath("rm1"));
  std::vector<Rid> rids;
  {
    auto space = TableSpace::Create(file.path()).MoveValue();
    BufferManager bm(space.get(), 64);
    RecordManager rm(&bm);
    for (int i = 0; i < 100; i++)
      rids.push_back(rm.Insert("persisted-" + std::to_string(i)).value());
    ASSERT_TRUE(bm.FlushAll().ok());
    ASSERT_TRUE(space->Sync().ok());
  }
  auto space = TableSpace::Open(file.path()).MoveValue();
  BufferManager bm(space.get(), 64);
  RecordManager rm(&bm);
  ASSERT_TRUE(rm.Recover().ok());
  for (int i = 0; i < 100; i++) {
    std::string out;
    ASSERT_TRUE(rm.Get(rids[i], &out).ok());
    EXPECT_EQ(out, "persisted-" + std::to_string(i));
  }
  // New inserts reuse recovered free space rather than always extending.
  Rid extra = rm.Insert("after recovery").value();
  std::string out;
  ASSERT_TRUE(rm.Get(extra, &out).ok());
  EXPECT_EQ(out, "after recovery");
}

TEST(WalLogTest, AppendAndReplay) {
  FileGuard file(TempPath("wal1"));
  auto wal = WalLog::Open(file.path()).MoveValue();
  ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "doc one").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kDeleteDocument, "doc two").ok());
  ASSERT_TRUE(wal->Sync().ok());

  std::vector<std::pair<WalRecordType, std::string>> seen;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType type, Slice payload) {
                   seen.emplace_back(type, payload.ToString());
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, WalRecordType::kInsertDocument);
  EXPECT_EQ(seen[0].second, "doc one");
  EXPECT_EQ(seen[1].first, WalRecordType::kDeleteDocument);
  EXPECT_EQ(seen[1].second, "doc two");
}

TEST(WalLogTest, TornTailStopsCleanly) {
  FileGuard file(TempPath("wal2"));
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "good").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "will be torn").ok());
  }
  // Truncate mid-record.
  std::filesystem::resize_file(file.path(),
                               std::filesystem::file_size(file.path()) - 5);
  auto wal = WalLog::Open(file.path()).MoveValue();
  int count = 0;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice payload) {
                   count++;
                   EXPECT_EQ(payload.ToString(), "good");
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST(WalLogTest, CorruptPayloadStopsAtCrc) {
  FileGuard file(TempPath("wal3"));
  {
    auto wal = WalLog::Open(file.path()).MoveValue();
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "first").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "second").ok());
  }
  // Flip a byte in the second record's payload.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "r+b");
    std::fseek(f, -2, SEEK_END);
    std::fputc('X', f);
    std::fclose(f);
  }
  auto wal = WalLog::Open(file.path()).MoveValue();
  int count = 0;
  ASSERT_TRUE(
      wal->Replay([&](uint64_t, WalRecordType, Slice) {
           count++;
           return Status::OK();
         }).ok());
  EXPECT_EQ(count, 1);
}

TEST(WalLogTest, ResetTruncates) {
  FileGuard file(TempPath("wal4"));
  auto wal = WalLog::Open(file.path()).MoveValue();
  ASSERT_TRUE(wal->Append(WalRecordType::kCheckpoint, "x").ok());
  EXPECT_GT(wal->size(), 0u);
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->size(), 0u);
  int count = 0;
  ASSERT_TRUE(wal->Replay([&](uint64_t, WalRecordType, Slice) {
                   count++;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 0);
}

TEST(WalLogTest, CommitSupersededByResetReturnsInsteadOfLivelocking) {
  FileGuard file(TempPath("wal5"));
  auto wal = WalLog::Open(file.path()).MoveValue();
  ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "payload").ok());

  // A checkpoint's Reset() lands in the exact window after Commit snapshots
  // its CSN. The truncated log can never reach that CSN again, so the
  // commit must treat the checkpoint as having superseded it and return OK
  // — the pre-generation-counter code fsynced forever chasing the stale
  // target.
  int resets = 0;
  wal->set_commit_race_hook_for_test([&] {
    if (resets++ == 0) {
      ASSERT_TRUE(wal->Reset().ok());
    }
  });
  Status st = wal->Commit();
  EXPECT_TRUE(st.ok()) << st.ToString();
  wal->set_commit_race_hook_for_test(nullptr);
  EXPECT_EQ(wal->size(), 0u);

  // The log keeps working after the superseded commit.
  ASSERT_TRUE(wal->Append(WalRecordType::kInsertDocument, "after").ok());
  EXPECT_TRUE(wal->Commit().ok());
}

// Byte-at-a-time CRC-32 over the reflected polynomial 0xEDB88320, bit by
// bit, continuing `crc`: the reference both Crc32 paths (carry-less
// multiply folding and slicing-by-8) must match value for value, so page
// headers, WAL records, segments and the catalog keep their format.
uint32_t ReferenceCrc32Extend(uint32_t crc, const char* data, size_t n) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    c ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownValueAndSensitivity) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);  // the standard check value
  EXPECT_EQ(Crc32("", 0), 0u);
  uint32_t a = Crc32("hello", 5);
  uint32_t b = Crc32("hellp", 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Crc32("hello", 5));
}

TEST(Crc32Test, MatchesByteAtATimeReference) {
  Random rng(0xC3C32);
  std::string buf(64 * 1024 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  // Every length up to 1,100 at every offset mod 16, from a different
  // starting CRC per offset: the 64-byte folds, the 16-byte folds, the
  // 8-byte table steps, the byte tail, and their seams. The reference
  // extends one byte per length.
  for (size_t offset = 0; offset < 16; offset++) {
    const char* p = buf.data() + offset;
    const uint32_t init = offset == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    uint32_t want = init;
    for (size_t len = 0; len <= 1100; len++) {
      if (len > 0) want = ReferenceCrc32Extend(want, p + len - 1, 1);
      ASSERT_EQ(Crc32Extend(init, p, len), want)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(internal::Crc32ExtendTables(init, p, len), want)
          << "tables: offset " << offset << " length " << len;
    }
  }
  const uint32_t want = ReferenceCrc32Extend(0, buf.data(), 64 * 1024);
  EXPECT_EQ(Crc32(buf.data(), 64 * 1024), want);
  EXPECT_EQ(internal::Crc32ExtendTables(0, buf.data(), 64 * 1024), want);
  EXPECT_EQ(Crc32(buf.data(), kDefaultPageSize),
            ReferenceCrc32Extend(0, buf.data(), kDefaultPageSize));
}

// Crc32Extend continues a CRC wherever the input is split, including
// splits that leave a fold's 64-byte minimum on one side only. The WAL
// checksums a record's header and payload this way.
TEST(Crc32Test, ExtendAtRandomSplitsEqualsWholeBuffer) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  SCOPED_TRACE("gtest random seed " + std::to_string(seed));
  Random rng(seed);
  for (int round = 0; round < 2000; round++) {
    std::string whole(rng.Uniform(3000), '\0');
    for (char& c : whole) c = static_cast<char>(rng.Next());
    const size_t split = rng.Uniform(whole.size() + 1);
    const uint32_t head = Crc32(whole.data(), split);
    ASSERT_EQ(Crc32Extend(head, whole.data() + split, whole.size() - split),
              Crc32(whole.data(), whole.size()))
        << "length " << whole.size() << " split " << split;
  }
}

// The dispatch is checked on its own: every value test above would pass on
// the table path alone, so a dispatch that never chose the folding path on
// a host that has it would otherwise go unseen.
TEST(Crc32Test, HostWithCarryLessMultiplyRunsTheFold) {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("sse4.1"))
    GTEST_SKIP() << "this x86-64 host has no PCLMULQDQ or SSE4.1";
  EXPECT_TRUE(internal::Crc32Folds());
#else
  EXPECT_FALSE(internal::Crc32Folds());
#endif
}

}  // namespace
}  // namespace xdb
