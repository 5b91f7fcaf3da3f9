#include "storage/wal_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

#include "testing/fault_injector.h"

namespace xdb {

namespace {
// Record layout: [total_len u32][type u8][crc u32][payload]. A type byte
// with kHeaderCrcMark set carries a CRC over [total_len][type][payload], so
// a flipped length or type bit fails it; an unmarked record, framed before
// the header was covered, carries a CRC over the payload alone and still
// replays (the next checkpoint resets the log, so such records age out).
// Append marks every record.
constexpr size_t kRecordHeader = 4 + 1 + 4;
constexpr uint8_t kHeaderCrcMark = 0x80;

// The CRC the record whose header starts at `hdr` must carry.
uint32_t RecordCrc(const char* hdr, const char* payload, size_t len) {
  if ((static_cast<uint8_t>(hdr[4]) & kHeaderCrcMark) == 0)
    return Crc32(payload, len);
  return Crc32Extend(Crc32(hdr, 5), payload, len);
}

// Where the first intact marked record in buf[from, size) starts, or size
// when there is none. Only a marked record's CRC vouches for its length.
size_t NextIntactRecord(Slice buf, size_t from) {
  for (size_t q = from; q + kRecordHeader <= buf.size(); q++) {
    const char* hdr = buf.data() + q;
    if ((static_cast<uint8_t>(hdr[4]) & kHeaderCrcMark) == 0) continue;
    const uint64_t len = DecodeFixed32(hdr);
    if (q + kRecordHeader + len > buf.size()) continue;
    if (RecordCrc(hdr, hdr + kRecordHeader, len) == DecodeFixed32(hdr + 5))
      return q;
  }
  return buf.size();
}
}  // namespace

Status ScanWalRecords(
    Slice buf, uint64_t base_lsn,
    const std::function<Status(uint64_t, WalRecordType, Slice)>& visit,
    WalReplayInfo* info) {
  WalReplayInfo local;
  if (info == nullptr) info = &local;
  *info = WalReplayInfo{};
  info->end_lsn = base_lsn;
  const size_t size = buf.size();
  size_t pos = 0;
  while (pos + kRecordHeader <= size) {
    const char* hdr = buf.data() + pos;
    uint32_t len = DecodeFixed32(hdr);
    uint8_t type = static_cast<uint8_t>(hdr[4] & ~kHeaderCrcMark);
    uint32_t crc = DecodeFixed32(hdr + 5);
    uint64_t end = pos + kRecordHeader + len;
    if (end > size) {
      // A record running past the end of the log is a truncated last
      // record — the normal crash signature — unless an intact record
      // follows it: then its length field is damaged, which is mid-log
      // corruption, and the scan resumes at that record.
      const size_t next = NextIntactRecord(buf, pos + kRecordHeader);
      if (next == size) {
        info->torn_tail = true;
        break;
      }
      if (info->corrupt_records_skipped == 0)
        info->first_corrupt_lsn = base_lsn + pos;
      info->corrupt_records_skipped++;
      info->bytes_skipped += next - pos;
      pos = next;
      info->end_lsn = base_lsn + pos;
      continue;
    }
    const char* payload = buf.data() + pos + kRecordHeader;
    if (RecordCrc(hdr, payload, len) != crc) {
      if (end == size) {
        // CRC failure on the very last record: torn/partial final write.
        info->torn_tail = true;
        break;
      }
      // Intact records follow — this is mid-log corruption, not a crash
      // artifact. Skip the record, keep replaying, and let the caller warn.
      if (info->corrupt_records_skipped == 0)
        info->first_corrupt_lsn = base_lsn + pos;
      info->corrupt_records_skipped++;
      info->bytes_skipped += kRecordHeader + len;
      pos = end;
      info->end_lsn = base_lsn + pos;
      continue;
    }
    XDB_RETURN_NOT_OK(visit(base_lsn + pos, static_cast<WalRecordType>(type),
                            Slice(payload, len)));
    info->records_replayed++;
    pos = end;
    info->end_lsn = base_lsn + pos;
  }
  if (pos + kRecordHeader > size && pos < size && !info->torn_tail) {
    // A trailing fragment shorter than a header is a torn tail too.
    info->torn_tail = true;
  }
  return Status::OK();
}

WalLog::~WalLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalLog>> WalLog::Open(const std::string& path) {
  auto log = std::unique_ptr<WalLog>(new WalLog());
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0)
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  log->fd_ = fd;
  log->path_ = path;
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) return Status::IOError("lseek failed");
  log->size_.store(static_cast<uint64_t>(end), std::memory_order_relaxed);
  return log;
}

Result<uint64_t> WalLog::Append(WalRecordType type, Slice payload) {
  std::string rec;
  rec.reserve(kRecordHeader + payload.size());
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  rec.push_back(static_cast<char>(static_cast<uint8_t>(type) | kHeaderCrcMark));
  PutFixed32(&rec, RecordCrc(rec.data(), payload.data(), payload.size()));
  rec.append(payload.data(), payload.size());

  MutexLock lock(mu_);
  return AppendFramedLocked(rec);
}

Result<uint64_t> WalLog::AppendRaw(Slice framed_records) {
  MutexLock lock(mu_);
  return AppendFramedLocked(framed_records);
}

Result<uint64_t> WalLog::AppendFramedLocked(Slice rec) {
  uint64_t lsn = size_.load(std::memory_order_relaxed);
  io_stats_.writes.fetch_add(1, std::memory_order_relaxed);
  Status s = RetryTransient(
      retry_policy_, clock_, &io_stats_, events_, "wal append",
      [&]() -> Status {
        if (auto* fi = testing::FaultInjector::active()) {
          testing::FaultInjector::WriteSink sink;
          sink.fd = fd_;
          sink.offset = lsn;
          bool handled = false;
          Status st = fi->OnWrite(testing::FaultPoint::kWalAppend, rec.data(),
                                  rec.size(), sink, &handled);
          if (handled) return st;  // incl. OK for silent corruption: landed
        }
        ssize_t n =
            ::pwrite(fd_, rec.data(), rec.size(), static_cast<off_t>(lsn));
        if (n != static_cast<ssize_t>(rec.size())) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN))
            return Status::TransientIOError("log append interrupted");
          return Status::IOError("short log append");
        }
        return Status::OK();
      });
  XDB_RETURN_NOT_OK(s);
  size_.store(lsn + rec.size(), std::memory_order_relaxed);
  return lsn;
}

Status WalLog::Sync() {
  io_stats_.syncs.fetch_add(1, std::memory_order_relaxed);
  return RetryTransient(retry_policy_, clock_, &io_stats_, events_, "wal sync",
                        [&] {
    if (auto* fi = testing::FaultInjector::active())
      XDB_RETURN_NOT_OK(fi->OnOp(testing::FaultPoint::kWalSync));
    if (::fdatasync(fd_) != 0) {
      if (errno == EINTR || errno == EAGAIN)
        return Status::TransientIOError("fdatasync interrupted");
      return Status::IOError("fdatasync failed");
    }
    return Status::OK();
  });
}

Status WalLog::Commit() {
  // One span for the whole call: leader fsync time and follower condvar
  // time both count as kWalCommit. commit_mu_ (rank kWalCommit) is the
  // span's own component lock, so holding the span across it is fine.
  obs::WaitSpan commit_span(wait_sink_, obs::WaitState::kWalCommit);
  uint64_t gen;
  {
    MutexLock lock(commit_mu_);
    commit_stats_.commits++;
    round_commits_++;
    gen = reset_gen_;
  }
  // The CSN: everything appended before this call must become durable.
  // Snapshotted *after* the generation: a Reset() racing in between bumps
  // reset_gen_ and the loop's generation check catches it; the reverse
  // order would leave a window where a stale CSN slips past both checks.
  const uint64_t target = size_.load(std::memory_order_acquire);
  if (commit_race_hook_) commit_race_hook_();
  for (;;) {
    uint64_t sync_goal = 0;
    {
      MutexLock lock(commit_mu_);
      // A checkpoint Reset() the log after our CSN snapshot: the bytes the
      // CSN covered are gone (their effects are durable in the checkpoint),
      // and `target` may forever exceed the truncated log's size — treating
      // it as satisfied is the only way out.
      if (reset_gen_ != gen) return Status::OK();
      if (synced_upto_ >= target) return Status::OK();  // piggybacked
      if (sync_active_) {
        // A leader's fsync is in flight; wait for its round to finish and
        // re-check coverage (a failed round leaves synced_upto_ behind and
        // this caller becomes the retry leader).
        commit_cv_.Wait(lock);
        continue;
      }
      sync_active_ = true;
      commit_stats_.syncs++;
      // Sync through the *current* end of log, not just our own CSN: later
      // appends that raced in ride along for free.
      sync_goal = size_.load(std::memory_order_acquire);
    }
    Status st = Sync();  // commit_mu_ dropped: appends and waiters proceed
    uint64_t batch = 0;
    {
      MutexLock lock(commit_mu_);
      sync_active_ = false;
      // A goal snapshotted before a concurrent Reset() counts bytes that no
      // longer exist; publishing it would mark future appends durable that
      // never hit disk. Skipping the update only costs the next leader an
      // extra fsync.
      if (st.ok() && reset_gen_ == gen && sync_goal > synced_upto_) {
        synced_upto_ = sync_goal;
        batch = round_commits_;
        round_commits_ = 0;
      }
    }
    if (batch > 0) {
      // Emitted outside commit_mu_ purely to keep the critical section
      // short; both sinks are lock-free anyway.
      if (batch_hist_ != nullptr) batch_hist_->Observe(batch);
      if (events_ != nullptr)
        events_->Emit(obs::EventKind::kGroupCommitRound, batch, sync_goal,
                      "wal commit round");
    }
    commit_cv_.NotifyAll();
    if (!st.ok()) return st;
  }
}

WalCommitStats WalLog::commit_stats() const {
  MutexLock lock(commit_mu_);
  return commit_stats_;
}

Status WalLog::Replay(
    const std::function<Status(uint64_t, WalRecordType, Slice)>& visit,
    WalReplayInfo* info) {
  MutexLock lock(mu_);
  const uint64_t size = size_.load(std::memory_order_relaxed);
  std::vector<char> buf(size);
  uint64_t got = 0;
  while (got < size) {
    ssize_t n = ::pread(fd_, buf.data() + got, size - got,
                        static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("wal replay read failed");
    }
    if (n == 0) break;  // file shorter than size_: treat the rest as torn
    got += static_cast<uint64_t>(n);
  }
  Status s = ScanWalRecords(Slice(buf.data(), got), 0, visit, info);
  if (s.ok() && info != nullptr && got < size) info->torn_tail = true;
  return s;
}

Status WalLog::ReadDurable(uint64_t from_lsn, size_t max_bytes,
                           std::string* out, uint64_t* end_lsn,
                           uint32_t* record_count) {
  out->clear();
  *end_lsn = from_lsn;
  *record_count = 0;
  uint64_t upto;
  {
    MutexLock clock(commit_mu_);
    upto = synced_upto_;
  }
  MutexLock lock(mu_);
  // A racing Reset() can shrink the file after the synced_upto_ snapshot;
  // clamping to the current size keeps the reads in bounds (the caller
  // detects the restart via reset_generation() and rebases).
  const uint64_t size = size_.load(std::memory_order_relaxed);
  if (upto > size) upto = size;
  if (from_lsn >= upto) return Status::OK();

  uint64_t pos = from_lsn;
  std::vector<char> rec;
  while (pos + kRecordHeader <= upto) {
    char hdr[kRecordHeader];
    ssize_t n = ::pread(fd_, hdr, kRecordHeader, static_cast<off_t>(pos));
    if (n != static_cast<ssize_t>(kRecordHeader))
      return Status::IOError("wal tail read failed");
    uint32_t len = DecodeFixed32(hdr);
    uint32_t crc = DecodeFixed32(hdr + 5);
    uint64_t end = pos + kRecordHeader + len;
    if (end > upto) break;  // record not yet fully durable: stop here
    if (!out->empty() && end - from_lsn > max_bytes) break;
    rec.resize(len);
    n = ::pread(fd_, rec.data(), len, static_cast<off_t>(pos + kRecordHeader));
    if (n != static_cast<ssize_t>(len))
      return Status::IOError("wal tail read failed");
    if (RecordCrc(hdr, rec.data(), len) != crc) {
      // A CRC failure *inside* the durable region is media damage on the
      // primary, not a torn tail. Return what accumulated so far; a call
      // starting at the damaged record has nothing safe to ship.
      if (out->empty())
        return Status::Corruption("wal record damaged inside durable region");
      break;
    }
    out->append(hdr, kRecordHeader);
    out->append(rec.data(), len);
    (*record_count)++;
    pos = end;
  }
  *end_lsn = pos;
  return Status::OK();
}

uint64_t WalLog::durable_upto() const {
  MutexLock clock(commit_mu_);
  return synced_upto_;
}

uint64_t WalLog::reset_generation() const {
  MutexLock clock(commit_mu_);
  return reset_gen_;
}

void WalLog::set_retain_hook(std::function<uint64_t(uint64_t)> hook) {
  MutexLock lock(mu_);
  retain_hook_ = std::move(hook);
}

Status WalLog::TruncateTo(uint64_t lsn) {
  MutexLock lock(mu_);
  const uint64_t size = size_.load(std::memory_order_relaxed);
  if (lsn >= size) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(lsn)) != 0)
    return Status::IOError("ftruncate failed");
  size_.store(lsn, std::memory_order_relaxed);
  {
    MutexLock clock(commit_mu_);
    if (synced_upto_ > lsn) synced_upto_ = lsn;
  }
  return Status::OK();
}

Status WalLog::Reset() {
  MutexLock lock(mu_);
  return ResetLocked();
}

Result<bool> WalLog::MaybeReset() {
  MutexLock lock(mu_);
  if (retain_hook_ != nullptr) {
    uint64_t gen;
    {
      MutexLock clock(commit_mu_);
      gen = reset_gen_;
    }
    // The hook gets the current generation so a tailer whose position still
    // refers to a previous log epoch (it has not folded a prior Reset() into
    // its stream base yet) can refuse truncation outright instead of
    // comparing a stale offset against this log's size.
    if (retain_hook_(gen) < size_.load(std::memory_order_relaxed))
      return false;  // a tailer still needs bytes in the log: keep them
  }
  XDB_RETURN_NOT_OK(ResetLocked());
  return true;
}

Status WalLog::ResetLocked() {
  if (::ftruncate(fd_, 0) != 0) return Status::IOError("ftruncate failed");
  size_.store(0, std::memory_order_relaxed);
  {
    MutexLock clock(commit_mu_);
    synced_upto_ = 0;
    reset_gen_++;
  }
  // Wake committers waiting on an in-flight leader so they observe the
  // generation bump instead of waiting to chase a pre-truncation CSN.
  commit_cv_.NotifyAll();
  return Status::OK();
}

}  // namespace xdb
