// BufferManager: fixed-capacity page cache over a TableSpace with pinning,
// dirty tracking, and LRU replacement — the paper's reused "buffer manager"
// infrastructure component.
//
// The cache is split into N = power-of-two shards keyed by a page-id hash.
// Each shard owns its slice of the frames plus its own mutex, frame table,
// LRU list, quarantine set, and stats, so parallel query workers fixing
// pages of different shards never contend on one global lock. `stats()`
// aggregates across shards; checksum verification and quarantine stay
// per-shard (a corrupt page poisons only its own shard's table).
//
// A miss reads its page without the shard lock: the frame is published in
// the table pinned and marked loading, the read and checksum verify run
// unlocked, and fixers of the same page wait on the shard's condition
// variable meanwhile, so hits and misses on other pages of the shard go on.
// Dirty-victim writeback and FlushAll still write under the shard lock.
//
// For format-v2 table spaces this layer owns page integrity: every fetch
// verifies the page checksum (failures quarantine the page and surface
// kCorruption), every writeback stamps the header with the current CRC and
// page LSN. Clients see only the payload behind the header via
// PageHandle::data()/page_size(), so slotted-page and B+tree layouts are
// format-agnostic.
#ifndef XDB_STORAGE_BUFFER_MANAGER_H_
#define XDB_STORAGE_BUFFER_MANAGER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/event_log.h"
#include "obs/wait_state.h"
#include "storage/page.h"
#include "storage/tablespace.h"

namespace xdb {

class BufferManager;

namespace internal {
// Frame bookkeeping (page_id, pin_count, in_lru, lru_pos, loading) is
// protected by the owning shard's mutex. `data` and `dirty` belong
// exclusively to the pinning thread between FixPage and Unpin; once
// the frame is unpinned, the shard mutex hands them over to
// eviction/writeback (Unpin's lock release is the synchronization point).
// Concurrent pinners of one page may read `data` together; mutation requires
// a higher-level latch (the collection latch) excluding other pinners.
struct Frame {
  PageId page_id = kInvalidPageId;
  int pin_count = 0;
  bool dirty = false;
  std::unique_ptr<char[]> data;
  std::list<Frame*>::iterator lru_pos;
  bool in_lru = false;
  /// Published in the table while a miss reads the page in, unlocked, into
  /// `data`; the reader holds the pin. Other fixers of the page wait on the
  /// shard's `loaded` condition until the reader clears it.
  bool loading = false;
  /// Owning shard index. Changes only in BorrowFrame, while the frame is
  /// unpublished (no table entry, pin_count 0) under the donor shard's lock;
  /// pinners see the write via the destination shard's mutex when the frame
  /// is published there.
  uint32_t shard = 0;
};
}  // namespace internal

/// RAII pin on a buffered page. Movable, not copyable; unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return frame_ != nullptr; }
  PageId page_id() const { return page_id_; }
  const char* data() const { return frame_->data.get() + offset_; }
  /// Mutable access; marks the page dirty.
  char* MutableData();
  /// Explicit early unpin (also done by the destructor).
  void Release();

 private:
  friend class BufferManager;
  PageHandle(BufferManager* bm, internal::Frame* frame, PageId id,
             uint32_t offset)
      : bm_(bm), frame_(frame), page_id_(id), offset_(offset) {}

  BufferManager* bm_ = nullptr;
  internal::Frame* frame_ = nullptr;
  PageId page_id_ = kInvalidPageId;
  uint32_t offset_ = 0;
};

/// Per-shard (and aggregated) pool counters. `checksum_failures` lives here
/// — not on the tablespace IoStats — because page verification is this
/// layer's job; the metrics registry surfaces it as
/// `buffer.checksum_failures` (single source of truth).
struct BufferManagerStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t checksum_failures = 0;
};

class BufferManager {
 public:
  /// `capacity` is the number of page frames held in memory, divided evenly
  /// across `shards` (0 = DefaultShardCount; rounded down to a power of two
  /// and clamped so every shard owns at least one frame). A shard whose
  /// frames are all pinned borrows from other shards, so the pool only
  /// reports Busy once all `capacity` frames are pinned — pin capacity is
  /// not reduced to capacity/shards by skewed page-id distributions.
  BufferManager(TableSpace* space, size_t capacity, size_t shards = 0);
  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Sizing policy for `shards = 0`: one shard per 16 frames, capped at 8,
  /// rounded down to a power of two (a 64-frame pool gets 4). Pools under
  /// 32 frames (tests, tiny collections) stay single-shard and behave
  /// exactly like the unsharded manager.
  static size_t DefaultShardCount(size_t capacity);

  /// Pins page `id`, reading it from the table space on a miss. Returns
  /// kCorruption (and quarantines the page) when its checksum fails. A fix
  /// that waits for another fixer's read of the page counts as a hit, so
  /// `misses` equals the pages read from the table space.
  Result<PageHandle> FixPage(PageId id);

  /// Allocates a fresh page in the table space and pins it.
  Result<PageHandle> NewPage();

  /// Unpins and frees page `id` back to the table space. The page must not
  /// be pinned by anyone else.
  Status FreePage(PageId id);

  /// Writes back all dirty pages. Callers must exclude concurrent page
  /// writers (the engine holds the collection latch across checkpoints).
  Status FlushAll();

  /// WAL position stamped into page headers on writeback (page LSN). Unset,
  /// pages are stamped with LSN 0.
  void set_lsn_source(std::function<uint64_t()> source) XDB_EXCLUDES(lsn_mu_) {
    MutexLock lock(lsn_mu_);
    lsn_source_ = std::move(source);
  }

  /// Pages whose checksum failed; they stay unreadable until repaired.
  /// Sorted, so the report is deterministic across shard layouts.
  std::vector<PageId> quarantined_pages() const;

  TableSpace* space() { return space_; }
  /// Client-usable bytes per page (physical size minus the page header).
  uint32_t page_size() const { return space_->usable_page_size(); }

  size_t shard_count() const { return shards_.size(); }
  /// Counters of one shard (copied under its lock); tests verify that the
  /// aggregate equals the per-shard sum.
  BufferManagerStats shard_stats(size_t shard) const;
  /// Aggregate counters summed across all shards.
  BufferManagerStats stats() const;
  void ResetStats();

  /// Destination for kPageQuarantined events (engine-owned, may be null).
  void set_event_log(obs::EventLog* events) { events_ = events; }

  /// Destination for kBufferIo wait spans covering miss-path page reads and
  /// waits for another fixer's in-flight read (engine-owned, may be null).
  /// The hit path never touches it.
  void set_wait_sink(obs::WaitSink* sink) { wait_sink_ = sink; }

  /// Frames currently holding a page (published in some shard's table),
  /// summed across shards. With `capacity()` this is the pool residency
  /// reported by Engine::DebugSnapshot().
  size_t resident_frames() const;
  size_t capacity() const { return capacity_; }

 private:
  friend class PageHandle;

  /// One independent slice of the cache: its own lock, table, LRU and stats.
  struct Shard {
    mutable Mutex mu{LockRank::kBufferShard};
    std::unordered_map<PageId, internal::Frame*> table XDB_GUARDED_BY(mu);
    std::unordered_set<PageId> quarantined XDB_GUARDED_BY(mu);
    /// front = coldest unpinned frame
    std::list<internal::Frame*> lru XDB_GUARDED_BY(mu);
    std::vector<internal::Frame*> free_frames XDB_GUARDED_BY(mu);
    BufferManagerStats stats XDB_GUARDED_BY(mu);
    /// Signalled (under mu) whenever a loading frame of this shard finishes
    /// its read, successfully or not.
    CondVar loaded;
  };

  /// Fibonacci-hash of the page id onto a shard; adjacent page ids (B+tree
  /// node chains, record pages) spread across shards instead of clustering.
  size_t ShardIndex(PageId id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> 32) &
           shard_mask_;
  }
  Shard& ShardFor(PageId id) { return *shards_[ShardIndex(id)]; }
  const Shard& ShardFor(PageId id) const { return *shards_[ShardIndex(id)]; }

  void Unpin(internal::Frame* frame);
  Result<internal::Frame*> GetFreeFrame(Shard& shard) XDB_REQUIRES(shard.mu);
  /// Reads and verifies page `id` into `f`, which FixPage published pinned
  /// and loading, without the shard lock; then clears the mark and wakes the
  /// waiters. A failed read unpublishes the frame onto the free list (and
  /// quarantines the page on kCorruption).
  Result<PageHandle> LoadPage(Shard& shard, internal::Frame* f, PageId id)
      XDB_EXCLUDES(shard.mu);
  /// Takes a free (or evictable) frame from some other shard and re-homes it
  /// to shard `dst`, so one shard's pins can spill into the whole pool.
  /// Returns Busy only when every frame of every shard is pinned. Locks one
  /// donor shard at a time and never two shard mutexes together; callers
  /// must NOT hold any shard lock.
  Result<internal::Frame*> BorrowFrame(size_t dst);
  Status WriteBack(Shard& shard, internal::Frame* frame)
      XDB_REQUIRES(shard.mu);

  TableSpace* space_;
  size_t capacity_;
  uint32_t data_offset_;
  bool checksums_;
  /// Leaf lock (acquired inside a shard lock during writeback).
  mutable Mutex lsn_mu_{LockRank::kBufferLsn};
  std::function<uint64_t()> lsn_source_ XDB_GUARDED_BY(lsn_mu_);
  std::vector<std::unique_ptr<Shard>> shards_;  // fixed after ctor
  size_t shard_mask_ = 0;
  obs::EventLog* events_ = nullptr;
  obs::WaitSink* wait_sink_ = nullptr;
  std::vector<std::unique_ptr<internal::Frame>> frames_;  // fixed after ctor
};

}  // namespace xdb

#endif  // XDB_STORAGE_BUFFER_MANAGER_H_
