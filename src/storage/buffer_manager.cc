#include "storage/buffer_manager.h"

#include <cassert>
#include <cstring>

#include "testing/fault_injector.h"

namespace xdb {

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    bm_ = o.bm_;
    frame_ = o.frame_;
    page_id_ = o.page_id_;
    offset_ = o.offset_;
    o.bm_ = nullptr;
    o.frame_ = nullptr;
    o.page_id_ = kInvalidPageId;
    o.offset_ = 0;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

char* PageHandle::MutableData() {
  frame_->dirty = true;
  return frame_->data.get() + offset_;
}

void PageHandle::Release() {
  if (frame_ != nullptr) {
    bm_->Unpin(frame_);
    frame_ = nullptr;
    bm_ = nullptr;
  }
}

namespace {
size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}
}  // namespace

size_t BufferManager::DefaultShardCount(size_t capacity) {
  size_t want = std::min<size_t>(8, capacity / 16);
  return want < 1 ? 1 : FloorPow2(want);
}

BufferManager::BufferManager(TableSpace* space, size_t capacity, size_t shards)
    : space_(space),
      capacity_(capacity == 0 ? 1 : capacity),
      data_offset_(space->data_offset()),
      checksums_(space->format_version() >= kTableSpaceFormatV2) {
  if (shards == 0) shards = DefaultShardCount(capacity_);
  shards = FloorPow2(std::min(shards, capacity_));
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; s++) shards_.push_back(std::make_unique<Shard>());
  frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; i++) {
    auto f = std::make_unique<internal::Frame>();
    f->data = std::make_unique<char[]>(space_->page_size());
    // Deal frames round-robin so every shard gets capacity/shards (±1).
    f->shard = static_cast<uint32_t>(i % shards);
    Shard& shard = *shards_[f->shard];
    MutexLock lock(shard.mu);
    shard.free_frames.push_back(f.get());
    frames_.push_back(std::move(f));
  }
}

// Destructor flush is best-effort: failures surface on the next fetch
// (checksum verify) or via explicit FlushAll calls that do check.
BufferManager::~BufferManager() { (void)FlushAll(); }

Status BufferManager::WriteBack(Shard& shard, internal::Frame* frame) {
  if (!frame->dirty) return Status::OK();
  if (auto* fi = testing::FaultInjector::active())
    XDB_RETURN_NOT_OK(fi->OnOp(testing::FaultPoint::kBufferWriteback));
  if (checksums_) {
    uint64_t lsn = 0;
    {
      MutexLock lock(lsn_mu_);
      if (lsn_source_) lsn = lsn_source_();
    }
    StampPageHeader(frame->data.get(), space_->page_size(), lsn, 0);
  }
  XDB_RETURN_NOT_OK(space_->WritePage(frame->page_id, frame->data.get()));
  frame->dirty = false;
  shard.stats.writebacks++;
  return Status::OK();
}

Result<internal::Frame*> BufferManager::GetFreeFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    internal::Frame* f = shard.free_frames.back();
    shard.free_frames.pop_back();
    return f;
  }
  if (shard.lru.empty())
    return Status::Busy("all buffer frames of the shard are pinned");
  internal::Frame* victim = shard.lru.front();
  // Write back before unlinking: a failed writeback leaves the victim at the
  // LRU front, evictable again, instead of stranding it outside both lists.
  XDB_RETURN_NOT_OK(WriteBack(shard, victim));
  shard.lru.pop_front();
  victim->in_lru = false;
  shard.table.erase(victim->page_id);
  shard.stats.evictions++;
  return victim;
}

Result<internal::Frame*> BufferManager::BorrowFrame(size_t dst) {
  for (size_t k = 1; k < shards_.size(); k++) {
    Shard& donor = *shards_[(dst + k) % shards_.size()];
    MutexLock lock(donor.mu);
    auto r = GetFreeFrame(donor);
    if (r.status().IsBusy()) continue;  // this donor is fully pinned too
    XDB_RETURN_NOT_OK(r.status());      // eviction writeback failed
    internal::Frame* f = r.value();
    f->page_id = kInvalidPageId;
    f->shard = static_cast<uint32_t>(dst);
    return f;
  }
  return Status::Busy("all buffer frames are pinned");
}

Result<PageHandle> BufferManager::FixPage(PageId id) {
  const size_t shard_idx = ShardIndex(id);
  Shard& shard = *shards_[shard_idx];
  for (;;) {
    internal::Frame* f = nullptr;
    {
      MutexLock lock(shard.mu);
      if (shard.quarantined.count(id) != 0)
        return Status::Corruption("page " + std::to_string(id) +
                                  " is quarantined");
      auto it = shard.table.find(id);
      if (it != shard.table.end()) {
        f = it->second;
        if (f->loading) {
          // Another fixer is reading this page in: wait for its read, then
          // retry — it may have failed (frame freed, maybe quarantined).
          obs::WaitSpan wait(wait_sink_, obs::WaitState::kBufferIo);
          while (f->loading && f->page_id == id) shard.loaded.Wait(lock);
          continue;
        }
        if (f->in_lru) {
          shard.lru.erase(f->lru_pos);
          f->in_lru = false;
        }
        f->pin_count++;
        shard.stats.hits++;
        return PageHandle(this, f, id, data_offset_);
      }
      auto free = GetFreeFrame(shard);
      if (free.ok()) {
        // Publish the frame pinned and loading, so concurrent fixers of this
        // page wait for the read instead of reading it twice, and do the
        // read itself without the shard lock.
        f = free.value();
        f->page_id = id;
        f->pin_count = 1;
        f->dirty = false;
        f->loading = true;
        shard.table[id] = f;
        shard.stats.misses++;
      } else if (!free.status().IsBusy()) {
        return free.status();
      }
    }
    if (f != nullptr) return LoadPage(shard, f, id);
    // Every frame of this shard is pinned: borrow one from another shard
    // (with no shard lock held), donate it to this shard's free list, and
    // retry — the retry re-checks the table because a concurrent caller may
    // have fixed the page, or consumed the donated frame, in the meantime.
    XDB_ASSIGN_OR_RETURN(internal::Frame* borrowed, BorrowFrame(shard_idx));
    MutexLock lock(shard.mu);
    shard.free_frames.push_back(borrowed);
  }
}

Result<PageHandle> BufferManager::LoadPage(Shard& shard, internal::Frame* f,
                                           PageId id) {
  // The miss-path read is the pool's dominant wait; attribute it as
  // kBufferIo (the hit path never starts a span).
  obs::WaitSpan io_span(wait_sink_, obs::WaitState::kBufferIo);
  Status read = space_->ReadPage(id, f->data.get());
  if (read.ok() && checksums_)
    read = VerifyPageChecksum(f->data.get(), space_->page_size(), id);
  io_span.Finish();
  MutexLock lock(shard.mu);
  f->loading = false;
  shard.loaded.NotifyAll();
  if (read.ok()) return PageHandle(this, f, id, data_offset_);
  // Unpublish the frame and hand it back so a failed read doesn't shrink
  // the pool; woken waiters retry and find the page gone or quarantined.
  shard.table.erase(id);
  f->page_id = kInvalidPageId;
  f->pin_count = 0;
  shard.free_frames.push_back(f);
  if (read.IsCorruption()) {
    shard.quarantined.insert(id);
    shard.stats.checksum_failures++;
    if (events_ != nullptr)
      events_->Emit(obs::EventKind::kPageQuarantined, id, 0,
                    "page checksum failed on fetch");
  }
  return read;
}

Result<PageHandle> BufferManager::NewPage() {
  XDB_ASSIGN_OR_RETURN(PageId id, space_->AllocatePage());
  const size_t shard_idx = ShardIndex(id);
  Shard& shard = *shards_[shard_idx];
  for (;;) {
    {
      MutexLock lock(shard.mu);
      shard.quarantined.erase(id);  // a recycled page starts a new, clean life
      auto free = GetFreeFrame(shard);
      if (free.ok()) {
        internal::Frame* f = free.value();
        std::memset(f->data.get(), 0, space_->page_size());
        f->page_id = id;
        f->pin_count = 1;
        f->dirty = true;
        shard.table[id] = f;
        return PageHandle(this, f, id, data_offset_);
      }
      if (!free.status().IsBusy()) return free.status();
    }
    XDB_ASSIGN_OR_RETURN(internal::Frame* borrowed, BorrowFrame(shard_idx));
    MutexLock lock(shard.mu);
    shard.free_frames.push_back(borrowed);
  }
}

Status BufferManager::FreePage(PageId id) {
  {
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    auto it = shard.table.find(id);
    if (it != shard.table.end()) {
      internal::Frame* f = it->second;
      if (f->pin_count > 0)
        return Status::Busy("freeing a pinned page");
      if (f->in_lru) {
        shard.lru.erase(f->lru_pos);
        f->in_lru = false;
      }
      f->dirty = false;
      shard.table.erase(it);
      shard.free_frames.push_back(f);
    }
  }
  return space_->FreePage(id);
}

void BufferManager::Unpin(internal::Frame* frame) {
  Shard& shard = *shards_[frame->shard];
  MutexLock lock(shard.mu);
  assert(frame->pin_count > 0);
  frame->pin_count--;
  if (frame->pin_count == 0) {
    shard.lru.push_back(frame);
    frame->lru_pos = std::prev(shard.lru.end());
    frame->in_lru = true;
  }
}

Status BufferManager::FlushAll() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [id, f] : shard->table) {
      (void)id;
      XDB_RETURN_NOT_OK(WriteBack(*shard, f));
    }
  }
  return Status::OK();
}

std::vector<PageId> BufferManager::quarantined_pages() const {
  std::vector<PageId> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.insert(out.end(), shard->quarantined.begin(),
               shard->quarantined.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

BufferManagerStats BufferManager::shard_stats(size_t shard) const {
  MutexLock lock(shards_[shard]->mu);
  return shards_[shard]->stats;
}

BufferManagerStats BufferManager::stats() const {
  BufferManagerStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.writebacks += shard->stats.writebacks;
    total.checksum_failures += shard->stats.checksum_failures;
  }
  return total;
}

size_t BufferManager::resident_frames() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    resident += shard->table.size();
  }
  return resident;
}

void BufferManager::ResetStats() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->stats = BufferManagerStats{};
  }
}

}  // namespace xdb
