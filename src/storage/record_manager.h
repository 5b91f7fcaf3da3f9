// RecordManager: variable-length records in slotted pages, addressed by RID.
//
// This is the "data manager" of the paper's reused infrastructure. Packed XML
// records, base-table rows, and shredded node rows are all stored here; to
// this layer they are opaque byte strings. Records larger than a page spill
// to overflow page chains; relocated records leave a forwarding pointer so
// RIDs stay stable (value and NodeID indexes store RIDs).
#ifndef XDB_STORAGE_RECORD_MANAGER_H_
#define XDB_STORAGE_RECORD_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace xdb {

/// Page type tags (first byte of every page) so a table space can host data
/// pages, overflow chains, and B+tree nodes side by side.
enum PageType : uint8_t {
  kFreePage = 0,
  kDataPage = 1,
  kOverflowPage = 2,
  kBtreeLeafPage = 3,
  kBtreeInternalPage = 4,
  kMetaPage = 5,
};

struct RecordManagerStats {
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t overflow_records = 0;
  uint64_t data_pages = 0;
  /// Records currently stored (maintained incrementally; rebuilt by
  /// Recover) — cheap cardinality for the planner.
  uint64_t live_records = 0;
  /// Pages Recover() skipped because their checksum failed; the data they
  /// held is unreadable until Engine::Scrub() repairs from the WAL.
  uint64_t corrupt_pages = 0;
};

class RecordManager {
 public:
  explicit RecordManager(BufferManager* bm);

  /// Rebuilds the free-space map by scanning existing data pages. Call after
  /// reopening a table space that already holds records. Pages that fail
  /// their checksum are counted (stats().corrupt_pages) and skipped — the
  /// rest of the space stays readable; touching a quarantined page later
  /// surfaces kCorruption.
  Status Recover() XDB_EXCLUDES(mu_);

  /// Structural check of one data page's envelope (slot directory and cell
  /// extents within bounds, valid cell flags). `page` is the client payload,
  /// `page_size` the usable size. Used by the scrub sweep.
  static Status VerifyDataPage(const char* page, uint32_t page_size);

  Result<Rid> Insert(Slice record) XDB_EXCLUDES(mu_);

  /// Fetches the record at `rid` (following any forwarding pointer).
  Status Get(Rid rid, std::string* out);

  /// Replaces the record at `rid`; the RID remains valid afterwards.
  Status Update(Rid rid, Slice record) XDB_EXCLUDES(mu_);

  Status Delete(Rid rid) XDB_EXCLUDES(mu_);

  /// Visits every record as (rid, bytes). Relocated records are reported
  /// under their home RID. Iteration order is physical (page, slot).
  Status ScanAll(
      const std::function<Status(Rid, Slice)>& visitor);

  /// Snapshot of the counters (copied under the lock).
  RecordManagerStats stats() const XDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

  /// Bytes of storage held by data and overflow pages (for the storage-size
  /// experiments): page_count * page_size for pages this manager touched.
  uint64_t StorageBytes() const XDB_EXCLUDES(mu_);

 private:
  // Cell flags.
  static constexpr uint8_t kInline = 0;
  static constexpr uint8_t kOverflow = 1;
  static constexpr uint8_t kForward = 2;
  static constexpr uint8_t kMovedIn = 3;
  /// Tiny records are padded so every cell can later be rewritten in place
  /// as a 9-byte forwarding pointer or overflow stub: [flag][payload_len u8]
  /// [payload][zero padding].
  static constexpr uint8_t kInlinePadded = 4;
  static constexpr uint32_t kMinCell = 9;

  struct PageRef {
    PageHandle handle;
  };

  Result<Rid> InsertCell(uint8_t flag, Slice payload, Slice home_rid_prefix)
      XDB_EXCLUDES(mu_);
  Status WriteOverflowChain(Slice data, PageId* first_page) XDB_EXCLUDES(mu_);
  Status FreeOverflowChain(PageId first_page) XDB_EXCLUDES(mu_);
  Status ReadOverflowChain(PageId first_page, uint32_t total_len,
                           std::string* out);
  Status FreeCellAt(PageHandle& page, uint16_t slot) XDB_EXCLUDES(mu_);

  BufferManager* bm_;
  mutable Mutex mu_{LockRank::kRecordManager};
  // page id -> free bytes (approximate; refreshed on modification).
  std::map<PageId, uint32_t> free_space_ XDB_GUARDED_BY(mu_);
  RecordManagerStats stats_ XDB_GUARDED_BY(mu_);
  uint64_t overflow_pages_ XDB_GUARDED_BY(mu_) = 0;
};

}  // namespace xdb

#endif  // XDB_STORAGE_RECORD_MANAGER_H_
