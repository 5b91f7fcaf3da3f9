// BTree: a disk-resident B+tree over the buffer manager.
//
// This is the paper's reused-and-extended "index manager": the same B+tree
// infrastructure serves the XML indexes (NodeID, XPath value, structural);
// with no base table there is no DocID index. Keys and values are opaque
// byte strings ordered by memcmp; entries are fully sorted by the composite
// (key, value), which gives the "zero, one or more index entries per record"
// duplicate behaviour that XPath value indexes need (Section 3.3).
#ifndef XDB_BTREE_BTREE_H_
#define XDB_BTREE_BTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace xdb {

namespace obs {
class Counter;
}  // namespace obs

struct BtreeStats {
  uint64_t entries = 0;
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;
  uint32_t height = 0;
};

class BTree {
 public:
  /// Creates an empty tree; the root page id is stable for the tree's
  /// lifetime (splits rewrite the root in place), so owners can persist it.
  /// `descents`, when given, counts every root-to-leaf walk (btree.descents).
  static Result<std::unique_ptr<BTree>> Create(
      BufferManager* bm, obs::Counter* descents = nullptr);

  /// Attaches to an existing tree rooted at `root`.
  static Result<std::unique_ptr<BTree>> Open(
      BufferManager* bm, PageId root, obs::Counter* descents = nullptr);

  PageId root() const { return root_; }
  /// Counts the calls that may change entries (Insert, Delete,
  /// ApplySorted). Under its owner's latch, two equal reads mean no entry
  /// changed in between.
  uint64_t writes() const { return writes_; }

  /// Inserts the pair; duplicate (key, value) pairs are stored once
  /// (idempotent insert).
  Status Insert(Slice key, Slice value);

  /// Removes one exact (key, value) pair. NotFound if absent.
  Status Delete(Slice key, Slice value);

  /// One (key, value) pair of a batch; views the caller's bytes.
  struct Entry {
    Slice key;
    Slice value;
  };
  enum class BatchOp { kInsert, kDelete };

  /// Applies `entries`, ascending in (key, value) order, exactly as Insert or
  /// Delete would one at a time: an existing pair inserts as a no-op, and a
  /// missing pair stops a delete batch with NotFound (the pairs before it
  /// are gone). One descent serves every pair below the leaf's upper fence,
  /// each searched from the previous pair's slot; a pair that does not fit
  /// goes through Insert, so leaves split as they would one at a time.
  /// Unsorted input is InvalidArgument.
  Status ApplySorted(BatchOp op, std::span<const Entry> entries);

  /// Walks the tree counting pages and entries (O(n); for reporting).
  Result<BtreeStats> ComputeStats();

  /// Forward iterator over (key, value) pairs in composite order. The
  /// iterator pins one leaf page at a time; the tree must not be modified
  /// while an iterator is live.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    Status Next();
    /// Views into the pinned page; valid until the next Next()/destruction.
    Slice key() const { return key_; }
    Slice value() const { return value_; }

   private:
    friend class BTree;
    Status LoadSlot();
    Status AdvanceLeaf();

    BTree* tree_ = nullptr;
    PageHandle page_;
    uint16_t slot_ = 0;
    bool valid_ = false;
    Slice key_, value_;
  };

  /// Positions at the first entry with (key, value) >= (target_key,
  /// target_value). An empty target_value therefore lands on the first
  /// duplicate of target_key.
  Result<Iterator> Seek(Slice key, Slice value = Slice());
  Result<Iterator> SeekToFirst();

 private:
  BTree(BufferManager* bm, PageId root, obs::Counter* descents)
      : bm_(bm), root_(root), descents_(descents) {}

  struct SplitResult {
    bool split = false;
    std::string sep_key, sep_value;  // first composite of the new right page
    PageId right = kInvalidPageId;
  };

  /// The smallest separator above a leaf's range seen on the way down;
  /// unbounded for the rightmost leaf.
  struct Fence {
    bool bounded = false;
    std::string key, value;
  };

  /// Walks from the root to the leaf whose range holds (key, value), counting
  /// one descent; fills `fence` when given.
  Result<PageHandle> FindLeaf(Slice key, Slice value, Fence* fence);
  Status InsertRec(PageId page_id, Slice key, Slice value, SplitResult* out);
  Status SplitRoot(const SplitResult& split);
  void CountDescent();

  BufferManager* bm_;
  PageId root_;
  uint64_t writes_ = 0;
  obs::Counter* descents_;
};

}  // namespace xdb

#endif  // XDB_BTREE_BTREE_H_
