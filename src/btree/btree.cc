#include "btree/btree.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "obs/metrics.h"
#include "storage/record_manager.h"  // for PageType tags

namespace xdb {

namespace {

// Shared page layout:
//   [0]  type        u8   (kBtreeLeafPage / kBtreeInternalPage)
//   [1]  flags       u8
//   [2]  nslots      u16
//   [4]  cell_start  u16
//   [6]  pad         u16
//   [8]  next_leaf (leaf) / leftmost_child (internal)  u32
//   [12] slot array: {offset u16, len u16} per slot, in key order
// Leaf cell:     [klen varint][key][vlen varint][value]
// Internal cell: [klen varint][key][vlen varint][value][child u32]
constexpr uint32_t kHeader = 12;
constexpr uint32_t kSlotSize = 4;

uint16_t GetNumSlots(const char* p) { return DecodeFixed16(p + 2); }
void SetNumSlots(char* p, uint16_t n) { EncodeFixed16(p + 2, n); }
uint16_t GetCellStart(const char* p) { return DecodeFixed16(p + 4); }
void SetCellStart(char* p, uint16_t v) { EncodeFixed16(p + 4, v); }
PageId GetLink(const char* p) { return DecodeFixed32(p + 8); }
void SetLink(char* p, PageId id) { EncodeFixed32(p + 8, id); }
bool IsLeaf(const char* p) {
  return static_cast<uint8_t>(p[0]) == kBtreeLeafPage;
}

void ReadSlot(const char* p, uint16_t slot, uint16_t* off, uint16_t* len) {
  const char* s = p + kHeader + slot * kSlotSize;
  *off = DecodeFixed16(s);
  *len = DecodeFixed16(s + 2);
}
void WriteSlot(char* p, uint16_t slot, uint16_t off, uint16_t len) {
  char* s = p + kHeader + slot * kSlotSize;
  EncodeFixed16(s, off);
  EncodeFixed16(s + 2, len);
}

struct CellView {
  Slice key;
  Slice value;
  PageId child = kInvalidPageId;
};

bool ParseCell(const char* p, uint16_t off, uint16_t len, bool leaf,
               CellView* out) {
  const char* q = p + off;
  const char* limit = q + len;
  uint64_t klen;
  size_t n = GetVarint64(q, limit, &klen);
  if (n == 0 || q + n + klen > limit) return false;
  out->key = Slice(q + n, static_cast<size_t>(klen));
  q += n + klen;
  uint64_t vlen;
  n = GetVarint64(q, limit, &vlen);
  if (n == 0 || q + n + vlen > limit) return false;
  out->value = Slice(q + n, static_cast<size_t>(vlen));
  q += n + vlen;
  if (!leaf) {
    if (q + 4 > limit) return false;
    out->child = DecodeFixed32(q);
  }
  return true;
}

void AppendCell(std::string* dst, Slice key, Slice value, bool leaf,
                PageId child) {
  PutLengthPrefixed(dst, key);
  PutLengthPrefixed(dst, value);
  if (!leaf) PutFixed32(dst, child);
}

int CompareComposite(Slice k1, Slice v1, Slice k2, Slice v2) {
  int c = k1.Compare(k2);
  if (c != 0) return c;
  return v1.Compare(v2);
}

uint32_t ContiguousFree(const char* p) {
  uint16_t nslots = GetNumSlots(p);
  uint16_t cell_start = GetCellStart(p);
  uint32_t used_front = kHeader + nslots * kSlotSize;
  return cell_start > used_front ? cell_start - used_front : 0;
}

uint32_t TotalFree(const char* p, uint32_t page_size) {
  uint16_t nslots = GetNumSlots(p);
  uint32_t live = 0;
  for (uint16_t i = 0; i < nslots; i++) {
    uint16_t off, len;
    ReadSlot(p, i, &off, &len);
    live += len;
  }
  return page_size - kHeader - nslots * kSlotSize - live;
}

// True when `need` bytes fit, after a compaction if need be. The free gap
// in front of the cells is part of the total, so only a short gap pays for
// the walk over every slot.
bool HasRoom(const char* p, uint32_t page_size, uint32_t need) {
  return ContiguousFree(p) >= need || TotalFree(p, page_size) >= need;
}

// Largest leaf cell: two must fit on a page so a split always makes room.
uint32_t MaxLeafCell(uint32_t page_size) {
  return (page_size - kHeader) / 2 - 2 * kSlotSize;
}

void CompactPage(char* p, uint32_t page_size) {
  uint16_t nslots = GetNumSlots(p);
  std::string copies;
  std::vector<uint16_t> lens(nslots);
  for (uint16_t i = 0; i < nslots; i++) {
    uint16_t off, len;
    ReadSlot(p, i, &off, &len);
    copies.append(p + off, len);
    lens[i] = len;
  }
  uint32_t write_end = page_size;
  size_t src = 0;
  for (uint16_t i = 0; i < nslots; i++) {
    write_end -= lens[i];
    std::memcpy(p + write_end, copies.data() + src, lens[i]);
    WriteSlot(p, i, static_cast<uint16_t>(write_end), lens[i]);
    src += lens[i];
  }
  SetCellStart(p, static_cast<uint16_t>(write_end));
}

void InitPage(char* p, uint32_t page_size, bool leaf) {
  std::memset(p, 0, kHeader);
  p[0] = static_cast<char>(leaf ? kBtreeLeafPage : kBtreeInternalPage);
  SetNumSlots(p, 0);
  SetCellStart(p, static_cast<uint16_t>(page_size));
  SetLink(p, kInvalidPageId);
}

bool ReadCell(const char* p, uint16_t slot, bool leaf, CellView* out) {
  uint16_t off, len;
  ReadSlot(p, slot, &off, &len);
  return ParseCell(p, off, len, leaf, out);
}

// First slot at or after `lo` whose cell compares >= (key, value); nslots
// if none.
Result<uint16_t> LowerBound(const char* p, bool leaf, Slice key, Slice value,
                            uint16_t lo = 0) {
  uint16_t hi = GetNumSlots(p);
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    CellView cell;
    if (!ReadCell(p, mid, leaf, &cell))
      return Status::Corruption("bad btree cell");
    if (CompareComposite(cell.key, cell.value, key, value) < 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Inserts a cell at slot position `pos`, shifting later slots. Caller must
// have verified space.
void InsertCellAt(char* p, uint32_t page_size, uint16_t pos, Slice cell_bytes) {
  uint16_t nslots = GetNumSlots(p);
  if (ContiguousFree(p) < cell_bytes.size() + kSlotSize)
    CompactPage(p, page_size);
  uint16_t cell_start = GetCellStart(p);
  uint16_t off = static_cast<uint16_t>(cell_start - cell_bytes.size());
  std::memcpy(p + off, cell_bytes.data(), cell_bytes.size());
  SetCellStart(p, off);
  // Shift slot entries [pos, nslots) up by one.
  char* base = p + kHeader;
  std::memmove(base + (pos + 1) * kSlotSize, base + pos * kSlotSize,
               (nslots - pos) * kSlotSize);
  WriteSlot(p, pos, off, static_cast<uint16_t>(cell_bytes.size()));
  SetNumSlots(p, static_cast<uint16_t>(nslots + 1));
}

void RemoveSlotAt(char* p, uint16_t pos) {
  uint16_t nslots = GetNumSlots(p);
  char* base = p + kHeader;
  std::memmove(base + pos * kSlotSize, base + (pos + 1) * kSlotSize,
               (nslots - pos - 1) * kSlotSize);
  SetNumSlots(p, static_cast<uint16_t>(nslots - 1));
}

// The child of internal page `p` whose range holds (key, value): the child
// of the last separator <= the target, or the leftmost child. *upper is the
// slot of the separator bounding that child from above (nslots if none),
// which is also where the separator of a split of that child goes.
Status ChildFor(const char* p, Slice key, Slice value, PageId* child,
                uint16_t* upper) {
  XDB_ASSIGN_OR_RETURN(uint16_t pos, LowerBound(p, false, key, value));
  CellView cell;
  if (pos < GetNumSlots(p)) {
    if (!ReadCell(p, pos, false, &cell))
      return Status::Corruption("bad internal cell");
    if (CompareComposite(cell.key, cell.value, key, value) == 0) {
      *child = cell.child;
      *upper = static_cast<uint16_t>(pos + 1);
      return Status::OK();
    }
  }
  *upper = pos;
  if (pos == 0) {
    *child = GetLink(p);
    return Status::OK();
  }
  if (!ReadCell(p, static_cast<uint16_t>(pos - 1), false, &cell))
    return Status::Corruption("bad internal cell");
  *child = cell.child;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(BufferManager* bm,
                                             obs::Counter* descents) {
  XDB_ASSIGN_OR_RETURN(PageHandle page, bm->NewPage());
  InitPage(page.MutableData(), bm->page_size(), /*leaf=*/true);
  return std::unique_ptr<BTree>(new BTree(bm, page.page_id(), descents));
}

Result<std::unique_ptr<BTree>> BTree::Open(BufferManager* bm, PageId root,
                                           obs::Counter* descents) {
  XDB_ASSIGN_OR_RETURN(PageHandle page, bm->FixPage(root));
  uint8_t type = static_cast<uint8_t>(page.data()[0]);
  if (type != kBtreeLeafPage && type != kBtreeInternalPage)
    return Status::Corruption("root is not a btree page");
  return std::unique_ptr<BTree>(new BTree(bm, root, descents));
}

void BTree::CountDescent() {
  if (descents_ != nullptr) descents_->Add();
}

Status BTree::InsertRec(PageId page_id, Slice key, Slice value,
                        SplitResult* out) {
  const uint32_t page_size = bm_->page_size();
  out->split = false;

  XDB_ASSIGN_OR_RETURN(PageHandle page, bm_->FixPage(page_id));
  const bool leaf = IsLeaf(page.data());

  if (!leaf) {
    PageId child;
    uint16_t ins_pos;
    XDB_RETURN_NOT_OK(ChildFor(page.data(), key, value, &child, &ins_pos));
    page.Release();

    SplitResult child_split;
    XDB_RETURN_NOT_OK(InsertRec(child, key, value, &child_split));
    if (!child_split.split) return Status::OK();

    // Insert the new separator into this page.
    XDB_ASSIGN_OR_RETURN(page, bm_->FixPage(page_id));
    char* mp = page.MutableData();
    std::string cell_bytes;
    AppendCell(&cell_bytes, child_split.sep_key, child_split.sep_value,
               /*leaf=*/false, child_split.right);
    if (HasRoom(mp, page_size, cell_bytes.size() + kSlotSize)) {
      InsertCellAt(mp, page_size, ins_pos, cell_bytes);
      return Status::OK();
    }

    // Split this internal page. First place the separator logically by
    // materializing all cells, then redistribute.
    struct Entry {
      std::string key, value;
      PageId child;
    };
    std::vector<Entry> entries;
    uint16_t nslots = GetNumSlots(mp);
    entries.reserve(nslots + 1);
    for (uint16_t i = 0; i < nslots; i++) {
      CellView cell;
      if (!ReadCell(mp, i, false, &cell))
        return Status::Corruption("bad internal cell");
      entries.push_back(
          {cell.key.ToString(), cell.value.ToString(), cell.child});
    }
    entries.insert(entries.begin() + ins_pos,
                   {child_split.sep_key, child_split.sep_value,
                    child_split.right});
    size_t mid = entries.size() / 2;
    // entries[mid] moves up; right page gets entries (mid, end) with
    // leftmost_child = entries[mid].child.
    XDB_ASSIGN_OR_RETURN(PageHandle right, bm_->NewPage());
    char* rp = right.MutableData();
    InitPage(rp, page_size, /*leaf=*/false);
    SetLink(rp, entries[mid].child);
    for (size_t i = mid + 1; i < entries.size(); i++) {
      std::string cb;
      AppendCell(&cb, entries[i].key, entries[i].value, false,
                 entries[i].child);
      InsertCellAt(rp, page_size, static_cast<uint16_t>(i - mid - 1), cb);
    }
    // Rewrite the left (current) page with entries [0, mid).
    PageId leftmost = GetLink(mp);
    InitPage(mp, page_size, /*leaf=*/false);
    SetLink(mp, leftmost);
    for (size_t i = 0; i < mid; i++) {
      std::string cb;
      AppendCell(&cb, entries[i].key, entries[i].value, false,
                 entries[i].child);
      InsertCellAt(mp, page_size, static_cast<uint16_t>(i), cb);
    }
    out->split = true;
    out->sep_key = entries[mid].key;
    out->sep_value = entries[mid].value;
    out->right = right.page_id();
    return Status::OK();
  }

  // Leaf insert.
  char* p = page.MutableData();
  XDB_ASSIGN_OR_RETURN(uint16_t pos, LowerBound(p, true, key, value));
  if (pos < GetNumSlots(p)) {
    CellView cell;
    if (!ReadCell(p, pos, true, &cell))
      return Status::Corruption("bad leaf cell");
    if (CompareComposite(cell.key, cell.value, key, value) == 0)
      return Status::OK();  // idempotent
  }
  std::string cell_bytes;
  AppendCell(&cell_bytes, key, value, /*leaf=*/true, kInvalidPageId);
  if (cell_bytes.size() > MaxLeafCell(page_size))
    return Status::InvalidArgument("btree entry too large for page");
  if (HasRoom(p, page_size, cell_bytes.size() + kSlotSize)) {
    InsertCellAt(p, page_size, pos, cell_bytes);
    return Status::OK();
  }

  // Split leaf: upper half moves to a new right sibling.
  uint16_t nslots = GetNumSlots(p);
  uint16_t split_at = static_cast<uint16_t>(nslots / 2);
  XDB_ASSIGN_OR_RETURN(PageHandle right, bm_->NewPage());
  char* rp = right.MutableData();
  InitPage(rp, page_size, /*leaf=*/true);
  SetLink(rp, GetLink(p));
  for (uint16_t i = split_at; i < nslots; i++) {
    CellView cell;
    if (!ReadCell(p, i, true, &cell))
      return Status::Corruption("bad leaf cell");
    std::string cb;
    AppendCell(&cb, cell.key, cell.value, true, kInvalidPageId);
    InsertCellAt(rp, page_size, static_cast<uint16_t>(i - split_at), cb);
  }
  SetNumSlots(p, split_at);
  CompactPage(p, page_size);
  SetLink(p, right.page_id());

  // Place the pending entry on the correct side.
  if (pos <= split_at) {
    InsertCellAt(p, page_size, pos, cell_bytes);
  } else {
    InsertCellAt(rp, page_size, static_cast<uint16_t>(pos - split_at),
                 cell_bytes);
  }
  // Separator = first composite of the right page.
  CellView first;
  if (!ReadCell(rp, 0, true, &first))
    return Status::Corruption("bad leaf cell after split");
  out->split = true;
  out->sep_key = first.key.ToString();
  out->sep_value = first.value.ToString();
  out->right = right.page_id();
  return Status::OK();
}

Status BTree::SplitRoot(const SplitResult& split) {
  const uint32_t page_size = bm_->page_size();
  // Keep the root page id stable: copy the overflowing root into a fresh
  // left child, then rewrite the root as an internal node over {left, right}.
  XDB_ASSIGN_OR_RETURN(PageHandle root, bm_->FixPage(root_));
  XDB_ASSIGN_OR_RETURN(PageHandle left, bm_->NewPage());
  std::memcpy(left.MutableData(), root.data(), page_size);
  char* rp = root.MutableData();
  InitPage(rp, page_size, /*leaf=*/false);
  SetLink(rp, left.page_id());
  std::string cb;
  AppendCell(&cb, split.sep_key, split.sep_value, false, split.right);
  InsertCellAt(rp, page_size, 0, cb);
  return Status::OK();
}

Status BTree::Insert(Slice key, Slice value) {
  writes_++;
  CountDescent();
  SplitResult split;
  XDB_RETURN_NOT_OK(InsertRec(root_, key, value, &split));
  if (split.split) XDB_RETURN_NOT_OK(SplitRoot(split));
  return Status::OK();
}

Status BTree::Delete(Slice key, Slice value) {
  const Entry entry{key, value};
  return ApplySorted(BatchOp::kDelete, std::span<const Entry>(&entry, 1));
}

Result<PageHandle> BTree::FindLeaf(Slice key, Slice value, Fence* fence) {
  CountDescent();
  PageId page_id = root_;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(PageHandle page, bm_->FixPage(page_id));
    const char* p = page.data();
    if (IsLeaf(p)) return page;
    uint16_t upper;
    XDB_RETURN_NOT_OK(ChildFor(p, key, value, &page_id, &upper));
    // A separator found deeper is the tighter bound.
    if (fence != nullptr && upper < GetNumSlots(p)) {
      CellView cell;
      if (!ReadCell(p, upper, false, &cell))
        return Status::Corruption("bad internal cell");
      fence->bounded = true;
      fence->key.assign(cell.key.data(), cell.key.size());
      fence->value.assign(cell.value.data(), cell.value.size());
    }
  }
}

Status BTree::ApplySorted(BatchOp op, std::span<const Entry> entries) {
  writes_++;
  const uint32_t page_size = bm_->page_size();
  for (size_t i = 1; i < entries.size(); i++) {
    if (CompareComposite(entries[i - 1].key, entries[i - 1].value,
                         entries[i].key, entries[i].value) > 0)
      return Status::InvalidArgument("btree batch is not sorted");
  }
  size_t i = 0;
  while (i < entries.size()) {
    Fence fence;
    XDB_ASSIGN_OR_RETURN(
        PageHandle leaf, FindLeaf(entries[i].key, entries[i].value, &fence));
    // Every slot before `from` holds a pair below the next entry.
    uint16_t from = 0;
    bool spill = false;
    for (; i < entries.size(); i++) {
      const Entry& e = entries[i];
      if (fence.bounded && CompareComposite(e.key, e.value, Slice(fence.key),
                                            Slice(fence.value)) >= 0)
        break;  // past this leaf: descend again
      const char* p = leaf.data();
      XDB_ASSIGN_OR_RETURN(uint16_t pos,
                           LowerBound(p, true, e.key, e.value, from));
      from = pos;
      bool exact = false;
      if (pos < GetNumSlots(p)) {
        CellView cell;
        if (!ReadCell(p, pos, true, &cell))
          return Status::Corruption("bad leaf cell");
        exact = CompareComposite(cell.key, cell.value, e.key, e.value) == 0;
      }
      if (op == BatchOp::kDelete) {
        if (!exact) return Status::NotFound();
        RemoveSlotAt(leaf.MutableData(), pos);
        continue;
      }
      if (exact) continue;  // idempotent
      std::string cell_bytes;
      AppendCell(&cell_bytes, e.key, e.value, /*leaf=*/true, kInvalidPageId);
      if (cell_bytes.size() > MaxLeafCell(page_size))
        return Status::InvalidArgument("btree entry too large for page");
      if (!HasRoom(p, page_size, cell_bytes.size() + kSlotSize)) {
        spill = true;
        break;
      }
      InsertCellAt(leaf.MutableData(), page_size, pos, cell_bytes);
    }
    if (!spill) continue;
    // The leaf is full: this pair splits it exactly as a lone Insert would.
    leaf.Release();
    XDB_RETURN_NOT_OK(Insert(entries[i].key, entries[i].value));
    i++;
  }
  return Status::OK();
}

Result<BTree::Iterator> BTree::Seek(Slice key, Slice value) {
  Iterator it;
  it.tree_ = this;
  XDB_ASSIGN_OR_RETURN(it.page_, FindLeaf(key, value, nullptr));
  XDB_ASSIGN_OR_RETURN(it.slot_, LowerBound(it.page_.data(), true, key, value));
  it.valid_ = true;
  if (it.slot_ >= GetNumSlots(it.page_.data())) {
    XDB_RETURN_NOT_OK(it.AdvanceLeaf());
  } else {
    XDB_RETURN_NOT_OK(it.LoadSlot());
  }
  return it;
}

Result<BTree::Iterator> BTree::SeekToFirst() { return Seek(Slice(), Slice()); }

Status BTree::Iterator::LoadSlot() {
  CellView cell;
  if (!ReadCell(page_.data(), slot_, true, &cell))
    return Status::Corruption("bad leaf cell in iterator");
  key_ = cell.key;
  value_ = cell.value;
  return Status::OK();
}

Status BTree::Iterator::AdvanceLeaf() {
  // Move to the first non-empty following leaf.
  for (;;) {
    PageId next = GetLink(page_.data());
    if (next == kInvalidPageId) {
      valid_ = false;
      page_.Release();
      return Status::OK();
    }
    XDB_ASSIGN_OR_RETURN(PageHandle page, tree_->bm_->FixPage(next));
    page_ = std::move(page);
    slot_ = 0;
    if (GetNumSlots(page_.data()) > 0) return LoadSlot();
  }
}

Status BTree::Iterator::Next() {
  if (!valid_) return Status::InvalidArgument("Next on invalid iterator");
  slot_++;
  if (slot_ >= GetNumSlots(page_.data())) return AdvanceLeaf();
  return LoadSlot();
}

Result<BtreeStats> BTree::ComputeStats() {
  BtreeStats stats;
  // Walk levels: gather pages breadth-first.
  std::vector<PageId> level{root_};
  uint32_t height = 0;
  while (!level.empty()) {
    height++;
    std::vector<PageId> next;
    bool leaf_level = false;
    for (PageId id : level) {
      XDB_ASSIGN_OR_RETURN(PageHandle page, bm_->FixPage(id));
      const char* p = page.data();
      if (IsLeaf(p)) {
        leaf_level = true;
        stats.leaf_pages++;
        stats.entries += GetNumSlots(p);
      } else {
        stats.internal_pages++;
        next.push_back(GetLink(p));
        uint16_t nslots = GetNumSlots(p);
        for (uint16_t i = 0; i < nslots; i++) {
          CellView cell;
          if (!ReadCell(p, i, false, &cell))
            return Status::Corruption("bad internal cell");
          next.push_back(cell.child);
        }
      }
    }
    if (leaf_level) break;
    level = std::move(next);
  }
  stats.height = height;
  return stats;
}

}  // namespace xdb
