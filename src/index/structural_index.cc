#include "index/structural_index.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/coding.h"
#include "runtime/virtual_sax.h"

namespace xdb {

void EncodeStructuralKey(NameId name_id, uint64_t doc_id, Slice node_id,
                         std::string* out) {
  PutBig32(out, name_id);
  PutBig64(out, doc_id);
  out->append(node_id.data(), node_id.size());
}

Status DecodeStructuralEntry(Slice key, Slice value, NameId* name_id,
                             uint64_t* doc_id, Slice* node_id) {
  if (key.size() < 4 + 8 || !value.empty())
    return Status::Corruption("bad structural index entry");
  *name_id = DecodeBig32(key.data());
  *doc_id = DecodeBig64(key.data() + 4);
  *node_id = Slice(key.data() + 12, key.size() - 12);
  return Status::OK();
}

Status StructuralDeriver::Feed(const XmlEvent& ev) {
  if (ev.type == XmlEvent::Type::kStartElement) {
    StructuralEntry e;
    e.name_id = ev.local;
    e.node_id = ev.node_id.ToString();
    open_.push_back(entries_.size());
    entries_.push_back(std::move(e));
  } else if (ev.type == XmlEvent::Type::kEndElement) {
    if (open_.empty())
      return Status::Corruption("unbalanced end-element event");
    // Elements listed after this one are exactly its descendants.
    const size_t i = open_.back();
    entries_[i].subtree_size = static_cast<uint32_t>(entries_.size() - i - 1);
    open_.pop_back();
  }
  return Status::OK();
}

Status StructuralDeriver::Finish(std::vector<StructuralEntry>* out) {
  if (!open_.empty())
    return Status::Corruption("unclosed element in event stream");
  *out = std::move(entries_);
  entries_.clear();
  return Status::OK();
}

Status StructuralIndex::Apply(const NameDictionary& dict, uint64_t doc_id,
                              const std::vector<StructuralEntry>& entries,
                              const std::vector<NameId>& ancestors,
                              bool remove) {
  // Each distinct name is rendered once; its covered entries' stats are
  // gathered in first-appearance order, the order one call per entry made.
  struct Name {
    std::string local;
    bool covered;
    std::vector<uint32_t> spans;  // of its covered entries, in order
  };
  std::vector<Name> names;
  std::unordered_map<NameId, size_t> slot_of;
  auto find = [&](NameId id) -> Result<Name*> {
    auto [it, fresh] = slot_of.try_emplace(id, names.size());
    if (fresh) {
      XDB_ASSIGN_OR_RETURN(std::string local, dict.Name(id));
      const bool covered = CoversName(local);
      names.push_back(Name{std::move(local), covered, {}});
    }
    return &names[it->second];
  };
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (const StructuralEntry& e : entries) {
    XDB_ASSIGN_OR_RETURN(Name* name, find(e.name_id));
    if (!name->covered) continue;
    name->spans.push_back(e.subtree_size);
    keys.emplace_back();
    EncodeStructuralKey(e.name_id, doc_id, Slice(e.node_id), &keys.back());
  }
  std::sort(keys.begin(), keys.end());
  std::vector<BTree::Entry> batch;
  batch.reserve(keys.size());
  for (const std::string& key : keys) batch.push_back({Slice(key), Slice()});
  XDB_RETURN_NOT_OK(tree_->ApplySorted(
      remove ? BTree::BatchOp::kDelete : BTree::BatchOp::kInsert, batch));
  if (stats_ == nullptr || entries.empty()) return Status::OK();
  for (const Name& name : names) {
    if (name.spans.empty()) continue;
    if (remove) {
      stats_->OnElementsRemoved(name.local, name.spans);
    } else {
      stats_->OnElementsAdded(
          name.local, name.spans.size(),
          std::accumulate(name.spans.begin(), name.spans.end(), uint64_t{0}));
    }
  }
  const int64_t delta = remove ? -static_cast<int64_t>(entries.size())
                               : static_cast<int64_t>(entries.size());
  for (NameId a : ancestors) {
    XDB_ASSIGN_OR_RETURN(Name* name, find(a));
    if (name->covered) stats_->OnSpanMoved(name->local, delta);
  }
  return Status::OK();
}

Status StructuralIndex::Scan(NameId name_id, std::vector<Posting>* out) {
  out->clear();
  std::string lo;
  PutBig32(&lo, name_id);  // (name_id, doc 0, "") lower bound
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(lo));
  while (it.Valid()) {
    NameId got_name;
    Posting p;
    Slice node_id;
    XDB_RETURN_NOT_OK(DecodeStructuralEntry(it.key(), it.value(), &got_name,
                                            &p.doc_id, &node_id));
    if (got_name != name_id) break;  // past this name's contiguous range
    p.node_id = node_id.ToString();
    out->push_back(std::move(p));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Result<uint64_t> StructuralIndex::CountEntries() {
  uint64_t n = 0;
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->SeekToFirst());
  while (it.Valid()) {
    n++;
    XDB_RETURN_NOT_OK(it.Next());
  }
  return n;
}

}  // namespace xdb
