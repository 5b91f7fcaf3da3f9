#include "index/structural_index.h"

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

Status DeriveStructuralEntries(XmlEventSource* source,
                               std::vector<StructuralEntry>* out) {
  out->clear();
  std::vector<size_t> open;  // indexes into *out of unclosed elements
  XmlEvent ev;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, source->Next(&ev));
    if (!more) break;
    if (ev.type == XmlEvent::Type::kStartElement) {
      StructuralEntry e;
      e.name_id = ev.local;
      e.node_id = ev.node_id.ToString();
      open.push_back(out->size());
      out->push_back(std::move(e));
    } else if (ev.type == XmlEvent::Type::kEndElement) {
      if (open.empty())
        return Status::Corruption("unbalanced end-element event");
      // Elements listed after this one are exactly its descendants.
      const size_t i = open.back();
      (*out)[i].subtree_size = static_cast<uint32_t>(out->size() - i - 1);
      open.pop_back();
    }
  }
  if (!open.empty())
    return Status::Corruption("unclosed element in event stream");
  return Status::OK();
}

Status StructuralIndex::Apply(const NameDictionary& dict, uint64_t doc_id,
                              const std::vector<StructuralEntry>& entries,
                              const std::vector<NameId>& ancestors,
                              bool remove) {
  std::string key;
  for (const StructuralEntry& e : entries) {
    XDB_ASSIGN_OR_RETURN(std::string local, dict.Name(e.name_id));
    if (!CoversName(local)) continue;
    key.clear();
    EncodeStructuralKey(e.name_id, doc_id, Slice(e.node_id), &key);
    XDB_RETURN_NOT_OK(remove ? tree_->Delete(key, Slice())
                             : tree_->Insert(key, Slice()));
    if (stats_ == nullptr) continue;
    if (remove) {
      stats_->OnElementRemoved(local, e.subtree_size);
    } else {
      stats_->OnElementAdded(local, e.subtree_size);
    }
  }
  if (stats_ == nullptr || entries.empty()) return Status::OK();
  const int64_t delta = remove ? -static_cast<int64_t>(entries.size())
                               : static_cast<int64_t>(entries.size());
  for (NameId a : ancestors) {
    XDB_ASSIGN_OR_RETURN(std::string local, dict.Name(a));
    if (CoversName(local)) stats_->OnSpanMoved(local, delta);
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
