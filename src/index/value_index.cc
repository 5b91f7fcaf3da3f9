#include "index/value_index.h"

namespace xdb {

Status ValueIndex::Add(Slice value, uint64_t doc_id, Slice node_id) {
  std::string key;
  Status st = EncodeTypedKey(def_.type, value, def_.max_string_len, &key);
  if (!st.ok()) {
    // Uncastable value: no entry ("zero ... index entries per record").
    if (st.code() == Status::Code::kInvalidArgument) return Status::OK();
    return st;
  }
  std::string posting;
  EncodeNodeIdKey(doc_id, node_id, &posting);
  XDB_RETURN_NOT_OK(tree_->Insert(key, posting));
  if (stats_ != nullptr) stats_->OnEntryAdded(key);
  return Status::OK();
}

Status ValueIndex::Remove(Slice value, uint64_t doc_id, Slice node_id) {
  std::string key;
  Status st = EncodeTypedKey(def_.type, value, def_.max_string_len, &key);
  if (!st.ok()) {
    if (st.code() == Status::Code::kInvalidArgument) return Status::OK();
    return st;
  }
  std::string posting;
  EncodeNodeIdKey(doc_id, node_id, &posting);
  XDB_RETURN_NOT_OK(tree_->Delete(key, posting));
  if (stats_ != nullptr) stats_->OnEntryRemoved(key);
  return Status::OK();
}

Status ValueIndex::Scan(const std::optional<KeyBound>& lo,
                        const std::optional<KeyBound>& hi,
                        std::vector<Posting>* out) {
  BTree::Iterator it;
  if (lo.has_value()) {
    XDB_ASSIGN_OR_RETURN(it, tree_->Seek(lo->key));
    // Exclusive lower bound: skip equal keys.
    if (!lo->inclusive) {
      while (it.Valid() && it.key() == Slice(lo->key)) {
        XDB_RETURN_NOT_OK(it.Next());
      }
    }
  } else {
    XDB_ASSIGN_OR_RETURN(it, tree_->SeekToFirst());
  }
  while (it.Valid()) {
    if (hi.has_value()) {
      int c = it.key().Compare(Slice(hi->key));
      if (c > 0 || (c == 0 && !hi->inclusive)) break;
    }
    Posting p;
    Slice node_id;
    XDB_RETURN_NOT_OK(DecodeNodeIdKey(it.value(), &p.doc_id, &node_id));
    p.node_id = node_id.ToString();
    out->push_back(std::move(p));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status ValueIndex::ScanEqual(Slice value, std::vector<Posting>* out) {
  std::string key;
  Status st = EncodeTypedKey(def_.type, value, def_.max_string_len, &key);
  if (!st.ok()) {
    if (st.code() == Status::Code::kInvalidArgument) return Status::OK();
    return st;
  }
  KeyBound b{key, true};
  return Scan(b, b, out);
}

}  // namespace xdb
