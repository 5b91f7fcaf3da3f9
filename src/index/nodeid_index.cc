#include "index/nodeid_index.h"

#include <algorithm>

#include "common/coding.h"
#include "index/key_codec.h"
#include "pack/packed_record.h"

namespace xdb {

Status NodeIdIndex::AddRecord(uint64_t doc_id, Slice record, Rid rid) {
  std::vector<std::string> uppers;
  XDB_RETURN_NOT_OK(ComputeNodeIdIntervals(record, &uppers));
  std::string value;
  PutFixed64(&value, rid.Pack());
  for (const std::string& upper : uppers) {
    std::string key;
    EncodeNodeIdKey(doc_id, upper, &key);
    XDB_RETURN_NOT_OK(tree_->Insert(key, value));
  }
  return Status::OK();
}

Status NodeIdIndex::RemoveRecord(uint64_t doc_id, Slice record, Rid rid) {
  std::vector<std::string> uppers;
  XDB_RETURN_NOT_OK(ComputeNodeIdIntervals(record, &uppers));
  std::string value;
  PutFixed64(&value, rid.Pack());
  for (const std::string& upper : uppers) {
    std::string key;
    EncodeNodeIdKey(doc_id, upper, &key);
    XDB_RETURN_NOT_OK(tree_->Delete(key, value));
  }
  return Status::OK();
}

Result<Rid> NodeIdIndex::Lookup(uint64_t doc_id, Slice node_id) {
  std::string key;
  EncodeNodeIdKey(doc_id, node_id, &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  if (!it.Valid()) return Status::NotFound("node id beyond document");
  uint64_t found_doc;
  Slice found_node;
  XDB_RETURN_NOT_OK(DecodeNodeIdKey(it.key(), &found_doc, &found_node));
  if (found_doc != doc_id) return Status::NotFound("no such document node");
  if (it.value().size() != 8) return Status::Corruption("bad node index value");
  return Rid::Unpack(DecodeFixed64(it.value().data()));
}

Status NodeIdIndex::ListDocEntries(
    uint64_t doc_id, Slice prefix,
    std::vector<std::pair<std::string, Rid>>* out) {
  out->clear();
  std::string key;
  EncodeNodeIdKey(doc_id, prefix, &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  while (it.Valid()) {
    uint64_t found_doc;
    Slice found_node;
    XDB_RETURN_NOT_OK(DecodeNodeIdKey(it.key(), &found_doc, &found_node));
    if (found_doc != doc_id || !found_node.StartsWith(prefix)) break;
    if (it.value().size() != 8)
      return Status::Corruption("bad node index value");
    out->emplace_back(found_node.ToString(),
                      Rid::Unpack(DecodeFixed64(it.value().data())));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status NodeIdIndex::ListDocRecords(uint64_t doc_id, Slice prefix,
                                   std::vector<Rid>* out) {
  out->clear();
  std::vector<std::pair<std::string, Rid>> entries;
  XDB_RETURN_NOT_OK(ListDocEntries(doc_id, prefix, &entries));
  for (auto& [upper, rid] : entries) {
    (void)upper;
    if (std::find(out->begin(), out->end(), rid) == out->end())
      out->push_back(rid);
  }
  return Status::OK();
}

Status NodeIdIndex::RemoveDocEntries(uint64_t doc_id) {
  std::vector<std::pair<std::string, Rid>> entries;
  XDB_RETURN_NOT_OK(ListDocEntries(doc_id, Slice(), &entries));
  for (auto& [upper, rid] : entries) {
    std::string key, value;
    EncodeNodeIdKey(doc_id, upper, &key);
    PutFixed64(&value, rid.Pack());
    XDB_RETURN_NOT_OK(tree_->Delete(key, value));
  }
  return Status::OK();
}

}  // namespace xdb
