#include "cc/version_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "pack/packed_record.h"

namespace xdb {

void VersionManager::EncodeKey(uint64_t doc_id, uint64_t version,
                               Slice node_id, std::string* out) {
  PutBig64(out, doc_id);
  PutBig64(out, ~version);  // descending version order
  out->append(node_id.data(), node_id.size());
}

Status VersionManager::DecodeKey(Slice key, uint64_t* doc_id,
                                 uint64_t* version, Slice* node_id) {
  if (key.size() < 16) return Status::Corruption("short versioned key");
  *doc_id = DecodeBig64(key.data());
  *version = ~DecodeBig64(key.data() + 8);
  *node_id = Slice(key.data() + 16, key.size() - 16);
  return Status::OK();
}

void VersionManager::Publish(uint64_t version) {
  uint64_t cur = last_committed_.load();
  while (cur < version && !last_committed_.compare_exchange_weak(cur, version)) {
  }
}

Status VersionManager::AddRecord(uint64_t doc_id, uint64_t version,
                                 Slice record, Rid rid) {
  std::vector<std::string> uppers;
  XDB_RETURN_NOT_OK(ComputeNodeIdIntervals(record, &uppers));
  std::string value;
  PutFixed64(&value, rid.Pack());
  for (const std::string& upper : uppers) {
    std::string key;
    EncodeKey(doc_id, version, upper, &key);
    XDB_RETURN_NOT_OK(tree_->Insert(key, value));
  }
  return Status::OK();
}

Status VersionManager::AddEntry(uint64_t doc_id, uint64_t version,
                                Slice interval_upper, Rid rid) {
  std::string key, value;
  EncodeKey(doc_id, version, interval_upper, &key);
  PutFixed64(&value, rid.Pack());
  return tree_->Insert(key, value);
}

Status VersionManager::ListFrom(uint64_t doc_id, uint64_t version,
                                const SubtreeSpan& span, NodeIdEntries* out) {
  out->clear();
  std::string key;
  EncodeKey(doc_id, version, span.first, &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  bool reached = false;
  while (it.Valid()) {
    uint64_t found_doc, found_ver;
    Slice node;
    XDB_RETURN_NOT_OK(DecodeKey(it.key(), &found_doc, &found_ver, &node));
    if (found_doc != doc_id || found_ver != version) break;
    const SpanStep step = NextSpanStep(span, node, &reached);
    if (step == SpanStep::kStop) break;
    if (it.value().size() != 8)
      return Status::Corruption("bad versioned index value");
    out->emplace_back(node.ToString(),
                      Rid::Unpack(DecodeFixed64(it.value().data())));
    if (step == SpanStep::kLast) break;
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status VersionManager::ListVersionEntries(uint64_t doc_id, uint64_t version,
                                          NodeIdEntries* out) {
  return ListFrom(doc_id, version, Slice(), out);
}

Status VersionManager::ListDocEntries(uint64_t doc_id, uint64_t snapshot,
                                      const SubtreeSpan& span,
                                      NodeIdEntries* out) {
  out->clear();
  Result<uint64_t> ver = EffectiveVersion(doc_id, snapshot);
  if (ver.status().IsNotFound()) return Status::OK();  // not visible
  XDB_RETURN_NOT_OK(ver.status());
  return ListFrom(doc_id, ver.value(), span, out);
}

Result<uint64_t> VersionManager::EffectiveVersion(uint64_t doc_id,
                                                  uint64_t snapshot) {
  std::string key;
  EncodeKey(doc_id, snapshot, Slice(), &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  if (!it.Valid()) return Status::NotFound("no version visible");
  uint64_t found_doc, found_ver;
  Slice node;
  XDB_RETURN_NOT_OK(DecodeKey(it.key(), &found_doc, &found_ver, &node));
  if (found_doc != doc_id) return Status::NotFound("no version visible");
  return found_ver;
}

Result<Rid> VersionManager::Lookup(uint64_t doc_id, uint64_t snapshot,
                                   Slice node_id) {
  XDB_ASSIGN_OR_RETURN(uint64_t ver, EffectiveVersion(doc_id, snapshot));
  std::string key;
  EncodeKey(doc_id, ver, node_id, &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  if (!it.Valid()) return Status::NotFound("node beyond document");
  uint64_t found_doc, found_ver;
  Slice node;
  XDB_RETURN_NOT_OK(DecodeKey(it.key(), &found_doc, &found_ver, &node));
  if (found_doc != doc_id || found_ver != ver)
    return Status::NotFound("node not in visible version");
  if (it.value().size() != 8)
    return Status::Corruption("bad versioned index value");
  return Rid::Unpack(DecodeFixed64(it.value().data()));
}

Status VersionManager::ListDocRecords(uint64_t doc_id, uint64_t snapshot,
                                      std::vector<Rid>* out) {
  out->clear();
  XDB_ASSIGN_OR_RETURN(uint64_t ver, EffectiveVersion(doc_id, snapshot));
  std::string key;
  EncodeKey(doc_id, ver, Slice(), &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  while (it.Valid()) {
    uint64_t found_doc, found_ver;
    Slice node;
    XDB_RETURN_NOT_OK(DecodeKey(it.key(), &found_doc, &found_ver, &node));
    if (found_doc != doc_id || found_ver != ver) break;
    Rid rid = Rid::Unpack(DecodeFixed64(it.value().data()));
    if (std::find(out->begin(), out->end(), rid) == out->end())
      out->push_back(rid);
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status VersionManager::PurgeVersionsBefore(uint64_t doc_id, uint64_t keep_from,
                                           std::vector<Rid>* freed_rids) {
  freed_rids->clear();
  // Entries with version < keep_from sort AFTER (doc, ~keep_from) prefix.
  std::string start;
  EncodeKey(doc_id, keep_from - 1, Slice(), &start);
  std::vector<std::pair<std::string, std::string>> doomed;
  {
    XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(start));
    while (it.Valid()) {
      uint64_t found_doc, found_ver;
      Slice node;
      XDB_RETURN_NOT_OK(DecodeKey(it.key(), &found_doc, &found_ver, &node));
      if (found_doc != doc_id) break;
      doomed.emplace_back(it.key().ToString(), it.value().ToString());
      XDB_RETURN_NOT_OK(it.Next());
    }
  }
  for (auto& [key, value] : doomed) {
    XDB_RETURN_NOT_OK(tree_->Delete(key, value));
    Rid rid = Rid::Unpack(DecodeFixed64(value.data()));
    if (std::find(freed_rids->begin(), freed_rids->end(), rid) ==
        freed_rids->end())
      freed_rids->push_back(rid);
  }
  return Status::OK();
}

}  // namespace xdb
