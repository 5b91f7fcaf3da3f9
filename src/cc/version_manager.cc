#include "cc/version_manager.h"

#include <algorithm>
#include <set>

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

Result<Rid> VersionManager::DecodeValue(Slice value) {
  if (value.size() != 8) return Status::Corruption("bad versioned index value");
  return Rid::Unpack(DecodeFixed64(value.data()));
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
    XDB_ASSIGN_OR_RETURN(Rid rid, DecodeValue(it.value()));
    out->emplace_back(node.ToString(), rid);
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
  return DecodeValue(it.value());
}

Status VersionManager::ListDocRecords(uint64_t doc_id, uint64_t snapshot,
                                      std::vector<Rid>* out) {
  out->clear();
  XDB_ASSIGN_OR_RETURN(uint64_t ver, EffectiveVersion(doc_id, snapshot));
  NodeIdEntries entries;
  XDB_RETURN_NOT_OK(ListFrom(doc_id, ver, Slice(), &entries));
  for (const auto& [upper, rid] : entries) {
    if (std::find(out->begin(), out->end(), rid) == out->end())
      out->push_back(rid);
  }
  return Status::OK();
}

Status VersionManager::PurgeVersionsBefore(uint64_t doc_id, uint64_t keep_from,
                                           std::vector<Rid>* freed_rids) {
  freed_rids->clear();
  // One walk over the document's versions, newest first, decodes every
  // entry before any is deleted: those at keep_from and newer survive and
  // keep their records live.
  std::string start;
  PutBig64(&start, doc_id);
  std::set<uint64_t> live;
  struct Doomed {
    std::string key, value;
    Rid rid;
  };
  std::vector<Doomed> doomed;
  {
    XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(start));
    while (it.Valid()) {
      uint64_t found_doc, found_ver;
      Slice node;
      XDB_RETURN_NOT_OK(DecodeKey(it.key(), &found_doc, &found_ver, &node));
      if (found_doc != doc_id) break;
      XDB_ASSIGN_OR_RETURN(Rid rid, DecodeValue(it.value()));
      if (found_ver >= keep_from)
        live.insert(rid.Pack());
      else
        doomed.push_back({it.key().ToString(), it.value().ToString(), rid});
      XDB_RETURN_NOT_OK(it.Next());
    }
  }
  for (const Doomed& d : doomed) {
    XDB_RETURN_NOT_OK(tree_->Delete(d.key, d.value));
    // Freed once, and only when no surviving version shares the record.
    if (live.insert(d.rid.Pack()).second) freed_rids->push_back(d.rid);
  }
  return Status::OK();
}

}  // namespace xdb
