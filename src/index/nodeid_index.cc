#include "index/nodeid_index.h"

#include <algorithm>

#include "common/coding.h"
#include "index/key_codec.h"
#include "pack/packed_record.h"

namespace xdb {

namespace {

// The record's entries: one (interval upper end point, rid) per interval,
// in node-ID order.
Status RecordEntries(Slice record, Rid rid, NodeIdEntries* out) {
  std::vector<std::string> uppers;
  XDB_RETURN_NOT_OK(ComputeNodeIdIntervals(record, &uppers));
  for (std::string& upper : uppers) out->emplace_back(std::move(upper), rid);
  return Status::OK();
}

// The first entry whose upper end is >= `node_id`: Lookup's rule.
NodeIdEntries::const_iterator FirstAtOrAfter(const NodeIdEntries& entries,
                                             Slice node_id) {
  return std::lower_bound(
      entries.begin(), entries.end(), node_id,
      [](const auto& entry, Slice id) { return Slice(entry.first) < id; });
}

}  // namespace

SpanStep NextSpanStep(const SubtreeSpan& span, Slice upper, bool* reached) {
  const bool under = upper.StartsWith(span.outer);
  if (*reached) return under ? SpanStep::kMore : SpanStep::kStop;
  if (upper < span.last) return SpanStep::kMore;
  *reached = true;
  // Lookup(last)'s entry past outer's subtree ends the listing.
  return under ? SpanStep::kMore : SpanStep::kLast;
}

Result<Rid> DocEntriesLocator::Lookup(uint64_t doc_id, Slice node_id) {
  if (doc_id != doc_id_) return Status::NotFound("no such document node");
  auto it = FirstAtOrAfter(*entries_, node_id);
  if (it == entries_->end()) return Status::NotFound("node id beyond document");
  return it->second;
}

Status DocEntriesLocator::ListDocEntries(uint64_t doc_id,
                                         const SubtreeSpan& span,
                                         NodeIdEntries* out) {
  out->clear();
  if (doc_id != doc_id_) return Status::OK();
  bool reached = false;
  for (auto it = FirstAtOrAfter(*entries_, span.first); it != entries_->end();
       ++it) {
    const SpanStep step = NextSpanStep(span, Slice(it->first), &reached);
    if (step == SpanStep::kStop) break;
    out->push_back(*it);
    if (step == SpanStep::kLast) break;
  }
  return Status::OK();
}

Status NodeIdIndex::Apply(BTree::BatchOp op, uint64_t doc_id,
                          const NodeIdEntries& pairs) {
  std::vector<std::string> keys(pairs.size()), values(pairs.size());
  std::vector<BTree::Entry> batch;
  batch.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); i++) {
    EncodeNodeIdKey(doc_id, pairs[i].first, &keys[i]);
    PutFixed64(&values[i], pairs[i].second.Pack());
    batch.push_back({Slice(keys[i]), Slice(values[i])});
  }
  return tree_->ApplySorted(op, batch);
}

Status NodeIdIndex::AddRecord(uint64_t doc_id, Slice record, Rid rid) {
  NodeIdEntries pairs;
  XDB_RETURN_NOT_OK(RecordEntries(record, rid, &pairs));
  return Apply(BTree::BatchOp::kInsert, doc_id, pairs);
}

Status NodeIdIndex::RemoveRecord(uint64_t doc_id, Slice record, Rid rid) {
  NodeIdEntries pairs;
  XDB_RETURN_NOT_OK(RecordEntries(record, rid, &pairs));
  return Apply(BTree::BatchOp::kDelete, doc_id, pairs);
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

Status NodeIdIndex::ListDocEntries(uint64_t doc_id, const SubtreeSpan& span,
                                   NodeIdEntries* out) {
  out->clear();
  std::string key;
  EncodeNodeIdKey(doc_id, span.first, &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  bool reached = false;
  while (it.Valid()) {
    uint64_t found_doc;
    Slice found_node;
    XDB_RETURN_NOT_OK(DecodeNodeIdKey(it.key(), &found_doc, &found_node));
    if (found_doc != doc_id) break;
    const SpanStep step = NextSpanStep(span, found_node, &reached);
    if (step == SpanStep::kStop) break;
    if (it.value().size() != 8)
      return Status::Corruption("bad node index value");
    out->emplace_back(found_node.ToString(),
                      Rid::Unpack(DecodeFixed64(it.value().data())));
    if (step == SpanStep::kLast) break;
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status NodeIdIndex::ListDocRecords(uint64_t doc_id, Slice prefix,
                                   std::vector<Rid>* out) {
  out->clear();
  NodeIdEntries entries;
  XDB_RETURN_NOT_OK(ListDocEntries(doc_id, prefix, &entries));
  for (auto& [upper, rid] : entries) {
    if (!Slice(upper).StartsWith(prefix)) continue;  // the holder's, past it
    if (std::find(out->begin(), out->end(), rid) == out->end())
      out->push_back(rid);
  }
  return Status::OK();
}

Status NodeIdIndex::RemoveDocEntries(uint64_t doc_id,
                                     const NodeIdEntries& entries) {
  return Apply(BTree::BatchOp::kDelete, doc_id, entries);
}

Status NodeIdIndex::ListDocs(uint64_t from, size_t max_entries,
                             std::vector<uint64_t>* docs,
                             std::vector<NodeIdEntries>* entries,
                             uint64_t* next) {
  docs->clear();
  if (entries != nullptr) entries->clear();
  *next = 0;
  std::string key;
  EncodeNodeIdKey(from, Slice(), &key);
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(key));
  for (size_t listed = 0; it.Valid(); listed++) {
    uint64_t doc_id;
    Slice node_id;
    XDB_RETURN_NOT_OK(DecodeNodeIdKey(it.key(), &doc_id, &node_id));
    if (docs->empty() || docs->back() != doc_id) {
      if (listed >= max_entries) {
        *next = doc_id;
        break;
      }
      docs->push_back(doc_id);
      if (entries != nullptr) entries->emplace_back();
    }
    if (entries != nullptr) {
      if (it.value().size() != 8)
        return Status::Corruption("bad node index value");
      entries->back().emplace_back(
          node_id.ToString(), Rid::Unpack(DecodeFixed64(it.value().data())));
    }
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> NodeIdIndex::ListDocIds() {
  std::vector<uint64_t> docs;
  uint64_t next;
  XDB_RETURN_NOT_OK(ListDocs(0, SIZE_MAX, &docs, nullptr, &next));
  return docs;
}

}  // namespace xdb
