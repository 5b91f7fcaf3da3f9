// NodeIdIndex: the logical-to-physical map of Section 3.1/3.4.
//
// "A NodeID index is created on each XML table to map a logical node ID to
// its physical record ID (RID). For each contiguous interval of node IDs for
// nodes within a record in document order, only one entry is in the node ID
// index, which is the upper end point of the node ID interval."
//
// Lookup(doc, node) is therefore a single B+tree seek for the first entry
// with key >= (doc, node): because intervals partition a document's nodes
// and entries carry the interval's upper end point, that entry's RID is the
// record containing the node.
#ifndef XDB_INDEX_NODEID_INDEX_H_
#define XDB_INDEX_NODEID_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"

namespace xdb {

/// Resolves (doc, node id) to the RID of the containing record. The plain
/// NodeIdIndex resolves against current data; a VersionManager snapshot view
/// resolves against a point-in-time version — traversal code (StoredDocSource,
/// StoredTreeNavigator) works against either.
class NodeLocator {
 public:
  virtual ~NodeLocator() = default;
  virtual Result<Rid> Lookup(uint64_t doc_id, Slice node_id) = 0;
};

class NodeIdIndex : public NodeLocator {
 public:
  explicit NodeIdIndex(BTree* tree) : tree_(tree) {}

  /// Computes the record's node-ID intervals and inserts one entry per
  /// interval upper end point.
  Status AddRecord(uint64_t doc_id, Slice record, Rid rid);

  /// Removes the record's interval entries (must be passed the same bytes).
  Status RemoveRecord(uint64_t doc_id, Slice record, Rid rid);

  /// Finds the RID of the record containing `node_id` of document `doc_id`.
  /// An empty node_id addresses the document root record.
  Result<Rid> Lookup(uint64_t doc_id, Slice node_id) override;

  /// Lists a document's (interval upper, rid) pairs whose upper end point
  /// lies under the node-ID prefix `prefix` (the node or a descendant; an
  /// empty prefix is the whole document), in node-ID order.
  Status ListDocEntries(uint64_t doc_id, Slice prefix,
                        std::vector<std::pair<std::string, Rid>>* out);

  /// Distinct RIDs of the records with an interval ending under `prefix`,
  /// in first-appearance order: every record of the subtree at `prefix`,
  /// plus the record holding `prefix` itself when its interval ends there.
  Status ListDocRecords(uint64_t doc_id, Slice prefix, std::vector<Rid>* out);

  /// Drops every entry of the document (document deletion).
  Status RemoveDocEntries(uint64_t doc_id);

  BTree* tree() { return tree_; }

 private:
  BTree* tree_;
};

}  // namespace xdb

#endif  // XDB_INDEX_NODEID_INDEX_H_
