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
// A document exists exactly when it has entries: the index is also the
// document list.
#ifndef XDB_INDEX_NODEID_INDEX_H_
#define XDB_INDEX_NODEID_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"

namespace xdb {

/// One document's NodeID entries, (interval upper end, RID), in node-ID
/// order.
using NodeIdEntries = std::vector<std::pair<std::string, Rid>>;

/// The subtrees at a set of node IDs of one document, as one listing must
/// resolve them: `first` and `last` are the lowest and highest root in
/// document order, `outer` the root whose subtree ends last (`last` or an
/// ancestor of it among the roots). One subtree is the span {p, p, p}.
struct SubtreeSpan {
  SubtreeSpan(Slice root) : first(root), last(root), outer(root) {}  // NOLINT
  /// Adds `root`, which must not sort before `last`.
  void Extend(Slice root) {
    last = root;
    if (!root.StartsWith(outer)) outer = root;  // past outer's subtree
  }

  Slice first, last, outer;
};

/// ListDocEntries' rule for one entry with upper end `upper`, met in node-ID
/// order from the seek at span.first: kStop ends the listing before it,
/// kLast lists it as the final entry, kMore lists it and goes on.
/// `*reached` starts false and records that the entry Lookup(last) finds is
/// listed.
enum class SpanStep { kStop, kLast, kMore };
SpanStep NextSpanStep(const SubtreeSpan& span, Slice upper, bool* reached);

/// Resolves (doc, node id) to the RID of the containing record. The plain
/// NodeIdIndex resolves against current data; a VersionManager snapshot view
/// resolves against a point-in-time version — traversal code (StoredDocSource,
/// StoredTreeNavigator) works against either.
class NodeLocator {
 public:
  virtual ~NodeLocator() = default;
  virtual Result<Rid> Lookup(uint64_t doc_id, Slice node_id) = 0;

  /// Lists, from one seek at (doc, span.first), the entries that resolve
  /// the span's subtrees, in node-ID order: every entry up to and including
  /// the one Lookup(doc, span.last) finds (the record holding the node,
  /// whose interval may end past the subtree), then every later entry whose
  /// upper end lies under span.outer. For one subtree at `prefix` that is
  /// Lookup's entry and the entries under `prefix`; an empty prefix lists
  /// the whole document; an absent document lists nothing. Any node of the
  /// span's subtrees resolves against the list by Lookup's rule
  /// (DocEntriesLocator) exactly as against the index.
  virtual Status ListDocEntries(uint64_t doc_id, const SubtreeSpan& span,
                                NodeIdEntries* out) = 0;
};

/// Resolves against a list of one document's entries instead of the B+tree,
/// by the rule Lookup applies there: the first upper end >= the node ID. A
/// stream that listed its span once (StoredDocSource) and a document delete
/// that listed its entries once read their records without a descent.
class DocEntriesLocator : public NodeLocator {
 public:
  /// `entries` must stay alive and unchanged while the locator is used.
  DocEntriesLocator(uint64_t doc_id, const NodeIdEntries* entries)
      : doc_id_(doc_id), entries_(entries) {}

  Result<Rid> Lookup(uint64_t doc_id, Slice node_id) override;
  Status ListDocEntries(uint64_t doc_id, const SubtreeSpan& span,
                        NodeIdEntries* out) override;

 private:
  uint64_t doc_id_;
  const NodeIdEntries* entries_;
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

  Status ListDocEntries(uint64_t doc_id, const SubtreeSpan& span,
                        NodeIdEntries* out) override;

  /// Distinct RIDs of the records with an interval ending under `prefix`,
  /// in first-appearance order: every record of the subtree at `prefix`,
  /// plus the record holding `prefix` itself when its interval ends there.
  Status ListDocRecords(uint64_t doc_id, Slice prefix, std::vector<Rid>* out);

  /// Drops the listed entries of the document (ListDocEntries' output), as
  /// one sorted batch: document deletion.
  Status RemoveDocEntries(uint64_t doc_id, const NodeIdEntries& entries);

  /// The stored documents from DocID `from` on, in order, with each one's
  /// entries when `entries` is given (one list per document): one walk over
  /// the leaves. It stops at the first document that starts after
  /// `max_entries` entries and sets `*next` to its DocID, or to 0 at the
  /// end. A key too short to name a document is Corruption.
  Status ListDocs(uint64_t from, size_t max_entries,
                  std::vector<uint64_t>* docs,
                  std::vector<NodeIdEntries>* entries, uint64_t* next);
  /// Every stored document, in DocID order.
  Result<std::vector<uint64_t>> ListDocIds();

  BTree* tree() { return tree_; }

 private:
  /// Inserts or deletes (doc, upper) -> rid for each pair, as one batch.
  Status Apply(BTree::BatchOp op, uint64_t doc_id, const NodeIdEntries& pairs);

  BTree* tree_;
};

}  // namespace xdb

#endif  // XDB_INDEX_NODEID_INDEX_H_
