// RecordBuilder: streams a token stream into tree-packed records, bottom-up.
//
// "Assuming the tree is too big for one record, we pack a subtree or a
// sequence of subtrees into a separate record, in a bottom-up fashion. A
// packed subtree is represented using a proxy node in its containing record."
// (Section 3.1). "During tree construction, no separate trees of in-memory
// format are built. Rather, tree-packed records are generated from the
// bottom up in a streaming fashion." (Section 3.2).
//
// Grouping is size-based (the paper's contrast to Natix's split matrix): a
// record is cut whenever the accumulated completed-subtree bytes of the
// innermost open element exceed the record budget. The same builder packs
// whole documents and the fragments a subtree insert grafts into one.
#ifndef XDB_PACK_RECORD_BUILDER_H_
#define XDB_PACK_RECORD_BUILDER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "pack/packed_record.h"
#include "xml/token_stream.h"

namespace xdb {

struct RecordBuilderOptions {
  /// Soft cap on record payload bytes; the knob behind the paper's packing
  /// factor p. Records exceed it only when a single entry is itself larger.
  size_t record_budget = 3000;
};

struct PackedRecordOut {
  std::string min_node_id;  // minimum (document-order first) node ID inside
  std::string bytes;        // header + entries
};

/// Where a fragment goes in a stored document: it becomes the child of
/// `parent_id` whose relative ID is `root_rel`.
struct SubtreeContext {
  std::string parent_id;  // absolute
  std::vector<RecordHeader::PathStep> root_path;  // root element -> parent
  std::vector<std::pair<NameId, NameId>> namespaces;  // the parent record's
  std::string root_rel;
};

class RecordBuilder {
 public:
  explicit RecordBuilder(RecordBuilderOptions options = {})
      : options_(options) {}

  using Emit = std::function<Status(PackedRecordOut&&)>;

  /// Packs one document's token stream; emits records in bottom-up creation
  /// order (descendant records before the records that proxy them).
  Status Build(Slice tokens, const Emit& emit);

  /// Elements, attributes and text nodes the last Build or BuildSubtree
  /// packed: a document's share of the collection's node-count statistic.
  uint64_t stat_nodes() const { return stat_nodes_; }

  /// Packs a fragment with exactly one root element as the subtree `context`
  /// names. Records cut inside the fragment are emitted; the top record (the
  /// parent as context node, the fragment's root as its one subtree) is
  /// returned for the caller to place.
  Result<PackedRecordOut> BuildSubtree(Slice tokens,
                                       const SubtreeContext& context,
                                       const Emit& emit);

 private:
  RecordBuilderOptions options_;
  uint64_t stat_nodes_ = 0;
};

/// Convenience wrapper collecting all records.
Result<std::vector<PackedRecordOut>> PackDocument(
    Slice tokens, RecordBuilderOptions options = {});

}  // namespace xdb

#endif  // XDB_PACK_RECORD_BUILDER_H_
