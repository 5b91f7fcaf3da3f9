// Traversal of stored XML data (Section 3.4).
//
// "To traverse in document order a persistently stored XML document ... the
// NodeID index is searched with (docid, 00) as the key. The root record can
// be identified. The XMLData is then traversed. If a proxy node is
// encountered, its node ID is used to search the NodeID index ... to find
// the RID for the corresponding record. Stacking has to be used during
// traversal." StoredDocSource implements exactly that walk as an
// XmlEventSource; StoredTreeNavigator provides the point operations
// (first-child / next-sibling / node fetch) whose sibling skips can jump
// whole multi-record subtrees.
#ifndef XDB_PACK_TREE_CURSOR_H_
#define XDB_PACK_TREE_CURSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "index/nodeid_index.h"
#include "pack/packed_record.h"
#include "runtime/virtual_sax.h"
#include "storage/record_manager.h"

namespace xdb {

/// Document-order event stream over packed records, resolving proxies
/// through the NodeID index with a record stack.
class StoredDocSource : public XmlEventSource {
 public:
  /// Streams the whole document when `subtree_root` is empty, otherwise just
  /// the subtree rooted at that node (start/end document events included
  /// only for whole-document streams).
  StoredDocSource(RecordManager* records, NodeLocator* index, uint64_t doc_id,
                  std::string subtree_root = "");

  Result<bool> Next(XmlEvent* event) override;

  /// Records fetched so far (the traversal-cost metric of E2).
  uint64_t records_fetched() const { return records_fetched_; }

 private:
  struct Ctx {
    std::shared_ptr<std::string> buf;  // record bytes (walker views into it)
    std::unique_ptr<RecordWalker> walker;
    std::string target;  // restrict to this subtree; "" = all
    bool in_target = false;
    bool target_done = false;
    int target_depth = 0;  // record-relative depth of the target entry
  };

  Status PushRecord(Slice node_id, std::string target);
  Result<bool> Produce(XmlEvent* event);  // one step; may recurse via stack

  RecordManager* records_;
  NodeLocator* index_;
  uint64_t doc_id_;
  std::string subtree_root_;
  std::vector<std::unique_ptr<Ctx>> stack_;
  std::string cur_id_;     // storage for event node ids
  std::string cur_value_;  // storage for event values
  bool started_ = false;
  bool finished_ = false;
  uint64_t records_fetched_ = 0;
  // One-record cache: a run of sibling proxies usually resolves to the same
  // evicted record; reuse it instead of refetching (the buffer manager would
  // serve the same page, but the record copy is avoidable too).
  Rid last_rid_{};
  std::shared_ptr<std::string> last_buf_;
};

/// Summary of a stored node, as returned by point lookups.
struct StoredNodeInfo {
  NodeKind kind = NodeKind::kElement;
  NameId local = kEmptyNameId, ns_uri = kEmptyNameId, prefix = kEmptyNameId;
  TypeAnno type = TypeAnno::kUntyped;
  std::string value;  // leaf value (attribute/text/comment/PI)
  uint32_t child_count = 0;
};

/// One node on the path from the root element down to a stored node.
struct StoredPathStep {
  std::string node_id;  // absolute
  NodeKind kind = NodeKind::kElement;
  NameId local = kEmptyNameId, ns_uri = kEmptyNameId;
};

/// Point navigation over a stored document.
class StoredTreeNavigator {
 public:
  StoredTreeNavigator(RecordManager* records, NodeLocator* index,
                      uint64_t doc_id)
      : records_(records), index_(index), doc_id_(doc_id) {}

  /// Fetches the node with the given absolute ID ("" = the root record's
  /// first subtree root is NOT the document itself; the document node is
  /// implicit and not fetchable).
  Result<StoredNodeInfo> GetNode(Slice node_id);

  /// Absolute ID of the first child; NotFound when childless.
  Result<std::string> FirstChildId(Slice node_id);

  /// Absolute IDs of an element's children (proxies included) in document
  /// order, from the one record holding its child list.
  Status ChildIds(Slice node_id, std::vector<std::string>* out);

  /// Absolute ID of the next sibling, skipping the node's entire subtree
  /// (however many records it spans) in O(1) record fetches.
  Result<std::string> NextSiblingId(Slice node_id);

  /// XPath string value (concatenated subtree text; crosses records).
  Result<std::string> StringValue(Slice node_id);

  /// The ancestors-or-self of `node_id`, root element first (empty for the
  /// document node): the holding record's header root path, then the walk
  /// inside that record down to the node.
  Status Path(Slice node_id, std::vector<StoredPathStep>* out);

 private:
  // Positions a walker on the record containing `node_id` and advances it to
  // the node's kStart event; with `path`, appends the node's
  // ancestors-or-self on the way (see Path).
  Status WalkTo(Slice node_id, std::string* buf,
                std::unique_ptr<RecordWalker>* walker,
                RecordWalker::Event* event,
                std::vector<StoredPathStep>* path = nullptr);

  RecordManager* records_;
  NodeLocator* index_;
  uint64_t doc_id_;
};

}  // namespace xdb

#endif  // XDB_PACK_TREE_CURSOR_H_
