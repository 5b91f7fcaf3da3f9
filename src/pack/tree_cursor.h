// Traversal of stored XML data (Section 3.4).
//
// "To traverse in document order a persistently stored XML document ... the
// NodeID index is searched with (docid, 00) as the key. The root record can
// be identified. The XMLData is then traversed. If a proxy node is
// encountered, its node ID is used to search the NodeID index ... to find
// the RID for the corresponding record. Stacking has to be used during
// traversal." StoredDocSource implements exactly that walk as an
// XmlEventSource, searching one listing of the subtree's NodeID entries
// (taken with a single index seek) instead of descending the index per
// proxy; StoredTreeNavigator provides the point operations (first-child /
// next-sibling / node fetch) whose sibling skips can jump whole
// multi-record subtrees.
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

/// One node on the path from the root element down to a stored node.
struct StoredPathStep {
  std::string node_id;  // absolute
  NodeKind kind = NodeKind::kElement;
  NameId local = kEmptyNameId, ns_uri = kEmptyNameId;
};

/// Appends the nodes above a record to `path`: its context node and that
/// node's ancestors, root element first, named by the header's root path
/// and numbered by the context ID's levels.
Status AppendHeaderPath(const RecordHeader& header,
                        std::vector<StoredPathStep>* path);

/// Document-order event stream over packed records, resolving proxies
/// through one NodeID listing of the stream's subtree and a record stack.
/// Events view the walker's ID buffer and the record bytes (valid until the
/// next Next(), as XmlEvent says); nothing is copied per node.
///
/// Each record is fetched once per stream: every record context remembers
/// the last record it resolved a proxy into (packed sibling subtrees behind
/// consecutive proxies share it), and the source remembers the record its
/// last stream started in (consecutive streams of one run in one record
/// share it). A stream so holds O(record-stack depth) records, never
/// O(document).
class StoredDocSource : public XmlEventSource {
 public:
  /// Streams the whole document when `subtree_root` is empty, otherwise just
  /// the subtree rooted at that node (start/end document events included
  /// only for whole-document streams).
  StoredDocSource(RecordManager* records, NodeLocator* index, uint64_t doc_id,
                  std::string subtree_root = "");
  // listed_ points at entries_.
  StoredDocSource(const StoredDocSource&) = delete;
  StoredDocSource& operator=(const StoredDocSource&) = delete;

  /// Starts a run of streams over this document: lists, in one seek, the
  /// NodeID entries that resolve every subtree of `span`, so that each
  /// later Open() of one of its roots resolves against that listing instead
  /// of listing its own.
  Status ListSpan(const SubtreeSpan& span);

  /// Restarts as the stream of the subtree at `subtree_root` of the same
  /// document. Without ListSpan() its first Next() lists the subtree.
  void Open(Slice subtree_root);

  Result<bool> Next(XmlEvent* event) override;

  /// Valid right after Next() returned a start-element event: the next
  /// Next() returns that element's end event, and nothing below it is read
  /// (no proxy below it is resolved, so no record below it is fetched).
  void SkipChildren() { skip_children_ = true; }

  /// Records fetched so far (the traversal-cost metric of E2).
  uint64_t records_fetched() const { return records_fetched_; }

  /// The stream root's ancestors-or-self, root element first, from the
  /// stream's own descent to it: the root record's header path, then the
  /// in-record ancestors, then the root. Complete once the first event is
  /// out; empty for whole-document streams.
  const std::vector<StoredPathStep>& root_path() const { return root_path_; }

 private:
  /// A fetched record, shared by every context walking it.
  struct CachedRecord {
    Rid rid{};
    std::shared_ptr<std::string> bytes;
  };
  struct Ctx {
    std::shared_ptr<std::string> buf;  // record bytes (walker views into it)
    std::unique_ptr<RecordWalker> walker;
    std::string target;  // restrict to this subtree; "" = all
    bool in_target = false;
    bool target_done = false;
    int target_depth = 0;  // record-relative depth of the target entry
    bool resolving = false;  // pushed to resolve a proxy for `target`
    CachedRecord last_child;  // the last record a proxy here resolved into
  };

  /// Pushes the record the listing names for `target`, reusing `cached`
  /// when it is that record and remembering it there otherwise. A record
  /// pushed to resolve a proxy must hold the node as a non-proxy entry;
  /// anything else is Corruption, never a silent gap or an endless chase.
  Status PushRecord(Slice target, bool resolving, CachedRecord* cached);
  Result<bool> Produce(XmlEvent* event);  // one step; may recurse via stack

  RecordManager* records_;
  NodeLocator* index_;
  uint64_t doc_id_;
  std::string subtree_root_;
  // The stream's one NodeID listing (ListDocEntries at the root, or the
  // run's span); the root record and every proxy resolve against it.
  NodeIdEntries entries_;
  DocEntriesLocator listed_;
  bool span_listed_ = false;
  CachedRecord last_root_;  // the record the last stream started in
  std::vector<std::unique_ptr<Ctx>> stack_;
  RecordWalker::Event walked_;  // the current record event, reused
  std::vector<StoredPathStep> root_path_;
  bool started_ = false;
  bool finished_ = false;
  bool skip_children_ = false;
  uint64_t records_fetched_ = 0;
};

/// Summary of a stored node, as returned by point lookups.
struct StoredNodeInfo {
  NodeKind kind = NodeKind::kElement;
  NameId local = kEmptyNameId, ns_uri = kEmptyNameId, prefix = kEmptyNameId;
  TypeAnno type = TypeAnno::kUntyped;
  std::string value;  // leaf value (attribute/text/comment/PI)
  uint32_t child_count = 0;
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
