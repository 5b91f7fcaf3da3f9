// Packed XML records: the storage format of Figure 3.
//
// Each record stores a sequence of subtrees that share a common parent (the
// *context node*). Structure nesting represents parent-child relationships;
// each non-leaf node carries its child count and subtree byte length so
// traversal can do first-child / next-sibling / skip-subtree without parsing
// descendants. Subtrees evicted to other records are represented by proxy
// nodes; no physical links exist between records — linkage is logical, via
// prefix-encoded node IDs resolved through the NodeID index.
//
// Record layout:
//   header:
//     [context node absolute ID, length-prefixed]
//     [root path: varint count, then per level (local varint, ns varint)]
//     [in-scope namespaces: varint count, then (prefix varint, uri varint)]
//     [subtree count at top level: varint]
//   entries (pre-order, recursive):
//     [kind u8][relative node ID (self-delimiting: odd* even)] then
//       element:   [local][ns][prefix][nchildren varint][children_len varint]
//                  [children entries...]
//       attribute: [local][ns][prefix][type u8][value lp]
//       text:      [type u8][value lp]
//       namespace: [prefix][uri]
//       comment:   [value lp]
//       pi:        [target][value lp]
//       proxy:     (nothing; the relative ID names the evicted subtree root)
#ifndef XDB_PACK_PACKED_RECORD_H_
#define XDB_PACK_PACKED_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "xml/name_dictionary.h"
#include "xml/node_kind.h"
#include "xml/token_stream.h"

namespace xdb {

struct RecordHeader {
  Slice context_node_id;  // absolute; empty = document node
  struct PathStep {
    NameId local, ns_uri;
  };
  std::vector<PathStep> root_path;  // element names root -> context node
  std::vector<std::pair<NameId, NameId>> namespaces;  // (prefix, uri)
  uint32_t subtree_count = 0;
};

/// Parses the record header; on success *payload points at the entry area.
Status ParseRecordHeader(Slice record, RecordHeader* header, Slice* payload);

/// Serializes a header.
void AppendRecordHeader(const RecordHeader& header, std::string* dst);

/// One node entry as seen by the in-record walker.
struct PackedEntry {
  NodeKind kind = NodeKind::kElement;
  Slice rel_id;
  Slice abs_id;  // context id + rel ids along the in-record path; views the
                 // walker's ID buffer, valid until its next Next()
  NameId local = kEmptyNameId, ns_uri = kEmptyNameId, prefix = kEmptyNameId;
  TypeAnno type = TypeAnno::kUntyped;
  Slice value;
  uint32_t child_count = 0;
  uint32_t children_len = 0;  // subtree byte length (elements only)
  int depth = 0;              // 0 = direct child of the context node
};

/// Pre-order walker over one record's entries. Emits kStart for every entry
/// and kEnd when an element's children are exhausted (leaves get kStart
/// only). Skip() jumps over the current element's children ("skipping
/// subtrees in XPath evaluations"). The walker keeps the current absolute
/// node ID in one buffer: an event's abs_id views it and stays valid only
/// until the next Next(), so a caller that keeps an ID copies it.
class RecordWalker {
 public:
  /// `record` must stay alive for the walker's lifetime.
  explicit RecordWalker(Slice record);

  Status Init();  // parses the header
  const RecordHeader& header() const { return header_; }

  enum class EventType { kStart, kEnd, kDone };
  struct Event {
    EventType type = EventType::kDone;
    PackedEntry entry;  // valid for kStart; for kEnd, kind/abs_id/depth valid
  };

  /// Advances to the next event.
  Status Next(Event* event);

  /// After a kStart for an element: skip its children (the matching kEnd is
  /// suppressed).
  void SkipChildren();

 private:
  struct Frame {
    const char* end;  // first byte past this element's children
    size_t id_len;    // length of the element's absolute id in id_
  };

  Slice record_;
  RecordHeader header_;
  const char* p_ = nullptr;
  const char* limit_ = nullptr;
  std::vector<Frame> stack_;
  // The current absolute ID: the context ID, then one relative ID per
  // open element, then the current entry's.
  std::string id_;
  bool pending_skip_ = false;
};

/// Computes the NodeID-index intervals of a record (Section 3.1): for each
/// maximal run of record-resident node IDs that is contiguous in document
/// order, the *upper end point*. Proxies break runs.
Status ComputeNodeIdIntervals(Slice record,
                              std::vector<std::string>* interval_uppers);

/// Counts nodes physically present in the record (proxies excluded).
Result<uint64_t> CountRecordNodes(Slice record);

// --- record surgery: each edit is one pass that re-emits the record,
// recomputing the child counts and subtree lengths of enclosing elements.

/// Replaces the value of the text node `node_id`. NotFound if the node is
/// not a text node physically present in this record.
Result<std::string> ReplaceTextValue(Slice record, Slice node_id,
                                     Slice new_value);

/// Splices `entry` (one serialized entry: a proxy or a packed subtree) into
/// the child list of `parent_abs` at its relative ID's document-order
/// position. When `parent_abs` is the record's context node, the entry
/// becomes a top-level subtree. NotFound if the parent is not in this
/// record.
Result<std::string> InsertEntry(Slice record, Slice parent_abs, Slice entry);

/// Drops the entry (subtree or proxy) whose absolute ID is `node_abs`. Sets
/// *now_empty when the record retains no non-proxy entries. NotFound if
/// absent.
Result<std::string> RemoveEntry(Slice record, Slice node_abs,
                                bool* now_empty);

// --- entry serialization (must mirror RecordWalker)

namespace packfmt {

void AppendAttribute(std::string* dst, Slice rel_id, NameId local,
                     NameId ns_uri, NameId prefix, TypeAnno type, Slice value);
void AppendText(std::string* dst, Slice rel_id, TypeAnno type, Slice value);
void AppendNamespace(std::string* dst, Slice rel_id, NameId prefix,
                     NameId uri);
void AppendComment(std::string* dst, Slice rel_id, Slice value);
void AppendPi(std::string* dst, Slice rel_id, NameId target, Slice value);
/// Wraps already-serialized children with an element entry header.
void AppendElement(std::string* dst, Slice rel_id, NameId local, NameId ns_uri,
                   NameId prefix, uint32_t child_count, Slice children);
void AppendProxy(std::string* dst, Slice rel_id);

}  // namespace packfmt

}  // namespace xdb

#endif  // XDB_PACK_PACKED_RECORD_H_
