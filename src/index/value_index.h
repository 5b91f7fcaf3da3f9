// ValueIndex: XPath value indexes, Section 3.3.
//
// "Users can create XPath value indexes on frequently searched elements or
// attributes by specifying a simple XPath expression without predicates,
// such as /catalog//productname, and a data type for the key values. ... A
// value index entry contains (keyval, DocID, NodeID, RID)". Unlike
// relational indexes there may be zero, one or more entries per record.
// Here an entry is (keyval, DocID, NodeID): the NodeID index is the one map
// from a node to its record, so no write keeps a second copy of it.
#ifndef XDB_INDEX_VALUE_INDEX_H_
#define XDB_INDEX_VALUE_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/key_codec.h"

namespace xdb {

/// Definition of one XPath value index.
struct ValueIndexDef {
  std::string name;
  std::string path;  // predicate-free XPath, e.g. "/catalog//productname"
  ValueType type = ValueType::kString;
  uint32_t max_string_len = 128;  // VARCHAR(n) equivalent for string keys
};

/// One (DocID, NodeID) hit returned from an index probe.
struct Posting {
  uint64_t doc_id = 0;
  std::string node_id;
};

/// A bound of a key range probe.
struct KeyBound {
  std::string key;  // typed-encoded
  bool inclusive = true;
};

/// Observer of successful entry adds/removes, keyed by the typed-encoded
/// key. The planner's statistics (query::CollectionStats) implement this so
/// every index-maintenance path — document insert/delete, subtree edits,
/// text updates, backfill — feeds the per-index key-count and distinct-key
/// sketch without per-call-site hooks. Calls happen under the collection's
/// exclusive latch; implementations must not call back into the index.
class ValueIndexStatsListener {
 public:
  virtual ~ValueIndexStatsListener() = default;
  virtual void OnEntryAdded(Slice encoded_key) = 0;
  virtual void OnEntryRemoved(Slice encoded_key) = 0;
};

class ValueIndex {
 public:
  ValueIndex(ValueIndexDef def, BTree* tree)
      : def_(std::move(def)), tree_(tree) {}

  const ValueIndexDef& def() const { return def_; }
  BTree* tree() { return tree_; }

  /// Installs (or clears, with nullptr) the statistics listener.
  void set_stats_listener(ValueIndexStatsListener* listener) {
    stats_ = listener;
  }

  /// Adds an entry for a node whose string value is `value`. Values that do
  /// not cast to the index type produce no entry (returns OK).
  Status Add(Slice value, uint64_t doc_id, Slice node_id);

  Status Remove(Slice value, uint64_t doc_id, Slice node_id);

  /// Encodes a query literal with this index's type.
  Status EncodeKey(Slice value, std::string* out) const {
    return EncodeTypedKey(def_.type, value, def_.max_string_len, out);
  }

  /// Range probe: postings with lo <= key <= hi (either bound optional),
  /// in (key, doc, node) order.
  Status Scan(const std::optional<KeyBound>& lo,
              const std::optional<KeyBound>& hi, std::vector<Posting>* out);

  /// Equality probe.
  Status ScanEqual(Slice value, std::vector<Posting>* out);

 private:
  ValueIndexDef def_;
  BTree* tree_;
  ValueIndexStatsListener* stats_ = nullptr;
};

}  // namespace xdb

#endif  // XDB_INDEX_VALUE_INDEX_H_
