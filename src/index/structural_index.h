// StructuralIndex: element instances by name, keyed by prefix node ID.
//
// Where value indexes (Section 3.3/4.3) prune candidates by *content*, a
// structural index prunes by *shape*: "all instances of element name N" —
// the expensive part of a //a//N-shaped step — becomes one B+tree range
// scan instead of a QuickXScan walk per candidate document. Entries live in
// the value indexes' B+tree infrastructure:
//
//   key = [name_id big32][doc_id big64][node id bytes], value empty
//
// Node-ID bytes sort in document order (Between()-allocated IDs too) and
// encode ancestry (a proper prefix is an ancestor), so a scan returns the
// (doc, document order) the anchor join and parallel determinism need, and
// a node's entry never moves: an edit touches only its own subtree's.
#ifndef XDB_INDEX_STRUCTURAL_INDEX_H_
#define XDB_INDEX_STRUCTURAL_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/value_index.h"
#include "xml/name_dictionary.h"

namespace xdb {

struct XmlEvent;

/// Definition of one structural index.
struct StructuralIndexDef {
  std::string name;
  /// Local element name to index; empty indexes every element name (the
  /// "optionally per-name" knob: a per-name index stays small and is only
  /// consulted for steps testing exactly that name).
  std::string element_name;
};

/// One element instance's structural facts, as derived from a subtree walk.
struct StructuralEntry {
  NameId name_id = kEmptyNameId;
  /// Descendant element count. Feeds the stats span sketch; not persisted.
  uint32_t subtree_size = 0;
  std::string node_id;  // absolute node ID
};

/// Observer of entry adds/removes and span moves, keyed by the element's
/// local name. query::CollectionStats implements this to maintain its
/// per-name count + average-span sketch (same pattern as
/// ValueIndexStatsListener). Calls happen under the collection's exclusive
/// latch; implementations must not call back into the index. One call
/// covers all of one write's entries of a name, and must leave the stats
/// as one call per entry would.
class StructuralIndexStatsListener {
 public:
  virtual ~StructuralIndexStatsListener() = default;
  /// `n` entries of the name were added; their subtree sizes sum to
  /// `span_sum`.
  virtual void OnElementsAdded(Slice local_name, uint64_t n,
                               uint64_t span_sum) = 0;
  /// Entries of the name were removed, one subtree size each, in order.
  virtual void OnElementsRemoved(Slice local_name,
                                 std::span<const uint32_t> spans) = 0;
  /// An edit below an indexed element added (delta > 0) or removed elements.
  virtual void OnSpanMoved(Slice local_name, int64_t delta) = 0;
};

/// Lists the elements of one subtree's virtual-SAX events, fed one at a
/// time, in document order, with their absolute node IDs (canonical ones
/// from a token stream, the real stored ones from StoredDocSource) and
/// descendant counts. Events other than element starts and ends pass by.
class StructuralDeriver {
 public:
  Status Feed(const XmlEvent& ev);
  /// Checks that every element was closed and hands over the entries.
  Status Finish(std::vector<StructuralEntry>* out);

 private:
  std::vector<StructuralEntry> entries_;
  std::vector<size_t> open_;  // indexes into entries_ of unclosed elements
};

class StructuralIndex {
 public:
  StructuralIndex(StructuralIndexDef def, BTree* tree)
      : def_(std::move(def)), tree_(tree) {}

  const StructuralIndexDef& def() const { return def_; }
  BTree* tree() { return tree_; }

  /// Installs (or clears, with nullptr) the statistics listener.
  void set_stats_listener(StructuralIndexStatsListener* listener) {
    stats_ = listener;
  }

  /// True when this index holds entries for elements named `local_name`
  /// (all-names index, or the per-name index for exactly that name).
  bool CoversName(Slice local_name) const {
    return def_.element_name.empty() || Slice(def_.element_name) == local_name;
  }

  /// Adds (or, with `remove`, deletes) one subtree's derived entries, and
  /// moves the span of each covered element of `ancestors` (the subtree
  /// root's element ancestors) by the subtree's element count. `dict`
  /// renders each distinct local name once, for coverage and the stats
  /// listener. The covered entries' keys go to the B+tree as one sorted
  /// batch of exact (key, value) inserts or deletes.
  Status Apply(const NameDictionary& dict, uint64_t doc_id,
               const std::vector<StructuralEntry>& entries,
               const std::vector<NameId>& ancestors, bool remove);

  /// Range-scans every instance of `name_id` across all documents, in
  /// (doc_id, node ID) order — document order within each document — as
  /// anchor postings (no RID).
  Status Scan(NameId name_id, std::vector<Posting>* out);

  /// Total entries in the index (full scan; tests and stats rebuilds only).
  Result<uint64_t> CountEntries();

 private:
  StructuralIndexDef def_;
  BTree* tree_;
  StructuralIndexStatsListener* stats_ = nullptr;
};

// Key codec, exposed for tests. A non-empty value is Corruption.
void EncodeStructuralKey(NameId name_id, uint64_t doc_id, Slice node_id,
                         std::string* out);
Status DecodeStructuralEntry(Slice key, Slice value, NameId* name_id,
                             uint64_t* doc_id, Slice* node_id);

}  // namespace xdb

#endif  // XDB_INDEX_STRUCTURAL_INDEX_H_
