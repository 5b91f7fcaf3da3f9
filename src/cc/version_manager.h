// VersionManager: document-level multiversioning (Section 5.1).
//
// "To support multiversioning at document level, one scheme is to keep most
// up-to-date data for XPath value indexes, but keep versions for XML data
// and the NodeID index ... the entries will also include a version number,
// i.e. (DocID, ver#, NodeID, RID), with ver# in descending order. This will
// guarantee a reader's deferred access to be successful."
//
// The versioned NodeID index stores keys [DocID | ~ver# | NodeID]: the
// bitwise complement puts newer versions first, so a snapshot reader's seek
// at (doc, ~snapshot) lands on the newest version <= its snapshot.
#ifndef XDB_CC_VERSION_MANAGER_H_
#define XDB_CC_VERSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/nodeid_index.h"
#include "storage/page.h"

namespace xdb {

class VersionManager {
 public:
  explicit VersionManager(BTree* versioned_index)
      : tree_(versioned_index), last_committed_(0), next_version_(1) {}

  /// A reader's snapshot: the newest committed version.
  uint64_t BeginSnapshot() const { return last_committed_.load(); }

  /// Restores counters from the catalog after reopen.
  void InitCounters(uint64_t last_committed) {
    last_committed_.store(last_committed);
    next_version_.store(last_committed + 1);
  }

  /// A writer's new version number (visible only after Publish).
  uint64_t AllocateVersion() { return next_version_.fetch_add(1); }

  /// Publishes `version` as committed (single writer per document is
  /// enforced by the caller's X lock; versions publish in order here).
  void Publish(uint64_t version);

  /// Adds the interval entries of `record` under (doc, version).
  Status AddRecord(uint64_t doc_id, uint64_t version, Slice record, Rid rid);

  /// Adds a single raw (interval-upper, rid) entry under (doc, version) —
  /// used to carry unchanged records' entries into a new version.
  Status AddEntry(uint64_t doc_id, uint64_t version, Slice interval_upper,
                  Rid rid);

  /// Lists (interval upper, rid) pairs of one exact version.
  Status ListVersionEntries(uint64_t doc_id, uint64_t version,
                            NodeIdEntries* out);

  /// NodeLocator::ListDocEntries as of `snapshot`: one EffectiveVersion
  /// and one seek at (doc, version, span.first).
  Status ListDocEntries(uint64_t doc_id, uint64_t snapshot,
                        const SubtreeSpan& span, NodeIdEntries* out);

  /// The newest version of `doc_id` that is <= `snapshot`; NotFound if the
  /// document did not exist at that snapshot.
  Result<uint64_t> EffectiveVersion(uint64_t doc_id, uint64_t snapshot);

  /// Record containing `node_id` as of `snapshot`.
  Result<Rid> Lookup(uint64_t doc_id, uint64_t snapshot, Slice node_id);

  /// Distinct record RIDs of the document as of `snapshot`, in node order.
  Status ListDocRecords(uint64_t doc_id, uint64_t snapshot,
                        std::vector<Rid>* out);

  /// Deletes the index entries of every version of `doc_id` older than
  /// `keep_from` (which stays) and reports the records only they
  /// referenced, which the caller frees: version garbage collection once no
  /// snapshot can see them. Every entry of the document is decoded first,
  /// so a damaged one fails the call before anything is deleted.
  Status PurgeVersionsBefore(uint64_t doc_id, uint64_t keep_from,
                             std::vector<Rid>* freed_rids);

  BTree* tree() { return tree_; }

 private:
  static void EncodeKey(uint64_t doc_id, uint64_t version, Slice node_id,
                        std::string* out);
  static Status DecodeKey(Slice key, uint64_t* doc_id, uint64_t* version,
                          Slice* node_id);
  /// An entry's value, its record's packed RID: Corruption at any other
  /// width, before the caller acts on the entry.
  static Result<Rid> DecodeValue(Slice value);
  /// One version's entries from a seek at (doc, version, span.first), by
  /// the NodeLocator::ListDocEntries rule.
  Status ListFrom(uint64_t doc_id, uint64_t version, const SubtreeSpan& span,
                  NodeIdEntries* out);

  // The versioned index is guarded by the owning collection's latch_ (every
  // caller holds it); only the version counters are touched lock-free here.
  BTree* tree_;
  std::atomic<uint64_t> last_committed_;
  std::atomic<uint64_t> next_version_;
};

/// A point-in-time NodeLocator view over the versioned index, so stored-data
/// traversal (StoredDocSource, StoredTreeNavigator) can run against a
/// snapshot — the reader's "deferred access guaranteed to be successful".
class SnapshotLocator : public NodeLocator {
 public:
  SnapshotLocator(VersionManager* versions, uint64_t snapshot)
      : versions_(versions), snapshot_(snapshot) {}

  Result<Rid> Lookup(uint64_t doc_id, Slice node_id) override {
    return versions_->Lookup(doc_id, snapshot_, node_id);
  }
  Status ListDocEntries(uint64_t doc_id, const SubtreeSpan& span,
                        NodeIdEntries* out) override {
    return versions_->ListDocEntries(doc_id, snapshot_, span, out);
  }

 private:
  VersionManager* versions_;
  uint64_t snapshot_;
};

}  // namespace xdb

#endif  // XDB_CC_VERSION_MANAGER_H_
