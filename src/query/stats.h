// Per-collection statistics driving cost-based access-path selection.
//
// The paper picks among the Table 2 access methods with "relatively simple"
// rules; making that choice data-driven needs per-collection cardinalities
// maintained as documents come and go:
//
//  * document / node / record counts (doc_count exact, node_count a running
//    estimate corrected on every insert and decayed by the collection
//    average on delete);
//  * per-value-index entry counts (exact) plus a distinct-key estimate and a
//    uniform key sample from a bounded KMV ("K minimum values") sketch —
//    hashing every key and keeping the K smallest hashes yields both a
//    distinct-count estimator and an unbiased sample of distinct keys, which
//    prices equality and range selectivity;
//  * a monotonically bumping stats epoch. Every document insert/delete and
//    every index create/drop bumps it; compiled plans are keyed by it, so an
//    epoch bump implicitly invalidates every cached plan priced on the old
//    numbers.
//
// Concurrency: mutating calls run under the collection's exclusive latch
// (they piggyback on document writes), but readers snapshot without the
// latch, so every method takes the internal leaf mutex `mu_`. Nothing is
// acquired while `mu_` is held — it nests inside any engine lock.
#ifndef XDB_QUERY_STATS_H_
#define XDB_QUERY_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/structural_index.h"
#include "index/value_index.h"

namespace xdb {
namespace query {

/// Deterministic 64-bit FNV-1a over the encoded key bytes — stable across
/// runs/platforms so goldens and replay stay stable. Not order-preserving:
/// range selectivity relies on the sampled key bytes (sorted in encoded-key
/// order), never on hash order.
uint64_t StatsKeyHash(Slice key);

/// Plain-data copy of one index's statistics (planning + persistence).
struct IndexStatsSnapshot {
  uint64_t entry_count = 0;
  /// KMV distinct-key estimate, >= 1 whenever entry_count > 0.
  double distinct_keys = 0;
  /// Uniform sample of distinct encoded keys (sorted byte order). Encoded
  /// keys compare like the index itself, so range selectivity is the
  /// fraction of sample keys inside the probe's [lo, hi].
  std::vector<std::string> sample_keys;
};

/// Per-element-name structural facts: how many instances of the name one
/// structural index holds and how wide their subtrees are on average (the
/// span prices the residual recheck of one structural anchor).
struct StructuralNameStats {
  uint64_t count = 0;
  uint64_t span_sum = 0;  // sum of descendant-element counts
  double avg_subtree() const {
    return count == 0 ? 0.0
                      : static_cast<double>(span_sum) /
                            static_cast<double>(count);
  }
};

/// Plain-data copy of one structural index's statistics. The per-name map is
/// bounded (CollectionStats::kMaxStructuralNames); entries for names beyond
/// the cap pool into `other_count`, so an uncached name estimates high
/// (never prices a structural scan as free when it is not).
struct StructuralStatsSnapshot {
  uint64_t entry_count = 0;
  uint64_t other_count = 0;  // entries whose name fell past the cap
  /// Cumulative maintenance counters (every listener add/remove since the
  /// index object was created). Process-lifetime like the registry's
  /// Counters — deliberately NOT persisted with the statistics; the metrics
  /// registry surfaces them as index.structural.entries_added/removed.
  uint64_t entries_added = 0;
  uint64_t entries_removed = 0;
  std::map<std::string, StructuralNameStats> names;

  /// Expected instances of `name`: the tracked count, or the pooled
  /// overflow count for names past the cap (conservatively high).
  double EstimateNameCount(const std::string& name) const {
    auto it = names.find(name);
    if (it != names.end()) return static_cast<double>(it->second.count);
    return static_cast<double>(other_count);
  }
  double AvgSubtreeSize(const std::string& name) const {
    auto it = names.find(name);
    return it == names.end() ? 0.0 : it->second.avg_subtree();
  }
};

/// Plain-data copy of a collection's statistics at one epoch.
struct CollectionStatsSnapshot {
  uint64_t epoch = 0;
  uint64_t doc_count = 0;
  uint64_t node_count = 0;  // running estimate (see header comment)
  std::map<std::string, IndexStatsSnapshot> indexes;  // by index name
  /// Structural indexes, by index name.
  std::map<std::string, StructuralStatsSnapshot> structural;

  double avg_nodes_per_doc() const {
    return doc_count == 0 ? 0.0
                          : static_cast<double>(node_count) /
                                static_cast<double>(doc_count);
  }
};

/// The live, incrementally maintained statistics object (one per
/// collection). Implements per-index maintenance by handing each ValueIndex
/// a ValueIndexStatsListener that feeds entry adds/removes back here, so
/// every maintenance path (insert, delete, subtree edits, text updates,
/// backfill) is covered without per-call-site hooks.
class CollectionStats {
 public:
  static constexpr size_t kSketchSize = 64;
  /// Distinct element names tracked per structural index before new names
  /// pool into the overflow bucket.
  static constexpr size_t kMaxStructuralNames = 256;

  // Both out of line: PerIndex is incomplete here and the map of
  // unique_ptr<PerIndex> needs the complete type to destroy (including
  // constructor unwinding).
  CollectionStats();
  ~CollectionStats();
  CollectionStats(const CollectionStats&) = delete;
  CollectionStats& operator=(const CollectionStats&) = delete;

  // --- document-level maintenance (exclusive collection latch held) ---
  void NoteDocumentInserted(uint64_t node_count) XDB_EXCLUDES(mu_);
  void NoteDocumentDeleted() XDB_EXCLUDES(mu_);
  /// Structural change that re-prices plans without changing counts
  /// (subtree insert/delete, text update).
  void NoteDocumentMutated() XDB_EXCLUDES(mu_);

  // --- index lifecycle (exclusive collection latch held) ---
  /// Registers the index and returns the listener to install on it. The
  /// pointer stays valid until NoteIndexDropped / destruction.
  ValueIndexStatsListener* NoteIndexCreated(const std::string& name)
      XDB_EXCLUDES(mu_);
  void NoteIndexDropped(const std::string& name) XDB_EXCLUDES(mu_);
  /// Like NoteIndexCreated but without the epoch bump — open-time wiring of
  /// indexes already reflected in the persisted epoch.
  ValueIndexStatsListener* ListenerFor(const std::string& name)
      XDB_EXCLUDES(mu_);

  // --- structural index lifecycle (exclusive collection latch held) ---
  /// Same contract as the value-index trio, for structural indexes: the
  /// returned listener feeds the per-name count + span sketch.
  StructuralIndexStatsListener* NoteStructuralIndexCreated(
      const std::string& name) XDB_EXCLUDES(mu_);
  void NoteStructuralIndexDropped(const std::string& name) XDB_EXCLUDES(mu_);
  StructuralIndexStatsListener* StructuralListenerFor(const std::string& name)
      XDB_EXCLUDES(mu_);

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Copies everything under the leaf mutex. Cheap: a handful of counters
  /// plus <= kSketchSize sample keys per index.
  CollectionStatsSnapshot Snapshot() const XDB_EXCLUDES(mu_);

  /// Resets to empty (storage rebuild, re-derivation at open) and bumps the
  /// epoch, so plans cached before the reset never match again.
  void ResetEmpty() XDB_EXCLUDES(mu_);

  // --- persistence (the catalog's statistics section; engine/catalog.h) ---
  void Serialize(std::string* out) const XDB_EXCLUDES(mu_);
  /// Corruption on a malformed blob, which may leave the statistics partly
  /// restored: the caller re-derives them (Collection::DeriveStats).
  Status Restore(Slice data) XDB_EXCLUDES(mu_);

 private:
  struct PerIndex;
  struct PerStructural;

  void Bump() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  std::atomic<uint64_t> epoch_{0};
  mutable Mutex mu_{LockRank::kCollectionStats};
  uint64_t doc_count_ XDB_GUARDED_BY(mu_) = 0;
  uint64_t node_count_ XDB_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::unique_ptr<PerIndex>> indexes_
      XDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<PerStructural>> structural_
      XDB_GUARDED_BY(mu_);
};

}  // namespace query
}  // namespace xdb

#endif  // XDB_QUERY_STATS_H_
