// Collection: a base table with an XML column, backed by the paper's
// Figure 2 layout — base-table DocID index, internal XML table of packed
// records, NodeID index, and any number of XPath value indexes, all sharing
// one table space.
#ifndef XDB_ENGINE_COLLECTION_H_
#define XDB_ENGINE_COLLECTION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "cc/transaction.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/catalog.h"
#include "index/nodeid_index.h"
#include "index/structural_index.h"
#include "index/value_index.h"
#include "obs/query_trace.h"
#include "pack/record_builder.h"
#include "pack/tree_cursor.h"
#include "query/access_path.h"
#include "query/executor.h"
#include "query/plan_cache.h"
#include "query/stats.h"
#include "storage/buffer_manager.h"
#include "storage/record_manager.h"
#include "storage/tablespace.h"
#include "xdm/item.h"
#include "xpath/ast.h"

namespace xdb {

namespace xpath {
class QueryTree;
}  // namespace xpath

class Engine;

struct CollectionOptions {
  bool mvcc = false;              // enable document-level multiversioning
  std::string schema;             // registered schema to validate against
  size_t record_budget = 3000;    // packing budget (the p knob)
  size_t buffer_pages = 512;
  /// Buffer pool shards (0 = engine default, which itself defaults to
  /// BufferManager::DefaultShardCount for the pool size).
  size_t buffer_shards = 0;
  uint32_t page_size = kDefaultPageSize;
};

/// How the executor accessed the data, plus its work counters — benches,
/// EXPERIMENTS.md and EXPLAIN all report these.
struct QueryStats : obs::QueryCounters {
  query::AccessMethod method = query::AccessMethod::kFullScan;
  std::string explain;
};

struct QueryResult {
  NodeSequence nodes;
  QueryStats stats;
  /// Populated when QueryOptions::explain/trace was set (profile.enabled
  /// says so); default-constructed and empty otherwise.
  obs::QueryProfile profile;

  /// EXPLAIN text: the profile rendered over this result's counters.
  std::string PlanText() const { return profile.PlanText(stats, nodes.size()); }
  std::string ToText() const { return profile.ToText(stats, nodes.size()); }
};

using query::ForceMethod;

struct QueryOptions {
  ForceMethod force = ForceMethod::kAuto;
  bool want_values = false;  // compute result nodes' string values
  /// Threads evaluating this query, including the caller. 0 = the engine
  /// default (EngineOptions::num_query_threads), 1 = serial. Values above 1
  /// only take effect when the engine has a query pool; small candidate
  /// sets fall back to serial regardless (see query::PartitionForParallelism).
  int parallelism = 0;
  /// Populate QueryResult::profile with the chosen access path, per-phase
  /// cardinalities and timings (see obs::QueryProfile::PlanText()).
  bool explain = false;
  /// Implies explain; additionally records per-step trace lines (index probe
  /// details, candidate lists) into profile.trace_lines.
  bool trace = false;
  /// Plan with the Section 4.3 rules even when collected statistics are
  /// available, and bypass the plan cache. Differential testing uses this to
  /// check that cost-based and heuristic plans return identical answers.
  bool use_heuristic_planner = false;
  /// Freshness bound for replica reads: the query only runs once the
  /// engine's applied-CSN watermark reaches this value, waiting at most
  /// freshness_timeout_us and failing with kStale otherwise. 0 (default)
  /// reads whatever is applied; on a primary the bound is trivially
  /// satisfied. Callers get read-your-writes by passing the primary
  /// shipper's EndCsn() (or any CSN an earlier write observed).
  uint64_t min_csn = 0;
  /// Microseconds WaitForFreshness may block for min_csn (0 = fail
  /// immediately when the replica is behind).
  uint64_t freshness_timeout_us = 0;
};

/// Per-collection outcome of Engine::Scrub() — what was scanned, what was
/// damaged, and how much of the data survived repair.
struct CollectionScrubReport {
  std::string collection;
  uint64_t pages_scanned = 0;
  uint64_t checksum_failures = 0;   // pages failing CRC (or unreadable)
  uint64_t envelope_failures = 0;   // data pages with a broken slot layout
  bool rebuilt = false;             // storage was reset and repopulated
  uint64_t docs_salvaged = 0;       // re-inserted from still-readable records
  uint64_t docs_recovered_from_wal = 0;  // restored by filtered WAL replay
  uint64_t docs_lost = 0;           // present before, unrecoverable after
  std::vector<std::string> notes;
};

/// The indexes Collection::IndexDocument touches: every index (both members
/// null), or only the one a DDL backfill is filling.
struct IndexScope {
  const ValueIndex* value = nullptr;
  const StructuralIndex* structural = nullptr;
  bool all() const { return value == nullptr && structural == nullptr; }
};

/// The part of a document one write changes (see Collection::IndexDocument):
/// with `subtree`, the subtree at `node_id`, below a *chain* of its element
/// ancestors; without, just the chain, then `node_id`'s element
/// ancestors-or-self. The default is the whole document.
struct EditRegion {
  std::string node_id;
  bool subtree = true;
};

class Collection {
 public:
  ~Collection() = default;
  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  const std::string& name() const { return meta_.name; }
  bool mvcc_enabled() const { return meta_.mvcc_enabled; }

  /// True when structural corruption was found at open time: every data
  /// operation returns kCorruption until Engine::Scrub() repairs the
  /// collection.
  bool needs_repair() const { return needs_repair_; }
  const std::string& repair_reason() const { return repair_reason_; }

  /// Parses (and validates, when the collection has a schema) and stores a
  /// document. A null txn runs the operation autocommitted.
  Result<uint64_t> InsertDocument(Transaction* txn, Slice xml);

  /// Stores an already-tokenized document (constructor pipelines insert
  /// without an XML-text round trip).
  Result<uint64_t> InsertTokens(Transaction* txn, Slice tokens)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(docid_mu_);

  /// Serializes the stored document back to XML text.
  Result<std::string> GetDocumentText(Transaction* txn, uint64_t doc_id)
      XDB_EXCLUDES(latch_);

  Status DeleteDocument(Transaction* txn, uint64_t doc_id)
      XDB_EXCLUDES(latch_);

  /// Subdocument update: replaces the value of one text node. Under MVCC
  /// this creates a new document version (copy-on-write of the containing
  /// record); otherwise it updates the record in place. Takes a node-ID
  /// subtree lock on the text node's parent.
  Status UpdateTextNode(Transaction* txn, uint64_t doc_id, Slice node_id,
                        Slice new_text) XDB_EXCLUDES(latch_);

  /// Subdocument insert: parses `fragment` (one root element) and grafts it
  /// as a new child of `parent_id`, immediately after `after_sibling_id`
  /// (empty = append as last child). The new subtree gets a node ID from
  /// Between(), so every existing node keeps its ID ("there is always space
  /// for insertion in the middle by extending the node ID length") and the
  /// record work is O(subtree). So is the index work: the subtree's value
  /// postings and structural entries are added, and the postings of indexed
  /// ancestors, whose string values change, are swapped. Returns the new
  /// subtree root's absolute node ID. Locking collections only
  /// (kNotSupported under MVCC).
  Result<std::string> InsertSubtree(Transaction* txn, uint64_t doc_id,
                                    Slice parent_id, Slice after_sibling_id,
                                    Slice fragment) XDB_EXCLUDES(latch_);

  /// Subdocument delete: removes the subtree rooted at `node_id` (any
  /// non-root node), including all records it spans. Index upkeep is as for
  /// InsertSubtree. Locking collections only.
  Status DeleteSubtree(Transaction* txn, uint64_t doc_id, Slice node_id)
      XDB_EXCLUDES(latch_);

  /// Creates an XPath value index and backfills it from existing documents.
  Status CreateValueIndex(const ValueIndexDef& def)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_);

  /// Drops a value index. Bumps the index-structure version and clears the
  /// plan cache so no compiled plan ever probes the destroyed index.
  Status DropValueIndex(const std::string& name)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_);

  /// Creates a structural index (element name -> node IDs) and backfills
  /// it from existing documents. Same DDL discipline as CreateValueIndex:
  /// logged to the WAL under ddl_mu_, crash-recovers and replicates.
  Status CreateStructuralIndex(const StructuralIndexDef& def)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_);

  /// Drops a structural index (same invalidation contract as value-index
  /// drop: index-version bump + plan-cache clear).
  Status DropStructuralIndex(const std::string& name)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_);

  /// Evaluates an XPath query over the collection. Compiled plans are served
  /// from the per-collection plan cache when enabled (keyed by query text,
  /// force mode, want_values and the stats epoch); a hit skips parsing,
  /// planning and QueryTree compilation entirely.
  Result<QueryResult> Query(Transaction* txn, Slice xpath,
                            const QueryOptions& options = {});

  Result<std::vector<uint64_t>> ListDocIds() XDB_EXCLUDES(latch_);
  Result<uint64_t> DocCount() XDB_EXCLUDES(latch_);

  /// Drops versions of `doc_id` older than the given snapshot and frees the
  /// records only they referenced (MVCC garbage collection; a no-op for
  /// non-MVCC collections). Callers guarantee no active reader holds an
  /// older snapshot.
  Status VacuumVersions(uint64_t doc_id, uint64_t oldest_live_snapshot)
      XDB_EXCLUDES(latch_);

  /// Serializes the subtree a handle points to (deferred fetch).
  Result<std::string> SerializeSubtree(Transaction* txn, uint64_t doc_id,
                                       Slice node_id) XDB_EXCLUDES(latch_);

  // Component access for tests and benchmarks.
  query::CollectionStats* stats() { return &stats_; }
  query::PlanCache* plan_cache() { return &plan_cache_; }
  uint64_t index_version() const {
    return index_version_.load(std::memory_order_acquire);
  }
  RecordManager* records() { return records_.get(); }
  NodeIdIndex* node_index() { return node_index_.get(); }
  VersionManager* versions() { return versions_.get(); }
  ValueIndex* FindValueIndex(const std::string& name);
  StructuralIndex* FindStructuralIndex(const std::string& name);
  BufferManager* buffer_manager() { return buffer_.get(); }
  const CollectionMeta& meta() const { return meta_; }
  uint64_t storage_bytes() const { return records_->StorageBytes(); }

 private:
  friend class Engine;
  Collection() = default;

  // Locking helpers honoring the transaction's isolation mode; autocommit
  // transactions are created/finished by the public methods.
  Status ReadLockDoc(Transaction* txn, uint64_t doc_id);
  Status WriteLockDoc(Transaction* txn, uint64_t doc_id);

  Result<uint64_t> InsertTokensLocked(Transaction* txn, Slice tokens,
                                      uint64_t forced_doc_id)
      XDB_EXCLUDES(latch_);
  Status DeleteDocumentLocked(uint64_t doc_id) XDB_REQUIRES(latch_);

  /// The one index-maintenance path, for every write: removes `region`'s
  /// index entries before the records change (`remove`), adds them after.
  /// Chain elements keep their structural entries; their postings follow
  /// their string values. `fresh_tokens` is a just-stored document's token
  /// stream, whose canonical node IDs are the stored ones; empty, the
  /// subtree is read from the records, so a remove finds what an add wrote.
  Status IndexDocument(uint64_t doc_id, const EditRegion& region, bool remove,
                       Slice fresh_tokens = {}, IndexScope scope = {})
      XDB_REQUIRES(latch_);
  /// DDL backfill of the one index `scope` names from every stored document.
  Status Backfill(IndexScope scope) XDB_REQUIRES(latch_);

  Result<std::string> InsertSubtreeLocked(uint64_t doc_id, Slice parent_id,
                                          Slice after_sibling_id,
                                          Slice fragment_tokens)
      XDB_REQUIRES(latch_);
  Status DeleteSubtreeLocked(uint64_t doc_id, Slice node_id)
      XDB_REQUIRES(latch_);
  /// RIDs of all records fully contained in the subtree at `node_id`,
  /// starting from proxies inside `record` (recursive across records).
  Status CollectSubtreeRecords(uint64_t doc_id, Slice node_id, Slice record,
                               std::vector<Rid>* out) XDB_REQUIRES(latch_);

  /// Compiles one execution-ready plan for `path`: plans (cost-based when
  /// stats are valid and use_heuristic_planner is off), compiles the full
  /// QueryTree, and for node-level plans also the recheck residual tree and
  /// prefix pattern. The returned plan is immutable and shareable (this is
  /// what the plan cache stores).
  Result<std::shared_ptr<const query::CompiledPlan>> CompileForExecution(
      xpath::Path&& path, const QueryOptions& options) XDB_EXCLUDES(latch_);

  /// Runs a compiled plan in the paper's two stages: FindCandidates, then
  /// one fanned-out evaluation of the candidate list (EvalDoc per document
  /// or EvalAnchor per anchor). `cache_state` ("hit"/"miss"/"off") is
  /// surfaced in EXPLAIN; `plan_wall_us` is the planning time to attribute
  /// (0 on a cache hit). When the plan's index-structure version no longer
  /// matches (an index was dropped or the storage rebuilt since compile),
  /// sets *plan_stale and fails — callers replan and retry; the stale check
  /// is what distinguishes this from other kBusy failures (pinned buffer
  /// frames), which must NOT be retried with a fresh plan.
  Result<QueryResult> ExecuteCompiled(Transaction* txn,
                                      const query::CompiledPlan& cp,
                                      const QueryOptions& options,
                                      const char* cache_state,
                                      uint64_t plan_wall_us, bool* plan_stale)
      XDB_EXCLUDES(latch_);

  /// Candidate stage: fills `docs` (full scan, DocID list, DocID AND/OR) or
  /// `anchors` (NodeID list, NodeID AND/OR, structural scan; see
  /// query::IsNodeLevel), counting index postings read. Probes run under
  /// the shared latch behind the index-version gate (*plan_stale on
  /// mismatch); no doc lock is taken here.
  Status FindCandidates(const query::CompiledPlan& cp,
                        std::vector<uint64_t>* docs,
                        std::vector<Posting>* anchors, QueryResult* result,
                        bool* plan_stale) XDB_EXCLUDES(latch_);

  /// Effective thread count for one query: options.parallelism, falling back
  /// to the engine default, clamped to 1 when the engine has no pool.
  int EffectiveParallelism(const QueryOptions& options) const;

  /// Evaluates the full query over one candidate document, appending its
  /// matches and work counters to `result`. A document invisible at the
  /// read's snapshot returns OK with no output. The doc lock must already
  /// be held; takes latch_ shared.
  Status EvalDoc(uint64_t doc_id, const xpath::QueryTree* tree,
                 NodeLocator* locator, QueryResult* result)
      XDB_EXCLUDES(latch_);

  /// One anchor's recheck: verifies the anchor path against the main-path
  /// prefix, then evaluates the residual tree over the anchor subtree.
  /// Benign misses (kNotFound: invisible at snapshot, stale posting) return
  /// OK with no output; any other failure, damage included, is returned.
  /// The anchor's doc lock must already be held.
  Status EvalAnchor(const Posting& anchor, const xpath::QueryTree* residual,
                    const xpath::Path& prefix_pattern, NodeLocator* locator,
                    QueryResult* result) XDB_EXCLUDES(latch_);

  /// Bodies of CreateValueIndex/DropValueIndex without the DDL mutex and
  /// without logging — the form WAL replay and the replica apply path call
  /// (replay must not take ddl_mu_: it already holds the WAL mutex, which a
  /// client DDL acquires only AFTER ddl_mu_, so the reverse nesting would
  /// deadlock; replay applies records in log order single-threaded and
  /// needs no DDL serialization of its own).
  Status ApplyCreateValueIndex(const ValueIndexDef& def) XDB_EXCLUDES(latch_);
  Status ApplyDropValueIndex(const std::string& name) XDB_EXCLUDES(latch_);
  /// Structural-index DDL bodies, same replay/log-separation contract as
  /// the value-index pair above.
  Status ApplyCreateStructuralIndex(const StructuralIndexDef& def)
      XDB_EXCLUDES(latch_);
  Status ApplyDropStructuralIndex(const std::string& name)
      XDB_EXCLUDES(latch_);

  /// kCorruption when the collection is quarantined; call at the top of every
  /// public data operation.
  Status GuardRepair() const;
  /// GuardRepair plus the replica read-only gate (kNotSupported on a replica
  /// outside the apply path); call at the top of every public mutation.
  Status GuardWrite() const;

  /// Sweeps every page of the table space (checksum + record-envelope
  /// checks), and if any damage is found salvages what is readable, rebuilds
  /// the storage from scratch, and re-inserts the salvaged documents.
  /// Fills `salvaged_ids` (re-inserted, WAL replay must skip them) and
  /// `lost_ids` (present before, unreadable — WAL replay may still restore
  /// them). A clean sweep leaves the collection untouched.
  Status ScrubAndRepair(CollectionScrubReport* report,
                        std::set<uint64_t>* salvaged_ids,
                        std::set<uint64_t>* lost_ids) XDB_EXCLUDES(latch_);

  /// Builds every storage component over space_: the buffer pool, the
  /// record manager, the DocID, NodeID and (MVCC) version trees, and each
  /// value and structural index in meta_ with its stats listener. `create`
  /// makes them new and empty; otherwise they open at meta_'s roots after
  /// RecordManager::Recover (a structural index a pre-V5 catalog named is
  /// rebuilt from the records). Either way meta_ records the roots. Called
  /// by Engine::OpenCollection and RebuildStorage; the latter holds latch_.
  Status BuildStorage(bool create);

  /// Resets the table space and recreates every storage component (records,
  /// trees, indexes) empty, updating meta_ roots. Destroys components
  /// top-down so nothing flushes into the reset space.
  Status RebuildStorage() XDB_EXCLUDES(latch_);

  /// ListDocIds without the repair guard; callers hold latch_ (any mode).
  Result<std::vector<uint64_t>> ListDocIdsUnlocked()
      XDB_REQUIRES_SHARED(latch_);
  /// Reads one document back as a serialized token stream (the salvage
  /// representation; survives the storage rebuild).
  Result<std::string> ReadDocTokensForScrub(uint64_t doc_id)
      XDB_EXCLUDES(latch_);

  Engine* engine_ = nullptr;
  CollectionMeta meta_;
  size_t record_budget_ = 3000;
  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> buffer_;
  std::unique_ptr<RecordManager> records_;
  std::unique_ptr<BTree> docid_tree_;
  std::unique_ptr<BTree> nodeid_tree_;
  std::unique_ptr<BTree> versioned_tree_;
  std::unique_ptr<NodeIdIndex> node_index_;
  std::unique_ptr<VersionManager> versions_;
  struct OwnedValueIndex {
    std::unique_ptr<BTree> tree;
    std::unique_ptr<ValueIndex> index;
  };
  std::vector<OwnedValueIndex> value_indexes_;
  struct OwnedStructuralIndex {
    std::unique_ptr<BTree> tree;
    std::unique_ptr<StructuralIndex> index;
  };
  std::vector<OwnedStructuralIndex> structural_indexes_;
  // Short-duration structure latch over the storage components above
  // (records_, trees, node_index_, value_indexes_). Writers (document
  // insert/delete, subtree edits, index creation, rebuild) hold it
  // exclusively; readers (query evaluation, serialization, doc listing)
  // hold it shared. The components themselves are not GUARDED_BY so tests
  // and benches can poke them single-threaded; concurrent paths go through
  // the REQUIRES-annotated *Locked helpers. Lock order: transaction-level
  // document/node locks (LockManager) are always acquired BEFORE latch_ —
  // never block on a doc lock while holding the latch.
  mutable SharedMutex latch_{LockRank::kCollectionLatch};
  // Doc id allocation (meta_.next_doc_id). Leaf lock: nothing else is
  // acquired while it is held.
  Mutex docid_mu_{LockRank::kCollectionDocId};
  // Serializes client value-index DDL (create/drop) TOGETHER WITH its WAL
  // append: held across both the latched mutation and the log record, so
  // concurrent create+drop of the same index can never log in the opposite
  // order of their application — an inversion crash replay or a replica
  // would converge to the wrong final state from. Ordered before latch_ and
  // before the WAL mutex; WAL replay never takes it (see the Apply* pair).
  Mutex ddl_mu_{LockRank::kCollectionDdl};

  // Collected statistics (doc/node counts, per-index sketches, the stats
  // epoch). Mutating notes run under the exclusive latch_; snapshots are
  // taken lock-free of latch_ (stats_ has its own leaf mutex, acquired
  // after every other lock and holding none).
  query::CollectionStats stats_;
  // Compiled-plan cache. Its internal mutex is a leaf like stats_'s.
  query::PlanCache plan_cache_;
  // Bumped (under the exclusive latch_) whenever the set of live ValueIndex
  // objects changes: index create/drop and storage rebuild. Planning holds
  // the shared latch across every ValueIndex dereference it makes
  // (CompileForExecution), and compiled plans record this version so the
  // executor can re-check it under the shared latch before dereferencing
  // probe indexes — a plan that raced a drop is replanned (kBusy), never
  // served against freed memory. Separate from the stats epoch so document
  // churn does not force replans of in-flight plans.
  std::atomic<uint64_t> index_version_{0};

  // Quarantine + repair state. A collection whose table space or recovery
  // pass failed structurally still opens as a shell (so Engine::Open
  // succeeds and Scrub() can repair it) but refuses data operations.
  bool needs_repair_ = false;
  std::string repair_reason_;
  std::string space_path_;     // for recreating a space whose header is gone
  size_t buffer_pages_ = 512;  // for rebuilding the buffer pool
  size_t buffer_shards_ = 0;   // resolved engine/collection shard setting
  uint32_t page_size_hint_ = kDefaultPageSize;
};

}  // namespace xdb

#endif  // XDB_ENGINE_COLLECTION_H_
