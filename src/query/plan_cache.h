// LRU cache of compiled XPath plans, keyed by (query text, force mode,
// want_values, stats epoch).
//
// A cache hit skips the whole front half of query execution: XPath parse,
// candidate extraction, cost-model pricing, and QueryTree compilation. The
// stats epoch in the key makes invalidation implicit — every document
// insert/delete and every index create/drop bumps the collection's epoch,
// so entries priced on old statistics simply stop matching and age out of
// the LRU. Index create/drop additionally calls Invalidate() (clears the
// cache outright) because dropped indexes leave dangling ValueIndex
// pointers inside cached QueryPlans; the executor also re-validates the
// collection's index-structure version under the shared latch before
// dereferencing any probe, so a plan raced by a drop is replanned, never
// served.
//
// Counters (query.plan_cache.{hits,misses,evictions,invalidations}) are
// engine-wide and injected by the engine at open; invalidations also emit
// an EventLog record naming the collection and cause.
#ifndef XDB_QUERY_PLAN_CACHE_H_
#define XDB_QUERY_PLAN_CACHE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "query/access_path.h"
#include "xpath/ast.h"
#include "xpath/path_containment.h"

namespace xdb {

namespace xpath {
class QueryTree;
}  // namespace xpath

namespace query {

/// One compiled, immutable plan. Shared by reference so concurrent queries
/// and the cache can hold it simultaneously; the QueryTree is read-only
/// during evaluation (the parallel executor already shares one tree across
/// worker threads).
struct CompiledPlan {
  xpath::Path path;  // parsed query
  QueryPlan plan;
  /// The one evaluation tree, compiled for want_values: the full path for
  /// document-level plans, the recheck residual (self[anchor
  /// predicates]/remaining steps) for node-level plans. Node-level plans
  /// also carry the predicate-free main-path prefix their anchors are
  /// verified against, linearized with its names resolved against the name
  /// dictionary (like the tree's; a never-interned name matches no anchor).
  /// Compiling both here is what lets a cache hit skip compilation
  /// *entirely*.
  std::shared_ptr<const xpath::QueryTree> tree;
  xpath::PathPattern prefix;
  /// For structural plans: the anchor element name resolved against the
  /// name dictionary at compile time. kInvalidNameId means the name was
  /// never interned — no document contains it, so the scan is empty.
  uint32_t structural_name_id = 0xFFFFFFFFu;
  uint64_t stats_epoch = 0;
  /// Collection's index-structure version at plan time; the executor
  /// refuses to probe when it no longer matches (see header comment).
  uint64_t index_version = 0;
  // Pre-rendered EXPLAIN fields so cache hits fill QueryProfile without
  // touching the planner.
  std::vector<std::string> probe_lines;
  double avg_records_per_doc = 0;
  uint64_t doc_count = 0;
  double nodes_per_doc = 0;
};

class PlanCache {
 public:
  struct Counters {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* invalidations = nullptr;
  };

  /// capacity == 0 disables the cache (Lookup misses, Insert drops).
  explicit PlanCache(size_t capacity = 0) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  void Configure(size_t capacity, Counters counters, obs::EventLog* events,
                 std::string collection_name) XDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    capacity_ = capacity;
    counters_ = counters;
    events_ = events;
    collection_ = std::move(collection_name);
  }

  bool enabled() const XDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return capacity_ > 0;
  }

  std::shared_ptr<const CompiledPlan> Lookup(const std::string& query_text,
                                             ForceMethod force,
                                             bool want_values, uint64_t epoch)
      XDB_EXCLUDES(mu_);

  void Insert(const std::string& query_text, ForceMethod force,
              bool want_values, uint64_t epoch,
              std::shared_ptr<const CompiledPlan> plan) XDB_EXCLUDES(mu_);

  /// Drops every entry (index create/drop, storage rebuild). `cause` lands
  /// in the event log.
  void Invalidate(const char* cause) XDB_EXCLUDES(mu_);

  size_t size() const XDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  using Key = std::tuple<std::string, uint8_t, bool, uint64_t>;
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    std::list<Key>::iterator lru_pos;  // back = most recent
  };

  mutable Mutex mu_{LockRank::kPlanCache};
  size_t capacity_ XDB_GUARDED_BY(mu_);
  Counters counters_ XDB_GUARDED_BY(mu_);
  obs::EventLog* events_ XDB_GUARDED_BY(mu_) = nullptr;
  std::string collection_ XDB_GUARDED_BY(mu_);
  std::map<Key, Entry> entries_ XDB_GUARDED_BY(mu_);
  std::list<Key> lru_ XDB_GUARDED_BY(mu_);
};

}  // namespace query
}  // namespace xdb

#endif  // XDB_QUERY_PLAN_CACHE_H_
