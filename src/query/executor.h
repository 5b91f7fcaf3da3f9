// Plan selection (the "relatively simple at the moment" access path
// selection of Section 4) — rule-based choice among the Table 2 methods.
#ifndef XDB_QUERY_EXECUTOR_H_
#define XDB_QUERY_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "index/value_index.h"
#include "query/access_path.h"
#include "query/cost_model.h"
#include "query/stats.h"
#include "xpath/ast.h"

namespace xdb {
namespace query {

struct PlannerContext {
  std::vector<ValueIndex*> indexes;
  /// Structural indexes (element name -> node IDs); a name-covering entry
  /// makes the structural scan and the descendant-branch anchor join
  /// plannable.
  std::vector<StructuralIndex*> structural_indexes;
  uint64_t doc_count = 0;
  /// Average records per document; documents spanning several records make
  /// NodeID list access cheaper than fetching whole documents.
  double avg_records_per_doc = 1.0;
  /// Collected statistics; when non-null and valid, plan choice is priced by
  /// the cost model instead of the Section 4.3 rules. Null (or !valid) falls
  /// back to the heuristic — degraded-stats mode after a failed restore.
  const CollectionStatsSnapshot* stats = nullptr;
  CostConstants costs;
};

/// Chooses the access method. With valid statistics in the context, every
/// feasible Table 2 path is priced by the cost model (query/cost_model.h)
/// and the cheapest wins; the plan's `reason` carries the cost breakdown.
/// Without statistics, the Section 4.3 rules apply:
///  - no usable probe            -> full scan;
///  - probes whose predicates all anchor at one step and whose branches are
///    child-only chains         -> NodeID-level list/and/or when documents
///                                 are multi-record (or when forced),
///                                 DocID-level otherwise;
///  - exact index matches and fully covered predicates -> no recheck for
///    the anchor's own predicates (the residual path still runs);
///  - containment matches       -> filtering (recheck required).
Result<QueryPlan> ChoosePlan(const xpath::Path& query,
                             const PlannerContext& ctx, ForceMethod force);

// --- parallel execution policy ---

/// A contiguous [begin, end) slice of the candidate list, one per task.
struct WorkRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Minimum candidates per task before fan-out pays for itself: below it the
/// chunk's QuickXScan work is cheaper than the pool handoff, so the serial
/// fallback stays the default for tiny result sets.
inline constexpr size_t kMinItemsPerTask = 4;

/// Partitions `n` candidates into DocID-order-preserving contiguous chunks
/// for up to `parallelism` threads. Returns an empty vector when the work is
/// too small (cost threshold: fewer than two chunks of kMinItemsPerTask) or
/// `parallelism <= 1` — callers then run the plain serial loop. Chunk count
/// over-decomposes (2x parallelism) so work stealing can re-balance skewed
/// documents; concatenating per-chunk results in range order reproduces the
/// serial evaluation order exactly.
std::vector<WorkRange> PartitionForParallelism(size_t n, size_t parallelism);

}  // namespace query
}  // namespace xdb

#endif  // XDB_QUERY_EXECUTOR_H_
