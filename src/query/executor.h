// Plan selection among the Table 2 access methods (Section 4), priced by the
// cost model from the collection's statistics.
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
  /// Average records per document; documents spanning several records make
  /// NodeID list access cheaper than fetching whole documents.
  double avg_records_per_doc = 1.0;
  /// The collection's statistics, which price every plan choice.
  CollectionStatsSnapshot stats;
  CostConstants costs;
};

/// Chooses the access method. Every feasible Table 2 path, and the
/// structural scan, is priced by the cost model (query/cost_model.h) and
/// the cheapest wins; the plan's `reason` carries the cost breakdown. A
/// query no index covers full-scans unpriced, and `force` overrides the
/// choice. Either way:
///  - NodeID-level plans need probes whose predicates all anchor at one step
///    with child-only branches (or a structural index joining the anchor);
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

/// PartitionForParallelism over a (doc, node)-sorted candidate list, with
/// each chunk boundary moved forward to the next document start, so a
/// document's candidates are one run in one chunk. Empty chunks drop out;
/// fewer than two left (all candidates in one document, say) means serial,
/// an empty vector.
std::vector<WorkRange> PartitionByDocument(const std::vector<Posting>& anchors,
                                           size_t parallelism);

}  // namespace query
}  // namespace xdb

#endif  // XDB_QUERY_EXECUTOR_H_
