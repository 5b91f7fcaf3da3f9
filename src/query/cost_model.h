// Cost model pricing the Table 2 access paths from collected statistics.
//
// Replaces the PR-4 rule ("avg records/doc > 2 -> node level") with priced
// alternatives. Each feasible path gets a scalar cost in abstract work units
// calibrated so one buffer-pool record fetch ~ 6 units:
//
//   full-scan   = doc_count * per_doc_eval
//   docid-list  = probe_cost + est_candidate_docs * per_doc_eval
//   nodeid-list = probe_cost + est_anchors * per_anchor_eval
//
//   per_doc_eval   = doc_open + records/doc * record_fetch
//                    + nodes/doc * node_scan        (QuickXScan whole doc)
//   per_anchor_eval= anchor_recheck + record_fetch  (node-ID lookup + fetch
//                    + residual eval of one anchor subtree)
//   probe_cost     = sum(probe_descend + scanned * posting_scan
//                        + emitted * list_merge)
//
// Selectivity comes from the per-index KMV sketch (query/stats.h):
// equality emits entry_count / distinct_keys postings; ranges emit
// entry_count * (fraction of sampled keys inside the encoded bounds). The
// constants reproduce the paper's observed crossovers: tiny collections
// full-scan, selective predicates probe, multi-record documents anchor at
// node level (the old > 2 records/doc rule emerges from the arithmetic
// instead of being hard-coded).
#ifndef XDB_QUERY_COST_MODEL_H_
#define XDB_QUERY_COST_MODEL_H_

#include <string>
#include <vector>

#include "query/access_path.h"
#include "query/stats.h"

namespace xdb {
namespace query {

/// Calibration constants (abstract work units; see header comment).
/// Calibrated against measured bench numbers — one unit ~ 0.5us of
/// single-threaded execution, anchored at node_scan = 1.2 (QuickXScan
/// measures 0.33-0.79us/node across the token-stream and stored-document
/// paths). CPU-side constants come straight from measured slopes; the
/// B-tree-shaped constants price page touches at the buffer-pool design
/// point rather than the warm in-memory fast path (a resident descent
/// measures ~2us, but the model must stay right when the tree is not
/// resident). Full derivation in EXPERIMENTS.md ("Cost-model
/// calibration"). A PlannerContext carries a copy so tests can pin
/// crossover points.
struct CostConstants {
  double probe_descend = 24.0;   // per probe: height-3 descent (3-4 page
                                 // touches) + key encode; warm measures ~4
  double posting_scan = 0.04;    // per posting off index leaves (8-29ns)
  double list_merge = 0.02;      // per posting through AND/OR merging
  double doc_open = 6.0;         // per candidate doc: locks, locator setup
  double record_fetch = 6.0;     // per record through the buffer pool
  double node_scan = 1.2;        // per node through QuickXScan (the anchor)
  double anchor_recheck = 30.0;  // per anchor: locator descent + root-path
                                 // walk (~0.8us/level, ~10 levels typical)
};

/// Postings one probe is expected to touch. `scanned` is what the range
/// scan reads; `emitted` is what survives into the merge (they differ only
/// for != probes, which scan everything and filter).
struct ProbeEstimate {
  double scanned = 0;
  double emitted = 0;
};

/// Structural-index options the planner discovered for the query; priced
/// alongside the Table 2 paths.
///
///   structural  = probe_descend + name_entries * posting_scan
///                 + name_entries * (anchor_recheck + record_fetch
///                                   + avg_subtree * node_scan)
///
/// With `anchor_join` (value probes whose descendant branches forbid
/// level-stripping), the node-level path stays feasible: its probe cost
/// grows by one structural range scan plus the interval merge, and each
/// surviving anchor pays the subtree recheck above.
struct StructuralOption {
  /// A structural index covers some query step's name: the structural-only
  /// scan is a candidate (priced only when no value probes are usable).
  bool scan_available = false;
  /// Value probes share one anchor step whose name a structural index
  /// covers, but a descendant branch forbids level-stripping: anchoring via
  /// the structural anchor join is a candidate.
  bool anchor_join = false;
  double name_entries = 0;  // structural entries of the anchor element name
  double avg_subtree = 0;   // average subtree span under that name
};

/// Everything the cost model concluded, for EXPLAIN and the plan cache.
struct CostBreakdown {
  double full_scan = 0;
  double doc_list = -1;    // -1: no usable probes
  double node_list = -1;   // -1: probes not anchorable at one step
  double structural = -1;  // -1: no covering structural index
  double est_postings = 0;
  double est_docs = 0;     // candidate docs after combine (doc-level)
  double est_anchors = 0;  // candidate anchors after combine (node-level)
  AccessMethod chosen = AccessMethod::kFullScan;

  /// Deterministic one-line breakdown used as the plan's `reason`, e.g.
  ///   "cost: full-scan=2320 docid-list=119* nodeid-list=135; est
  ///    postings=1 docs=1/40"
  /// ('*' marks the chosen path; infeasible paths are omitted).
  std::string Reason() const;
};

/// Expected postings for one planned probe, from the index's statistics.
/// Falls back to zero for an index with no entries.
ProbeEstimate EstimateProbePostings(const IndexStatsSnapshot& stats,
                                    const PlannedProbe& probe);

/// Prices every feasible path — Table 2 plus the structural options — and
/// picks the cheapest. `probes` may be empty (full scan and, when
/// `structural.scan_available`, the structural-only scan are then the only
/// candidates). Ties prefer DocID-level, then NodeID-level, then the
/// structural scan, then full scan (an exact list beats a scan of equal
/// cost).
CostBreakdown CostPlans(const CollectionStatsSnapshot& stats,
                        const CostConstants& cc,
                        const std::vector<PlannedProbe>& probes,
                        bool disjunctive, bool node_capable,
                        const StructuralOption& structural,
                        double avg_records_per_doc);

}  // namespace query
}  // namespace xdb

#endif  // XDB_QUERY_COST_MODEL_H_
