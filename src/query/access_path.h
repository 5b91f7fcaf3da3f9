// Access path selection for XPath queries (Section 4.3, Table 2).
//
// "Our approach is to use indexes to quickly identify a small subset of
// candidates and then perform further processing on them." The planner
// extracts indexable comparison predicates from the query, matches each
// against the available XPath value indexes (exact match vs containment ->
// filtering), and picks among: full scan (QuickXScan per document), DocID
// list, NodeID list, and DocID/NodeID ANDing/ORing.
#ifndef XDB_QUERY_ACCESS_PATH_H_
#define XDB_QUERY_ACCESS_PATH_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/structural_index.h"
#include "index/value_index.h"
#include "xpath/ast.h"
#include "xpath/path_containment.h"

namespace xdb {
namespace query {

/// One indexable comparison found in the query: the anchor step it predicates
/// plus the root-to-value linear path an index must cover.
struct CandidatePredicate {
  size_t step_index = 0;   // index of the anchor step in the main path
  xpath::Path full_path;   // absolute linear path root..anchor..branch value
  xpath::CompOp op = xpath::CompOp::kEq;
  bool literal_is_number = false;
  double number = 0;
  std::string string;
  /// Number of levels between the value node and the anchor node when the
  /// branch uses only child/attribute steps; -1 when unknown (descendant
  /// steps), which forbids node-level anchoring.
  int strip_levels = -1;
  /// True when this conjunct came from an OR group (only usable by ORing).
  bool or_group = false;
  int group_id = -1;  // conjuncts of one OR share a group id
};

/// Extracts indexable comparisons from the query's main-path predicates.
/// Top-level AND splits into conjuncts; a top-level OR of comparisons forms
/// an OR group. Anything else is left for recheck.
Status ExtractCandidates(const xpath::Path& query,
                         std::vector<CandidatePredicate>* out,
                         bool* has_unindexable_predicates);

/// A deep copy of a path without predicates (the linear skeleton).
xpath::Path ClonePathSkeleton(const xpath::Path& path);

/// The concatenation main_path[0..step] + branch_path as one linear path.
xpath::Path ConcatPredicatePath(const xpath::Path& main, size_t step_index,
                                const xpath::Path& branch);

/// Access methods of Table 2, plus the structural scan: all instances of one
/// element name come straight off the structural index as candidate
/// anchors, and the residual path rechecks each.
enum class AccessMethod : uint8_t {
  kFullScan = 0,
  kDocIdList = 1,
  kNodeIdList = 2,
  kDocIdAndOr = 3,
  kNodeIdAndOr = 4,
  kStructuralScan = 5,
};

const char* AccessMethodName(AccessMethod m);

/// True for the methods whose candidates are (doc, node) anchors rechecked
/// with the residual path (NodeID list, NodeID AND/OR, structural scan);
/// false for those whose candidates are whole documents.
inline bool IsNodeLevel(AccessMethod m) {
  return m == AccessMethod::kNodeIdList || m == AccessMethod::kNodeIdAndOr ||
         m == AccessMethod::kStructuralScan;
}

/// Planner override used by experiments (kAuto = Section 4.3 heuristics).
enum class ForceMethod : uint8_t {
  kAuto = 0,
  kScan = 1,
  kDocIdList = 2,
  kNodeIdList = 3,
  kStructural = 4,
};

/// One index probe in a plan.
struct PlannedProbe {
  ValueIndex* index = nullptr;
  CandidatePredicate pred;
  xpath::IndexMatch match = xpath::IndexMatch::kNone;
};

struct QueryPlan {
  AccessMethod method = AccessMethod::kFullScan;
  std::vector<PlannedProbe> probes;
  bool disjunctive = false;  // ORing instead of ANDing
  /// At least one probe is containment-only or predicates remain uncovered:
  /// results must be rechecked against the documents ("filtering").
  bool need_recheck = true;
  size_t anchor_step = 0;  // step the node-level methods anchor at
  std::string explain;
  /// Why the planner picked `method`. Cost-based plans carry the full cost
  /// breakdown ("cost: full-scan=… docid-list=…*"); heuristic/forced plans
  /// keep the legacy rule text — surfaced verbatim in EXPLAIN output.
  std::string reason;
  /// True when `method` came from the cost model (valid statistics were
  /// available) rather than the Section 4.3 heuristics.
  bool cost_based = false;
  /// Cost-model cardinality estimates, for EXPLAIN (cost_based only).
  double est_postings = 0;
  double est_docs = 0;
  /// kStructuralScan, or value probes anchored via the structural index
  /// (structural_anchor): the index to range-scan and the element name whose
  /// entries it yields. The pointer is protected by the same index-structure
  /// version gate as the ValueIndex pointers in `probes`.
  StructuralIndex* structural_index = nullptr;
  std::string structural_name;
  /// Descendant-branch conjuncts (strip_levels == -1) anchored at node level
  /// by joining value postings against the anchor name's structural entries
  /// instead of being demoted to a doc-level recheck.
  bool structural_anchor = false;
};

// --- posting-list algebra (executor building blocks) ---

/// Distinct DocIDs in first-appearance order.
std::vector<uint64_t> DistinctDocIds(const std::vector<Posting>& postings);

/// Anchor postings at the predicate step by stripping `strip_levels` node-ID
/// levels from each value node. Fails entries whose IDs are too short.
Status AnchorPostings(const std::vector<Posting>& postings, int strip_levels,
                      std::vector<Posting>* out);

std::vector<uint64_t> IntersectDocIds(std::vector<std::vector<uint64_t>> lists);
std::vector<uint64_t> UnionDocIds(std::vector<std::vector<uint64_t>> lists);

/// Candidate DocID list of a doc-level plan: distinct DocIDs per probe,
/// combined by union (ORing) or intersection (ANDing). This is the list the
/// executor partitions for parallel per-document evaluation, so its order is
/// part of the engine's deterministic-output contract.
std::vector<uint64_t> MergeCandidateDocIds(
    const std::vector<std::vector<Posting>>& postings_per_probe,
    bool disjunctive);

/// Set operations on (doc, node) anchors. Postings must be anchored first.
std::vector<Posting> IntersectPostings(std::vector<std::vector<Posting>> lists);
std::vector<Posting> UnionPostings(std::vector<std::vector<Posting>> lists);

/// Ancestor join for descendant-branch conjuncts: emits one (doc, anchor)
/// posting for every `anchors` entry that is an ancestor-or-self of a
/// `values` entry in the same document. Both inputs are sorted internally;
/// the merge walks them in document order keeping the open ancestor chain on
/// a stack (node-ID byte order sorts ancestors before their descendants, so
/// one forward pass suffices). Output is sorted by (doc, node), distinct —
/// ready for IntersectPostings/UnionPostings.
Status StructuralAnchorJoin(const std::vector<Posting>& values,
                            const std::vector<Posting>& anchors,
                            std::vector<Posting>* out);

/// Converts a comparison into index key range bounds for a probe.
Status ProbeBounds(const ValueIndex& index, const CandidatePredicate& pred,
                   std::optional<KeyBound>* lo, std::optional<KeyBound>* hi,
                   bool* not_equal);

}  // namespace query
}  // namespace xdb

#endif  // XDB_QUERY_ACCESS_PATH_H_
