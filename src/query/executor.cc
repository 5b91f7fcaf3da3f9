#include "query/executor.h"

#include <algorithm>
#include <map>
#include <set>

#include "xpath/parser.h"

namespace xdb {
namespace query {

namespace {

// Best usable index for one candidate: exact match preferred over
// containment; the literal must be encodable with the index's type. A
// string index is ordered by bytes, so it serves only = against a string
// literal: every other comparison is numeric.
PlannedProbe MatchIndexes(const CandidatePredicate& cand,
                          const std::vector<ValueIndex*>& indexes) {
  PlannedProbe best;
  const bool numeric =
      cand.literal_is_number || cand.op != xpath::CompOp::kEq;
  for (ValueIndex* idx : indexes) {
    if (numeric && idx->def().type == ValueType::kString) continue;
    auto path_res = xpath::ParsePath(idx->def().path);
    if (!path_res.ok()) continue;
    xpath::IndexMatch match =
        xpath::ClassifyIndexMatch(path_res.value(), cand.full_path);
    if (match == xpath::IndexMatch::kNone) continue;
    std::string probe_key;
    if (!idx->EncodeKey(ProbeLiteral(cand), &probe_key).ok()) continue;
    if (best.index == nullptr ||
        (best.match == xpath::IndexMatch::kContains &&
         match == xpath::IndexMatch::kExact)) {
      best.index = idx;
      best.pred = cand;
      best.match = match;
    }
  }
  return best;
}

// A step can anchor a structural plan when it names elements reached by
// child/descendant/descendant-or-self (attribute and self steps never have
// structural entries of their own).
bool StructuralAnchorableStep(const xpath::Step& s) {
  return s.test == xpath::NodeTest::kName &&
         (s.axis == xpath::Axis::kChild ||
          s.axis == xpath::Axis::kDescendant ||
          s.axis == xpath::Axis::kDescendantOrSelf);
}

// A per-name index over exactly `name` wins over an all-names index (same
// entries for the name, smaller tree to scan through).
StructuralIndex* FindCoveringStructural(
    const std::vector<StructuralIndex*>& indexes, const std::string& name) {
  StructuralIndex* all_names = nullptr;
  for (StructuralIndex* ix : indexes) {
    if (ix->def().element_name == name) return ix;
    if (ix->def().element_name.empty() && all_names == nullptr) all_names = ix;
  }
  return all_names;
}

void FillStructuralStats(const CollectionStatsSnapshot& stats,
                         const StructuralIndex* ix, const std::string& name,
                         StructuralOption* opt) {
  auto it = stats.structural.find(ix->def().name);
  if (it == stats.structural.end()) return;
  opt->name_entries = it->second.EstimateNameCount(name);
  opt->avg_subtree = it->second.AvgSubtreeSize(name);
}

}  // namespace

Result<QueryPlan> ChoosePlan(const xpath::Path& query,
                             const PlannerContext& ctx, ForceMethod force) {
  QueryPlan plan;
  plan.method = AccessMethod::kFullScan;
  if (force == ForceMethod::kScan) {
    plan.reason = "forced";
    return plan;
  }

  // Node-level plans recheck an anchor by verifying its name path against
  // the predicate-free prefix and evaluating self[anchor predicates] plus
  // the remaining steps on its subtree. Predicates on steps strictly above
  // the anchor appear in neither — so an anchor below the first predicated
  // step would silently drop those predicates and over-report.
  size_t first_pred_step = query.steps.size();
  for (size_t i = 0; i < query.steps.size(); i++) {
    if (!query.steps[i].predicates.empty()) {
      first_pred_step = i;
      break;
    }
  }

  // Structural-only anchor: the deepest name-test step a structural index
  // covers without leaving a predicate above the anchor. Steps after it
  // become the recheck residual; the predicate-free prefix pattern verifies
  // everything above it.
  size_t so_step = 0;
  StructuralIndex* so_ix = nullptr;
  for (size_t i = query.steps.size(); i-- > 0;) {
    if (i > first_pred_step) continue;
    const xpath::Step& s = query.steps[i];
    if (!StructuralAnchorableStep(s)) continue;
    StructuralIndex* ix =
        FindCoveringStructural(ctx.structural_indexes, s.name);
    if (ix != nullptr) {
      so_step = i;
      so_ix = ix;
      break;
    }
  }
  auto make_structural = [&](size_t astep, StructuralIndex* ix) {
    plan.method = AccessMethod::kStructuralScan;
    plan.structural_index = ix;
    plan.structural_name = query.steps[astep].name;
    plan.anchor_step = astep;
    plan.probes.clear();
    plan.disjunctive = false;
    plan.need_recheck = true;
  };
  if (force == ForceMethod::kStructural) {
    if (so_ix == nullptr) {
      plan.reason = "forced structural: no covering index";
      return plan;
    }
    make_structural(so_step, so_ix);
    plan.reason = "forced";
    return plan;
  }
  // Prices the structural-only scan against the full scan when no value
  // probe is usable.
  auto consider_structural_only = [&]() {
    if (so_ix == nullptr) return;
    StructuralOption opt;
    opt.scan_available = true;
    FillStructuralStats(ctx.stats, so_ix, query.steps[so_step].name, &opt);
    CostBreakdown cost = CostPlans(ctx.stats, ctx.costs, {}, false, false,
                                   opt, ctx.avg_records_per_doc);
    plan.cost_based = true;
    plan.est_postings = cost.est_postings;
    plan.est_docs = cost.est_docs;
    plan.reason = cost.Reason();
    if (cost.chosen == AccessMethod::kStructuralScan)
      make_structural(so_step, so_ix);
  };
  plan.reason = "no indexable predicates";

  std::vector<CandidatePredicate> candidates;
  bool unindexable = false;
  XDB_RETURN_NOT_OK(ExtractCandidates(query, &candidates, &unindexable));
  if (candidates.empty()) {
    consider_structural_only();
    return plan;
  }

  // Match candidates against indexes. OR groups are usable only if *every*
  // member of the group has an index; otherwise the group is dropped and
  // left to recheck.
  std::vector<PlannedProbe> and_probes;
  std::map<int, std::vector<PlannedProbe>> or_groups;
  std::set<int> broken_groups;
  bool uncovered = unindexable;
  for (const CandidatePredicate& cand : candidates) {
    PlannedProbe probe = MatchIndexes(cand, ctx.indexes);
    if (cand.or_group) {
      if (probe.index == nullptr) {
        broken_groups.insert(cand.group_id);
        uncovered = true;
      } else {
        or_groups[cand.group_id].push_back(std::move(probe));
      }
    } else if (probe.index == nullptr) {
      uncovered = true;
    } else {
      and_probes.push_back(std::move(probe));
    }
  }
  for (int g : broken_groups) or_groups.erase(g);

  // Assemble: prefer AND probes; else one OR group.
  bool disjunctive = false;
  std::vector<PlannedProbe> probes;
  if (!and_probes.empty()) {
    probes = std::move(and_probes);
    if (!or_groups.empty()) uncovered = true;  // extra ORs left to recheck
  } else if (or_groups.size() == 1 && !uncovered) {
    probes = std::move(or_groups.begin()->second);
    disjunctive = true;
  } else if (!or_groups.empty()) {
    // Multiple OR groups (or ORs plus unindexables): take the first group
    // as the filter, recheck everything.
    probes = std::move(or_groups.begin()->second);
    disjunctive = true;
    uncovered = true;
  }
  if (probes.empty()) {
    plan.reason = "no index covers the predicates";
    consider_structural_only();
    return plan;
  }

  // Node-level anchoring needs every probe at the same step with a
  // child-only branch.
  bool same_step = true;
  size_t anchor = probes[0].pred.step_index;
  for (const PlannedProbe& p : probes) {
    if (p.pred.step_index != anchor) {
      same_step = false;
      break;
    }
  }
  bool all_strippable = true;
  for (const PlannedProbe& p : probes)
    if (p.pred.strip_levels < 0) all_strippable = false;
  // Same dropped-predicate hazard as the structural-only anchor above: a
  // predicate on a step above the anchor is in neither the prefix pattern
  // nor the residual, so such queries must stay at document level.
  const bool prefix_predicate_free = anchor <= first_pred_step;
  bool node_capable = same_step && all_strippable && prefix_predicate_free;
  // Descendant-branch conjuncts (strip_levels == -1) are not demoted to a
  // doc-level recheck when a structural index covers the anchor step's
  // name: joining the value postings against the name's interval entries
  // anchors them at node level instead.
  StructuralIndex* anchor_ix = nullptr;
  if (same_step && prefix_predicate_free && !node_capable &&
      StructuralAnchorableStep(query.steps[anchor]))
    anchor_ix =
        FindCoveringStructural(ctx.structural_indexes, query.steps[anchor].name);

  bool all_exact = true;
  for (const PlannedProbe& p : probes)
    if (p.match != xpath::IndexMatch::kExact) all_exact = false;
  // "If all the indexes match exactly with the predicates, the result list
  // is exact. If one of them is exact match, while the others are
  // containment, NodeID level ANDing will result in an exact list."
  bool any_exact = false;
  for (const PlannedProbe& p : probes)
    if (p.match == xpath::IndexMatch::kExact) any_exact = true;

  bool want_node_level;
  switch (force) {
    case ForceMethod::kDocIdList:
      want_node_level = false;
      plan.reason = "forced";
      break;
    case ForceMethod::kNodeIdList:
      want_node_level = true;
      plan.reason = "forced";
      break;
    default: {
      // Price every feasible Table 2 path and take the cheapest. The
      // breakdown becomes the plan's reason so EXPLAIN shows why each
      // alternative lost. The paper's rule — DocID lists for small
      // documents, NodeID lists for large ones — emerges from the prices.
      StructuralOption sopt;
      sopt.anchor_join = anchor_ix != nullptr;
      if (anchor_ix != nullptr)
        FillStructuralStats(ctx.stats, anchor_ix, query.steps[anchor].name,
                            &sopt);
      CostBreakdown cost =
          CostPlans(ctx.stats, ctx.costs, probes, disjunctive, node_capable,
                    sopt, ctx.avg_records_per_doc);
      plan.cost_based = true;
      plan.est_postings = cost.est_postings;
      plan.est_docs = cost.est_docs;
      plan.reason = cost.Reason();
      if (cost.chosen == AccessMethod::kFullScan) {
        // Probing priced out (tiny collection or unselective predicate):
        // plan is already the full-scan default.
        return plan;
      }
      want_node_level = cost.chosen == AccessMethod::kNodeIdList ||
                        cost.chosen == AccessMethod::kNodeIdAndOr;
    }
  }
  if (want_node_level && !node_capable) {
    if (anchor_ix != nullptr) {
      plan.structural_anchor = true;
      plan.structural_index = anchor_ix;
      plan.structural_name = query.steps[anchor].name;
    } else {
      want_node_level = false;
      plan.reason = "probes not anchorable at one step";
    }
  }

  plan.probes = std::move(probes);
  plan.disjunctive = disjunctive;
  plan.anchor_step = anchor;
  bool anchor_exact =
      want_node_level ? (!disjunctive && any_exact) || all_exact : all_exact;
  // A structural-joined anchor always rechecks: the join proves only that
  // some value hit lies below the anchor, not the branch's exact depth.
  plan.need_recheck = uncovered || !anchor_exact || plan.structural_anchor;
  if (plan.probes.size() > 1) {
    plan.method = want_node_level ? AccessMethod::kNodeIdAndOr
                                  : AccessMethod::kDocIdAndOr;
  } else {
    plan.method =
        want_node_level ? AccessMethod::kNodeIdList : AccessMethod::kDocIdList;
  }
  return plan;
}

std::vector<WorkRange> PartitionForParallelism(size_t n, size_t parallelism) {
  std::vector<WorkRange> ranges;
  if (parallelism <= 1 || n < 2 * kMinItemsPerTask) return ranges;
  // Over-decompose so stealing can re-balance, but never below the per-task
  // floor: tasks = min(2 * parallelism, n / kMinItemsPerTask).
  size_t tasks = std::min(2 * parallelism, n / kMinItemsPerTask);
  if (tasks < 2) return ranges;
  size_t base = n / tasks;
  size_t extra = n % tasks;  // first `extra` chunks get one more item
  size_t begin = 0;
  for (size_t t = 0; t < tasks; t++) {
    size_t len = base + (t < extra ? 1 : 0);
    ranges.push_back(WorkRange{begin, begin + len});
    begin += len;
  }
  return ranges;
}

std::vector<WorkRange> PartitionByDocument(const std::vector<Posting>& anchors,
                                           size_t parallelism) {
  const size_t n = anchors.size();
  std::vector<WorkRange> ranges;
  size_t begin = 0;
  for (const WorkRange& r : PartitionForParallelism(n, parallelism)) {
    size_t end = std::max(r.end, begin);
    while (end > 0 && end < n && anchors[end].doc_id == anchors[end - 1].doc_id)
      end++;
    if (end > begin) ranges.push_back(WorkRange{begin, end});
    begin = end;
  }
  if (ranges.size() < 2) ranges.clear();
  return ranges;
}

}  // namespace query
}  // namespace xdb
