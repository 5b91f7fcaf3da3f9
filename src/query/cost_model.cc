#include "query/cost_model.h"

#include <algorithm>

#include "common/format.h"

namespace xdb {
namespace query {

namespace {

/// Fraction of sampled distinct keys inside [lo, hi] (either bound may be
/// absent). The sample is uniform over distinct keys (KMV), and encoded
/// keys compare bytewise like the index, so this approximates the fraction
/// of distinct keys a range probe covers.
double SampleRangeFraction(const std::vector<std::string>& sample,
                           const std::optional<KeyBound>& lo,
                           const std::optional<KeyBound>& hi) {
  if (sample.empty()) return 0;
  size_t in = 0;
  for (const std::string& key : sample) {
    if (lo.has_value()) {
      int c = Slice(key).Compare(Slice(lo->key));
      if (c < 0 || (c == 0 && !lo->inclusive)) continue;
    }
    if (hi.has_value()) {
      int c = Slice(key).Compare(Slice(hi->key));
      if (c > 0 || (c == 0 && !hi->inclusive)) continue;
    }
    in++;
  }
  return static_cast<double>(in) / static_cast<double>(sample.size());
}

}  // namespace

ProbeEstimate EstimateProbePostings(const IndexStatsSnapshot& stats,
                                    const PlannedProbe& probe) {
  ProbeEstimate est;
  const double entries = static_cast<double>(stats.entry_count);
  if (entries == 0) return est;
  const double distinct = std::max(stats.distinct_keys, 1.0);
  std::optional<KeyBound> lo, hi;
  bool not_equal = false;
  if (!ProbeBounds(*probe.index, probe.pred, &lo, &hi, &not_equal).ok()) {
    // Unencodable literal: planned probes should never hit this, but price
    // it as a full index scan rather than free.
    est.scanned = est.emitted = entries;
    return est;
  }
  if (not_equal) {
    // != scans the whole index and filters out the equal keys.
    est.scanned = entries;
    est.emitted = entries * (1.0 - 1.0 / distinct);
    return est;
  }
  if (lo.has_value() && hi.has_value() && lo->key == hi->key) {
    // Equality: one key's share of the entries. At least one posting is
    // assumed so a probe for an absent key is never free.
    est.scanned = est.emitted = std::max(entries / distinct, 1.0);
    return est;
  }
  // Range: the sampled fraction of distinct keys, smoothed so a range that
  // misses every sample key still costs a leaf visit.
  double fraction = SampleRangeFraction(stats.sample_keys, lo, hi);
  est.scanned = est.emitted = std::max(entries * fraction, 1.0);
  return est;
}

std::string CostBreakdown::Reason() const {
  std::string out = "cost:";
  Appendf(&out, " full-scan=%.0f%s", full_scan,
          chosen == AccessMethod::kFullScan ? "*" : "");
  bool chose_doc = chosen == AccessMethod::kDocIdList ||
                   chosen == AccessMethod::kDocIdAndOr;
  bool chose_node = chosen == AccessMethod::kNodeIdList ||
                    chosen == AccessMethod::kNodeIdAndOr;
  if (doc_list >= 0)
    Appendf(&out, " docid-list=%.0f%s", doc_list, chose_doc ? "*" : "");
  if (node_list >= 0)
    Appendf(&out, " nodeid-list=%.0f%s", node_list, chose_node ? "*" : "");
  if (structural >= 0)
    Appendf(&out, " structural=%.0f%s", structural,
            chosen == AccessMethod::kStructuralScan ? "*" : "");
  if (doc_list >= 0)
    Appendf(&out, "; est postings=%.0f docs=%.0f", est_postings, est_docs);
  else if (structural >= 0)
    Appendf(&out, "; est anchors=%.0f", est_anchors);
  return out;
}

CostBreakdown CostPlans(const CollectionStatsSnapshot& stats,
                        const CostConstants& cc,
                        const std::vector<PlannedProbe>& probes,
                        bool disjunctive, bool node_capable,
                        const StructuralOption& structural,
                        double avg_records_per_doc) {
  CostBreakdown out;
  const double docs = static_cast<double>(stats.doc_count);
  const double per_doc_eval = cc.doc_open +
                              avg_records_per_doc * cc.record_fetch +
                              stats.avg_nodes_per_doc() * cc.node_scan;
  out.full_scan = docs * per_doc_eval;
  // Structural range scan: one descent, every entry of the name off the
  // leaves, then a per-anchor prefix recheck plus the residual evaluated
  // over its average subtree span.
  const double struct_entries = std::max(structural.name_entries, 1.0);
  const double struct_scan_cost =
      cc.probe_descend + struct_entries * cc.posting_scan;
  if (structural.scan_available && probes.empty()) {
    out.structural = struct_scan_cost +
                     struct_entries * (cc.anchor_recheck + cc.record_fetch +
                                       structural.avg_subtree * cc.node_scan);
    out.est_anchors = struct_entries;
  }
  if (probes.empty()) {
    out.chosen = AccessMethod::kFullScan;
    if (out.structural >= 0 && out.structural <= out.full_scan)
      out.chosen = AccessMethod::kStructuralScan;
    return out;
  }

  static const IndexStatsSnapshot kEmptyIndexStats;
  double probe_cost = 0;
  std::vector<double> emitted;
  emitted.reserve(probes.size());
  for (const PlannedProbe& p : probes) {
    const IndexStatsSnapshot* ix = &kEmptyIndexStats;
    auto it = stats.indexes.find(p.index->def().name);
    if (it != stats.indexes.end()) ix = &it->second;
    ProbeEstimate est = EstimateProbePostings(*ix, p);
    probe_cost += cc.probe_descend + est.scanned * cc.posting_scan +
                  est.emitted * cc.list_merge;
    out.est_postings += est.emitted;
    emitted.push_back(est.emitted);
  }

  // Candidate documents after combining the per-probe DocID lists. ANDing
  // assumes independent predicates (product of per-probe document
  // selectivities); ORing sums and caps.
  if (disjunctive) {
    out.est_docs = 0;
    for (double e : emitted) out.est_docs += std::min(e, docs);
    out.est_docs = std::min(out.est_docs, docs);
  } else {
    out.est_docs = docs;
    for (double e : emitted) {
      double sel = docs == 0 ? 0 : std::min(e, docs) / docs;
      out.est_docs *= sel;
    }
  }
  out.doc_list = probe_cost + out.est_docs * per_doc_eval;

  if (node_capable || structural.anchor_join) {
    // Anchors after node-level combine: ANDing is bounded by the smallest
    // list, ORing by the sum.
    if (disjunctive) {
      out.est_anchors = 0;
      for (double e : emitted) out.est_anchors += e;
    } else {
      out.est_anchors = *std::min_element(emitted.begin(), emitted.end());
    }
    out.node_list =
        probe_cost + out.est_anchors * (cc.anchor_recheck + cc.record_fetch);
    if (!node_capable) {
      // Anchoring via the structural join adds one range scan over the
      // anchor name, the interval merge, and the residual recheck over each
      // surviving anchor's subtree.
      out.node_list += struct_scan_cost +
                       (struct_entries + out.est_postings) * cc.list_merge +
                       out.est_anchors * structural.avg_subtree * cc.node_scan;
    }
  }

  // Cheapest wins; ties prefer the exact-list paths over scanning.
  out.chosen = AccessMethod::kFullScan;
  double best = out.full_scan;
  if (out.node_list >= 0 && out.node_list <= best) {
    best = out.node_list;
    out.chosen = probes.size() > 1 ? AccessMethod::kNodeIdAndOr
                                   : AccessMethod::kNodeIdList;
  }
  if (out.doc_list <= best) {
    best = out.doc_list;
    out.chosen = probes.size() > 1 ? AccessMethod::kDocIdAndOr
                                   : AccessMethod::kDocIdList;
  }
  return out;
}

}  // namespace query
}  // namespace xdb
