// Per-query EXPLAIN and trace: the profile a query fills in when
// QueryOptions::explain/trace is set, plus its stable text renderings.
//
// The paper's central planner claim — QuickXScan full scan vs. value-index
// DocID/NodeID lists with ANDing/ORing (Table 2) — is unverifiable at
// runtime without this: EXPLAIN names the chosen access path and the reason,
// and reports the cardinality funnel (index postings -> candidates ->
// anchors -> evaluated -> results) per phase with wall/CPU timings.
//
// Two renderings, both over the query's one counters struct (QueryCounters,
// carried to the caller as QueryResult::stats):
//  * PlanText(): deterministic — no timings, no pointers — so golden tests
//    can pin the exact format.
//  * ToText(): PlanText() plus the timing/fan-out section for humans.
#ifndef XDB_OBS_QUERY_TRACE_H_
#define XDB_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xdb {
namespace obs {

/// One timed phase of query execution (plan, probe, merge, eval, recheck).
struct QueryPhase {
  std::string name;
  uint64_t wall_us = 0;
  uint64_t cpu_us = 0;
};

/// The per-query work counters: the cardinality funnel (index postings ->
/// candidates -> evaluated) and the QuickXScan work. The executor fills one
/// copy per query (QueryResult::stats) and EXPLAIN renders that same copy.
struct QueryCounters {
  uint64_t index_postings = 0;    // entries read from value/structural indexes
  uint64_t candidate_docs = 0;    // docs identified before evaluation
  uint64_t candidate_anchors = 0; // node anchors identified before recheck
  uint64_t docs_evaluated = 0;    // documents QuickXScan actually ran over
  uint64_t records_fetched = 0;   // XML records fetched from storage
  uint64_t scan_events = 0;       // QuickXScan events pumped (all scans)
  uint64_t scan_instances = 0;    // pattern instances created (all scans)
  uint64_t scan_peak_live = 0;    // max live instances in any one scan

  /// Folds in one parallel chunk's counters: sums, and the max for the peak.
  void Add(const QueryCounters& chunk);

  bool operator==(const QueryCounters&) const = default;
};

/// Everything else EXPLAIN/trace knows about one execution: the plan, its
/// inputs, fan-out, timings and waits. Filled by Collection::ExecuteCompiled
/// when enabled; always default-constructed (cheap) when not.
struct QueryProfile {
  bool enabled = false;  // explain requested: plan, phases, waits populated
  bool trace = false;    // trace requested: per-step trace_lines too

  std::string collection;
  std::string query;  // the XPath text as given

  // --- plan ---
  std::string access_method;  // AccessMethodName() of the chosen path
  std::string reason;         // why the planner chose it
  std::vector<std::string> probes;  // one line per planned index probe
  bool disjunctive = false;
  bool need_recheck = false;
  size_t anchor_step = 0;  // meaningful for node-level methods

  // --- planner inputs ---
  uint64_t doc_count = 0;
  double avg_records_per_doc = 0;
  double nodes_per_doc = 0;     // from collected stats
  uint64_t stats_epoch = 0;     // collection stats epoch the plan was built at
  /// The cost model priced the plan; false for forced plans and for
  /// queries no index covers ("(heuristic)" in PlanText).
  bool cost_based = false;
  /// "hit", "miss", or "off" — whether this execution reused a compiled
  /// plan from the per-collection plan cache.
  std::string plan_cache = "off";

  // --- parallel fan-out ---
  int parallelism = 1;
  size_t chunks = 1;  // work ranges the candidate list was split into

  // --- buffer traffic (pool accesses attributed to this query; approximate
  // under concurrent load — it is a before/after delta of pool counters) ---
  uint64_t pages_fetched = 0;

  std::vector<QueryPhase> phases;
  std::vector<std::string> trace_lines;  // trace=true only

  // --- wait-state attribution (always collected; rolled into the profile
  // only when enabled — see obs/wait_state.h). One line per wait state the
  // query actually hit, in WaitState enum order. ---
  struct WaitLine {
    std::string state;  // WaitStateName() token
    uint64_t total_us = 0;
    uint64_t count = 0;
  };
  std::vector<WaitLine> waits;
  /// Sum over `waits` (microseconds spent off-CPU or probing, attributed).
  uint64_t wait_total_us = 0;

  void AddPhase(const std::string& name, uint64_t wall_us, uint64_t cpu_us) {
    phases.push_back(QueryPhase{name, wall_us, cpu_us});
  }

  /// Deterministic plan text (golden-tested) of this profile plus the
  /// query's `counters` and result count. Layout:
  ///   query: <xpath>
  ///   access path: <method> (<reason>)
  ///     probe: <index> <op> <value> [containment]
  ///   stats: epoch=E docs=N records/doc=R.RR nodes/doc=V.VV (cost-based|heuristic)
  ///   plan cache: hit|miss|off
  ///   recheck: yes|no    [anchoring step: N]
  ///   cardinality: postings=.. candidates=.. evaluated=.. results=..
  ///   scan: events=.. instances=.. peak_live=..
  ///   parallelism: N (chunks=M)
  std::string PlanText(const QueryCounters& counters, uint64_t results) const;

  /// PlanText() plus timings, pages fetched, and trace lines.
  std::string ToText(const QueryCounters& counters, uint64_t results) const;
};

/// Scoped wall+CPU timer appending one QueryPhase on destruction (or Stop()).
/// CPU time is the calling thread's CLOCK_THREAD_CPUTIME_ID, so phases that
/// fan out measure the coordinating thread only — per-chunk work shows up in
/// the chunk counters instead.
class PhaseTimer {
 public:
  PhaseTimer(QueryProfile* profile, const char* name);
  ~PhaseTimer() { Stop(); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  void Stop();

 private:
  QueryProfile* profile_;  // null = disabled (no-op timer)
  const char* name_;
  uint64_t wall_start_us_ = 0;
  uint64_t cpu_start_us_ = 0;
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_QUERY_TRACE_H_
