// Differential-testing oracle across the XPath engines and the storage
// stack.
//
// The paper's core claim is that QuickXScan and the index-based access
// methods return exactly what a navigational evaluator would. This harness
// makes that claim executable: a seeded (document, query) pair is evaluated
// through every independent strategy the repo has —
//
//   * DomEvaluator over the pointer tree (the reference),
//   * QuickXScan over the virtual-SAX event stream,
//   * NaiveStreamEvaluator (when the query is in its linear subset),
//   * Collection::Query through the stored engine, under every planner
//     force mode (auto / full scan / DocID list / NodeID list / structural
//     scan), with value indexes derived from the query's own
//     predicates and an all-names structural index, so the index-backed
//     plans actually probe. The stored leg runs twice: at the default
//     record budget and at 96 bytes, where each document spans many
//     records.
//
// All engines must produce the same node-ID result set. A post-edit leg then
// reshapes the stored document with a subtree delete, a positional insert
// and a text update, backfills more value indexes, and requires every plan
// to equal a forced scan of the edited document, every index to equal a
// fresh backfill of it, and the document to stay deletable. On divergence
// the harness reports the seed (a one-line repro: rerun with --seed=N) and
// a greedily minimized document/query pair.
#ifndef XDB_TESTING_DIFFERENTIAL_H_
#define XDB_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "index/key_codec.h"
#include "util/workload.h"

namespace xdb {

class Collection;

namespace testing {

struct DiffOptions {
  workload::RandomXmlOptions xml;
  workload::XPathOptions xpath;
  /// Also push each case through the stored engine's planner/executor.
  bool run_collection_plans = true;
  /// Minimize the failing document and query before reporting.
  bool minimize = true;
};

/// The deterministic (document, query) pair of one seed.
struct DiffCase {
  std::string doc;
  std::string query;
};
DiffCase GenCase(uint64_t seed, const DiffOptions& options);

/// Evaluates one (doc, query) pair through every engine. Returns "" when all
/// agree, else a human-readable description of the divergence.
std::string CompareEngines(const std::string& doc, const std::string& query,
                           bool run_collection_plans);

struct DiffOutcome {
  bool ok = true;
  uint64_t seed = 0;
  std::string doc, query;
  std::string minimized_doc, minimized_query;
  std::string detail;  // divergence description; empty when ok

  /// The one-line repro + minimized pair, for test failure messages.
  std::string Report() const;
};

/// Generates and checks the case of one seed, minimizing on failure.
DiffOutcome RunCase(uint64_t seed, const DiffOptions& options);

struct SweepResult {
  bool ok = true;
  uint64_t cases_run = 0;
  uint64_t quickxscan_runs = 0;     // always == cases_run
  uint64_t naive_stream_runs = 0;   // linear-subset queries only
  uint64_t plan_runs = 0;           // stored-engine executions, both legs
  uint64_t edited_runs = 0;         // cases that also ran the post-edit leg
  DiffOutcome first_failure;
};

/// Runs `iters` seeded cases starting at `base_seed`, stopping at the first
/// divergence. A case that throws (std::bad_alloc under a memory limit,
/// say) is a divergence too, reported with its seed but not minimized.
/// `log` (optional) gets a progress line every 200 cases.
SweepResult RunSweep(uint64_t base_seed, uint64_t iters,
                     const DiffOptions& options, std::ostream* log = nullptr);

/// One indexed-comparison case: about eight documents
/// `<r k="V"><k>V</k>...</r>` whose values V come from a small pool
/// (integers, fractions with one or two digits, numeric-looking strings
/// such as "5.0", "060" and " 7 ", and a word), a value index of
/// `index_type` (string, double or decimal) on `index_path` (/r/k or
/// /r/@k), and a query comparing the same path with a literal from the
/// pool, as a number where it is one, or quoted.
struct ComparisonCase {
  std::vector<std::string> docs;
  ValueType index_type = ValueType::kString;
  std::string index_path;
  std::string query;
  bool index_first = true;  // create the index before the inserts

  /// The case spelled out, for failure messages.
  std::string ToString() const;
};
ComparisonCase GenComparisonCase(uint64_t seed);

/// Stores the case's documents under its index and requires every planner
/// flavor to return the DOM reference's (document, node) set. Returns ""
/// when all agree, else the first divergence.
std::string CheckComparisonCase(const ComparisonCase& c);

/// Checks each value and structural index of `coll` against a twin with
/// its definition, backfilled from the stored records: equal raw B+tree
/// entries, equal entry counts in CollectionStats for value twins, and
/// equal per-name count and span for structural twins. Also requires the
/// statistics' doc_count to equal DocCount(). Drops the twins; returns ""
/// or the first difference.
std::string CheckIndexesMatchBackfill(Collection* coll);

// --- greedy minimizers (exposed for their own tests) ---

/// Shrinks `doc` by deleting element subtrees, attributes and text runs
/// while `still_fails` keeps returning true. Assumes generator-shaped XML
/// (no '<' or '>' inside attribute values, no CDATA).
std::string MinimizeDocument(
    const std::string& doc,
    const std::function<bool(const std::string&)>& still_fails);

/// Shrinks `query` by dropping predicates and steps while `still_fails`
/// keeps returning true. Returns `query` unchanged if it does not parse.
std::string MinimizeQuery(
    const std::string& query,
    const std::function<bool(const std::string&)>& still_fails);

}  // namespace testing
}  // namespace xdb

#endif  // XDB_TESTING_DIFFERENTIAL_H_
