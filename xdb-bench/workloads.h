// The three xdb-bench workloads and the code that runs one of them through
// the public Engine/Collection API: set-up, a closed-loop measured window,
// correctness checks, and replica catch-up.
#ifndef XDB_BENCH_WORKLOADS_H_
#define XDB_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace xdb_bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from an untraced run. true: one untraced and
  /// one traced pass, per-layer metrics from the traced one.
  bool trace = false;
  /// Engine files go below this directory (created, and removed at the end).
  std::string work_dir;
  /// Traced runs write their spans here as TSV ("" = keep them in memory).
  std::string spans_out;
};

struct RunResult {
  /// False when any check failed; `errors` says which.
  bool correct = true;
  std::vector<std::string> errors;
  /// Operations that returned an error (counted in `failed`, not wrong).
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every metric the run measured: end-to-end ones always, per-layer ones
  /// on traced runs.
  MetricTable metrics;
};

/// Runs one workload. Returns false (with `result->errors` filled) when the
/// run could not complete; correctness mismatches set result->correct.
bool RunWorkload(const RunConfig& config, RunResult* result);

}  // namespace xdb_bench

#endif  // XDB_BENCH_WORKLOADS_H_
