// xdb_bench: runs one workload and prints its metrics. Usually started by
// run.py, which builds it first; see README.md.
//
//   xdb_bench --workload oltp_mixed --seed 7 --seconds 10 --trace 0
//             [--work-dir DIR] [--spans-out FILE]
//
// Prints one "metric <name> <value> <unit>" line per measured metric (the
// end-to-end ones, or the per-layer ones with --trace 1), then as its last
// line a JSON object with the keys correct, attempted and failed. run.py
// turns the metric lines BENCHMARK.json lists into the result's "metrics".
// Exits 1 when a check failed or the run could not complete.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xdb_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xdb_bench;
  RunConfig cfg;
  cfg.work_dir = ".bench_build/xdb-bench/work";
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--spans-out") {
      cfg.spans_out = v;
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || cfg.seconds <= 0) return Usage();
  cfg.work_dir += "/" + cfg.workload;

  RunResult result;
  const bool ok = RunWorkload(cfg, &result);
  for (const std::string& f : result.failures)
    std::fprintf(stderr, "failed op: %s\n", f.c_str());
  for (const std::string& e : result.errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  if (!ok) return 1;

  std::fputs(result.metrics.ToLines("metric").c_str(), stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  return result.correct ? 0 : 1;
}
