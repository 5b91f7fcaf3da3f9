#include "obs/query_trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include "common/format.h"

namespace xdb {
namespace obs {

namespace {
uint64_t ThreadCpuMicros() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void QueryCounters::Add(const QueryCounters& chunk) {
  index_postings += chunk.index_postings;
  candidate_docs += chunk.candidate_docs;
  candidate_anchors += chunk.candidate_anchors;
  docs_evaluated += chunk.docs_evaluated;
  records_fetched += chunk.records_fetched;
  scan_events += chunk.scan_events;
  scan_instances += chunk.scan_instances;
  scan_peak_live = std::max(scan_peak_live, chunk.scan_peak_live);
}

std::string QueryProfile::PlanText(const QueryCounters& counters,
                                   uint64_t results) const {
  std::string out;
  Appendf(&out, "query: %s\n", query.c_str());
  Appendf(&out, "access path: %s (%s)\n", access_method.c_str(),
          reason.c_str());
  for (const std::string& p : probes) Appendf(&out, "  probe: %s\n", p.c_str());
  if (!probes.empty() && probes.size() > 1)
    Appendf(&out, "  combine: %s\n", disjunctive ? "ORing" : "ANDing");
  Appendf(&out,
          "stats: epoch=%" PRIu64 " docs=%" PRIu64
          " records/doc=%.2f nodes/doc=%.2f (%s)\n",
          stats_epoch, doc_count, avg_records_per_doc, nodes_per_doc,
          cost_based ? "cost-based" : "heuristic");
  Appendf(&out, "plan cache: %s\n", plan_cache.c_str());
  Appendf(&out, "recheck: %s", need_recheck ? "yes" : "no");
  if (access_method == "nodeid-list" || access_method == "nodeid-anding/oring")
    Appendf(&out, "  anchor step: %zu", anchor_step);
  out.push_back('\n');
  Appendf(&out,
          "cardinality: postings=%" PRIu64 " candidate_docs=%" PRIu64
          " candidate_anchors=%" PRIu64 " docs_evaluated=%" PRIu64
          " records_fetched=%" PRIu64 " results=%" PRIu64 "\n",
          counters.index_postings, counters.candidate_docs,
          counters.candidate_anchors, counters.docs_evaluated,
          counters.records_fetched, results);
  Appendf(&out,
          "scan: events=%" PRIu64 " instances=%" PRIu64 " peak_live=%" PRIu64
          "\n",
          counters.scan_events, counters.scan_instances,
          counters.scan_peak_live);
  Appendf(&out, "parallelism: %d (chunks=%zu)\n", parallelism, chunks);
  return out;
}

std::string QueryProfile::ToText(const QueryCounters& counters,
                                 uint64_t results) const {
  std::string out = PlanText(counters, results);
  Appendf(&out, "pages fetched: %" PRIu64 "\n", pages_fetched);
  for (const QueryPhase& ph : phases)
    Appendf(&out, "phase %-8s wall=%" PRIu64 "us cpu=%" PRIu64 "us\n",
            ph.name.c_str(), ph.wall_us, ph.cpu_us);
  for (const WaitLine& w : waits)
    Appendf(&out, "wait  %-11s total=%" PRIu64 "us count=%" PRIu64 "\n",
            w.state.c_str(), w.total_us, w.count);
  if (!waits.empty())
    Appendf(&out, "wait total: %" PRIu64 "us\n", wait_total_us);
  for (const std::string& line : trace_lines)
    Appendf(&out, "trace: %s\n", line.c_str());
  return out;
}

PhaseTimer::PhaseTimer(QueryProfile* profile, const char* name)
    : profile_(profile != nullptr && profile->enabled ? profile : nullptr),
      name_(name) {
  if (profile_ == nullptr) return;
  wall_start_us_ = WallMicros();
  cpu_start_us_ = ThreadCpuMicros();
}

void PhaseTimer::Stop() {
  if (profile_ == nullptr) return;
  profile_->AddPhase(name_, WallMicros() - wall_start_us_,
                     ThreadCpuMicros() - cpu_start_us_);
  profile_ = nullptr;
}

}  // namespace obs
}  // namespace xdb
