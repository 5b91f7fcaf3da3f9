// The benchmark-side tracer. Spans wrap the benchmark's own calls into each
// module's public functions (Parser::Parse, ValidatorVm::Validate,
// Collection::InsertTokens, Engine::Checkpoint, WalShipper::ShipOnce, ...);
// nothing inside the engine is instrumented. Query phases come from the
// engine's QueryProfile (explain on) and are attached as child spans.
//
// One Tracer per client thread: spans are appended to a plain vector with no
// locking, kept in memory, and merged and written out when the run ends.
#ifndef XDB_BENCH_TRACER_H_
#define XDB_BENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace xdb_bench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the enclosing span in the same buffer; -1 for an op span.
  int64_t parent = -1;
  /// Shared by every span of one operation.
  uint64_t op_id = 0;
};

class Tracer {
 public:
  /// `thread_tag` keeps op ids of different client threads distinct.
  Tracer(bool enabled, uint32_t thread_tag);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one (an op span when none is
  /// open). Returns its index, or -1 when tracing is off.
  int64_t Begin(const std::string& name);
  void End(int64_t id);

  /// Records an already-timed child of the innermost open span.
  void AddChild(const std::string& name, uint64_t start_ns, uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans, re-basing their parent indexes.
  void Merge(const Tracer& other);

  /// Tab-separated dump: op_id, parent, name, start_ns, end_ns.
  std::string ToTsv() const;

  static uint64_t NowNs();

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t id_;
  };

 private:
  bool enabled_;
  uint64_t op_base_;
  uint64_t next_op_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Per span name: how many, total duration, total self time.
std::map<std::string, SpanStats> SummarizeSpans(const std::vector<Span>& spans);

/// Counter deltas between two MetricsSnapshots.
struct CounterDelta {
  xdb::obs::MetricsSnapshot before;
  xdb::obs::MetricsSnapshot after;

  /// Counter/gauge difference (0 when absent).
  double Value(const std::string& name) const;
  /// Histogram sum difference.
  double HistSum(const std::string& name) const;
};

}  // namespace xdb_bench

#endif  // XDB_BENCH_TRACER_H_
