// Parallel query execution scaling: the same XPath evaluated with 1, 2, 4
// and 8 threads over a multi-document collection.
//
// Two shapes bracket the executor's parallel paths:
//  - scan-heavy: a forced full scan, so every document runs QuickXScan and
//    the candidate partitioner has maximum work to spread;
//  - index-heavy: a value-index probe narrowing to a DocID list first, so the
//    fan-out covers only the post-filter evaluation of the candidates.
//
// Throughput (bytes_per_second = stored XML bytes per evaluated pass) is the
// headline number; the acceptance bar is >= 2.5x at 4 threads vs 1 on the
// scan-heavy case and a < 5% single-thread regression vs the serial seed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/random.h"
#include "engine/engine.h"
#include "util/workload.h"

namespace xdb {
namespace bench {
namespace {

constexpr int kDocs = 48;

struct ParallelQueryFixture {
  ParallelQueryFixture() {
    EngineOptions eopts;
    eopts.in_memory = true;
    eopts.enable_wal = false;
    eopts.num_query_threads = 8;  // per-query parallelism picks 1..8 of these
    engine = Engine::Open(eopts).MoveValue();
    CollectionOptions copts;
    copts.buffer_pages = 4096;
    coll = engine->CreateCollection("catalog", copts).value();
    if (!coll->CreateValueIndex({"regprice",
                                 "/Catalog/Categories/Product/RegPrice",
                                 ValueType::kDecimal, 128})
             .ok())
      std::abort();
    Random rng(42);
    workload::CatalogOptions gen;
    gen.categories = 4;
    gen.products_per_category = 50;
    for (int i = 0; i < kDocs; i++) {
      std::string xml = workload::GenCatalogXml(&rng, gen);
      stored_bytes += xml.size();
      if (!coll->InsertDocument(nullptr, xml).ok()) std::abort();
    }
  }

  std::unique_ptr<Engine> engine;
  Collection* coll = nullptr;
  uint64_t stored_bytes = 0;
};

ParallelQueryFixture* Fixture() {
  static ParallelQueryFixture* fx = new ParallelQueryFixture();
  return fx;
}

/// When environment variable `env` names a path, writes the ToJson() of
/// `take()`'s snapshot there verbatim.
template <typename TakeSnapshot>
void WriteSnapshot(const char* env, TakeSnapshot take) {
  const char* path = std::getenv(env);
  if (path == nullptr || path[0] == '\0') return;
  const std::string json = take().ToJson();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

void RunQuery(benchmark::State& state, const char* xpath,
              query::ForceMethod force) {
  ParallelQueryFixture* fx = Fixture();
  QueryOptions qopts;
  qopts.force = force;
  qopts.parallelism = static_cast<int>(state.range(0));
  uint64_t results = 0;
  for (auto _ : state) {
    auto res = fx->coll->Query(nullptr, xpath, qopts);
    if (!res.ok()) std::abort();
    results = res.value().nodes.size();
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx->stored_bytes));
  state.counters["results"] = static_cast<double>(results);
  state.counters["threads"] = static_cast<double>(state.range(0));

  // With XDB_METRICS_JSON=<path>, dump the engine's cumulative metrics
  // snapshot after every bench; the last write covers the whole run. CI
  // uploads it next to BENCH_RESULTS.json so counter deltas across commits
  // are diffable (buffer traffic, group-commit batches, query fan-out).
  WriteSnapshot("XDB_METRICS_JSON",
                [fx] { return fx->engine->MetricsSnapshot(); });
  // Likewise XDB_SNAPSHOT_JSON=<path> dumps the full DebugSnapshot (the
  // xdb_top payload: metrics + wait histograms + events + slow queries +
  // per-collection residency). CI feeds it back through `xdb_top --json
  // --file` as a schema round-trip smoke-test, so the file must be exactly
  // ToJson()'s bytes.
  WriteSnapshot("XDB_SNAPSHOT_JSON",
                [fx] { return fx->engine->DebugSnapshot(); });
}

// Scan-heavy: full QuickXScan over all 48 documents per query.
void BM_ParallelQuery_Scan(benchmark::State& state) {
  RunQuery(state, "/Catalog/Categories/Product[Discount]/RegPrice",
           query::ForceMethod::kScan);
}
BENCHMARK(BM_ParallelQuery_Scan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Index-heavy: the RegPrice index narrows to a candidate DocID list, then
// the surviving documents are evaluated (in parallel when it pays).
void BM_ParallelQuery_Index(benchmark::State& state) {
  RunQuery(state, "/Catalog/Categories/Product[RegPrice > 100]/ProductName",
           query::ForceMethod::kDocIdList);
}
BENCHMARK(BM_ParallelQuery_Index)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace xdb
