// Compiled-plan cache payoff: the same query answered from the plan cache
// vs re-running the whole planning front half (XPath parse, candidate
// extraction, cost-model pricing, QueryTree + recheck-residual compilation)
// on every execution.
//
// The collection is kept tiny (one small document) and the query text
// predicate-heavy, so execution is a few microseconds and the measured
// delta is almost entirely planning overhead — the piece a cache hit
// skips. Two flavors:
//  - cached:      warm plan cache, every iteration is a hit;
//  - uncached:    plan_cache_capacity = 0, full parse+price+compile per run.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "engine/engine.h"

namespace xdb {
namespace bench {
namespace {

constexpr char kQuery[] =
    "/Catalog/Categories/Product[RegPrice > 10 and RegPrice < 90]/Name";

struct PlannerFixture {
  explicit PlannerFixture(size_t cache_capacity) {
    EngineOptions eopts;
    eopts.in_memory = true;
    eopts.enable_wal = false;
    eopts.plan_cache_capacity = cache_capacity;
    engine = Engine::Open(eopts).MoveValue();
    coll = engine->CreateCollection("catalog").value();
    if (!coll->CreateValueIndex({"regprice",
                                 "/Catalog/Categories/Product/RegPrice",
                                 ValueType::kDecimal, 128})
             .ok())
      std::abort();
    for (int i = 0; i < 4; i++) {
      std::string xml =
          "<Catalog><Categories><Product><Name>p" + std::to_string(i) +
          "</Name><RegPrice>" + std::to_string(20 + 17 * i) +
          "</RegPrice></Product></Categories></Catalog>";
      if (!coll->InsertDocument(nullptr, xml).ok()) std::abort();
    }
  }

  std::unique_ptr<Engine> engine;
  Collection* coll = nullptr;
};

void RunPlanner(benchmark::State& state, PlannerFixture* fx) {
  QueryOptions qopts;
  // Warm-up: populates the cache when it is enabled.
  if (!fx->coll->Query(nullptr, kQuery, qopts).ok()) std::abort();
  uint64_t results = 0;
  for (auto _ : state) {
    auto res = fx->coll->Query(nullptr, kQuery, qopts);
    if (!res.ok()) std::abort();
    results = res.value().nodes.size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_QueryPlanCached(benchmark::State& state) {
  static PlannerFixture* fx = new PlannerFixture(64);
  RunPlanner(state, fx);
  // Sanity: the loop above must have been served from the cache.
  if (fx->coll->plan_cache()->size() == 0) std::abort();
}
BENCHMARK(BM_QueryPlanCached);

void BM_QueryPlanCompiledEachTime(benchmark::State& state) {
  static PlannerFixture* fx = new PlannerFixture(0);
  RunPlanner(state, fx);
}
BENCHMARK(BM_QueryPlanCompiledEachTime);

}  // namespace
}  // namespace bench
}  // namespace xdb
