// EXPLAIN and engine metrics: run the same query over the streaming path and
// the index path, print each plan (cost breakdown, statistics line and
// plan-cache state included), show a plan-cache hit, a forced DocID-list
// plan, and a descendant query flipping to the structural interval
// index, then dump the engine metrics snapshot.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/explain
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/engine.h"

using namespace xdb;

template <typename T>
T Unwrap(Result<T> res, const char* what) {
  if (!res.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return res.MoveValue();
}

int main() {
  EngineOptions options;
  options.in_memory = true;
  options.enable_wal = false;
  auto engine = Unwrap(Engine::Open(options), "open engine");
  Collection* shop = Unwrap(engine->CreateCollection("shop"),
                            "create collection");

  // A value index over the price path. Without it the planner has no choice
  // but the QuickXScan full scan; with it the same query becomes an index
  // probe plus (if needed) a recheck.
  for (int i = 1; i <= 50; i++) {
    std::string xml = "<item><name>widget-" + std::to_string(i) +
                      "</name><price>" + std::to_string(i * 3) +
                      "</price></item>";
    Unwrap(shop->InsertDocument(nullptr, xml), "insert");
  }

  const char* query = "/item[price = 42]/name";
  QueryOptions opts;
  opts.explain = true;

  // 1. Streaming path: no index exists yet.
  auto scan = Unwrap(shop->Query(nullptr, query, opts), "scan query");
  std::printf("--- without an index ---\n%s\n",
              scan.PlanText().c_str());

  // 2. Index path: same query after CreateValueIndex.
  Status st =
      shop->CreateValueIndex({"price", "/item/price", ValueType::kDouble, 128});
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (create index): %s\n", st.ToString().c_str());
    return 1;
  }
  auto probed = Unwrap(shop->Query(nullptr, query, opts), "index query");
  std::printf("--- with the price index ---\n%s\n",
              probed.PlanText().c_str());

  // 3. Run it again: the plan is served from the compiled-plan cache
  // ("plan cache: hit", and the plan phase costs zero). Any insert or
  // index change bumps the stats epoch and retires the cached plan.
  auto cached = Unwrap(shop->Query(nullptr, query, opts), "cached query");
  std::printf("--- same query again (cached plan) ---\n%s\n",
              cached.PlanText().c_str());

  // 4. A forced access method overrides the cost model: the plan is never
  // priced, so the stats line reads "(heuristic)".
  QueryOptions forced = opts;
  forced.force = ForceMethod::kDocIdList;
  auto pinned = Unwrap(shop->Query(nullptr, query, forced), "forced query");
  std::printf("--- forced docid-list plan ---\n%s\n",
              pinned.PlanText().c_str());

  // 5. Structural index: a descendant query has no value predicate to
  // probe, so it full-scans — until a structural index covers the element
  // and its range scan over the element's node IDs becomes cheaper than
  // walking every document. Deep documents where only a few contain the
  // queried element are the payoff case.
  for (int i = 0; i < 16; i++) {
    std::string xml;
    for (int d = 0; d < 30; d++) xml += "<section>";
    if (i % 8 == 0) xml += "<appendix>notes</appendix>";
    for (int d = 0; d < 30; d++) xml += "</section>";
    Unwrap(shop->InsertDocument(nullptr, xml), "insert deep");
  }
  auto deep_scan =
      Unwrap(shop->Query(nullptr, "//section//appendix", opts), "deep scan");
  std::printf("--- descendant query, no structural index ---\n%s\n",
              deep_scan.PlanText().c_str());
  st = shop->CreateStructuralIndex({"structure", ""});
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (create structural index): %s\n",
                 st.ToString().c_str());
    return 1;
  }
  auto interval = Unwrap(shop->Query(nullptr, "//section//appendix", opts),
                         "structural query");
  std::printf("--- with the structural index (structural scan) ---\n%s\n",
              interval.PlanText().c_str());

  // 6. trace=true adds per-step lines and phase timings (ToText).
  opts.trace = true;
  auto traced = Unwrap(shop->Query(nullptr, query, opts), "traced query");
  std::printf("--- full trace ---\n%s\n", traced.ToText().c_str());

  // 7. The engine-wide metrics snapshot those queries fed — including
  // query.plan_cache.{hits,misses,evictions,invalidations}.
  std::printf("--- engine metrics ---\n%s",
              engine->MetricsSnapshot().ToText().c_str());
  return 0;
}
