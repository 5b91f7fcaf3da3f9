// Structural index payoff and cost.
//
// The read side is the tentpole claim: a descendant-axis query for a rare
// element buried deep in recursive documents, answered by a B+tree range
// scan over the element's node IDs (one posting per match, recheck on its
// subtree) vs re-scanning every stored node of every document. The
// fixture's documents are deep <a> spines and only a few carry the <t>
// payload — the regime where full scans pay for every spine and the
// structural scan pays only for the documents that match.
//
// The write side prices maintenance: the same inserts with and without a
// covering structural index, so the delta is exactly the per-document
// derive-and-insert of [name][doc][node ID] entries; and a steady-size
// insert+delete churn with value and structural indexes, counting B+tree
// descents per write pair.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "util/workload.h"

namespace xdb {
namespace bench {
namespace {

constexpr int kDocs = 64;
constexpr int kMatchEvery = 16;  // 4 of the 64 documents contain <t>
constexpr uint32_t kDepth = 48;
constexpr uint32_t kSiblingsPerLevel = 4;

// A deep <a> spine with off-path <x> bulk at every level; every
// kMatchEvery-th document carries a single <t> payload at the bottom. The
// full scan streams every node of every document; the structural scan reads
// one interval of <t> postings and rechecks only the few documents that
// actually match — the selective-descendant regime the index exists for.
std::string DeepDoc(int i) {
  std::string doc;
  for (uint32_t l = 0; l < kDepth; l++) {
    doc += "<a>";
    for (uint32_t s = 0; s < kSiblingsPerLevel; s++)
      doc += "<x>filler" + std::to_string(l) + "." + std::to_string(s) +
             "</x>";
  }
  if (i % kMatchEvery == 0) doc += "<t>payload" + std::to_string(i) + "</t>";
  for (uint32_t l = 0; l < kDepth; l++) doc += "</a>";
  return doc;
}

struct DeepFixture {
  explicit DeepFixture(bool with_structural_index) {
    EngineOptions eopts;
    eopts.in_memory = true;
    eopts.enable_wal = false;
    engine = Engine::Open(eopts).MoveValue();
    coll = engine->CreateCollection("deep").value();
    if (with_structural_index &&
        !coll->CreateStructuralIndex({"structure", ""}).ok())
      std::abort();
    for (int i = 0; i < kDocs; i++)
      if (!coll->InsertDocument(nullptr, DeepDoc(i)).ok()) std::abort();
  }

  std::unique_ptr<Engine> engine;
  Collection* coll = nullptr;
};

void RunDescendantQuery(benchmark::State& state, DeepFixture* fx,
                        ForceMethod force) {
  QueryOptions qopts;
  qopts.force = force;
  uint64_t results = 0;
  for (auto _ : state) {
    auto res = fx->coll->Query(nullptr, "//a//t", qopts);
    if (!res.ok()) std::abort();
    results = res.value().nodes.size();
    if (results != kDocs / kMatchEvery) std::abort();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["docs"] = kDocs;
  state.counters["depth"] = kDepth;
}

// //a//t via full scan: every iteration streams all kDocs documents,
// kDepth + 1 elements each, through QuickXScan.
void BM_DescendantQueryFullScan(benchmark::State& state) {
  static DeepFixture* fx = new DeepFixture(false);
  RunDescendantQuery(state, fx, ForceMethod::kScan);
}
BENCHMARK(BM_DescendantQueryFullScan);

// //a//t via the structural index: one range scan over the <t> postings
// (kDocs entries), then a per-anchor subtree recheck.
void BM_DescendantQueryStructural(benchmark::State& state) {
  static DeepFixture* fx = new DeepFixture(true);
  RunDescendantQuery(state, fx, ForceMethod::kStructural);
}
BENCHMARK(BM_DescendantQueryStructural);

// The cost-based auto plan on the same fixture; with collected statistics it
// should land on the structural scan by itself (the planner_test crossover
// pins this), so auto ~ structural is the expected read.
void BM_DescendantQueryAutoPlanned(benchmark::State& state) {
  static DeepFixture* fx = new DeepFixture(true);
  RunDescendantQuery(state, fx, ForceMethod::kAuto);
}
BENCHMARK(BM_DescendantQueryAutoPlanned);

// Maintenance overhead: per-document insert cost without / with a covering
// structural index. The delta between the two is the derive + B+tree insert
// work per document (kDepth + 1 entries each).
void RunInsert(benchmark::State& state, bool with_structural_index) {
  EngineOptions eopts;
  eopts.in_memory = true;
  eopts.enable_wal = false;
  auto engine = Engine::Open(eopts).MoveValue();
  Collection* coll = engine->CreateCollection("deep").value();
  if (with_structural_index &&
      !coll->CreateStructuralIndex({"structure", ""}).ok())
    std::abort();
  const std::string doc = DeepDoc(0);
  for (auto _ : state) {
    if (!coll->InsertDocument(nullptr, doc).ok()) std::abort();
  }
  state.counters["entries_per_doc"] =
      with_structural_index ? kDepth * (1 + kSiblingsPerLevel) + 1 : 0;
  state.SetItemsProcessed(state.iterations());
}

void BM_DeepInsertNoIndex(benchmark::State& state) {
  RunInsert(state, false);
}
BENCHMARK(BM_DeepInsertNoIndex);

void BM_DeepInsertStructuralIndex(benchmark::State& state) {
  RunInsert(state, true);
}
BENCHMARK(BM_DeepInsertStructuralIndex);

// Write-path maintenance at a steady collection size: each iteration
// inserts one catalog document and deletes the oldest of kLive, with 0, 1
// or 2 value indexes and without or with the all-names structural index.
// `btree_descents` is the exact work behind the time: root-to-leaf walks
// over all of the collection's trees per insert+delete pair.
void BM_DocumentChurn(benchmark::State& state) {
  const int value_indexes = static_cast<int>(state.range(0));
  const bool structural = state.range(1) != 0;
  constexpr int kLive = 32;
  Random rng(47);
  workload::CatalogOptions copts;
  copts.categories = 2;
  copts.products_per_category = 20;
  std::vector<std::string> docs;
  for (int i = 0; i < 16; i++)
    docs.push_back(workload::GenCatalogXml(&rng, copts));

  EngineOptions eopts;
  eopts.in_memory = true;
  eopts.enable_wal = false;
  auto engine = Engine::Open(eopts).MoveValue();
  Collection* coll = engine->CreateCollection("churn").value();
  const ValueIndexDef defs[] = {
      {"regprice", "/Catalog/Categories/Product/RegPrice",
       ValueType::kDecimal, 128},
      {"name", "/Catalog/Categories/Product/ProductName", ValueType::kString,
       64}};
  for (int i = 0; i < value_indexes; i++)
    if (!coll->CreateValueIndex(defs[i]).ok()) std::abort();
  if (structural && !coll->CreateStructuralIndex({"structure", ""}).ok())
    std::abort();
  size_t next = 0;
  auto insert = [&] {
    auto doc = coll->InsertDocument(nullptr, docs[next++ % docs.size()]);
    if (!doc.ok()) std::abort();
    return doc.value();
  };
  std::deque<uint64_t> live;
  for (int i = 0; i < kLive; i++) live.push_back(insert());

  const uint64_t descents_before =
      engine->MetricsSnapshot().Value("btree.descents");
  for (auto _ : state) {
    live.push_back(insert());
    if (!coll->DeleteDocument(nullptr, live.front()).ok()) std::abort();
    live.pop_front();
  }
  state.counters["btree_descents"] = benchmark::Counter(
      static_cast<double>(engine->MetricsSnapshot().Value("btree.descents") -
                          descents_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DocumentChurn)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"value_indexes", "structural"});

}  // namespace
}  // namespace bench
}  // namespace xdb
