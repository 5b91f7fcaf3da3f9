// E2 — Section 3.1's traversal cost model.
//
// Paper claim: traversing a k-node tree costs (k-1)*t with one row per node
// (one index probe + record fetch per node) but about k*t/p with p nodes
// packed per record — the speedup ratio approaches 1/p. Sweep the packing
// budget and compare full document-order traversals.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "runtime/iterators.h"

namespace xdb {
namespace bench {
namespace {

std::string MakeDoc(uint32_t products) {
  Random rng(13);
  workload::CatalogOptions opts;
  opts.categories = 4;
  opts.products_per_category = products / 4;
  return workload::GenCatalogXml(&rng, opts);
}

void BM_TraversePacked(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  NameDictionary dict;
  StorageStack st;
  uint64_t records = StorePacked(&st, &dict, 1, MakeDoc(400), budget);

  uint64_t events = 0, fetched = 0, descents = 0;
  for (auto _ : state) {
    const uint64_t before = st.descents.value();
    StoredDocSource source(st.records.get(), st.index.get(), 1);
    auto res = DrainEvents(&source);
    if (!res.ok()) std::abort();
    events = res.value();
    fetched = source.records_fetched();
    descents = st.descents.value() - before;
    benchmark::DoNotOptimize(events);
  }
  state.counters["records_in_doc"] = static_cast<double>(records);
  state.counters["events"] = static_cast<double>(events);
  state.counters["records_fetched"] = static_cast<double>(fetched);
  // NodeID index descents per traversal: one listing, however many
  // proxies the document has.
  state.counters["descents"] = static_cast<double>(descents);
  state.SetItemsProcessed(static_cast<int64_t>(events) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraversePacked)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

// state.range(0): 1 = per-node index probe (the paper's per-node join t);
// 0 = sequential leaf scan (shredded's best case).
void BM_TraverseShredded(benchmark::State& state) {
  NameDictionary dict;
  StorageStack st;
  std::string tokens = ParseToTokens(&dict, MakeDoc(400));
  ShreddedStore store(st.records.get(), st.tree.get());
  uint64_t nodes;
  if (!store.InsertDocument(1, tokens, &nodes).ok()) std::abort();

  uint64_t events = 0, fetched = 0;
  for (auto _ : state) {
    ShreddedStore::Source source(&store, 1,
                                 /*reseek_per_node=*/state.range(0) != 0);
    auto res = DrainEvents(&source);
    if (!res.ok()) std::abort();
    events = res.value();
    fetched = source.records_fetched();
    benchmark::DoNotOptimize(events);
  }
  state.counters["records_in_doc"] = static_cast<double>(nodes);
  state.counters["events"] = static_cast<double>(events);
  state.counters["records_fetched"] = static_cast<double>(fetched);
  state.SetItemsProcessed(static_cast<int64_t>(events) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraverseShredded)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Document size sweep at a fixed budget: traversal scales linearly for both,
// but the constant differs by ~p.
void BM_TraversePackedBySize(benchmark::State& state) {
  const uint32_t products = static_cast<uint32_t>(state.range(0));
  NameDictionary dict;
  StorageStack st;
  StorePacked(&st, &dict, 1, MakeDoc(products), 3000);
  for (auto _ : state) {
    StoredDocSource source(st.records.get(), st.index.get(), 1);
    auto res = DrainEvents(&source);
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res.value());
  }
}
BENCHMARK(BM_TraversePackedBySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_TraverseShreddedBySize(benchmark::State& state) {
  const uint32_t products = static_cast<uint32_t>(state.range(0));
  NameDictionary dict;
  StorageStack st;
  std::string tokens = ParseToTokens(&dict, MakeDoc(products));
  ShreddedStore store(st.records.get(), st.tree.get());
  uint64_t nodes;
  if (!store.InsertDocument(1, tokens, &nodes).ok()) std::abort();
  for (auto _ : state) {
    ShreddedStore::Source source(&store, 1, /*reseek_per_node=*/true);
    auto res = DrainEvents(&source);
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res.value());
  }
}
BENCHMARK(BM_TraverseShreddedBySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace xdb
