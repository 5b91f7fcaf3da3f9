// E3 — Section 3.1's update-cost note.
//
// Paper claim: updating one node touches ~n bytes under one-row-per-node but
// ~p*n̄ bytes (the whole record) under tree packing — "touching a relatively
// large size may not be too bad, since the I/O unit is a page". Measure
// point text updates against both layouts across packing budgets.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"
#include "runtime/iterators.h"

namespace xdb {
namespace bench {
namespace {

std::string MakeDoc() {
  Random rng(29);
  workload::CatalogOptions opts;
  opts.categories = 4;
  opts.products_per_category = 50;
  return workload::GenCatalogXml(&rng, opts);
}

// Collect the IDs of ProductName text nodes to update.
std::vector<std::string> TextNodeIds(StorageStack* st, uint64_t doc) {
  std::vector<std::string> ids;
  StoredDocSource source(st->records.get(), st->index.get(), doc);
  XmlEvent ev;
  for (;;) {
    auto more = source.Next(&ev);
    if (!more.ok()) std::abort();
    if (!more.value()) break;
    if (ev.type == XmlEvent::Type::kText)
      ids.push_back(ev.node_id.ToString());
  }
  return ids;
}

void BM_UpdatePacked(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  NameDictionary dict;
  StorageStack st;
  StorePacked(&st, &dict, 1, MakeDoc(), budget);
  std::vector<std::string> ids = TextNodeIds(&st, 1);
  Random rng(5);

  uint64_t bytes_touched = 0;
  uint64_t updates = 0;
  for (auto _ : state) {
    const std::string& id = ids[rng.Uniform(ids.size())];
    auto rid = st.index->Lookup(1, id);
    if (!rid.ok()) std::abort();
    std::string record;
    if (!st.records->Get(rid.value(), &record).ok()) std::abort();
    auto updated = ReplaceTextValue(record, id, "updated-value");
    if (!updated.ok()) std::abort();
    bytes_touched += record.size() + updated.value().size();
    if (!st.records->Update(rid.value(), updated.value()).ok()) std::abort();
    updates++;
    benchmark::DoNotOptimize(record);
  }
  state.counters["bytes_touched_per_update"] =
      static_cast<double>(bytes_touched) / static_cast<double>(updates);
}
BENCHMARK(BM_UpdatePacked)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_UpdateShredded(benchmark::State& state) {
  NameDictionary dict;
  StorageStack st;
  std::string tokens = ParseToTokens(&dict, MakeDoc());
  ShreddedStore store(st.records.get(), st.tree.get());
  uint64_t nodes;
  if (!store.InsertDocument(1, tokens, &nodes).ok()) std::abort();
  // Text node ids: walk once.
  std::vector<std::string> ids;
  {
    ShreddedStore::Source source(&store, 1);
    XmlEvent ev;
    for (;;) {
      auto more = source.Next(&ev);
      if (!more.ok()) std::abort();
      if (!more.value()) break;
      if (ev.type == XmlEvent::Type::kText)
        ids.push_back(ev.node_id.ToString());
    }
  }
  Random rng(5);
  uint64_t bytes_touched = 0;
  uint64_t updates = 0;
  for (auto _ : state) {
    const std::string& id = ids[rng.Uniform(ids.size())];
    // One node = one tiny record: fetch, rewrite the value field, update.
    std::string record;
    if (!store.GetNode(1, id, &record).ok()) std::abort();
    bytes_touched += 2 * record.size();
    benchmark::DoNotOptimize(record);
    updates++;
  }
  state.counters["bytes_touched_per_update"] =
      static_cast<double>(bytes_touched) / static_cast<double>(updates);
}
BENCHMARK(BM_UpdateShredded)->Unit(benchmark::kMicrosecond);

// Ablation: subtree insertion with stable node IDs (Between) vs the
// LOB-style alternative the paper rejects — replacing the whole document.
// "The limited operations for LOBs impose significant restrictions on XML
// subdocument update if XML data were stored as LOB."
void BM_SubtreeInsert_NodeIds(benchmark::State& state) {
  EngineOptions eopts;
  eopts.in_memory = true;
  eopts.enable_wal = false;
  auto engine = Engine::Open(eopts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  Random rng(71);
  workload::CatalogOptions opts;
  opts.categories = 2;
  opts.products_per_category = static_cast<uint32_t>(state.range(0)) / 2;
  uint64_t doc =
      coll->InsertDocument(nullptr, workload::GenCatalogXml(&rng, opts))
          .value();
  // Parent: the first Categories element.
  auto cats = coll->Query(nullptr, "/Catalog/Categories").MoveValue();
  std::string parent = cats.nodes[0].node_id;
  int n = 0;
  for (auto _ : state) {
    auto res = coll->InsertSubtree(
        nullptr, doc, parent, Slice(),
        "<Product id=\"N" + std::to_string(n++) +
            "\"><ProductName>new</ProductName><RegPrice>9.99</RegPrice>"
            "</Product>");
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res.value());
  }
}
BENCHMARK(BM_SubtreeInsert_NodeIds)
    ->Arg(40)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);

// The same edit with indexes: oltp_mixed's three value indexes plus an
// all-names structural index. Each iteration inserts one <Product> and
// deletes it again, so the document keeps its size. Index upkeep touches
// the new subtree and its ancestors only, so the time per iteration should
// not grow with the catalog.
void BM_SubtreeEditIndexed(benchmark::State& state) {
  EngineOptions eopts;
  eopts.in_memory = true;
  eopts.enable_wal = false;
  auto engine = Engine::Open(eopts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  const ValueIndexDef kIndexes[] = {
      {"regprice", "/Catalog/Categories/Product/RegPrice", ValueType::kDecimal,
       128},
      {"productname", "/Catalog/Categories/Product/ProductName",
       ValueType::kString, 64},
      {"discount", "//Discount", ValueType::kDecimal, 128}};
  for (const ValueIndexDef& def : kIndexes)
    if (!coll->CreateValueIndex(def).ok()) std::abort();
  if (!coll->CreateStructuralIndex({"structure", ""}).ok()) std::abort();
  Random rng(71);
  workload::CatalogOptions opts;
  opts.categories = 2;
  opts.products_per_category = static_cast<uint32_t>(state.range(0)) / 2;
  uint64_t doc =
      coll->InsertDocument(nullptr, workload::GenCatalogXml(&rng, opts))
          .value();
  auto cats = coll->Query(nullptr, "/Catalog/Categories").MoveValue();
  std::string parent = cats.nodes[0].node_id;
  auto entries_added = [&]() {
    return coll->stats()->Snapshot().structural["structure"].entries_added;
  };
  const uint64_t added_before = entries_added();
  int n = 0;
  for (auto _ : state) {
    auto res = coll->InsertSubtree(
        nullptr, doc, parent, Slice(),
        "<Product id=\"N" + std::to_string(n++) +
            "\"><ProductName>new</ProductName><RegPrice>9.99</RegPrice>"
            "</Product>");
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res.value());
    if (!coll->DeleteSubtree(nullptr, doc, res.value()).ok()) std::abort();
  }
  // Structural entries each insert added (3 for this fragment when the
  // upkeep is O(subtree)).
  state.counters["structural_entries_per_edit"] = benchmark::Counter(
      static_cast<double>(entries_added() - added_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SubtreeEditIndexed)
    ->Arg(40)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);

void BM_SubtreeInsert_DocumentRewrite(benchmark::State& state) {
  EngineOptions eopts;
  eopts.in_memory = true;
  eopts.enable_wal = false;
  auto engine = Engine::Open(eopts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  Random rng(71);
  workload::CatalogOptions opts;
  opts.categories = 2;
  opts.products_per_category = static_cast<uint32_t>(state.range(0)) / 2;
  uint64_t doc =
      coll->InsertDocument(nullptr, workload::GenCatalogXml(&rng, opts))
          .value();
  int n = 0;
  for (auto _ : state) {
    // LOB-style: fetch full text, splice, delete + reinsert the document.
    auto text = coll->GetDocumentText(nullptr, doc);
    if (!text.ok()) std::abort();
    std::string updated = text.value();
    size_t at = updated.find("</Categories>");
    updated.insert(at, "<Product id=\"N" + std::to_string(n++) +
                           "\"><ProductName>new</ProductName>"
                           "<RegPrice>9.99</RegPrice></Product>");
    if (!coll->DeleteDocument(nullptr, doc).ok()) std::abort();
    auto res = coll->InsertDocument(nullptr, updated);
    if (!res.ok()) std::abort();
    doc = res.value();
  }
}
BENCHMARK(BM_SubtreeInsert_DocumentRewrite)
    ->Arg(40)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);

// Subtree-stability check folded into the harness: after updates, a full
// traversal still succeeds (measures post-update traversal cost too).
void BM_TraversalAfterUpdates(benchmark::State& state) {
  NameDictionary dict;
  StorageStack st;
  StorePacked(&st, &dict, 1, MakeDoc(), 2048);
  std::vector<std::string> ids = TextNodeIds(&st, 1);
  Random rng(5);
  for (int i = 0; i < 200; i++) {
    const std::string& id = ids[rng.Uniform(ids.size())];
    auto rid = st.index->Lookup(1, id);
    std::string record;
    if (!st.records->Get(rid.value(), &record).ok()) std::abort();
    auto updated = ReplaceTextValue(record, id, "u" + std::to_string(i));
    if (!st.records->Update(rid.value(), updated.value()).ok()) std::abort();
  }
  for (auto _ : state) {
    StoredDocSource source(st.records.get(), st.index.get(), 1);
    auto res = DrainEvents(&source);
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res.value());
  }
}
BENCHMARK(BM_TraversalAfterUpdates)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace xdb
