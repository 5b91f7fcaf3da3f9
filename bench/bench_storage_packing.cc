// E1 — Section 3.1's storage cost model.
//
// Paper claim: with p nodes packed per record, storage is about
// k(n + o/p + n_p) instead of k(n + o) for one-node-per-record, and the
// NodeID index needs <= 2k/p entries instead of k. Sweep the record budget
// (the packing-factor knob) and report bytes and entry counts for packed
// storage vs the shredded baseline.
//
// E20 — page-checksum cost: BM_ChecksumReadOverhead (cold-pool scan, v2 vs
// v1 pages) and BM_Crc32 (raw checksum throughput).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/coding.h"

namespace xdb {
namespace bench {
namespace {

std::string MakeDoc(uint32_t products) {
  Random rng(7);
  workload::CatalogOptions opts;
  opts.categories = 4;
  opts.products_per_category = products / 4;
  return workload::GenCatalogXml(&rng, opts);
}

void BM_PackedStorage(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  std::string xml = MakeDoc(400);
  NameDictionary dict;

  uint64_t records = 0, nodes = 0, record_bytes = 0, entries = 0;
  for (auto _ : state) {
    StorageStack st;
    records = StorePacked(&st, &dict, 1, xml, budget);
    benchmark::DoNotOptimize(records);
    state.PauseTiming();
    // Count stored nodes and bytes from the record manager.
    nodes = 0;
    record_bytes = 0;
    Status s = st.records->ScanAll([&](Rid, Slice data) -> Status {
      record_bytes += data.size();
      XDB_ASSIGN_OR_RETURN(uint64_t n, CountRecordNodes(data));
      nodes += n;
      return Status::OK();
    });
    if (!s.ok()) std::abort();
    entries = st.tree->ComputeStats().value().entries;
    state.ResumeTiming();
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["p_nodes_per_record"] =
      static_cast<double>(nodes) / static_cast<double>(records);
  state.counters["record_bytes"] = static_cast<double>(record_bytes);
  state.counters["bytes_per_node"] =
      static_cast<double>(record_bytes) / static_cast<double>(nodes);
  state.counters["index_entries"] = static_cast<double>(entries);
  state.counters["entries_per_node"] =
      static_cast<double>(entries) / static_cast<double>(nodes);
}
BENCHMARK(BM_PackedStorage)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_ShreddedStorage(benchmark::State& state) {
  std::string xml = MakeDoc(400);
  NameDictionary dict;
  std::string tokens = ParseToTokens(&dict, xml);

  uint64_t nodes = 0, record_bytes = 0, entries = 0;
  for (auto _ : state) {
    StorageStack st;
    ShreddedStore store(st.records.get(), st.tree.get());
    uint64_t count = 0;
    if (!store.InsertDocument(1, tokens, &count).ok()) std::abort();
    benchmark::DoNotOptimize(count);
    state.PauseTiming();
    nodes = count;
    record_bytes = 0;
    Status s = st.records->ScanAll([&](Rid, Slice data) -> Status {
      record_bytes += data.size();
      return Status::OK();
    });
    if (!s.ok()) std::abort();
    entries = st.tree->ComputeStats().value().entries;
    state.ResumeTiming();
  }
  state.counters["records"] = static_cast<double>(nodes);  // one per node
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["p_nodes_per_record"] = 1.0;
  state.counters["record_bytes"] = static_cast<double>(record_bytes);
  state.counters["bytes_per_node"] =
      static_cast<double>(record_bytes) / static_cast<double>(nodes);
  state.counters["index_entries"] = static_cast<double>(entries);
  state.counters["entries_per_node"] = 1.0;
}
BENCHMARK(BM_ShreddedStorage)->Unit(benchmark::kMillisecond);

// Page-level storage footprint (includes slot/page overhead o of the model).
void BM_PackedPageFootprint(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  std::string xml = MakeDoc(400);
  NameDictionary dict;
  uint64_t pages = 0, index_pages = 0;
  for (auto _ : state) {
    StorageStack st;
    StorePacked(&st, &dict, 1, xml, budget);
    pages = st.records->StorageBytes() / st.bm->page_size();
    auto stats = st.tree->ComputeStats().value();
    index_pages = stats.leaf_pages + stats.internal_pages;
    benchmark::DoNotOptimize(pages);
  }
  state.counters["data_pages"] = static_cast<double>(pages);
  state.counters["index_pages"] = static_cast<double>(index_pages);
  state.counters["total_pages"] = static_cast<double>(pages + index_pages);
}
BENCHMARK(BM_PackedPageFootprint)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ShreddedPageFootprint(benchmark::State& state) {
  std::string xml = MakeDoc(400);
  NameDictionary dict;
  std::string tokens = ParseToTokens(&dict, xml);
  uint64_t pages = 0, index_pages = 0;
  for (auto _ : state) {
    StorageStack st;
    ShreddedStore store(st.records.get(), st.tree.get());
    uint64_t count;
    if (!store.InsertDocument(1, tokens, &count).ok()) std::abort();
    pages = st.records->StorageBytes() / st.bm->page_size();
    auto stats = st.tree->ComputeStats().value();
    index_pages = stats.leaf_pages + stats.internal_pages;
    benchmark::DoNotOptimize(pages);
  }
  state.counters["data_pages"] = static_cast<double>(pages);
  state.counters["index_pages"] = static_cast<double>(index_pages);
  state.counters["total_pages"] = static_cast<double>(pages + index_pages);
}
BENCHMARK(BM_ShreddedPageFootprint)->Unit(benchmark::kMillisecond);

// Checksum overhead on the read path: the same packed store scanned through
// a cold (tiny) buffer pool, so every fetch is a miss that re-reads the page
// — with per-page CRC verification (format v2, arg=1) vs without (legacy v1,
// arg=0). In-memory space, so the delta is pure CRC cost.
void BM_ChecksumReadOverhead(benchmark::State& state) {
  const bool checksums = state.range(0) != 0;
  std::string xml = MakeDoc(400);
  NameDictionary dict;

  TableSpaceOptions opts;
  opts.in_memory = true;
  opts.page_checksums = checksums;
  auto space = TableSpace::Create("", opts).MoveValue();
  uint64_t record_bytes = 0;
  {
    // Build once with a warm pool, then flush so scans hit "disk".
    BufferManager build_bm(space.get(), 4096);
    RecordManager build_records(&build_bm);
    auto tree = BTree::Create(&build_bm).MoveValue();
    NodeIdIndex index(tree.get());
    Parser parser(&dict);
    TokenWriter tokens;
    if (!parser.Parse(xml, &tokens).ok()) std::abort();
    RecordBuilderOptions bopts;
    bopts.record_budget = 1024;
    RecordBuilder builder(bopts);
    Status s =
        builder.Build(tokens.data(), [&](PackedRecordOut&& rec) -> Status {
          XDB_ASSIGN_OR_RETURN(Rid rid, build_records.Insert(rec.bytes));
          return index.AddRecord(1, rec.bytes, rid);
        });
    if (!s.ok() || !build_bm.FlushAll().ok()) std::abort();
  }

  for (auto _ : state) {
    BufferManager bm(space.get(), 8);  // cold pool: every fetch verifies
    RecordManager records(&bm);
    if (!records.Recover().ok()) std::abort();
    record_bytes = 0;
    Status s = records.ScanAll([&](Rid, Slice data) -> Status {
      record_bytes += data.size();
      return Status::OK();
    });
    if (!s.ok()) std::abort();
    benchmark::DoNotOptimize(record_bytes);
  }
  state.counters["format_v"] = checksums ? 2.0 : 1.0;
  state.counters["pages"] = static_cast<double>(space->page_count());
  state.counters["record_bytes"] = static_cast<double>(record_bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(space->page_count()) *
                          space->page_size());
}
BENCHMARK(BM_ChecksumReadOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Raw Crc32 throughput — the checksum behind page verify and stamp, WAL
// records, shipped segments and the stats file — over a small record, one
// 4 KiB page and a 1 MiB buffer.
void BM_Crc32(benchmark::State& state) {
  std::string buf(static_cast<size_t>(state.range(0)), '\0');
  Random rng(11);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (auto _ : state)
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

}  // namespace
}  // namespace bench
}  // namespace xdb
