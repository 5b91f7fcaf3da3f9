// Catalog search: the paper's running example end to end.
//
// Registers a schema (compiled to the binary validation format), loads a
// product catalog with validation, creates the two XPath value indexes of
// Table 2, and runs the three Table-2 queries under every access method,
// printing each plan's explain line and work counters.
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "engine/engine.h"
#include "util/workload.h"

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

void Must(Status st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

void RunAllMethods(Collection* catalog, const char* query) {
  std::printf("\nQuery: %s\n", query);
  struct {
    ForceMethod method;
    const char* label;
  } methods[] = {
      {ForceMethod::kScan, "full scan   "},
      {ForceMethod::kDocIdList, "docid level "},
      {ForceMethod::kNodeIdList, "nodeid level"},
      {ForceMethod::kAuto, "auto        "},
  };
  for (const auto& m : methods) {
    QueryOptions o;
    o.force = m.method;
    o.explain = m.method == ForceMethod::kAuto;
    auto res = Unwrap(catalog->Query(nullptr, query, o), "query");
    std::printf(
        "  %s -> %3zu results | postings=%llu docs=%llu anchors=%llu "
        "evaluated=%llu records=%llu\n",
        m.label, res.nodes.size(),
        static_cast<unsigned long long>(res.stats.index_postings),
        static_cast<unsigned long long>(res.stats.candidate_docs),
        static_cast<unsigned long long>(res.stats.candidate_anchors),
        static_cast<unsigned long long>(res.stats.docs_evaluated),
        static_cast<unsigned long long>(res.stats.records_fetched));
    if (o.explain)
      std::printf("  planner chose:\n%s", res.PlanText().c_str());
  }
}

int main() {
  EngineOptions options;
  options.in_memory = true;
  options.enable_wal = false;
  auto engine = Unwrap(Engine::Open(options), "open engine");

  // Schema registration (Figure 4): compiled once, stored in the catalog,
  // executed by the validation VM on every insert.
  Must(engine->RegisterSchema("catalog", workload::CatalogSchemaText()),
       "register schema");

  CollectionOptions copts;
  copts.schema = "catalog";
  copts.record_budget = 1200;  // multi-record documents
  Collection* catalog =
      Unwrap(engine->CreateCollection("catalog", copts), "create collection");

  // The two indexes of Table 2.
  Must(catalog->CreateValueIndex({"regprice",
                                  "/Catalog/Categories/Product/RegPrice",
                                  ValueType::kDecimal, 128}),
       "create RegPrice index");
  Must(catalog->CreateValueIndex(
           {"discount", "//Discount", ValueType::kDecimal, 128}),
       "create Discount index");

  // Load validated documents.
  Random rng(2026);
  workload::CatalogOptions wopts;
  wopts.categories = 2;
  wopts.products_per_category = 25;
  for (int i = 0; i < 50; i++) {
    Unwrap(catalog->InsertDocument(nullptr,
                                   workload::GenCatalogXml(&rng, wopts)),
           "insert catalog document");
  }
  std::printf("loaded %llu validated catalog documents\n",
              static_cast<unsigned long long>(
                  Unwrap(catalog->DocCount(), "count")));

  // A malformed document is rejected by the validation VM.
  auto bad = catalog->InsertDocument(
      nullptr, "<Catalog><Categories><Product id=\"x\"><RegPrice>10"
               "</RegPrice></Product></Categories></Catalog>");
  std::printf("invalid document rejected: %s\n",
              bad.status().ToString().c_str());

  // Table 2, case 1: exact index match.
  RunAllMethods(catalog, "/Catalog/Categories/Product[RegPrice > 400]");
  // Table 2, case 2: containment index (//Discount) used for filtering.
  RunAllMethods(catalog, "/Catalog/Categories/Product[Discount > 0.4]");
  // Table 2, case 3: ANDing two indexes.
  RunAllMethods(catalog,
                "/Catalog/Categories/Product[RegPrice > 300 and "
                "Discount > 0.25]");
  // A residual path below the anchor.
  RunAllMethods(catalog,
                "/Catalog/Categories/Product[RegPrice > 450]/ProductName");
  return 0;
}
