// Planner regression suite: pins the cost-based access-path choice (and its
// EXPLAIN rendering, cardinality funnel included) at the statistics-driven
// crossover points the paper's Section 4.3 rules approximate:
//
//  1. Collection size  — tiny collections full-scan, grown ones probe the
//     index (the SAME query flips when only the stats move).
//  2. Selectivity      — a probe that matches everything costs more than the
//     scan it fails to avoid; distinct keys make the list path win.
//  3. Records per doc  — single-record documents evaluate whole docs off a
//     DocID list; multi-record documents anchor at node level (the old
//     "> 2 records/doc" rule emerges from the cost arithmetic).
//
// Every golden pins PlanText() exactly: access path, cost breakdown, stats
// line (epoch, docs, records/doc, nodes/doc), plan-cache state, and the
// postings -> candidates -> evaluated -> results funnel. If a cost-constant
// or estimator change moves a crossover, these tests are the tripwire.
#include <gtest/gtest.h>

#include <string>

#include "engine/engine.h"
#include "leak_check.h"

namespace xdb {
namespace {

std::unique_ptr<Engine> MemEngine() {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  return Engine::Open(opts).MoveValue();
}

std::string BookDoc(int i) {
  return "<lib><book><title>t" + std::to_string(i) + "</title></book></lib>";
}

std::string Explain(Collection* coll, const std::string& xpath) {
  QueryOptions o;
  o.explain = true;
  auto res = coll->Query(nullptr, xpath, o);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  if (!res.ok()) return "";
  return res.value().PlanText();
}

// Crossover 1: collection size. Two documents -> the full scan is cheaper
// than one B-tree descent; forty documents -> the index probe wins. Same
// query text, same index — only the statistics (and their epoch) changed.
TEST(PlannerCrossoverTest, CollectionSizeFlipsScanToDocList) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("books").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"title", "/lib/book/title", ValueType::kString, 128})
                  .ok());
  for (int i = 0; i < 2; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, BookDoc(i)).ok());

  EXPECT_EQ(Explain(coll, "/lib/book[title = \"t1\"]"),
            "query: /lib/book[title = \"t1\"]\n"
            "access path: full-scan (cost: full-scan=34* docid-list=41 "
            "nodeid-list=60; est postings=1 docs=1)\n"
            "stats: epoch=3 docs=2 records/doc=1.00 nodes/doc=4.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: yes\n"
            "cardinality: postings=0 candidate_docs=2 candidate_anchors=0"
            " docs_evaluated=2 records_fetched=2 results=1\n"
            "scan: events=18 instances=8 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");

  for (int i = 2; i < 40; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, BookDoc(i)).ok());

  EXPECT_EQ(Explain(coll, "/lib/book[title = \"t1\"]"),
            "query: /lib/book[title = \"t1\"]\n"
            "access path: docid-list (cost: full-scan=672 "
            "docid-list=41* nodeid-list=60; est postings=1 docs=1)\n"
            "  probe: /lib/book/title = ... index 'title' (exact)\n"
            "stats: epoch=41 docs=40 records/doc=1.00 nodes/doc=4.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: no\n"
            "cardinality: postings=1 candidate_docs=1 candidate_anchors=0"
            " docs_evaluated=1 records_fetched=1 results=1\n"
            "scan: events=9 instances=4 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");
}

// Crossover 2: selectivity. Same collection size, same query shape; an index
// whose every key is identical emits every posting (the probe saves
// nothing), while a distinct-keyed index emits one.
TEST(PlannerCrossoverTest, SelectivityFlipsDocListToScan) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("books").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"cat", "/lib/book/cat", ValueType::kString, 128})
                  .ok());
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"title", "/lib/book/title", ValueType::kString, 128})
                  .ok());
  for (int i = 0; i < 30; i++) {
    std::string doc = "<lib><book><title>t" + std::to_string(i) +
                      "</title><cat>fiction</cat></book></lib>";
    ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
  }

  // Every book is "fiction": the probe would emit all 30 postings and then
  // evaluate all 30 documents anyway — the cost model keeps the scan.
  EXPECT_EQ(Explain(coll, "/lib/book[cat = \"fiction\"]"),
            "query: /lib/book[cat = \"fiction\"]\n"
            "access path: full-scan (cost: full-scan=576* docid-list=602 "
            "nodeid-list=1106; est postings=30 docs=30)\n"
            "stats: epoch=32 docs=30 records/doc=1.00 nodes/doc=6.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: yes\n"
            "cardinality: postings=0 candidate_docs=30 candidate_anchors=0"
            " docs_evaluated=30 records_fetched=30 results=30\n"
            "scan: events=360 instances=120 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");

  // Distinct titles: one expected posting, one candidate document.
  EXPECT_EQ(Explain(coll, "/lib/book[title = \"t7\"]"),
            "query: /lib/book[title = \"t7\"]\n"
            "access path: docid-list (cost: full-scan=576 "
            "docid-list=43* nodeid-list=60; est postings=1 docs=1)\n"
            "  probe: /lib/book/title = ... index 'title' (exact)\n"
            "stats: epoch=32 docs=30 records/doc=1.00 nodes/doc=6.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: no\n"
            "cardinality: postings=1 candidate_docs=1 candidate_anchors=0"
            " docs_evaluated=1 records_fetched=1 results=1\n"
            "scan: events=12 instances=4 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");
}

// Crossover 3: records per document. Small documents (one record each) fetch
// whole candidates off the DocID list; fat documents packed into many
// records anchor at node level so only the matching subtree is fetched. The
// paper's "> 2 records per document" rule falls out of the arithmetic.
TEST(PlannerCrossoverTest, RecordsPerDocFlipsDocListToNodeList) {
  auto engine = MemEngine();
  CollectionOptions small_records;
  small_records.record_budget = 64;  // force multi-record packing
  Collection* thin = engine->CreateCollection("thin").value();
  Collection* fat = engine->CreateCollection("fat", small_records).value();
  for (Collection* coll : {thin, fat}) {
    ASSERT_TRUE(coll->CreateValueIndex(
                        {"title", "/lib/book/title", ValueType::kString, 128})
                    .ok());
    for (int i = 0; i < 40; i++) {
      std::string doc = "<lib><book><title>t" + std::to_string(i) +
                        "</title>";
      for (int j = 0; j < 6; j++)
        doc += "<blurb>some longer prose to fill the record budget " +
               std::to_string(j) + "</blurb>";
      doc += "</book></lib>";
      ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
    }
  }

  // Default budget: each document is one record; fetch-and-eval is cheap.
  EXPECT_EQ(Explain(thin, "/lib/book[title = \"t5\"]"),
            "query: /lib/book[title = \"t5\"]\n"
            "access path: docid-list (cost: full-scan=1248 "
            "docid-list=55* nodeid-list=60; est postings=1 docs=1)\n"
            "  probe: /lib/book/title = ... index 'title' (exact)\n"
            "stats: epoch=41 docs=40 records/doc=1.00 nodes/doc=16.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: no\n"
            "cardinality: postings=1 candidate_docs=1 candidate_anchors=0"
            " docs_evaluated=1 records_fetched=1 results=1\n"
            "scan: events=27 instances=4 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");

  // Tight budget: five records per document make whole-document evaluation
  // expensive; the NodeID list fetches the anchor subtree instead.
  EXPECT_EQ(Explain(fat, "/lib/book[title = \"t5\"]"),
            "query: /lib/book[title = \"t5\"]\n"
            "access path: nodeid-list (cost: full-scan=2208 docid-list=79 "
            "nodeid-list=60*; est postings=1 docs=1)\n"
            "  probe: /lib/book/title = ... index 'title' (exact)\n"
            "stats: epoch=41 docs=40 records/doc=5.00 nodes/doc=16.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: no  anchor step: 1\n"
            "cardinality: postings=1 candidate_docs=0 candidate_anchors=1"
            " docs_evaluated=0 records_fetched=4 results=1\n"
            "scan: events=23 instances=4 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");
}

// Crossover 4: structural index. A descendant query has no value predicate
// to probe, so historically it always full-scanned. With a covering
// structural index the cost model compares a structural scan (price per
// matching anchor) against the collection scan (price per stored node):
// a rare element in deep documents flips to structural-scan, while the
// spine element that IS most of the collection stays on the scan. Same
// index, same statistics — only the anchor-count estimate differs.
TEST(PlannerCrossoverTest, StructuralIndexFlipsScanForSelectiveDescendant) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("deep").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  for (int i = 0; i < 8; i++) {
    std::string doc;
    for (int l = 0; l < 50; l++) doc += "<a>";
    doc += "<t>payload" + std::to_string(i) + "</t>";
    for (int l = 0; l < 50; l++) doc += "</a>";
    ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
  }

  // One <t> per document, buried 50 levels down: eight interval probes
  // beat re-scanning 416 stored nodes.
  EXPECT_EQ(Explain(coll, "//t"),
            "query: //t\n"
            "access path: structural-scan (cost: full-scan=595 "
            "structural=312*; est anchors=8)\n"
            "  probe: structural element 't' ... index 'structure' "
            "(interval)\n"
            "stats: epoch=9 docs=8 records/doc=1.00 nodes/doc=52.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: yes\n"
            "cardinality: postings=8 candidate_docs=0 candidate_anchors=8"
            " docs_evaluated=0 records_fetched=8 results=8\n"
            "scan: events=24 instances=24 peak_live=3\n"
            "parallelism: 1 (chunks=1)\n");

  // <a> is 400 of the 416 elements: the estimator prices 400 anchor
  // rechecks and keeps the full scan.
  EXPECT_EQ(Explain(coll, "//a"),
            "query: //a\n"
            "access path: full-scan (cost: full-scan=595* "
            "structural=26680; est anchors=400)\n"
            "stats: epoch=9 docs=8 records/doc=1.00 nodes/doc=52.00 "
            "(cost-based)\n"
            "plan cache: miss\n"
            "recheck: yes\n"
            "cardinality: postings=0 candidate_docs=8 candidate_anchors=0"
            " docs_evaluated=8 records_fetched=8 results=400\n"
            "scan: events=840 instances=408 peak_live=51\n"
            "parallelism: 1 (chunks=1)\n");

  // The heuristic planner predates the cost model and stays conservative:
  // it never chooses the structural path on its own.
  QueryOptions heur;
  heur.explain = true;
  heur.use_heuristic_planner = true;
  auto h = coll->Query(nullptr, "//t", heur);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value().profile.access_method, "full-scan");
  EXPECT_EQ(h.value().PlanText().find("structural"),
            std::string::npos);

  // Whatever the access path, the answer is the scan's answer.
  QueryOptions forced;
  forced.force = ForceMethod::kStructural;
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto a = coll->Query(nullptr, "//t", forced);
  auto b = coll->Query(nullptr, "//t", scan);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size());
  for (size_t i = 0; i < a.value().nodes.size(); i++) {
    EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id);
    EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id);
  }
}

// A descendant-branch conjunct (predicate path with strip_levels == -1,
// e.g. //book[.//price = 7]) used to disqualify the node-level plan: the
// probe's postings are <price> nodes, not <book> anchors. With a covering
// structural index the planner now keeps the node plan and joins each
// posting upward to its enclosing anchor, a node-ID prefix test against
// the structural entries. Pinned via the forced node plan so the golden
// stays stable as cost constants move.
TEST(PlannerCrossoverTest, DescendantConjunctAnchorsThroughStructuralIndex) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("shop").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  ASSERT_TRUE(
      coll->CreateValueIndex({"price", "//price", ValueType::kDouble, 128})
          .ok());
  for (int i = 0; i < 12; i++) {
    std::string doc = "<shop><book><info><price>" + std::to_string(i) +
                      "</price></info><title>b" + std::to_string(i) +
                      "</title></book></shop>";
    ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
  }

  QueryOptions o;
  o.explain = true;
  o.force = ForceMethod::kNodeIdList;
  auto res = coll->Query(nullptr, "//book[.//price = 7]", o);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().PlanText(),
            "query: //book[self::node()//price = 7.000000]\n"
            "access path: nodeid-list (forced)\n"
            "  probe: //book//price = ... index 'price' (filtering)\n"
            "  probe: structural element 'book' ... index 'structure' "
            "(interval, anchor join)\n"
            "  combine: ANDing\n"
            "stats: epoch=14 docs=12 records/doc=1.00 nodes/doc=7.00 "
            "(heuristic)\n"
            "plan cache: miss\n"
            "recheck: yes  anchor step: 0\n"
            "cardinality: postings=13 candidate_docs=0 candidate_anchors=1"
            " docs_evaluated=0 records_fetched=1 results=1\n"
            "scan: events=10 instances=5 peak_live=5\n"
            "parallelism: 1 (chunks=1)\n");

  // Anchored plan ≡ scan, node for node, across every match.
  for (int v = 0; v < 12; v++) {
    std::string q = "//book[.//price = " + std::to_string(v) + "]";
    QueryOptions forced;
    forced.force = ForceMethod::kNodeIdList;
    QueryOptions scan;
    scan.force = ForceMethod::kScan;
    auto a = coll->Query(nullptr, q, forced);
    auto b = coll->Query(nullptr, q, scan);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size()) << q;
    for (size_t i = 0; i < a.value().nodes.size(); i++) {
      EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id) << q;
      EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id) << q;
    }
  }
}

// The answers must not depend on the planner flavor: force the heuristic on
// the size-crossover collection and compare node-for-node.
TEST(PlannerCrossoverTest, CostBasedAndHeuristicAgree) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("books").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"title", "/lib/book/title", ValueType::kString, 128})
                  .ok());
  for (int i = 0; i < 25; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, BookDoc(i % 7)).ok());
  for (const char* q :
       {"/lib/book[title = \"t1\"]", "/lib/book[title = \"t9\"]",
        "/lib/book[title > \"t3\"]", "/lib/book/title"}) {
    QueryOptions cost;
    QueryOptions heur;
    heur.use_heuristic_planner = true;
    auto a = coll->Query(nullptr, q, cost);
    auto b = coll->Query(nullptr, q, heur);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size()) << q;
    for (size_t i = 0; i < a.value().nodes.size(); i++) {
      EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id) << q;
      EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id) << q;
    }
  }
}

// A served cached plan renders "plan cache: hit" and attributes zero
// planning time — the hit path never parses, prices, or compiles.
TEST(PlannerCrossoverTest, CacheHitGolden) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("books").value();
  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, BookDoc(i)).ok());
  QueryOptions o;
  o.explain = true;
  auto first = coll->Query(nullptr, "/lib/book/title", o).MoveValue();
  EXPECT_EQ(first.profile.plan_cache, "miss");
  auto second = coll->Query(nullptr, "/lib/book/title", o).MoveValue();
  EXPECT_EQ(second.profile.plan_cache, "hit");
  ASSERT_FALSE(second.profile.phases.empty());
  EXPECT_EQ(second.profile.phases[0].name, "plan");
  EXPECT_EQ(second.profile.phases[0].wall_us, 0u);
  EXPECT_EQ(first.nodes.size(), second.nodes.size());
}

}  // namespace
}  // namespace xdb
