// End-to-end engine tests: collections, validated inserts, all access
// methods agreeing with each other, value-index maintenance under updates,
// MVCC snapshot isolation, persistence, and WAL crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/random.h"
#include "engine/engine.h"
#include "leak_check.h"
#include "engine/xml_handle.h"
#include "pack/packed_record.h"
#include "pack/record_builder.h"
#include "testing/differential.h"
#include "util/workload.h"
#include "xml/node_id.h"

namespace xdb {
namespace {

std::unique_ptr<Engine> MemEngine() {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  return Engine::Open(opts).MoveValue();
}

std::string RenderIds(const NodeSequence& seq) {
  std::string out;
  for (const auto& r : seq) {
    out += std::to_string(r.doc_id);
    out += ":";
    out += nodeid::ToString(r.node_id);
    out += " ";
  }
  return out;
}

TEST(EngineTest, InsertAndReadBack) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  uint64_t doc =
      coll->InsertDocument(nullptr, "<note><to>you</to></note>").value();
  EXPECT_EQ(doc, 1u);
  std::string text = coll->GetDocumentText(nullptr, doc).value();
  EXPECT_EQ(text, "<note><to>you</to></note>");
  EXPECT_EQ(coll->DocCount().value(), 1u);
  EXPECT_TRUE(coll->GetDocumentText(nullptr, 99).status().IsNotFound());
}

TEST(EngineTest, ParseErrorsSurface) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  EXPECT_EQ(coll->InsertDocument(nullptr, "<broken>").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(coll->DocCount().value(), 0u);
}

TEST(EngineTest, SchemaValidatedCollection) {
  auto engine = MemEngine();
  ASSERT_TRUE(
      engine->RegisterSchema("catalog", workload::CatalogSchemaText()).ok());
  CollectionOptions copts;
  copts.schema = "catalog";
  Collection* coll = engine->CreateCollection("cat", copts).value();
  Random rng(1);
  std::string good = workload::GenCatalogXml(&rng, {});
  EXPECT_TRUE(coll->InsertDocument(nullptr, good).ok());
  EXPECT_EQ(coll->InsertDocument(nullptr, "<Wrong/>").status().code(),
            Status::Code::kValidationError);
  // Unregistered schema is rejected at collection creation.
  CollectionOptions bad;
  bad.schema = "nope";
  EXPECT_FALSE(engine->CreateCollection("c2", bad).ok());
}

TEST(EngineTest, DeleteDocumentCleansEverything) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"pidx", "/cat/p/price", ValueType::kDouble, 128})
                  .ok());
  uint64_t d1 =
      coll->InsertDocument(nullptr, "<cat><p><price>10</price></p></cat>")
          .value();
  uint64_t d2 =
      coll->InsertDocument(nullptr, "<cat><p><price>20</price></p></cat>")
          .value();
  ASSERT_TRUE(coll->DeleteDocument(nullptr, d1).ok());
  EXPECT_TRUE(coll->GetDocumentText(nullptr, d1).status().IsNotFound());
  EXPECT_TRUE(coll->DeleteDocument(nullptr, d1).IsNotFound());
  // The other document survives, and the index no longer returns d1.
  auto res = coll->Query(nullptr, "/cat/p[price > 0]").MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);
  EXPECT_EQ(res.nodes[0].doc_id, d2);
}

// An index created before its names exist. Its path is first compiled for
// a document without `b`, while the dictionary does not know the name, so
// the compiled path must be redone once `b` appears; kept as first
// compiled, it would never post the second document.
TEST(EngineTest, IndexPathNamesUnknownAtCreate) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex({"b", "/a/b"}).ok());
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><c/></a>").ok());
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto scanned = coll->Query(nullptr, "/a[b = 1]", scan).MoveValue();
  ASSERT_EQ(scanned.nodes.size(), 1u);
  for (ForceMethod force : {ForceMethod::kAuto, ForceMethod::kDocIdList,
                            ForceMethod::kNodeIdList}) {
    QueryOptions options;
    options.force = force;
    auto planned = coll->Query(nullptr, "/a[b = 1]", options).MoveValue();
    EXPECT_EQ(RenderIds(planned.nodes), RenderIds(scanned.nodes))
        << static_cast<int>(force);
  }
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
}

// A value type outside kString..kDate has no key encoding: the index would
// reject every key and stay silently empty, so the DDL fails instead.
TEST(EngineTest, UnknownValueTypeRejected) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  for (int type : {0, 9}) {
    Status st = coll->CreateValueIndex(
        {"bad", "/a/b", static_cast<ValueType>(type), 64});
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
        << type << ": " << st.ToString();
    EXPECT_EQ(coll->FindValueIndex("bad"), nullptr) << type;
  }
  EXPECT_TRUE(
      coll->CreateValueIndex({"ok", "/a/b", ValueType::kDate, 64}).ok());
}

class QueryMethodsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = MemEngine();
    CollectionOptions copts;
    copts.record_budget = 400;  // multi-record docs for NodeID-level tests
    coll_ = engine_->CreateCollection("catalog", copts).value();
    ASSERT_TRUE(coll_->CreateValueIndex({"regprice",
                                         "/Catalog/Categories/Product/RegPrice",
                                         ValueType::kDecimal, 128})
                    .ok());
    ASSERT_TRUE(
        coll_->CreateValueIndex({"discount", "//Discount",
                                 ValueType::kDecimal, 128})
            .ok());
    Random rng(42);
    workload::CatalogOptions opts;
    opts.categories = 2;
    opts.products_per_category = 10;
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(
          coll_->InsertDocument(nullptr, workload::GenCatalogXml(&rng, opts))
              .ok());
    }
  }

  // All forced methods must return the same node set as the full scan.
  void CheckAllMethodsAgree(const std::string& query) {
    QueryOptions scan_opts;
    scan_opts.force = ForceMethod::kScan;
    auto scan = coll_->Query(nullptr, query, scan_opts).MoveValue();
    for (ForceMethod m : {ForceMethod::kAuto, ForceMethod::kDocIdList,
                          ForceMethod::kNodeIdList}) {
      QueryOptions o;
      o.force = m;
      auto res = coll_->Query(nullptr, query, o);
      ASSERT_TRUE(res.ok()) << query << ": " << res.status().ToString();
      EXPECT_EQ(RenderIds(res.value().nodes), RenderIds(scan.nodes))
          << query << " method " << static_cast<int>(m) << " ("
          << query::AccessMethodName(res.value().stats.method) << ")";
    }
  }

  std::unique_ptr<Engine> engine_;
  Collection* coll_ = nullptr;
};

TEST_F(QueryMethodsTest, Table2Queries) {
  CheckAllMethodsAgree("/Catalog/Categories/Product[RegPrice > 100]");
  CheckAllMethodsAgree("/Catalog/Categories/Product[Discount > 0.1]");
  CheckAllMethodsAgree(
      "/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]");
}

TEST_F(QueryMethodsTest, ResidualStepsAfterAnchor) {
  CheckAllMethodsAgree(
      "/Catalog/Categories/Product[RegPrice > 250]/ProductName");
  CheckAllMethodsAgree("/Catalog/Categories/Product[RegPrice < 50]/@id");
}

TEST_F(QueryMethodsTest, UncoveredPredicatesForceRecheck) {
  CheckAllMethodsAgree(
      "/Catalog/Categories/Product[RegPrice > 100 and ProductName]");
  CheckAllMethodsAgree(
      "/Catalog/Categories/Product[RegPrice > 100 and not(Discount)]");
}

TEST_F(QueryMethodsTest, SelectivityZeroAndAll) {
  CheckAllMethodsAgree("/Catalog/Categories/Product[RegPrice > 100000]");
  CheckAllMethodsAgree("/Catalog/Categories/Product[RegPrice >= 0]");
}

TEST_F(QueryMethodsTest, PlannerStatsReportMethodAndWork) {
  QueryOptions o;
  o.force = ForceMethod::kDocIdList;
  o.explain = true;
  auto res = coll_->Query(nullptr,
                          "/Catalog/Categories/Product[RegPrice > 400]", o)
                 .MoveValue();
  EXPECT_EQ(res.stats.method, query::AccessMethod::kDocIdList);
  EXPECT_GT(res.stats.index_postings, 0u);
  EXPECT_LE(res.stats.candidate_docs, 10u);
  EXPECT_NE(res.PlanText().find("access path: docid-list ("),
            std::string::npos)
      << res.PlanText();

  o.force = ForceMethod::kScan;
  auto scan = coll_->Query(nullptr,
                           "/Catalog/Categories/Product[RegPrice > 400]", o)
                  .MoveValue();
  EXPECT_EQ(scan.stats.docs_evaluated, 10u);
}

TEST_F(QueryMethodsTest, WantValuesComputesStrings) {
  QueryOptions o;
  o.want_values = true;
  auto res =
      coll_->Query(nullptr,
                   "/Catalog/Categories/Product[RegPrice > 100]/RegPrice", o)
          .MoveValue();
  ASSERT_FALSE(res.nodes.empty());
  for (const auto& n : res.nodes) {
    double v = StringToNumber(n.string_value);
    EXPECT_GT(v, 100.0);
  }
}

TEST(EngineUpdateTest, TextUpdateMaintainsValueIndexes) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"pidx", "/cat/p/price", ValueType::kDouble, 128})
                  .ok());
  uint64_t doc =
      coll->InsertDocument(nullptr, "<cat><p><price>10</price></p></cat>")
          .value();
  // Find the text node under price.
  QueryOptions o;
  auto res = coll->Query(nullptr, "/cat/p/price/text()", o).MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);
  std::string text_id = res.nodes[0].node_id;

  ASSERT_TRUE(coll->UpdateTextNode(nullptr, doc, text_id, "99").ok());
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(),
            "<cat><p><price>99</price></p></cat>");

  // The old index entry is gone; the new one matches.
  auto hits_old = coll->Query(nullptr, "/cat/p[price = 10]").MoveValue();
  EXPECT_TRUE(hits_old.nodes.empty());
  for (ForceMethod m :
       {ForceMethod::kScan, ForceMethod::kDocIdList, ForceMethod::kNodeIdList}) {
    QueryOptions qo;
    qo.force = m;
    auto hits_new = coll->Query(nullptr, "/cat/p[price = 99]", qo).MoveValue();
    EXPECT_EQ(hits_new.nodes.size(), 1u) << static_cast<int>(m);
  }
}

TEST(EngineMvccTest, SnapshotReadersSeeOldVersion) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.mvcc = true;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  uint64_t doc =
      coll->InsertDocument(nullptr, "<a><b>old</b></a>").value();

  // Pin a snapshot before the update.
  Transaction reader = engine->Begin(IsolationMode::kSnapshot);
  std::string before = coll->GetDocumentText(&reader, doc).value();
  EXPECT_EQ(before, "<a><b>old</b></a>");

  // Writer updates the text node.
  auto res = coll->Query(nullptr, "/a/b/text()").MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);
  ASSERT_TRUE(
      coll->UpdateTextNode(nullptr, doc, res.nodes[0].node_id, "new").ok());

  // The pinned snapshot still sees the old version; a fresh reader sees new.
  EXPECT_EQ(coll->GetDocumentText(&reader, doc).value(), "<a><b>old</b></a>");
  ASSERT_TRUE(engine->Commit(&reader).ok());
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), "<a><b>new</b></a>");

  Transaction reader2 = engine->Begin(IsolationMode::kSnapshot);
  EXPECT_EQ(coll->GetDocumentText(&reader2, doc).value(),
            "<a><b>new</b></a>");
  ASSERT_TRUE(engine->Commit(&reader2).ok());
}

TEST(EngineMvccTest, SnapshotInvisibleForDocsInsertedLater) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.mvcc = true;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  coll->InsertDocument(nullptr, "<a>first</a>").value();
  Transaction reader = engine->Begin(IsolationMode::kSnapshot);
  // Force the snapshot to pin now.
  coll->GetDocumentText(&reader, 1).value();
  uint64_t d2 = coll->InsertDocument(nullptr, "<a>second</a>").value();
  EXPECT_TRUE(coll->GetDocumentText(&reader, d2).status().IsNotFound());
  ASSERT_TRUE(engine->Commit(&reader).ok());
  EXPECT_EQ(coll->GetDocumentText(nullptr, d2).value(), "<a>second</a>");
}

// A copy-on-write text update moves every node of the copied record to a
// new RID; their postings must follow, or the document delete that removes
// them by exact (key, posting) cannot find them. Both shapes: an index on a
// sibling of the updated text's parent, and one on the parent itself.
TEST(EngineMvccTest, TextUpdateKeepsDocumentDeletable) {
  for (const char* path : {"/a/c", "/a/b"}) {
    auto engine = MemEngine();
    CollectionOptions copts;
    copts.mvcc = true;
    Collection* coll = engine->CreateCollection("docs", copts).value();
    ASSERT_TRUE(coll->CreateValueIndex({"ix", path}).ok()) << path;
    uint64_t doc =
        coll->InsertDocument(nullptr, "<a><b>old</b><c>sib</c></a>").value();
    auto text = coll->Query(nullptr, "/a/b/text()").MoveValue();
    ASSERT_EQ(text.nodes.size(), 1u);
    ASSERT_TRUE(
        coll->UpdateTextNode(nullptr, doc, text.nodes[0].node_id, "new").ok())
        << path;
    EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "") << path;
    QueryOptions node;
    node.force = ForceMethod::kNodeIdList;
    for (const char* q : {"/a[b = \"new\"]", "/a[c = \"sib\"]"})
      EXPECT_EQ(coll->Query(nullptr, q, node).MoveValue().nodes.size(), 1u)
          << path << " " << q;
    Status st = coll->DeleteDocument(nullptr, doc);
    EXPECT_TRUE(st.ok()) << path << ": " << st.ToString();
    EXPECT_EQ(coll->DocCount().value(), 0u) << path;
  }
}

// The stored side of QuickXScanTest.PredicatesOnAttributeAndTextSteps: the
// same explicit counts under every plan, with a value index on the
// predicated attribute.
TEST(EngineTest, PredicatesOnAttributeAndTextStepsUnderEveryPlan) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(
      coll->CreateValueIndex({"v", "/a/b/@v", ValueType::kDouble, 128}).ok());
  std::string xml = "<a>";
  for (int i = 0; i < 10; i++)
    xml += "<b v=\"" + std::to_string(i) + "\">t" + std::to_string(i % 2) +
           "</b>";
  xml += "</a>";
  ASSERT_TRUE(coll->InsertDocument(nullptr, xml).ok());
  for (const auto& [expr, want] :
       {std::pair<std::string, size_t>{"/a/b/@v[. > 5]", 4},
        {"//@v[. = \"3\"]", 1},
        {"/a/b/text()[. = \"t1\"]", 5},
        {"/a/b[@v > 5]/@v", 4}}) {
    for (ForceMethod force : {ForceMethod::kScan, ForceMethod::kDocIdList,
                              ForceMethod::kNodeIdList, ForceMethod::kAuto}) {
      QueryOptions opts;
      opts.force = force;
      auto res = coll->Query(nullptr, expr, opts);
      ASSERT_TRUE(res.ok()) << expr << ": " << res.status().ToString();
      EXPECT_EQ(res.value().nodes.size(), want)
          << expr << " as "
          << query::AccessMethodName(res.value().stats.method);
    }
  }
}

// node() on the attribute axis selects every attribute of a stored
// document, under every plan.
TEST(EngineTest, AttributeAxisNodeTestUnderEveryPlan) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(
      coll->CreateValueIndex({"x", "/a/@x", ValueType::kDouble, 128}).ok());
  for (int i = 0; i < 10; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a x=\"" + std::to_string(i) +
                                                  "\" y=\"2\"><b z=\"3\">t</b>"
                                                  "</a>")
                    .ok());
  for (const auto& [expr, want] :
       {std::pair<std::string, size_t>{"/a/@node()", 20},
        {"/a/attribute::node()", 20},
        {"//@node()", 30},
        {"/a/b/@node()", 10},
        {"/a[@x > 6]/@node()", 6}}) {
    for (ForceMethod force : {ForceMethod::kScan, ForceMethod::kDocIdList,
                              ForceMethod::kNodeIdList, ForceMethod::kAuto}) {
      QueryOptions opts;
      opts.force = force;
      auto res = coll->Query(nullptr, expr, opts);
      ASSERT_TRUE(res.ok()) << expr << ": " << res.status().ToString();
      EXPECT_EQ(res.value().nodes.size(), want)
          << expr << " as "
          << query::AccessMethodName(res.value().stats.method);
    }
  }
}

// Every index plan returns exactly what a forced scan returns, and the
// scan returns `want` nodes, so a scan that went wrong too cannot make the
// plans agree with it.
void ExpectPlansMatchScan(Collection* coll, const std::string& expr,
                          size_t want) {
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto base = coll->Query(nullptr, expr, scan);
  ASSERT_TRUE(base.ok()) << expr << ": " << base.status().ToString();
  EXPECT_EQ(base.value().nodes.size(), want) << expr << " under a scan";
  for (ForceMethod force : {ForceMethod::kDocIdList, ForceMethod::kNodeIdList,
                            ForceMethod::kAuto}) {
    QueryOptions opts;
    opts.force = force;
    auto res = coll->Query(nullptr, expr, opts);
    ASSERT_TRUE(res.ok()) << expr << ": " << res.status().ToString();
    EXPECT_EQ(RenderIds(res.value().nodes), RenderIds(base.value().nodes))
        << expr << " as "
        << query::AccessMethodName(res.value().stats.method);
  }
}

// A decimal index is probed for the literal the query names. Rendered with
// %.17g, 0.46 was probed as 0.46000000000000002 and 0.3 as
// 0.29999999999999999, and every index plan dropped the equal key.
TEST(EngineTest, DecimalProbesFindTheirEqualKeys) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(
      coll->CreateValueIndex({"v", "/a/v", ValueType::kDecimal, 128}).ok());
  for (const char* v : {"0.46", "0.3", "0.47", "2", "9"})
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, std::string("<a><v>") + v + "</v></a>")
            .ok());
  for (const auto& [expr, want] : {std::pair<std::string, size_t>{
                                       "/a[v = 0.46]", 1},
                                   {"/a[v >= 0.46]", 4},
                                   {"/a[v <= 0.46]", 2},
                                   {"/a[v < 0.46]", 1},
                                   {"/a[v > 0.46]", 3},
                                   {"/a[v = 0.3]", 1},
                                   {"/a[v >= 0.3]", 5},
                                   {"/a[v <= 0.3]", 1},
                                   {"/a[v < 0.3]", 0},
                                   {"/a[v > 0.3]", 4}})
    ExpectPlansMatchScan(coll, expr, want);
}

// XPath 1.0 compares <, <=, >, >= as numbers, and = against a number as
// numbers; a string index, ordered by bytes, answers neither, so the
// planner leaves those comparisons to the scan.
TEST(EngineTest, StringIndexNeverAnswersNumericComparison) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(
      coll->CreateValueIndex({"n", "/a/n", ValueType::kString, 128}).ok());
  for (const char* n : {"5", "5.0", "9", "apple", "pear"})
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, std::string("<a><n>") + n + "</n></a>")
            .ok());
  ExpectPlansMatchScan(coll, "/a[n < 10]", 3);
  ExpectPlansMatchScan(coll, "/a[n = 5]", 2);
  ExpectPlansMatchScan(coll, "/a[n = \"5.0\"]", 1);  // string equality

  Collection* other = engine->CreateCollection("other").value();
  ASSERT_TRUE(
      other->CreateValueIndex({"n", "/a/n", ValueType::kString, 128}).ok());
  for (const char* n : {"60", "700", "5.0"})
    ASSERT_TRUE(
        other->InsertDocument(nullptr, std::string("<a><n>") + n + "</n></a>")
            .ok());
  ExpectPlansMatchScan(other, "/a[n < \"500\"]", 2);
}

TEST(EngineTxnTest, LockingWritersExcludeEachOther) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  uint64_t doc = coll->InsertDocument(nullptr, "<a><b>x</b></a>").value();
  auto res = coll->Query(nullptr, "/a/b/text()").MoveValue();
  std::string text_id = res.nodes[0].node_id;

  Transaction t1 = engine->Begin(IsolationMode::kLocking);
  ASSERT_TRUE(coll->UpdateTextNode(&t1, doc, text_id, "t1").ok());
  // A second writer cannot take the conflicting node lock (times out).
  Transaction t2 = engine->Begin(IsolationMode::kLocking);
  EXPECT_TRUE(coll->UpdateTextNode(&t2, doc, text_id, "t2").IsDeadlock());
  ASSERT_TRUE(engine->Abort(&t2).ok());
  ASSERT_TRUE(engine->Commit(&t1).ok());
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), "<a><b>t1</b></a>");
}

TEST(EngineTxnTest, DisjointSubtreeWritersProceed) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  uint64_t doc =
      coll->InsertDocument(nullptr, "<a><b>one</b><c>two</c></a>").value();
  std::string b_text =
      coll->Query(nullptr, "/a/b/text()").MoveValue().nodes[0].node_id;
  std::string c_text =
      coll->Query(nullptr, "/a/c/text()").MoveValue().nodes[0].node_id;

  Transaction t1 = engine->Begin(IsolationMode::kLocking);
  Transaction t2 = engine->Begin(IsolationMode::kLocking);
  EXPECT_TRUE(coll->UpdateTextNode(&t1, doc, b_text, "B").ok());
  // Disjoint subtree: no conflict under the prefix-lock protocol.
  EXPECT_TRUE(coll->UpdateTextNode(&t2, doc, c_text, "C").ok());
  ASSERT_TRUE(engine->Commit(&t1).ok());
  ASSERT_TRUE(engine->Commit(&t2).ok());
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(),
            "<a><b>B</b><c>C</c></a>");
}

// A subdocument write takes one lock, X on its subtree: the document IX it
// once took as well adds no conflict under the prefix rule.
TEST(EngineTxnTest, SubtreeWriteTakesOneLock) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  uint64_t doc = coll->InsertDocument(nullptr, "<a><b>x</b><c/></a>").value();
  auto node_of = [&](const char* path) {
    return coll->Query(nullptr, path).MoveValue().nodes.at(0).node_id;
  };
  const std::string text = node_of("/a/b/text()");
  const std::string c = node_of("/a/c");
  auto locks_taken = [&, last = uint64_t{0}]() mutable {
    uint64_t now = engine->locks()->stats().acquisitions;
    uint64_t taken = now - last;
    last = now;
    return taken;
  };
  locks_taken();
  ASSERT_TRUE(coll->UpdateTextNode(nullptr, doc, text, "y").ok());
  EXPECT_EQ(locks_taken(), 1u);
  auto inserted = coll->InsertSubtree(nullptr, doc, c, Slice(), "<n/>");
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(locks_taken(), 1u);
  ASSERT_TRUE(coll->DeleteSubtree(nullptr, doc, inserted.value()).ok());
  EXPECT_EQ(locks_taken(), 1u);
}

// Every collection numbers its documents from 1; their locks must not meet.
TEST(EngineTxnTest, EqualDocIdsInOtherCollectionsDoNotConflict) {
  auto engine = MemEngine();
  Collection* a = engine->CreateCollection("a").value();
  Collection* b = engine->CreateCollection("b").value();
  ASSERT_EQ(a->InsertDocument(nullptr, "<x>a</x>").value(), 1u);
  ASSERT_EQ(b->InsertDocument(nullptr, "<x>b</x>").value(), 1u);
  Transaction reader = engine->Begin(IsolationMode::kLocking);
  ASSERT_EQ(a->GetDocumentText(&reader, 1).value(), "<x>a</x>");
  Status st = b->DeleteDocument(nullptr, 1);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(b->DocCount().value(), 0u);
  ASSERT_TRUE(engine->Commit(&reader).ok());
}

// What kLocking promises, end to end. A reader's document S lock excludes
// every writer of that document, whole or subtree, until the reader
// commits; an open subtree writer excludes the readers of its document and
// of no other. The blocked calls run on parallel threads, so the test waits
// about one lock timeout.
TEST(EngineTxnTest, LockingReadersAndWritersExcludeEachOther) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex({"k", "/a/k"}).ok());
  auto insert = [&](const std::string& key) {
    return coll
        ->InsertDocument(nullptr, "<a><k>" + key + "</k><b>x</b><c>y</c>"
                                  "<e>z</e></a>")
        .value();
  };
  const uint64_t r = insert("r");  // read by an open reader
  const uint64_t w = insert("w");  // written by an open writer
  const uint64_t o = insert("o");  // neither
  const std::string original = coll->GetDocumentText(nullptr, r).value();
  // Keyed queries plan one document's candidates only.
  QueryOptions by_key;
  by_key.force = ForceMethod::kDocIdList;
  auto keyed = [](const char* key, const char* rest) {
    return std::string("/a[k = \"") + key + "\"]" + rest;
  };
  auto node_of = [&](const char* key, const char* rest) {
    return coll->Query(nullptr, keyed(key, rest), by_key)
        .MoveValue()
        .nodes.at(0)
        .node_id;
  };
  const std::string r_text = node_of("r", "/b/text()");
  const std::string r_c = node_of("r", "/c");
  const std::string r_e = node_of("r", "/e");
  const std::string w_text = node_of("w", "/b/text()");

  Transaction reader = engine->Begin(IsolationMode::kLocking);
  ASSERT_EQ(coll->GetDocumentText(&reader, r).value(), original);
  ASSERT_EQ(coll->Query(&reader, keyed("r", "/b"), by_key)
                .MoveValue()
                .nodes.size(),
            1u);
  Transaction writer = engine->Begin(IsolationMode::kLocking);
  ASSERT_TRUE(coll->UpdateTextNode(&writer, w, w_text, "w1").ok());

  // Each call below runs in its own autocommit transaction.
  const std::vector<std::function<Status()>> writes_of_r = {
      [&] { return coll->UpdateTextNode(nullptr, r, r_text, "r1"); },
      [&] {
        return coll->InsertSubtree(nullptr, r, r_c, Slice(), "<n/>").status();
      },
      [&] { return coll->DeleteSubtree(nullptr, r, r_e); },
      [&] { return coll->DeleteDocument(nullptr, r); },
  };
  auto reads_of = [&](uint64_t doc, const char* key) {
    return std::vector<std::function<Status()>>{
        [&, doc] { return coll->GetDocumentText(nullptr, doc).status(); },
        [&, key] {
          return coll->Query(nullptr, keyed(key, "/b"), by_key).status();
        }};
  };
  std::vector<std::function<Status()>> blocked = writes_of_r;
  for (auto& read : reads_of(w, "w")) blocked.push_back(read);
  std::vector<Status> got(blocked.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < blocked.size(); i++)
    threads.emplace_back([&, i] { got[i] = blocked[i](); });
  // Meanwhile the reads of a third document go through.
  for (auto& read : reads_of(o, "o")) EXPECT_TRUE(read().ok());
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < got.size(); i++)
    EXPECT_TRUE(got[i].IsDeadlock()) << i << ": " << got[i].ToString();
  EXPECT_EQ(coll->GetDocumentText(&reader, r).value(), original);

  ASSERT_TRUE(engine->Commit(&reader).ok());
  ASSERT_TRUE(engine->Commit(&writer).ok());
  for (auto& read : reads_of(w, "w")) EXPECT_TRUE(read().ok());
  for (auto& write : writes_of_r) {
    Status st = write();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(coll->DocCount().value(), 2u);
}

// A full scan lists its documents with their NodeID entries, then waits for
// their locks. A writer that held one of them and changed its entries in
// the meantime has committed by the time the scan reads it, so the scan
// lists that document's entries again and reads what the writer committed.
// (Should the scan list after the second insert, it reads both as well.)
TEST(EngineTxnTest, FullScanReadsEntriesWrittenWhileItWaited) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.record_budget = 64;  // each inserted subtree takes records of its own
  Collection* coll = engine->CreateCollection("docs", copts).value();
  std::vector<uint64_t> docs;
  for (int i = 0; i < 3; i++)
    docs.push_back(
        coll->InsertDocument(nullptr, "<a><b>" + std::to_string(i) + "</b></a>")
            .value());
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  const std::string root =
      coll->Query(nullptr, "/a", scan).MoveValue().nodes.at(1).node_id;
  auto subtree = [](const char* name) {
    return std::string("<n>") + name + std::string(200, 'x') + "</n>";
  };
  Transaction writer = engine->Begin(IsolationMode::kLocking);
  ASSERT_TRUE(
      coll->InsertSubtree(&writer, docs[1], root, Slice(), subtree("one"))
          .ok());
  Status scanned;
  size_t found = 0;
  std::thread reader([&] {
    auto res = coll->Query(nullptr, "//n", scan);
    scanned = res.status();
    if (res.ok()) found = res.value().nodes.size();
  });
  // Time for the scan to list docs[1] and wait for its lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(
      coll->InsertSubtree(&writer, docs[1], root, Slice(), subtree("two"))
          .ok());
  ASSERT_TRUE(engine->Commit(&writer).ok());
  reader.join();
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(found, 2u);
}

TEST(XmlHandleTest, DeferredResolveFollowsIsolation) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.mvcc = true;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  uint64_t doc =
      coll->InsertDocument(nullptr, "<r><part>alpha</part><part>beta</part>"
                                    "</r>")
          .value();
  auto parts = coll->Query(nullptr, "/r/part").MoveValue();
  ASSERT_EQ(parts.nodes.size(), 2u);

  XmlHandle whole(coll, doc, "");
  XmlHandle part(coll, doc, parts.nodes[1].node_id);
  EXPECT_EQ(whole.Resolve(nullptr).value(),
            "<r><part>alpha</part><part>beta</part></r>");
  EXPECT_EQ(part.Resolve(nullptr).value(), "<part>beta</part>");

  // A snapshot reader's handle keeps resolving to its version even after an
  // update (the "deferred access guaranteed to be successful").
  Transaction reader = engine->Begin(IsolationMode::kSnapshot);
  EXPECT_EQ(part.Resolve(&reader).value(), "<part>beta</part>");
  auto text = coll->Query(nullptr, "/r/part/text()").MoveValue();
  for (auto& n : text.nodes) {
    if (n.node_id.size() > parts.nodes[1].node_id.size() &&
        Slice(n.node_id).StartsWith(Slice(parts.nodes[1].node_id))) {
      ASSERT_TRUE(coll->UpdateTextNode(nullptr, doc, n.node_id, "BETA").ok());
    }
  }
  EXPECT_EQ(part.Resolve(&reader).value(), "<part>beta</part>");
  ASSERT_TRUE(engine->Commit(&reader).ok());
  EXPECT_EQ(part.Resolve(nullptr).value(), "<part>BETA</part>");

  XmlHandle unbound;
  EXPECT_FALSE(unbound.Resolve().ok());
}

// A document fetch is a subtree fetch at the document node. At a 64-byte
// record budget every document spans several records; the three ways to
// read a whole document agree under both isolation modes, and a deleted
// document and one never inserted are NotFound through all three.
TEST(XmlHandleTest, DocumentFetchIsSubtreeFetchAtDocumentNode) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.mvcc = true;
  copts.record_budget = 64;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  std::vector<std::pair<uint64_t, std::string>> docs;
  for (int i = 0; i < 20; i++) {
    std::string xml = "<order><id>" + std::to_string(i) + "</id>";
    for (int j = 0; j < 2 + i % 5; j++)
      xml += "<line><sku>s" + std::to_string(i * 10 + j) + "</sku><qty>" +
             std::to_string(j) + "</qty></line>";
    xml += "</order>";
    docs.emplace_back(coll->InsertDocument(nullptr, xml).value(), xml);
  }
  ASSERT_GT(coll->records()->stats().live_records, 2 * docs.size());
  const uint64_t deleted = docs.back().first;
  ASSERT_TRUE(coll->DeleteDocument(nullptr, deleted).ok());
  docs.pop_back();
  const uint64_t never_inserted = deleted + 100;

  for (IsolationMode mode :
       {IsolationMode::kLocking, IsolationMode::kSnapshot}) {
    Transaction txn = engine->Begin(mode);
    for (const auto& [doc, xml] : docs) {
      auto text = coll->GetDocumentText(&txn, doc);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      EXPECT_EQ(text.value(), xml);
      EXPECT_EQ(coll->SerializeSubtree(&txn, doc, "").value(), xml);
      EXPECT_EQ(XmlHandle(coll, doc, "").Resolve(&txn).value(), xml);
    }
    for (uint64_t doc : {deleted, never_inserted}) {
      EXPECT_TRUE(coll->GetDocumentText(&txn, doc).status().IsNotFound());
      EXPECT_TRUE(coll->SerializeSubtree(&txn, doc, "").status().IsNotFound());
      EXPECT_TRUE(
          XmlHandle(coll, doc, "").Resolve(&txn).status().IsNotFound());
    }
    ASSERT_TRUE(engine->Commit(&txn).ok());
  }
}

// A stored-document stream lists its NodeID entries once and resolves every
// proxy from that list: a whole-document read costs the same B+tree descents
// however many records the document spans (one listing under kLocking; a
// version lookup plus the listing under kSnapshot), never one per proxy.
TEST(StoredReadWorkTest, WholeDocumentReadDescendsOncePerDocument) {
  for (bool mvcc : {false, true}) {
    auto engine = MemEngine();
    CollectionOptions copts;
    copts.mvcc = mvcc;
    copts.record_budget = 64;
    Collection* coll = engine->CreateCollection("docs", copts).value();
    const IsolationMode mode =
        mvcc ? IsolationMode::kSnapshot : IsolationMode::kLocking;
    std::vector<uint64_t> deltas;
    for (int lines : {40, 160}) {
      std::string xml = "<order>";
      for (int j = 0; j < lines; j++)
        xml += "<line><sku>s" + std::to_string(j) + "</sku><qty>" +
               std::to_string(j) + "</qty></line>";
      xml += "</order>";
      const uint64_t before_records = coll->records()->stats().live_records;
      uint64_t doc = coll->InsertDocument(nullptr, xml).value();
      ASSERT_GE(coll->records()->stats().live_records - before_records, 10u)
          << lines;
      Transaction txn = engine->Begin(mode);
      const uint64_t before =
          engine->MetricsSnapshot().Value("btree.descents");
      EXPECT_EQ(coll->GetDocumentText(&txn, doc).value(), xml);
      deltas.push_back(engine->MetricsSnapshot().Value("btree.descents") -
                       before);
      ASSERT_TRUE(engine->Commit(&txn).ok());
    }
    EXPECT_EQ(deltas[0], deltas[1]) << "mvcc=" << mvcc;
    EXPECT_EQ(deltas[1], mvcc ? 2u : 1u) << "mvcc=" << mvcc;
  }
}

/// oltp_mixed's catalog collection: its three value indexes over 50
/// generated documents, drawn from `rng`.
Collection* IndexedCatalog(Engine* engine, Random* rng,
                           std::vector<uint64_t>* docs) {
  Collection* coll = engine->CreateCollection("catalog").value();
  EXPECT_TRUE(coll->CreateValueIndex({"regprice",
                                      "/Catalog/Categories/Product/RegPrice",
                                      ValueType::kDecimal, 128})
                  .ok());
  EXPECT_TRUE(coll->CreateValueIndex({"productname",
                                      "/Catalog/Categories/Product/ProductName",
                                      ValueType::kString, 64})
                  .ok());
  EXPECT_TRUE(coll->CreateValueIndex(
                      {"discount", "//Discount", ValueType::kDecimal, 128})
                  .ok());
  for (int i = 0; i < 50; i++)
    docs->push_back(
        coll->InsertDocument(nullptr, workload::GenCatalogXml(rng, {}))
            .value());
  return coll;
}

/// The B+tree descents `op` takes, which must succeed.
uint64_t Descents(Engine* engine, const std::function<Status()>& op) {
  const uint64_t before = engine->MetricsSnapshot().Value("btree.descents");
  EXPECT_TRUE(op().ok());
  return engine->MetricsSnapshot().Value("btree.descents") - before;
}

// A posting names its node, not the node's record, so a subdocument write
// resolves no record for the postings it adds or removes. With oltp_mixed's
// three value indexes over 50 catalog documents, a RegPrice text update, a
// <Product> insert and its delete each change two postings and take 9, 13
// and 11 B+tree descents; a record lookup per posting made them 11, 15, 13.
TEST(IndexMaintenanceWorkTest, SubdocumentWritesResolveNoRecordPerPosting) {
  auto engine = MemEngine();
  Random rng(7);
  std::vector<uint64_t> docs;
  Collection* coll = IndexedCatalog(engine.get(), &rng, &docs);
  const uint64_t doc = docs[25];
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto first_in_doc = [&](const std::string& q) {
    const QueryResult res = coll->Query(nullptr, q, scan).MoveValue();
    for (const ResultNode& n : res.nodes)
      if (n.doc_id == doc) return n.node_id;
    ADD_FAILURE() << q;
    return std::string();
  };
  const std::string price =
      first_in_doc("/Catalog/Categories/Product/RegPrice/text()");
  const std::string category = first_in_doc("/Catalog/Categories");
  EXPECT_EQ(Descents(engine.get(),
                     [&] {
                       return coll->UpdateTextNode(nullptr, doc, price,
                                                   "123.45");
                     }),
            9u);
  std::string product;
  EXPECT_EQ(Descents(engine.get(),
                     [&]() -> Status {
                       XDB_ASSIGN_OR_RETURN(
                           product,
                           coll->InsertSubtree(
                               nullptr, doc, category, "",
                               "<Product id=\"N1\"><ProductName>new-1"
                               "</ProductName><RegPrice>42.00</RegPrice>"
                               "</Product>"));
                       return Status::OK();
                     }),
            13u);
  EXPECT_EQ(Descents(engine.get(),
                     [&] { return coll->DeleteSubtree(nullptr, doc, product); }),
            11u);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
}

// The NodeID index is the document list, so a document insert or delete
// keeps no second tree, and a full scan lists the documents, with their
// entries, in one walk over the NodeID leaves that evaluation then reads
// instead of seeking. Over the same 50 indexed catalog documents, a 51st
// document's insert and its delete take 45 and 47 B+tree descents, and a
// forced full scan of //Discount takes 1, where a listing and then one
// seek per document took 51.
TEST(IndexMaintenanceWorkTest, DocumentWritesKeepOneDocumentList) {
  auto engine = MemEngine();
  Random rng(7);
  std::vector<uint64_t> docs;
  Collection* coll = IndexedCatalog(engine.get(), &rng, &docs);
  const std::string xml = workload::GenCatalogXml(&rng, {});
  uint64_t doc = 0;
  EXPECT_EQ(Descents(engine.get(),
                     [&]() -> Status {
                       XDB_ASSIGN_OR_RETURN(
                           doc, coll->InsertDocument(nullptr, xml));
                       return Status::OK();
                     }),
            45u);
  EXPECT_EQ(Descents(engine.get(),
                     [&] { return coll->DeleteDocument(nullptr, doc); }),
            47u);
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  // The second run hits the plan cache: the delta is the execution's alone.
  ASSERT_TRUE(coll->Query(nullptr, "//Discount", scan).ok());
  EXPECT_EQ(Descents(engine.get(),
                     [&] {
                       return coll->Query(nullptr, "//Discount", scan).status();
                     }),
            1u);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll), "");
}

// A node-level recheck walks each anchor once: the stream that feeds the
// scan also names the anchor's path for the prefix check. A NodeID-list
// query with k anchors descends once for its probe and once per anchor,
// and fetches one record per anchor.
TEST(StoredReadWorkTest, NodeIdListRecheckDescendsOncePerAnchor) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "//price", ValueType::kDecimal, 64})
                  .ok());
  for (int i = 0; i < 12; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr,
                                     "<r><item><price>" + std::to_string(i) +
                                         "</price></item></r>")
                    .ok());
  QueryOptions node;
  node.force = ForceMethod::kNodeIdList;
  // The second run of each query hits the plan cache, so the delta is the
  // execution's alone.
  auto run = [&](const std::string& q, uint64_t* descents) {
    EXPECT_TRUE(coll->Query(nullptr, q, node).ok());
    const uint64_t before = engine->MetricsSnapshot().Value("btree.descents");
    QueryResult res = coll->Query(nullptr, q, node).MoveValue();
    *descents = engine->MetricsSnapshot().Value("btree.descents") - before;
    return res;
  };
  uint64_t probe_only = 0, six_anchors = 0;
  QueryResult none = run("/r/item[price > 100]", &probe_only);
  QueryResult six = run("/r/item[price > 5]", &six_anchors);
  ASSERT_EQ(none.nodes.size(), 0u);
  ASSERT_EQ(six.nodes.size(), 6u);
  EXPECT_EQ(six.stats.candidate_anchors, 6u);
  EXPECT_EQ(six_anchors, probe_only + 6u);
  EXPECT_EQ(six.stats.records_fetched, 6u);
}

// A node-level plan resolves its prefix's names once, at compile time; a
// name no document has yet matches no anchor. Inserting a document that
// has it moves the stats epoch, so the re-run recompiles and finds it.
TEST(StoredReadWorkTest, PrefixNameInternedLaterIsFoundOnReRun) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "//price", ValueType::kDecimal, 64})
                  .ok());
  ASSERT_TRUE(
      coll->InsertDocument(nullptr, "<store><item><price>9</price></item>"
                                    "</store>")
          .ok());
  QueryOptions node;
  node.force = ForceMethod::kNodeIdList;
  const std::string q = "/shop/item[price > 5]";
  ASSERT_EQ(engine->dict()->Lookup("shop"), NameDictionary::kInvalidNameId);
  EXPECT_EQ(coll->Query(nullptr, q, node).MoveValue().nodes.size(), 0u);
  ASSERT_TRUE(
      coll->InsertDocument(nullptr, "<shop><item><price>7</price></item>"
                                    "</shop>")
          .ok());
  auto res = coll->Query(nullptr, q, node).MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);
  EXPECT_EQ(res.stats.method, query::AccessMethod::kNodeIdList);
}

// A document's anchors are one run: a NodeID-list query with k anchors in
// one multi-record document lists the run's NodeID entries once (the
// probe's descents plus one, not plus k), and fetches each record that
// holds anchors at most once.
TEST(StoredReadWorkTest, NodeIdListRunListsOncePerDocument) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.record_budget = 64;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "//price", ValueType::kDecimal, 64})
                  .ok());
  std::string xml = "<order>";
  for (int j = 0; j < 40; j++)
    xml += "<line><price>" + std::to_string(j) + "</price></line>";
  const uint64_t doc = coll->InsertDocument(nullptr, xml + "</order>").value();
  QueryOptions node;
  node.force = ForceMethod::kNodeIdList;
  auto run = [&](const std::string& q, uint64_t* descents) {
    EXPECT_TRUE(coll->Query(nullptr, q, node).ok());
    const uint64_t before = engine->MetricsSnapshot().Value("btree.descents");
    QueryResult res = coll->Query(nullptr, q, node).MoveValue();
    *descents = engine->MetricsSnapshot().Value("btree.descents") - before;
    return res;
  };
  uint64_t probe_only = 0, run_descents = 0;
  QueryResult none = run("/order/line[price > 100]", &probe_only);
  QueryResult many = run("/order/line[price > 5]", &run_descents);
  ASSERT_EQ(none.nodes.size(), 0u);
  ASSERT_EQ(many.nodes.size(), 34u);
  EXPECT_EQ(many.stats.candidate_anchors, 34u);
  EXPECT_EQ(run_descents, probe_only + 1u);
  std::set<uint64_t> holding;
  for (const ResultNode& r : many.nodes)
    holding.insert(coll->node_index()->Lookup(doc, r.node_id).value().Pack());
  ASSERT_GT(holding.size(), 1u) << "the anchors share one record";
  EXPECT_LE(many.stats.records_fetched, holding.size());
}

// Checks one run's listing of `doc` from every locator against the index:
// the three listings are equal, and every root of the run and every proxy
// below one resolves against the listing exactly as against the index.
void CheckRunListing(Collection* coll, NodeLocator* snapshot, uint64_t doc,
                     const std::vector<std::string>& run,
                     const std::vector<std::string>& proxies) {
  NodeIdIndex* index = coll->node_index();
  NodeIdEntries all;
  ASSERT_TRUE(index->ListDocEntries(doc, Slice(), &all).ok());
  DocEntriesLocator listed(doc, &all);
  SubtreeSpan span{Slice(run[0])};
  for (size_t i = 1; i < run.size(); i++) span.Extend(run[i]);
  NodeIdEntries from_index, from_snapshot, from_list;
  ASSERT_TRUE(index->ListDocEntries(doc, span, &from_index).ok());
  ASSERT_TRUE(snapshot->ListDocEntries(doc, span, &from_snapshot).ok());
  ASSERT_TRUE(listed.ListDocEntries(doc, span, &from_list).ok());
  EXPECT_EQ(from_index, from_snapshot);
  EXPECT_EQ(from_index, from_list);
  DocEntriesLocator resolver(doc, &from_index);
  for (const std::string& root : run) {
    EXPECT_EQ(resolver.Lookup(doc, root).value(),
              index->Lookup(doc, root).value())
        << "root " << nodeid::ToString(root);
    for (const std::string& proxy : proxies) {
      if (!Slice(proxy).StartsWith(root)) continue;
      EXPECT_EQ(resolver.Lookup(doc, proxy).value(),
                index->Lookup(doc, proxy).value())
          << "proxy " << nodeid::ToString(proxy);
    }
  }
}

// A run's one listing resolves like the index, for every pair and for
// random larger runs of a multi-record document's node IDs (nested ones
// and proxy targets included), through NodeIdIndex, SnapshotLocator and
// DocEntriesLocator. The second document puts an element's later children
// in a record interval that runs on past the element (its first child is
// proxied): a run of the element and such a child needs the entry past the
// element's subtree.
TEST(StoredReadWorkTest, RunListingResolvesLikeTheIndex) {
  std::string orders = "<order>";
  for (int j = 0; j < 12; j++)
    orders += "<line n=\"" + std::to_string(j) + "\"><sku>s" +
              std::to_string(j) + "</sku><part><qty>" + std::to_string(j) +
              "</qty><note>some text</note></part></line>";
  std::string tails = "<order>";
  for (int j = 0; j < 12; j++)
    tails += "<line n=\"" + std::to_string(j) + "\"><big>" +
             std::string(80, 'x') + "</big><p>" + std::to_string(j) +
             "</p></line>";
  for (const std::string& xml : {orders + "</order>", tails + "</order>"}) {
    auto engine = MemEngine();
    CollectionOptions copts;
    copts.mvcc = true;
    copts.record_budget = 64;
    Collection* coll = engine->CreateCollection("docs", copts).value();
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<x><y>before</y></x>").ok());
    const uint64_t doc = coll->InsertDocument(nullptr, xml).value();
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<x><y>after</y></x>").ok());
    SnapshotLocator snapshot(coll->versions(),
                             coll->versions()->BeginSnapshot());
    // The document's node IDs and proxies, from its records.
    std::vector<Rid> rids;
    ASSERT_TRUE(coll->node_index()->ListDocRecords(doc, Slice(), &rids).ok());
    ASSERT_GT(rids.size(), 10u);
    std::vector<std::string> nodes, proxies;
    for (Rid rid : rids) {
      std::string bytes;
      ASSERT_TRUE(coll->records()->Get(rid, &bytes).ok());
      RecordWalker walker((Slice(bytes)));
      ASSERT_TRUE(walker.Init().ok());
      RecordWalker::Event ev;
      while (walker.Next(&ev).ok() &&
             ev.type != RecordWalker::EventType::kDone) {
        if (ev.type != RecordWalker::EventType::kStart) continue;
        (ev.entry.kind == NodeKind::kProxy ? proxies : nodes)
            .push_back(ev.entry.abs_id.ToString());
      }
    }
    ASSERT_FALSE(proxies.empty());
    std::sort(nodes.begin(), nodes.end());
    for (size_t i = 0; i < nodes.size(); i++) {
      for (size_t j = i; j < nodes.size(); j++) {
        SCOPED_TRACE("run " + nodeid::ToString(nodes[i]) + " " +
                     nodeid::ToString(nodes[j]));
        std::vector<std::string> run = {nodes[i]};
        if (j > i) run.push_back(nodes[j]);
        CheckRunListing(coll, &snapshot, doc, run, proxies);
      }
    }
    Random rng(23);
    for (int trial = 0; trial < 200; trial++) {
      std::vector<std::string> run;
      const uint64_t k = 3 + rng.Uniform(6);
      for (uint64_t i = 0; i < k; i++)
        run.push_back(nodes[rng.Uniform(nodes.size())]);
      std::sort(run.begin(), run.end());
      run.erase(std::unique(run.begin(), run.end()), run.end());
      SCOPED_TRACE("trial " + std::to_string(trial));
      CheckRunListing(coll, &snapshot, doc, run, proxies);
    }
  }
}

// The evaluation stage fans out between documents only: anchors spread
// over several documents run in several chunks, anchors that all lie in
// one document in one, and serial and parallel runs agree, counters
// included.
TEST(StoredReadWorkTest, FanOutSplitsBetweenDocuments) {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  opts.num_query_threads = 4;
  auto engine = Engine::Open(opts).MoveValue();
  CollectionOptions copts;
  copts.record_budget = 200;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "//price", ValueType::kDouble, 64})
                  .ok());
  for (int d = 0; d < 6; d++) {
    std::string xml = "<doc>";
    for (int i = 0; i < 40; i++)
      xml += "<item><name>n" + std::to_string(d * 40 + i) + "</name><price>" +
             std::to_string(i % 37) + "</price></item>";
    ASSERT_TRUE(coll->InsertDocument(nullptr, xml + "</doc>").ok());
  }
  std::string solo = "<doc>";
  for (int i = 0; i < 60; i++)
    solo += "<item><name>s" + std::to_string(i) + "</name><price>" +
            std::to_string(1000 + i) + "</price></item>";
  ASSERT_TRUE(coll->InsertDocument(nullptr, solo + "</doc>").ok());

  struct Case {
    const char* query;
    size_t results;
    bool fans_out;
  };
  const Case cases[] = {{"/doc/item[price > 10]/name", 6 * 26 + 60, true},
                        {"/doc/item[price >= 1000]/name", 60, false}};
  for (const Case& c : cases) {
    QueryOptions serial;
    serial.force = ForceMethod::kNodeIdList;
    serial.want_values = true;
    serial.parallelism = 1;
    QueryOptions parallel = serial;
    parallel.parallelism = 4;
    QueryResult s = coll->Query(nullptr, c.query, serial).MoveValue();
    QueryResult p = coll->Query(nullptr, c.query, parallel).MoveValue();
    ASSERT_EQ(s.nodes.size(), c.results) << c.query;
    EXPECT_EQ(RenderIds(p.nodes), RenderIds(s.nodes)) << c.query;
    EXPECT_TRUE(s.stats == p.stats) << c.query;
    EXPECT_EQ(s.profile.chunks, 1u) << c.query;
    if (c.fans_out)
      EXPECT_GT(p.profile.chunks, 1u) << c.query;
    else
      EXPECT_EQ(p.profile.chunks, 1u) << c.query;
  }
}

TEST(VacuumTest, OldVersionsReclaimed) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.mvcc = true;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  uint64_t doc = coll->InsertDocument(nullptr, "<a><b>v0</b></a>").value();
  auto text = coll->Query(nullptr, "/a/b/text()").MoveValue();
  std::string text_id = text.nodes[0].node_id;
  for (int i = 1; i <= 10; i++) {
    ASSERT_TRUE(
        coll->UpdateTextNode(nullptr, doc, text_id, "v" + std::to_string(i))
            .ok());
  }
  uint64_t deletes_before = coll->records()->stats().deletes;
  uint64_t latest = coll->versions()->BeginSnapshot();
  ASSERT_TRUE(coll->VacuumVersions(doc, latest).ok());
  EXPECT_GT(coll->records()->stats().deletes, deletes_before);
  // The latest version still reads correctly (both paths).
  EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(), "<a><b>v10</b></a>");
  Transaction reader = engine->Begin(IsolationMode::kSnapshot);
  EXPECT_EQ(coll->GetDocumentText(&reader, doc).value(),
            "<a><b>v10</b></a>");
  ASSERT_TRUE(engine->Commit(&reader).ok());
  // Older snapshots are genuinely gone.
  Transaction stale = engine->Begin(IsolationMode::kSnapshot);
  stale.snapshot = 1;  // simulate a pre-vacuum snapshot
  EXPECT_FALSE(coll->GetDocumentText(&stale, doc).ok());
  ASSERT_TRUE(engine->Commit(&stale).ok());
}

// A versioned-index value is its record's packed RID; a value of any other
// width is Corruption, found before anything is deleted. A 3-byte value
// planted in the newest version of a document with older versions once let
// a vacuum free four records and a document delete one before failing.
TEST(VacuumTest, BadVersionedValueFailsBeforeAnythingIsFreed) {
  auto engine = MemEngine();
  CollectionOptions copts;
  copts.mvcc = true;
  Collection* coll = engine->CreateCollection("docs", copts).value();
  uint64_t doc = coll->InsertDocument(nullptr, "<a><b>v0</b></a>").value();
  const std::string text_id =
      coll->Query(nullptr, "/a/b/text()").MoveValue().nodes[0].node_id;
  for (int i = 1; i <= 4; i++)
    ASSERT_TRUE(
        coll->UpdateTextNode(nullptr, doc, text_id, "v" + std::to_string(i))
            .ok());
  const uint64_t latest = coll->versions()->BeginSnapshot();
  const uint64_t newest =
      coll->versions()->EffectiveVersion(doc, latest).value();
  std::string key;  // [doc][~version][node ID], a node past the document's
  PutBig64(&key, doc);
  PutBig64(&key, ~newest);
  key += "\xff";
  ASSERT_TRUE(coll->versions()->tree()->Insert(key, "bad").ok());
  const uint64_t deletes = coll->records()->stats().deletes;
  Status vacuum = coll->VacuumVersions(doc, latest);
  EXPECT_TRUE(vacuum.IsCorruption()) << vacuum.ToString();
  Status del = coll->DeleteDocument(nullptr, doc);
  EXPECT_TRUE(del.IsCorruption()) << del.ToString();
  EXPECT_EQ(coll->records()->stats().deletes, deletes);
}

class SubtreeOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = MemEngine();
    CollectionOptions copts;
    copts.record_budget = 150;  // force multi-record subtrees
    coll_ = engine_->CreateCollection("docs", copts).value();
  }

  std::string Text(uint64_t doc) {
    return coll_->GetDocumentText(nullptr, doc).value();
  }

  std::unique_ptr<Engine> engine_;
  Collection* coll_ = nullptr;
};

TEST_F(SubtreeOpsTest, AppendAndPositionalInsert) {
  uint64_t doc =
      coll_->InsertDocument(nullptr, "<list><item>a</item><item>c</item></list>")
          .value();
  auto items = coll_->Query(nullptr, "/list/item").MoveValue();
  ASSERT_EQ(items.nodes.size(), 2u);
  std::string list_id = nodeid::ChildId(1);

  // Append at the end.
  ASSERT_TRUE(coll_->InsertSubtree(nullptr, doc, list_id, Slice(),
                                   "<item>d</item>")
                  .ok());
  // Insert between a and c.
  auto mid = coll_->InsertSubtree(nullptr, doc, list_id,
                                  items.nodes[0].node_id, "<item>b</item>");
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(Text(doc),
            "<list><item>a</item><item>b</item><item>c</item>"
            "<item>d</item></list>");
  // The new node is queryable and document order holds.
  QueryOptions q;
  q.want_values = true;
  auto all = coll_->Query(nullptr, "/list/item", q).MoveValue();
  ASSERT_EQ(all.nodes.size(), 4u);
  EXPECT_EQ(all.nodes[0].string_value, "a");
  EXPECT_EQ(all.nodes[1].string_value, "b");
  EXPECT_EQ(all.nodes[2].string_value, "c");
  EXPECT_EQ(all.nodes[3].string_value, "d");
}

TEST_F(SubtreeOpsTest, RepeatedInsertsBetweenSameSiblings) {
  uint64_t doc =
      coll_->InsertDocument(nullptr, "<l><i>first</i><i>last</i></l>").value();
  std::string l_id = nodeid::ChildId(1);
  std::string after = coll_->Query(nullptr, "/l/i").MoveValue()
                          .nodes[0]
                          .node_id;
  // Hammer the same gap: every insert lands after "first" — ids extend.
  for (int i = 0; i < 20; i++) {
    auto res = coll_->InsertSubtree(nullptr, doc, l_id, after,
                                    "<i>gen" + std::to_string(i) + "</i>");
    ASSERT_TRUE(res.ok()) << i << ": " << res.status().ToString();
    after = res.MoveValue();
  }
  QueryOptions q;
  q.want_values = true;
  auto all = coll_->Query(nullptr, "/l/i", q).MoveValue();
  ASSERT_EQ(all.nodes.size(), 22u);
  EXPECT_EQ(all.nodes.front().string_value, "first");
  EXPECT_EQ(all.nodes.back().string_value, "last");
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(all.nodes[1 + i].string_value, "gen" + std::to_string(i));
  }
}

// Index entries must name the node IDs the records store. A positional
// insert or a non-last delete leaves IDs that a canonical renumbering of the
// document would not reproduce, so after each edit (and after a backfill
// over an edited document) every access path must agree with a full scan,
// and the document must stay updatable and deletable.
TEST_F(SubtreeOpsTest, ValueIndexesFollowSubtreeChanges) {
  const ValueIndexDef kPriceIndex{"pidx", "/shop/p/price", ValueType::kDouble,
                                  64};
  const StructuralIndexDef kStructure{"structure", ""};
  ASSERT_TRUE(coll_->CreateValueIndex(kPriceIndex).ok());
  ASSERT_TRUE(coll_->CreateStructuralIndex(kStructure).ok());
  const std::string shop_id = nodeid::ChildId(1);
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto p_ids = [&](Collection* coll) {
    QueryResult ps = coll->Query(nullptr, "/shop/p", scan).MoveValue();
    std::vector<std::string> ids;
    for (const ResultNode& n : ps.nodes) ids.push_back(n.node_id);
    return ids;
  };

  // `prices` in any order; each plan must return exactly these values.
  auto expect_agree = [&](Collection* coll, std::vector<std::string> prices,
                          const std::string& step) {
    std::sort(prices.begin(), prices.end());
    const std::pair<ForceMethod, query::AccessMethod> kPlans[] = {
        {ForceMethod::kScan, query::AccessMethod::kFullScan},
        {ForceMethod::kDocIdList, query::AccessMethod::kDocIdList},
        {ForceMethod::kNodeIdList, query::AccessMethod::kNodeIdList},
        {ForceMethod::kStructural, query::AccessMethod::kStructuralScan}};
    for (const auto& [force, method] : kPlans) {
      const std::string where =
          step + ", " + query::AccessMethodName(method) + ": ";
      QueryOptions o;
      o.force = force;
      o.want_values = true;
      auto all = coll->Query(nullptr, "/shop/p[price > 0]/price", o);
      ASSERT_TRUE(all.ok()) << where << all.status().ToString();
      EXPECT_EQ(all.value().stats.method, method) << where;
      std::vector<std::string> got;
      for (const ResultNode& n : all.value().nodes)
        got.push_back(n.string_value);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, prices) << where;
      for (const std::string& price : prices) {
        auto one = coll->Query(nullptr,
                               "/shop/p[price = " + price + "]/price", o);
        ASSERT_TRUE(one.ok()) << where << one.status().ToString();
        EXPECT_EQ(one.value().nodes.size(), 1u) << where << "price " << price;
      }
    }
  };

  // A text update, a subtree delete and the document delete all find the
  // entries the edits left behind. `prices` in document order.
  auto expect_writable = [&](Collection* coll, uint64_t doc,
                             std::vector<std::string> prices,
                             const std::string& step) {
    auto texts = coll->Query(nullptr, "/shop/p/price/text()", scan);
    ASSERT_TRUE(texts.ok()) << step << ": " << texts.status().ToString();
    ASSERT_EQ(texts.value().nodes.size(), prices.size()) << step;
    Status st = coll->UpdateTextNode(nullptr, doc,
                                     texts.value().nodes[0].node_id, "99");
    ASSERT_TRUE(st.ok()) << step << ", text update: " << st.ToString();
    prices[0] = "99";
    expect_agree(coll, prices, step + ", text update");
    st = coll->DeleteSubtree(nullptr, doc, p_ids(coll)[0]);
    ASSERT_TRUE(st.ok()) << step << ", subtree delete: " << st.ToString();
    prices.erase(prices.begin());
    expect_agree(coll, prices, step + ", subtree delete");
    const uint64_t before = coll->DocCount().value();
    st = coll->DeleteDocument(nullptr, doc);
    ASSERT_TRUE(st.ok()) << step << ", document delete: " << st.ToString();
    EXPECT_EQ(coll->DocCount().value(), before - 1) << step;
  };

  // (a) Insert a <p> between two siblings.
  uint64_t doc = coll_->InsertDocument(nullptr,
                                       "<shop><p><price>10</price></p>"
                                       "<p><price>30</price></p></shop>")
                     .value();
  auto mid = coll_->InsertSubtree(nullptr, doc, shop_id, p_ids(coll_)[0],
                                  "<p><price>20</price></p>");
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(Text(doc),
            "<shop><p><price>10</price></p><p><price>20</price></p>"
            "<p><price>30</price></p></shop>");
  expect_agree(coll_, {"10", "20", "30"}, "positional insert");
  expect_writable(coll_, doc, {"10", "20", "30"}, "positional insert");

  // (b) Delete the first of three <p>s.
  const std::string three =
      "<shop><p><price>10</price></p><p><price>20</price></p>"
      "<p><price>30</price></p></shop>";
  doc = coll_->InsertDocument(nullptr, three).value();
  ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, p_ids(coll_)[0]).ok());
  expect_agree(coll_, {"20", "30"}, "first-child delete");
  expect_writable(coll_, doc, {"20", "30"}, "first-child delete");

  // (c) Delete a non-last <p> before any index exists; creating the indexes
  // then backfills from the edited document.
  CollectionOptions copts;
  copts.record_budget = 150;
  Collection* plain = engine_->CreateCollection("plain", copts).value();
  doc = plain->InsertDocument(nullptr, three).value();
  ASSERT_TRUE(plain->DeleteSubtree(nullptr, doc, p_ids(plain)[1]).ok());
  ASSERT_TRUE(plain->CreateValueIndex(kPriceIndex).ok());
  ASSERT_TRUE(plain->CreateStructuralIndex(kStructure).ok());
  expect_agree(plain, {"10", "30"}, "backfill");
  expect_writable(plain, doc, {"10", "30"}, "backfill");
}

TEST_F(SubtreeOpsTest, MultiRecordSubtreeInsertAndDelete) {
  uint64_t doc =
      coll_->InsertDocument(nullptr, "<root><keep>stay</keep></root>").value();
  std::string root_id = nodeid::ChildId(1);
  // A fragment much larger than the 150-byte record budget: it is packed
  // into several records, at the budget documents are packed at; deleting
  // it must reclaim them all.
  std::string big = "<big>";
  for (int i = 0; i < 40; i++)
    big += "<leaf n=\"" + std::to_string(i) + "\">payload payload</leaf>";
  big += "</big>";
  const uint64_t live_before = coll_->records()->stats().live_records;
  auto big_id = coll_->InsertSubtree(nullptr, doc, root_id, Slice(), big);
  ASSERT_TRUE(big_id.ok()) << big_id.status().ToString();
  EXPECT_GT(coll_->records()->stats().live_records, live_before + 1);
  auto leaves = coll_->Query(nullptr, "/root/big/leaf").MoveValue();
  EXPECT_EQ(leaves.nodes.size(), 40u);

  ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, big_id.value()).ok());
  EXPECT_EQ(coll_->records()->stats().live_records, live_before);
  EXPECT_EQ(Text(doc), "<root><keep>stay</keep></root>");
  EXPECT_TRUE(
      coll_->Query(nullptr, "/root/big/leaf").MoveValue().nodes.empty());
}

TEST_F(SubtreeOpsTest, DeleteProxiedSubtreeReclaimsRecords) {
  // Small budget: <hot> gets evicted into its own record(s); deleting it
  // must drop those records and the proxy.
  uint64_t doc = coll_->InsertDocument(
                          nullptr,
                          "<r><hot>" + std::string(400, 'x') + "</hot>"
                          "<cold>keep</cold></r>")
                     .value();
  auto hot = coll_->Query(nullptr, "/r/hot").MoveValue();
  ASSERT_EQ(hot.nodes.size(), 1u);
  uint64_t deletes_before = coll_->records()->stats().deletes;
  ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, hot.nodes[0].node_id).ok());
  EXPECT_GT(coll_->records()->stats().deletes, deletes_before);
  EXPECT_EQ(Text(doc), "<r><cold>keep</cold></r>");
}

// <m> with n <s> children. At the 150-byte budget the builder packs
// children 1-7 into one record whose context node is <m>; the rest stay in
// the root record, which holds proxies for the packed ones.
std::vector<std::string> SiblingTexts(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; i++)
    out.push_back("<s>value-number-" + std::to_string(i) + "</s>");
  return out;
}

std::string SiblingsDoc(const std::vector<std::string>& children) {
  std::string xml = "<m>";
  for (const std::string& child : children) xml += child;
  return xml + "</m>";
}

TEST_F(SubtreeOpsTest, DeletePackedSiblingKeepsTheOthers) {
  ASSERT_TRUE(coll_->CreateValueIndex({"s", "/m/s"}).ok());
  ASSERT_TRUE(coll_->CreateStructuralIndex({"structure", ""}).ok());
  std::vector<std::string> model = SiblingTexts(12);
  uint64_t doc = coll_->InsertDocument(nullptr, SiblingsDoc(model)).value();
  ASSERT_EQ(coll_->records()->stats().live_records, 2u);
  NodeSequence s = coll_->Query(nullptr, "/m/s").MoveValue().nodes;
  ASSERT_EQ(s.size(), 12u);

  ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, s[1].node_id).ok());
  // Checked before anything reads the document: the packed record keeps
  // the other six siblings.
  ASSERT_EQ(coll_->records()->stats().live_records, 2u);
  model.erase(model.begin() + 1);
  EXPECT_EQ(Text(doc), SiblingsDoc(model));
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll_), "");
  ASSERT_TRUE(coll_->DeleteDocument(nullptr, doc).ok());
  EXPECT_EQ(coll_->records()->stats().live_records, 0u);
}

TEST_F(SubtreeOpsTest, InsertBetweenPackedSiblingsKeepsThemAll) {
  ASSERT_TRUE(coll_->CreateValueIndex({"s", "/m/s"}).ok());
  ASSERT_TRUE(coll_->CreateStructuralIndex({"structure", ""}).ok());
  const std::vector<std::string> original = SiblingTexts(12);
  std::vector<std::string> model = original;
  uint64_t doc = coll_->InsertDocument(nullptr, SiblingsDoc(model)).value();
  NodeSequence s = coll_->Query(nullptr, "/m/s").MoveValue().nodes;
  ASSERT_EQ(s.size(), 12u);
  const std::string m_id = nodeid::ChildId(1);

  // After the 1st and after the 5th child: both inside the packed run.
  auto a = coll_->InsertSubtree(nullptr, doc, m_id, s[0].node_id,
                                "<s>inserted-a</s>");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = coll_->InsertSubtree(nullptr, doc, m_id, s[4].node_id,
                                "<s>inserted-b</s>");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  model.insert(model.begin() + 1, "<s>inserted-a</s>");
  model.insert(model.begin() + 6, "<s>inserted-b</s>");
  EXPECT_EQ(Text(doc), SiblingsDoc(model));
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  NodeSequence all = coll_->Query(nullptr, "/m/s", scan).MoveValue().nodes;
  ASSERT_EQ(all.size(), model.size());
  for (size_t i = 0; i < all.size(); i++) {
    auto text = coll_->SerializeSubtree(nullptr, doc, all[i].node_id);
    ASSERT_TRUE(text.ok()) << i << ": " << text.status().ToString();
    EXPECT_EQ(text.value(), model[i]) << i;
  }
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll_), "");

  ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, a.value()).ok());
  ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, b.value()).ok());
  EXPECT_EQ(Text(doc), SiblingsDoc(original));
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll_), "");
}

TEST_F(SubtreeOpsTest, ErrorCases) {
  uint64_t doc =
      coll_->InsertDocument(nullptr, "<a><b>t</b></a>").value();
  std::string a_id = nodeid::ChildId(1);
  std::string b_id = a_id + nodeid::ChildId(1);
  // Root element cannot be deleted; the document node is not a parent.
  EXPECT_FALSE(coll_->DeleteSubtree(nullptr, doc, a_id).ok());
  EXPECT_FALSE(coll_->DeleteSubtree(nullptr, doc, Slice()).ok());
  EXPECT_FALSE(
      coll_->InsertSubtree(nullptr, doc, Slice(), Slice(), "<x/>").ok());
  // after-sibling must be a child of the parent.
  EXPECT_TRUE(coll_->InsertSubtree(nullptr, doc, a_id, b_id + "zz", "<x/>")
                  .status()
                  .IsNotFound());
  // Fragment must be a single element. One with a comment beside its root
  // parses, and is turned down before any index entry moves.
  EXPECT_FALSE(
      coll_->InsertSubtree(nullptr, doc, a_id, Slice(), "<x/><y/>").ok());
  ASSERT_TRUE(coll_->CreateValueIndex({"a", "/a"}).ok());
  EXPECT_EQ(coll_->InsertSubtree(nullptr, doc, a_id, Slice(), "<x/><!--c-->")
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(testing::CheckIndexesMatchBackfill(coll_), "");
  EXPECT_EQ(Text(doc), "<a><b>t</b></a>");
  // MVCC collections decline subtree ops for now.
  CollectionOptions mvcc;
  mvcc.mvcc = true;
  Collection* vcoll = engine_->CreateCollection("v", mvcc).value();
  uint64_t vdoc = vcoll->InsertDocument(nullptr, "<a><b/></a>").value();
  EXPECT_EQ(vcoll->InsertSubtree(nullptr, vdoc, nodeid::ChildId(1), Slice(),
                                 "<x/>")
                .status()
                .code(),
            Status::Code::kNotSupported);
}

TEST_F(SubtreeOpsTest, DifferentialAgainstRebuiltDocument) {
  // Random edits — element, attribute and text-node deletes, positional
  // inserts, and a text update every third step — mirrored against a plain
  // XML-string model: serialize after every step and compare. After every
  // step each index must also hold exactly what a fresh backfill of the
  // edited document would; /m is an ancestor whose string value every edit
  // changes.
  ASSERT_TRUE(coll_->CreateValueIndex({"m", "/m"}).ok());
  ASSERT_TRUE(coll_->CreateValueIndex({"s", "/m/s"}).ok());
  ASSERT_TRUE(
      coll_->CreateValueIndex({"i", "//s/@i", ValueType::kDouble}).ok());
  ASSERT_TRUE(coll_->CreateStructuralIndex({"structure", ""}).ok());
  Random rng(808);
  // Eight children: the first seven start out packed into one record.
  uint64_t doc =
      coll_->InsertDocument(nullptr, SiblingsDoc(SiblingTexts(8))).value();
  std::string m_id = nodeid::ChildId(1);
  // A random node matching `path` ("" when none does).
  auto pick = [&](const char* path) {
    NodeSequence nodes = coll_->Query(nullptr, path).MoveValue().nodes;
    return nodes.empty() ? std::string()
                         : nodes[rng.Uniform(nodes.size())].node_id;
  };
  int next = 0;
  for (int step = 0; step < 40; step++) {
    std::string victim;
    switch (rng.Uniform(6)) {
      case 0: victim = pick("/m/*"); break;
      case 1: victim = pick("//s/@i"); break;
      case 2: victim = pick("//s/text()"); break;
      default: break;
    }
    if (!victim.empty()) {
      ASSERT_TRUE(coll_->DeleteSubtree(nullptr, doc, victim).ok()) << step;
    } else {
      std::string frag =
          "<s i=\"" + std::to_string(next++) + "\">v</s>";
      std::string after = rng.OneIn(2) ? pick("/m/*") : "";
      ASSERT_TRUE(
          coll_->InsertSubtree(nullptr, doc, m_id, after, frag).ok())
          << step;
    }
    if (step % 3 == 2) {
      std::string text = pick("//text()");
      if (!text.empty()) {
        ASSERT_TRUE(coll_->UpdateTextNode(nullptr, doc, text,
                                          "t" + std::to_string(step))
                        .ok())
            << step;
      }
    }
    ASSERT_EQ(testing::CheckIndexesMatchBackfill(coll_), "") << step;
    // The document must always re-serialize and re-parse cleanly, and a
    // fresh insert of the serialized text must round-trip identically.
    std::string text = Text(doc);
    uint64_t copy = coll_->InsertDocument(nullptr, text).value();
    EXPECT_EQ(Text(copy), text) << step;
    ASSERT_TRUE(coll_->DeleteDocument(nullptr, copy).ok());
  }
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("xdb_engine_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++)))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineOptions FileOptions() {
    EngineOptions opts;
    opts.dir = dir_;
    return opts;
  }

  std::string dir_;
  static int counter_;
};
int PersistenceTest::counter_ = 0;

TEST_F(PersistenceTest, CheckpointAndReopen) {
  uint64_t doc;
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    ASSERT_TRUE(
        engine->RegisterSchema("catalog", workload::CatalogSchemaText()).ok());
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(coll->CreateValueIndex(
                        {"pidx", "/cat/p/price", ValueType::kDouble, 128})
                    .ok());
    doc = coll->InsertDocument(nullptr,
                               "<cat><p><price>42</price></p></cat>")
              .value();
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  {
    auto engine = Engine::Open(FileOptions()).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    EXPECT_EQ(coll->GetDocumentText(nullptr, doc).value(),
              "<cat><p><price>42</price></p></cat>");
    // Indexes survive: the indexed plan finds the document.
    QueryOptions o;
    o.force = ForceMethod::kDocIdList;
    auto res = coll->Query(nullptr, "/cat/p[price = 42]", o).MoveValue();
    EXPECT_EQ(res.nodes.size(), 1u);
    // The schema registry also survives.
    EXPECT_TRUE(engine->FindSchema("catalog").ok());
    // And new inserts continue with fresh doc ids.
    uint64_t doc2 =
        coll->InsertDocument(nullptr, "<cat><p><price>1</price></p></cat>")
            .value();
    EXPECT_GT(doc2, doc);
  }
}

TEST_F(PersistenceTest, WalReplayRestoresUncheckpointedWork) {
  {
    // The crash is simulated by leaking the engine: its destructor (which
    // would checkpoint and flush) never runs, so the data pages and catalog
    // stay at their last checkpointed state while the WAL has the tail.
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    coll->InsertDocument(nullptr, "<a>one</a>").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    coll->InsertDocument(nullptr, "<a>two</a>").value();
    coll->InsertDocument(nullptr, "<a>three</a>").value();
    ASSERT_TRUE(coll->DeleteDocument(nullptr, 1).ok());
    // ... crash: `crashed` is intentionally leaked.
  }
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  // Replay re-applies: insert two, insert three, delete one.
  EXPECT_TRUE(coll->GetDocumentText(nullptr, 1).status().IsNotFound());
  EXPECT_EQ(coll->GetDocumentText(nullptr, 2).value(), "<a>two</a>");
  EXPECT_EQ(coll->GetDocumentText(nullptr, 3).value(), "<a>three</a>");
  // Post-recovery inserts pick unused doc ids.
  uint64_t d4 = coll->InsertDocument(nullptr, "<a>four</a>").value();
  EXPECT_GE(d4, 4u);
}

TEST_F(PersistenceTest, WalReplaysSubtreeOperations) {
  {
    Engine* crashed = IntentionallyLeaked(Engine::Open(FileOptions()).MoveValue().release());
    Collection* coll = crashed->CreateCollection("docs").value();
    uint64_t doc =
        coll->InsertDocument(nullptr, "<l><i>a</i><i>c</i></l>").value();
    ASSERT_TRUE(crashed->Checkpoint().ok());
    // Post-checkpoint subtree work, then crash (leak).
    auto items = coll->Query(nullptr, "/l/i").MoveValue();
    ASSERT_TRUE(coll->InsertSubtree(nullptr, doc, nodeid::ChildId(1),
                                    items.nodes[0].node_id, "<i>b</i>")
                    .ok());
    auto a_node = coll->Query(nullptr, "/l/i").MoveValue();
    ASSERT_TRUE(
        coll->DeleteSubtree(nullptr, doc, a_node.nodes[0].node_id).ok());
  }
  auto engine = Engine::Open(FileOptions()).MoveValue();
  Collection* coll = engine->GetCollection("docs").value();
  EXPECT_EQ(coll->GetDocumentText(nullptr, 1).value(),
            "<l><i>b</i><i>c</i></l>");
}

TEST(CorruptionTest, TruncatedRecordYieldsStatusNotCrash) {
  // A record whose bytes are damaged must surface kCorruption through every
  // reader, never UB.
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<a><b>x</b><c y=\"1\"/></a>", &tokens).ok());
  auto records = PackDocument(tokens.data()).MoveValue();
  std::string bytes = records[0].bytes;
  for (size_t cut = 1; cut < bytes.size(); cut += 3) {
    std::string damaged = bytes.substr(0, cut);
    RecordWalker walker((Slice(damaged)));
    Status st = walker.Init();
    if (!st.ok()) continue;  // header already rejects it
    for (;;) {
      RecordWalker::Event ev;
      st = walker.Next(&ev);
      if (!st.ok() || ev.type == RecordWalker::EventType::kDone) break;
    }
    // Either a clean end (the cut landed on an entry boundary) or a
    // corruption status — both acceptable; crashes are not.
  }
  // Bit flips in the structural area.
  Random rng(99);
  for (int i = 0; i < 200; i++) {
    std::string damaged = bytes;
    damaged[rng.Uniform(damaged.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    RecordWalker walker((Slice(damaged)));
    if (!walker.Init().ok()) continue;
    for (int guard = 0; guard < 1000; guard++) {
      RecordWalker::Event ev;
      Status st = walker.Next(&ev);
      if (!st.ok() || ev.type == RecordWalker::EventType::kDone) break;
    }
  }
}

TEST(CorruptionTest, GarbageCatalogRejected) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("xdb_garbage_cat_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/catalog.xdb", std::ios::binary);
    out << "this is definitely not a catalog";
  }
  EngineOptions opts;
  opts.dir = dir;
  auto res = Engine::Open(opts);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), Status::Code::kCorruption);
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, TruncatedCompiledSchemaRejected) {
  auto cs = schema::CompileSchemaText(workload::CatalogSchemaText());
  ASSERT_TRUE(cs.ok());
  std::string binary;
  cs.value().Serialize(&binary);
  for (size_t cut : {0u, 3u, 10u, 50u}) {
    if (cut >= binary.size()) continue;
    auto res =
        schema::CompiledSchema::Deserialize(binary.substr(0, cut));
    EXPECT_FALSE(res.ok()) << cut;
  }
}

// --- EXPLAIN / trace / metrics (DESIGN.md §Observability) ---

// The streaming path: no usable index, QuickXScan over every document. The
// plan text is deterministic by design (no timings, no pointers), so the
// golden pins the exact format.
TEST(ExplainTest, FullScanPlanGolden) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(
      coll->InsertDocument(nullptr, "<cat><p><price>10</price></p></cat>")
          .ok());
  ASSERT_TRUE(
      coll->InsertDocument(nullptr, "<cat><p><price>3</price></p></cat>")
          .ok());
  QueryOptions o;
  o.explain = true;
  auto res = coll->Query(nullptr, "/cat/p[price > 5]", o).MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);
  // "(heuristic)" because no index covers the predicates — the plan came
  // from a structural rule, not the cost model; "plan cache: miss" because
  // this query text was never compiled before.
  EXPECT_EQ(res.PlanText(),
            "query: /cat/p[price > 5.000000]\n"
            "access path: full-scan (no index covers the predicates)\n"
            "stats: epoch=2 docs=2 records/doc=1.00 nodes/doc=4.00"
            " (heuristic)\n"
            "plan cache: miss\n"
            "recheck: yes\n"
            "cardinality: postings=0 candidate_docs=2 candidate_anchors=0"
            " docs_evaluated=2 records_fetched=2 results=1\n"
            "scan: events=18 instances=8 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");
  // The timed rendering adds phases; "total" is always last.
  std::string text = res.ToText();
  EXPECT_NE(text.find("pages fetched:"), std::string::npos);
  EXPECT_NE(text.find("phase total"), std::string::npos);
  ASSERT_FALSE(res.profile.phases.empty());
  EXPECT_EQ(res.profile.phases.back().name, "total");
}

// The index path: two exact-match probes combined by DocID ANDing.
TEST(ExplainTest, IndexAndingPlanGolden) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "/cat/p/price", ValueType::kDouble, 128})
                  .ok());
  ASSERT_TRUE(
      coll->CreateValueIndex({"qty", "/cat/p/qty", ValueType::kDouble, 128})
          .ok());
  ASSERT_TRUE(coll->InsertDocument(
                      nullptr,
                      "<cat><p><price>10</price><qty>5</qty></p></cat>")
                  .ok());
  ASSERT_TRUE(coll->InsertDocument(
                      nullptr,
                      "<cat><p><price>10</price><qty>7</qty></p></cat>")
                  .ok());
  ASSERT_TRUE(coll->InsertDocument(
                      nullptr,
                      "<cat><p><price>8</price><qty>5</qty></p></cat>")
                  .ok());
  // A forced DocID plan pins the probe line format. The cost-based choice
  // on this tiny collection is covered by planner_test.cc.
  QueryOptions o;
  o.explain = true;
  o.force = ForceMethod::kDocIdList;
  auto res =
      coll->Query(nullptr, "/cat/p[price = 10 and qty = 5]", o).MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);
  EXPECT_EQ(res.PlanText(),
            "query: /cat/p[price = 10.000000 and qty = 5.000000]\n"
            "access path: docid-anding/oring (forced)\n"
            "  probe: /cat/p/qty = ... index 'qty' (exact)\n"
            "  probe: /cat/p/price = ... index 'price' (exact)\n"
            "  combine: ANDing\n"
            "stats: epoch=5 docs=3 records/doc=1.00 nodes/doc=6.00"
            " (heuristic)\n"
            "plan cache: miss\n"
            "recheck: no\n"
            "cardinality: postings=4 candidate_docs=1 candidate_anchors=0"
            " docs_evaluated=1 records_fetched=1 results=1\n"
            "scan: events=12 instances=5 peak_live=4\n"
            "parallelism: 1 (chunks=1)\n");
  // The cost-based planner, seeing only 3 documents, prices the full scan
  // below two index descends and flips the plan — same answer either way.
  QueryOptions auto_o;
  auto_o.explain = true;
  auto auto_res =
      coll->Query(nullptr, "/cat/p[price = 10 and qty = 5]", auto_o)
          .MoveValue();
  ASSERT_EQ(auto_res.nodes.size(), 1u);
  EXPECT_EQ(auto_res.profile.access_method, "full-scan");
  EXPECT_TRUE(auto_res.profile.cost_based);
  EXPECT_NE(auto_res.profile.reason.find("cost:"), std::string::npos);
}

// trace=true implies explain and adds per-step trace lines.
TEST(ExplainTest, TraceAddsStepLines) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "/cat/p/price", ValueType::kDouble, 128})
                  .ok());
  // Enough documents with distinct prices that the cost model picks the
  // index probe over the full scan (1 estimated match vs 8 doc evals).
  for (int i = 0; i < 8; i++) {
    std::string doc = "<cat><p><price>" + std::to_string(10 + i) +
                      "</price></p></cat>";
    ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
  }
  QueryOptions o;
  o.trace = true;
  auto res = coll->Query(nullptr, "/cat/p[price = 10]", o).MoveValue();
  EXPECT_TRUE(res.profile.enabled);
  EXPECT_TRUE(res.profile.trace);
  ASSERT_FALSE(res.profile.trace_lines.empty());
  EXPECT_NE(res.profile.trace_lines[0].find("index 'price'"),
            std::string::npos);
  EXPECT_NE(res.ToText().find("trace: "), std::string::npos);
}

// Plain queries must not pay for profiling: the profile stays disabled and
// empty, while the always-on engine counters still tick.
TEST(ExplainTest, DisabledByDefault) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  auto res = coll->Query(nullptr, "/a/b").MoveValue();
  EXPECT_FALSE(res.profile.enabled);
  EXPECT_TRUE(res.profile.probes.empty());
  EXPECT_TRUE(res.profile.phases.empty());
  EXPECT_EQ(engine->MetricsSnapshot().Value("query.executions"), 1u);
}

TEST(MetricsTest, SnapshotCoversEverySubsystem) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  auto res = coll->Query(nullptr, "/a/b").MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);

  obs::MetricsSnapshot snap = engine->MetricsSnapshot();
  // One metric per canonical name, each subsystem represented.
  for (const char* name :
       {"buffer.hits", "buffer.misses", "buffer.evictions",
        "buffer.writebacks", "buffer.checksum_failures", "record.inserts",
        "record.live_records", "record.data_pages", "space.pages",
        "btree.descents", "io.reads", "io.writes",
        "io.syncs", "io.retries", "lock.acquisitions", "lock.deadlocks",
        "query.executions", "query.parallel_executions", "query.latency_us",
        "engine.collections", "events.emitted", "events.overwritten"}) {
    EXPECT_NE(snap.Find(name), nullptr) << name;
  }
  EXPECT_EQ(snap.Value("engine.collections"), 1u);
  EXPECT_EQ(snap.Value("record.inserts"), 1u);
  EXPECT_EQ(snap.Value("record.live_records"), 1u);
  EXPECT_EQ(snap.Value("query.executions"), 1u);
  EXPECT_GT(snap.Value("buffer.hits"), 0u);
  EXPECT_EQ(snap.Value("lock.deadlocks"), 0u);
  const obs::Metric* lat = snap.Find("query.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(lat->hist.count, 1u);
  // The whole snapshot serializes and round-trips.
  auto back = obs::MetricsSnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().metrics.size(), snap.metrics.size());
  EXPECT_NE(snap.ToText().find("query.latency_us"), std::string::npos);
}

TEST(MetricsTest, WalCommitMetricsAndEvents) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("xdb_obs_wal_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  {
    EngineOptions opts;
    opts.dir = dir;
    opts.sync_commits = true;
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>1</a>").ok());
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>2</a>").ok());

    obs::MetricsSnapshot snap = engine->MetricsSnapshot();
    EXPECT_GE(snap.Value("wal.commits"), 2u);
    EXPECT_GE(snap.Value("wal.group_commit.rounds"), 1u);
    EXPECT_GT(snap.Value("wal.io.writes"), 0u);
    const obs::Metric* batch = snap.Find("wal.group_commit.batch_size");
    ASSERT_NE(batch, nullptr);
    EXPECT_GE(batch->hist.count, 1u);

    ASSERT_TRUE(engine->Checkpoint().ok());
    // The event log saw the recovery bracket from Open and the checkpoint.
    std::vector<obs::Event> events = engine->RecentEvents();
    ASSERT_GE(events.size(), 4u);
    EXPECT_EQ(events[0].kind, obs::EventKind::kRecoveryBegin);
    EXPECT_EQ(events[1].kind, obs::EventKind::kRecoveryEnd);
    bool saw_begin = false, saw_end = false;
    for (const obs::Event& e : events) {
      if (e.kind == obs::EventKind::kCheckpointBegin) saw_begin = true;
      if (e.kind == obs::EventKind::kCheckpointEnd) saw_end = true;
    }
    EXPECT_TRUE(saw_begin);
    EXPECT_TRUE(saw_end);
    for (size_t i = 1; i < events.size(); i++)
      EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  std::filesystem::remove_all(dir);
}

// space.pages counts every table-space page, index pages included: after a
// checkpoint it is the size of the collections' .xts files, in pages.
TEST(MetricsTest, SpacePagesMatchTableSpaceFiles) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("xdb_space_pages_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  {
    EngineOptions opts;
    opts.dir = dir;
    auto engine = Engine::Open(opts).MoveValue();
    Collection* plain = engine->CreateCollection("plain").value();
    Collection* indexed = engine->CreateCollection("indexed").value();
    ASSERT_TRUE(indexed->CreateValueIndex({"b", "/a/b"}).ok());
    ASSERT_TRUE(indexed->CreateStructuralIndex({"structure", ""}).ok());
    for (int i = 0; i < 200; i++) {
      std::string xml = "<a><b>" + std::to_string(i) + "</b><c/><c/></a>";
      ASSERT_TRUE(plain->InsertDocument(nullptr, xml).ok());
      ASSERT_TRUE(indexed->InsertDocument(nullptr, xml).ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    uint64_t file_bytes = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      if (entry.path().extension() == ".xts")
        file_bytes += std::filesystem::file_size(entry.path());
    obs::MetricsSnapshot snap = engine->MetricsSnapshot();
    const uint64_t pages = snap.Value("space.pages");
    EXPECT_EQ(pages * kDefaultPageSize, file_bytes);
    // Index pages are in it; record.data_pages counts records only.
    EXPECT_GT(pages, snap.Value("record.data_pages") + 2);
  }
  std::filesystem::remove_all(dir);
}

// --- wait-state attribution, slow-query ring, DebugSnapshot (this PR) ---

// The acceptance scenario: a cold-cache indexed query's EXPLAIN shows where
// the time went (buffer-miss I/O must appear after a reopen) and the phase
// lines account for the total.
TEST(WaitAttributionTest, ColdCacheExplainShowsWaitBreakdown) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("xdb_waits_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  // Large documents + a deliberately tiny buffer pool: writing 64 ~6KB
  // documents through 8 frames leaves almost none of them resident, so
  // evaluating every candidate must take the miss path (kBufferIo) — the
  // same read path a freshly reopened (cold) pool takes.
  constexpr int kDocs = 64;
  const std::string payload(6000, 'x');
  {
    EngineOptions opts;
    opts.dir = dir;
    auto engine = Engine::Open(opts).MoveValue();
    CollectionOptions copts;
    copts.buffer_pages = 8;
    Collection* coll = engine->CreateCollection("docs", copts).value();
    ASSERT_TRUE(coll->CreateValueIndex(
                        {"price", "/cat/p/price", ValueType::kDouble, 128})
                    .ok());
    for (int i = 0; i < kDocs; i++) {
      std::string doc = "<cat><p><price>" + std::to_string(i) +
                        "</price><desc>" + payload + "</desc></p></cat>";
      ASSERT_TRUE(coll->InsertDocument(nullptr, doc).ok());
    }
    ASSERT_TRUE(engine->Checkpoint().ok());
    QueryOptions o;
    o.explain = true;
    o.force = ForceMethod::kDocIdList;
    // The result is desc's text, so every candidate's payload is read (a
    // query that only tests price skips desc's children).
    auto res =
        coll->Query(nullptr, "/cat/p[price >= 0]/desc/text()", o).MoveValue();
    ASSERT_EQ(res.nodes.size(), static_cast<size_t>(kDocs));

    const obs::QueryProfile& prof = res.profile;
    ASSERT_FALSE(prof.waits.empty());
    uint64_t line_sum = 0;
    const obs::QueryProfile::WaitLine* buffer_io = nullptr;
    for (const auto& w : prof.waits) {
      EXPECT_GT(w.count, 0u) << w.state;
      line_sum += w.total_us;
      if (std::string(w.state) == "buffer_io") buffer_io = &w;
    }
    ASSERT_NE(buffer_io, nullptr) << res.ToText();
    EXPECT_GT(buffer_io->count, 0u);
    EXPECT_EQ(prof.wait_total_us, line_sum);
    std::string text = res.ToText();
    EXPECT_NE(text.find("wait  buffer_io"), std::string::npos) << text;
    EXPECT_NE(text.find("wait total: "), std::string::npos) << text;

    // Phase accounting: "total" covers plan + execution, and the timed
    // phases (plan, probe, merge, eval) sum to it within 10% plus a small
    // absolute slack for untimed glue on very fast queries.
    ASSERT_FALSE(prof.phases.empty());
    ASSERT_EQ(prof.phases.back().name, "total");
    const uint64_t total = prof.phases.back().wall_us;
    uint64_t phase_sum = 0;
    for (const auto& ph : prof.phases)
      if (ph.name != "total") phase_sum += ph.wall_us;
    EXPECT_LE(phase_sum, total + total / 10 + 200) << res.ToText();
    EXPECT_GE(phase_sum + total / 10 + 200, total) << res.ToText();
    // The attributed waits are part of the measured wall time, never more.
    EXPECT_LE(prof.wait_total_us, total + total / 10 + 200);
  }
  std::filesystem::remove_all(dir);
}

TEST(SlowQueryTest, RingCapturesOverThreshold) {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  opts.slow_query_us = 1;  // everything is slow
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  auto res = coll->Query(nullptr, "/a/b").MoveValue();
  ASSERT_EQ(res.nodes.size(), 1u);

  std::vector<obs::SlowQueryRecord> recent = engine->slow_queries()->Recent();
  ASSERT_EQ(recent.size(), 1u);
  const obs::SlowQueryRecord& rec = recent[0];
  EXPECT_EQ(rec.collection, "docs");
  EXPECT_EQ(rec.query, "/a/b");
  EXPECT_EQ(rec.access_method, "full-scan");
  EXPECT_EQ(rec.results, 1u);
  EXPECT_GE(rec.parallelism, 1u);
  EXPECT_GE(rec.wall_us, 1u);
  EXPECT_GT(rec.timestamp_us, 0u);
  // The capture carries the full wait breakdown of the query.
  EXPECT_LE(rec.TotalWaitUs(), rec.wall_us);
  // And the always-on counters see the ring.
  EXPECT_EQ(engine->MetricsSnapshot().Value("slowlog.recorded"), 1u);
}

TEST(SlowQueryTest, ZeroThresholdDisablesCapture) {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  opts.slow_query_us = 0;
  auto engine = Engine::Open(opts).MoveValue();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  ASSERT_TRUE(coll->Query(nullptr, "/a/b").ok());
  EXPECT_TRUE(engine->slow_queries()->Recent().empty());
}

TEST(EngineDebugSnapshotTest, CapturesStateAndRoundTrips) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("xdb_snap_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  {
    EngineOptions opts;
    opts.dir = dir;
    opts.slow_query_us = 1;
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(
          coll->InsertDocument(nullptr, "<a><b>" + std::to_string(i) +
                                            "</b></a>")
              .ok());
    }
    ASSERT_TRUE(coll->Query(nullptr, "/a/b").ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    // Post-checkpoint WAL traffic so the snapshot sees a non-empty log.
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>post</b></a>").ok());

    obs::DebugSnapshot snap = engine->DebugSnapshot();
    EXPECT_GT(snap.captured_at_us, 0u);
    EXPECT_EQ(snap.role, "primary");
    EXPECT_GT(snap.wal_size, 0u);
    ASSERT_EQ(snap.collections.size(), 1u);
    const obs::DebugSnapshot::CollectionInfo& c = snap.collections[0];
    EXPECT_EQ(c.name, "docs");
    EXPECT_EQ(c.doc_count, 6u);
    EXPECT_GT(c.node_count, 0u);
    EXPECT_GT(c.buffer_capacity, 0u);
    EXPECT_LE(c.buffer_resident, c.buffer_capacity);
    EXPECT_GT(c.buffer_hits + c.buffer_misses, 0u);
    // The snapshot embeds the other two observability layers wholesale.
    EXPECT_NE(snap.metrics.Find("buffer.hits"), nullptr);
    EXPECT_NE(snap.metrics.Find("wait.buffer_io.us"), nullptr);
    ASSERT_FALSE(snap.events.empty());
    ASSERT_FALSE(snap.slow_queries.empty());
    EXPECT_EQ(snap.slow_queries[0].query, "/a/b");

    // The xdb_top contract: serialize, parse, re-serialize, byte-equal.
    std::string json = snap.ToJson();
    auto back = obs::DebugSnapshot::FromJson(json);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().ToJson(), json);
    EXPECT_EQ(back.value().collections[0], c);
    std::string text = snap.ToText();
    EXPECT_NE(text.find("docs"), std::string::npos);
    EXPECT_NE(text.find("primary"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(MetricsTest, StructuralIndexStatsSurfaced) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  ASSERT_TRUE(
      coll->InsertDocument(nullptr, "<a><b>x</b><b>y</b></a>").ok());

  obs::MetricsSnapshot snap = engine->MetricsSnapshot();
  EXPECT_EQ(snap.Value("index.structural.indexes"), 1u);
  EXPECT_EQ(snap.Value("index.structural.entries"), 3u);  // a, b, b
  EXPECT_EQ(snap.Value("index.structural.entries_added"), 3u);
  EXPECT_EQ(snap.Value("index.structural.entries_removed"), 0u);
  EXPECT_EQ(snap.Value("index.structural.names"), 2u);
  EXPECT_EQ(snap.Value("index.structural.postings.a"), 1u);
  EXPECT_EQ(snap.Value("index.structural.postings.b"), 2u);

  // Removal keeps the lifetime counters monotonic while the gauges drop.
  ASSERT_TRUE(coll->DeleteDocument(nullptr, 1).ok());
  snap = engine->MetricsSnapshot();
  EXPECT_EQ(snap.Value("index.structural.entries"), 0u);
  EXPECT_EQ(snap.Value("index.structural.entries_added"), 3u);
  EXPECT_EQ(snap.Value("index.structural.entries_removed"), 3u);
}

}  // namespace
}  // namespace xdb
