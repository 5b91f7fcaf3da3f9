// Structural (pre,post)-interval index tests: the key/value codec, the
// event-walk derivation of (pre, post, level, subtree) numbers, B+tree
// scan order, and the engine-level lifecycle — DDL, backfill, maintenance
// across every mutation path, and planner-visible behaviour of the
// structural access method.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "engine/engine.h"
#include "index/structural_index.h"
#include "leak_check.h"
#include "runtime/virtual_sax.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"
#include "xml/name_dictionary.h"
#include "xml/node_id.h"
#include "xml/parser.h"

namespace xdb {
namespace {

// --- codec ---

TEST(StructuralCodecTest, KeyValueRoundTrip) {
  std::string key, value;
  EncodeStructuralKey(7, 0x123456789ABCDEFull, 42, &key);
  EXPECT_EQ(key.size(), 16u);
  NameId name = 0;
  uint64_t doc = 0;
  uint32_t pre = 0;
  ASSERT_TRUE(DecodeStructuralKey(Slice(key), &name, &doc, &pre).ok());
  EXPECT_EQ(name, 7u);
  EXPECT_EQ(doc, 0x123456789ABCDEFull);
  EXPECT_EQ(pre, 42u);

  std::string node_id = nodeid::ChildId(3);
  EncodeStructuralValue(9, 2, Slice(node_id), &value);
  uint32_t post = 0, level = 0;
  Slice got_id;
  ASSERT_TRUE(DecodeStructuralValue(Slice(value), &post, &level, &got_id).ok());
  EXPECT_EQ(post, 9u);
  EXPECT_EQ(level, 2u);
  EXPECT_EQ(got_id, Slice(node_id));

  EXPECT_FALSE(DecodeStructuralKey(Slice("short"), &name, &doc, &pre).ok());
  EXPECT_FALSE(DecodeStructuralValue(Slice("1234567"), &post, &level, &got_id)
                   .ok());
}

// Key bytes must sort by (name, doc, pre) so one name's entries are a
// contiguous range in (doc, document-order) order.
TEST(StructuralCodecTest, KeysSortByNameDocPre) {
  auto key = [](NameId n, uint64_t d, uint32_t p) {
    std::string k;
    EncodeStructuralKey(n, d, p, &k);
    return k;
  };
  EXPECT_LT(key(1, 9, 9), key(2, 0, 0));
  EXPECT_LT(key(2, 1, 9), key(2, 2, 0));
  EXPECT_LT(key(2, 2, 3), key(2, 2, 4));
}

// --- derivation from the virtual-SAX walk ---

std::vector<StructuralEntry> Derive(const std::string& xml,
                                    NameDictionary* dict) {
  Parser parser(dict);
  TokenWriter tokens;
  EXPECT_TRUE(parser.Parse(xml, &tokens).ok()) << xml;
  TokenStreamSource source(tokens.data());
  std::vector<StructuralEntry> entries;
  EXPECT_TRUE(DeriveStructuralEntries(&source, &entries).ok());
  return entries;
}

TEST(StructuralDeriveTest, NumbersPrePostLevelAndSubtree) {
  NameDictionary dict;
  //  <a>           pre=0 post=3 subtree=3
  //    <b>         pre=1 post=1 subtree=1
  //      <c/>      pre=2 post=0 subtree=0
  //    </b>
  //    <b/>        pre=3 post=2 subtree=0
  //  </a>
  std::vector<StructuralEntry> e = Derive("<a><b><c/></b><b/></a>", &dict);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[0].name_id, dict.Lookup("a"));
  EXPECT_EQ(e[0].pre, 0u);
  EXPECT_EQ(e[0].post, 3u);
  EXPECT_EQ(e[0].subtree_size, 3u);
  EXPECT_EQ(e[1].name_id, dict.Lookup("b"));
  EXPECT_EQ(e[1].pre, 1u);
  EXPECT_EQ(e[1].post, 1u);
  EXPECT_EQ(e[1].subtree_size, 1u);
  EXPECT_EQ(e[2].name_id, dict.Lookup("c"));
  EXPECT_EQ(e[2].pre, 2u);
  EXPECT_EQ(e[2].post, 0u);
  EXPECT_EQ(e[2].subtree_size, 0u);
  EXPECT_EQ(e[3].name_id, dict.Lookup("b"));
  EXPECT_EQ(e[3].pre, 3u);
  EXPECT_EQ(e[3].post, 2u);
  EXPECT_EQ(e[3].subtree_size, 0u);
  // Levels nest: root element 1, children 2, grandchildren 3.
  EXPECT_EQ(e[0].level + 1, e[1].level);
  EXPECT_EQ(e[1].level + 1, e[2].level);
  EXPECT_EQ(e[1].level, e[3].level);

  // The XISS/R ancestry test and Dewey prefix ancestry agree on every pair.
  for (size_t i = 0; i < e.size(); i++) {
    for (size_t j = 0; j < e.size(); j++) {
      if (i == j) continue;
      bool interval = e[i].pre < e[j].pre && e[j].post < e[i].post;
      bool prefix = nodeid::IsAncestor(Slice(e[i].node_id), Slice(e[j].node_id));
      EXPECT_EQ(interval, prefix) << i << " vs " << j;
    }
  }
}

TEST(StructuralDeriveTest, DeepRecursiveDocumentStaysConsistent) {
  NameDictionary dict;
  std::string xml;
  constexpr uint32_t kDepth = 40;
  for (uint32_t i = 0; i < kDepth; i++) xml += "<a>";
  xml += "<t>x</t>";
  for (uint32_t i = 0; i < kDepth; i++) xml += "</a>";
  std::vector<StructuralEntry> e = Derive(xml, &dict);
  ASSERT_EQ(e.size(), kDepth + 1);
  // The spine: each <a> contains everything below it.
  for (uint32_t i = 0; i < kDepth; i++) {
    EXPECT_EQ(e[i].pre, i);
    EXPECT_EQ(e[i].level, i + 1);
    EXPECT_EQ(e[i].subtree_size, kDepth - i);
    EXPECT_EQ(e[i].post, kDepth - i);
  }
}

// --- index-layer add / scan / remove ---

class StructuralIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 128);
    tree_ = BTree::Create(bm_.get()).MoveValue();
    index_ = std::make_unique<StructuralIndex>(
        StructuralIndexDef{"structure", ""}, tree_.get());
  }

  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<StructuralIndex> index_;
};

TEST_F(StructuralIndexTest, AddScanRemoveAcrossDocuments) {
  NameDictionary dict;
  // Insert doc 2 first, then doc 1: Scan must still return (doc, pre) order.
  std::vector<StructuralEntry> doc2 = Derive("<a><b/><b/></a>", &dict);
  std::vector<StructuralEntry> doc1 = Derive("<a><b><b/></b></a>", &dict);
  ASSERT_TRUE(index_->AddEntries(dict, 2, doc2).ok());
  ASSERT_TRUE(index_->AddEntries(dict, 1, doc1).ok());
  EXPECT_EQ(index_->CountEntries().value(), 6u);

  std::vector<StructuralPosting> hits;
  ASSERT_TRUE(index_->Scan(dict.Lookup("b"), &hits).ok());
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].doc_id, 1u);
  EXPECT_EQ(hits[1].doc_id, 1u);
  EXPECT_EQ(hits[2].doc_id, 2u);
  EXPECT_EQ(hits[3].doc_id, 2u);
  EXPECT_LT(hits[0].pre, hits[1].pre);
  EXPECT_LT(hits[2].pre, hits[3].pre);
  // Nested b in doc 1: the interval and level facts came back intact.
  EXPECT_EQ(hits[0].level + 1, hits[1].level);
  EXPECT_TRUE(nodeid::IsAncestor(Slice(hits[0].node_id),
                                 Slice(hits[1].node_id)));

  // Scanning a name with no entries (or an unknown id) is empty, not an
  // error.
  ASSERT_TRUE(index_->Scan(dict.Lookup("zzz"), &hits).ok());
  EXPECT_TRUE(hits.empty());

  ASSERT_TRUE(index_->RemoveEntries(dict, 1, doc1).ok());
  EXPECT_EQ(index_->CountEntries().value(), 3u);
  ASSERT_TRUE(index_->Scan(dict.Lookup("b"), &hits).ok());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, 2u);
}

TEST_F(StructuralIndexTest, PerNameIndexOnlyKeepsItsName) {
  NameDictionary dict;
  StructuralIndex per_name(StructuralIndexDef{"only_b", "b"}, tree_.get());
  EXPECT_TRUE(per_name.CoversName(Slice("b")));
  EXPECT_FALSE(per_name.CoversName(Slice("a")));
  EXPECT_TRUE(index_->CoversName(Slice("a")));  // all-names covers everything

  std::vector<StructuralEntry> entries = Derive("<a><b/><c/></a>", &dict);
  ASSERT_TRUE(per_name.AddEntries(dict, 1, entries).ok());
  EXPECT_EQ(per_name.CountEntries().value(), 1u);
  std::vector<StructuralPosting> hits;
  ASSERT_TRUE(per_name.Scan(dict.Lookup("a"), &hits).ok());
  EXPECT_TRUE(hits.empty());
  ASSERT_TRUE(per_name.Scan(dict.Lookup("b"), &hits).ok());
  EXPECT_EQ(hits.size(), 1u);
}

// --- engine-level lifecycle ---

std::unique_ptr<Engine> MemEngine() {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  return Engine::Open(opts).MoveValue();
}

// Results of a forced-structural query must be byte-identical to the forced
// full scan — the structural path is an access method, not a semantics
// change.
void ExpectStructuralMatchesScan(Collection* coll, const std::string& query) {
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  QueryOptions structural;
  structural.force = ForceMethod::kStructural;
  auto a = coll->Query(nullptr, query, scan);
  auto b = coll->Query(nullptr, query, structural);
  ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
  ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size()) << query;
  for (size_t i = 0; i < a.value().nodes.size(); i++) {
    EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id) << query;
    EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id) << query;
  }
}

TEST(StructuralEngineTest, CreateBackfillQueryDrop) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  // Documents inserted BEFORE the index exist: create must backfill.
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(coll->InsertDocument(nullptr,
                                     "<lib><shelf><book><title>t" +
                                         std::to_string(i) +
                                         "</title></book></shelf></lib>")
                    .ok());
  }
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  EXPECT_NE(coll->FindStructuralIndex("structure"), nullptr);
  EXPECT_EQ(coll->FindStructuralIndex("structure")->CountEntries().value(),
            5u * 4u);
  // Duplicate names are rejected; the empty name is rejected.
  EXPECT_FALSE(coll->CreateStructuralIndex({"structure", ""}).ok());
  EXPECT_FALSE(coll->CreateStructuralIndex({"", ""}).ok());

  for (const char* q : {"//book", "//book/title", "//shelf//title", "/lib"}) {
    ExpectStructuralMatchesScan(coll, q);
  }
  // EXPLAIN names the index and the interval scan.
  QueryOptions o;
  o.explain = true;
  o.force = ForceMethod::kStructural;
  auto res = coll->Query(nullptr, "//book", o);
  ASSERT_TRUE(res.ok());
  EXPECT_NE(res.value().PlanText().find("structural-scan"),
            std::string::npos)
      << res.value().PlanText();

  ASSERT_TRUE(coll->DropStructuralIndex("structure").ok());
  EXPECT_EQ(coll->FindStructuralIndex("structure"), nullptr);
  EXPECT_TRUE(coll->DropStructuralIndex("structure").IsNotFound());
  // Forced structural with no index falls back to the full scan — answers
  // stay correct.
  ExpectStructuralMatchesScan(coll, "//book");
  auto after = coll->Query(nullptr, "//book", o);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().profile.reason.find("no covering index"),
            std::string::npos)
      << after.value().PlanText();
}

TEST(StructuralEngineTest, PerNameIndexCoversOnlyItsElement) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"titles", "title"}).ok());
  ASSERT_TRUE(
      coll->InsertDocument(nullptr,
                           "<lib><book><title>t</title></book></lib>")
          .ok());
  EXPECT_EQ(coll->FindStructuralIndex("titles")->CountEntries().value(), 1u);
  ExpectStructuralMatchesScan(coll, "//title");
  // An uncovered name can't ride the per-name index: forced structural
  // degrades to the scan, same answers.
  QueryOptions o;
  o.explain = true;
  o.force = ForceMethod::kStructural;
  auto res = coll->Query(nullptr, "//book", o);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().profile.access_method, "full-scan");
  ExpectStructuralMatchesScan(coll, "//book");
}

TEST(StructuralEngineTest, MaintainedAcrossEveryMutationPath) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  StructuralIndex* ix = coll->FindStructuralIndex("structure");
  ASSERT_NE(ix, nullptr);

  // Insert AFTER create: incremental maintenance, not backfill.
  uint64_t d1 =
      coll->InsertDocument(nullptr, "<a><b><c>1</c></b></a>").value();
  uint64_t d2 = coll->InsertDocument(nullptr, "<a><b>2</b></a>").value();
  EXPECT_EQ(ix->CountEntries().value(), 5u);
  ExpectStructuralMatchesScan(coll, "//b");

  // Subtree insert: the new nodes gain entries (real Between() IDs).
  std::string d2_root;
  auto roots = coll->Query(nullptr, "/a").value().nodes;
  for (const auto& n : roots) {
    if (n.doc_id == d2) d2_root = n.node_id;
  }
  ASSERT_FALSE(d2_root.empty());
  ASSERT_TRUE(
      coll->InsertSubtree(nullptr, d2, d2_root, "", "<b><c>9</c></b>").ok());
  EXPECT_EQ(ix->CountEntries().value(), 7u);
  ExpectStructuralMatchesScan(coll, "//b");
  ExpectStructuralMatchesScan(coll, "//b//c");

  // Text update: shape unchanged, entry count unchanged, answers agree.
  auto texts = coll->Query(nullptr, "//c/text()").value().nodes;
  ASSERT_FALSE(texts.empty());
  ASSERT_TRUE(coll->UpdateTextNode(nullptr, texts[0].doc_id,
                                   texts[0].node_id, "updated")
                  .ok());
  EXPECT_EQ(ix->CountEntries().value(), 7u);
  ExpectStructuralMatchesScan(coll, "//c");

  // Subtree delete: the subtree's entries vanish.
  std::string victim;
  auto bs = coll->Query(nullptr, "//b").value().nodes;
  for (const auto& n : bs) {
    if (n.doc_id == d2) {
      victim = n.node_id;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(coll->DeleteSubtree(nullptr, d2, victim).ok());
  ExpectStructuralMatchesScan(coll, "//b");
  ExpectStructuralMatchesScan(coll, "//c");

  // Document delete: every entry of the document vanishes.
  ASSERT_TRUE(coll->DeleteDocument(nullptr, d1).ok());
  ExpectStructuralMatchesScan(coll, "//b");
  ASSERT_TRUE(coll->DeleteDocument(nullptr, d2).ok());
  EXPECT_EQ(ix->CountEntries().value(), 0u);
}

TEST(StructuralEngineTest, SurvivesCheckpointAndReopen) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("xdb_structural_reopen_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  EngineOptions opts;
  opts.dir = dir;
  {
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a><b><c>1</c></b></a>").ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    // One more document rides only the WAL.
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>2</b></a>").ok());
  }
  {
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    StructuralIndex* ix = coll->FindStructuralIndex("structure");
    ASSERT_NE(ix, nullptr);
    EXPECT_EQ(ix->CountEntries().value(), 5u);
    ExpectStructuralMatchesScan(coll, "//b");
    ExpectStructuralMatchesScan(coll, "//b/c");
  }
  std::filesystem::remove_all(dir);
}

// The descendant-branch anchor join (strip_levels == -1 conjuncts joined
// against the structural interval entries) must agree with the scan on
// queries whose predicate sits an unknown depth below the anchor.
TEST(StructuralEngineTest, AnchorJoinMatchesScan) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  ASSERT_TRUE(coll->CreateValueIndex(
                      {"price", "//price", ValueType::kDouble, 128})
                  .ok());
  // price appears at varying depth below book; nested books too.
  ASSERT_TRUE(coll->InsertDocument(
                      nullptr,
                      "<lib><book><price>5</price></book>"
                      "<book><info><price>9</price></info></book></lib>")
                  .ok());
  ASSERT_TRUE(coll->InsertDocument(
                      nullptr,
                      "<lib><book><book><deep><price>9</price></deep></book>"
                      "</book><price>9</price></lib>")
                  .ok());
  for (const char* q :
       {"//book[.//price = 9]", "//book[.//price = 5]",
        "//book[.//price = 7]"}) {
    QueryOptions scan;
    scan.force = ForceMethod::kScan;
    QueryOptions node;
    node.force = ForceMethod::kNodeIdList;  // upgrades via the anchor join
    auto a = coll->Query(nullptr, q, scan);
    auto b = coll->Query(nullptr, q, node);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size()) << q;
    for (size_t i = 0; i < a.value().nodes.size(); i++) {
      EXPECT_EQ(a.value().nodes[i].doc_id, b.value().nodes[i].doc_id) << q;
      EXPECT_EQ(a.value().nodes[i].node_id, b.value().nodes[i].node_id) << q;
    }
  }
}

// Dropping the index mid-stream invalidates cached structural plans: the
// next execution replans instead of dereferencing a dead index.
TEST(StructuralEngineTest, DropInvalidatesCachedStructuralPlans) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>x</b></a>").ok());
  QueryOptions o;
  o.force = ForceMethod::kStructural;
  ASSERT_EQ(coll->Query(nullptr, "//b", o).value().nodes.size(), 3u);
  ASSERT_TRUE(coll->DropStructuralIndex("structure").ok());
  // Same query text, same force mode: must fall back to the scan cleanly.
  auto res = coll->Query(nullptr, "//b", o);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().nodes.size(), 3u);
}

}  // namespace
}  // namespace xdb
