// Structural index tests: the node-ID key codec, the event-walk derivation
// of element entries and subtree sizes, B+tree scan order, and the
// engine-level lifecycle — DDL, backfill, maintenance across every
// mutation path, the pre-V5 catalog rebuild, and planner-visible behaviour
// of the structural access method.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/coding.h"
#include "engine/engine.h"
#include "index/structural_index.h"
#include "leak_check.h"
#include "legacy_catalog.h"
#include "query/stats.h"
#include "runtime/virtual_sax.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"
#include "xml/name_dictionary.h"
#include "xml/node_id.h"
#include "xml/parser.h"

namespace xdb {
namespace {

// --- codec ---

TEST(StructuralCodecTest, KeyRoundTrip) {
  const std::string node_id = nodeid::ChildId(1) + nodeid::ChildId(3);
  std::string key;
  EncodeStructuralKey(7, 0x123456789ABCDEFull, Slice(node_id), &key);
  EXPECT_EQ(key.size(), 12u + node_id.size());
  NameId name = 0;
  uint64_t doc = 0;
  Slice got_id;
  ASSERT_TRUE(
      DecodeStructuralEntry(Slice(key), Slice(), &name, &doc, &got_id).ok());
  EXPECT_EQ(name, 7u);
  EXPECT_EQ(doc, 0x123456789ABCDEFull);
  EXPECT_EQ(got_id, Slice(node_id));
}

TEST(StructuralCodecTest, ShortKeyOrNonEmptyValueIsCorruption) {
  NameId name = 0;
  uint64_t doc = 0;
  Slice got_id;
  const std::string short_key(11, 'k');
  EXPECT_TRUE(DecodeStructuralEntry(Slice(short_key), Slice(), &name, &doc,
                                    &got_id)
                  .IsCorruption());
  std::string key;
  EncodeStructuralKey(1, 2, Slice(nodeid::ChildId(1)), &key);
  // The V4 value layout, [post][level][node id], is not an entry any more.
  std::string old_value;
  PutBig32(&old_value, 3);
  PutBig32(&old_value, 1);
  old_value += nodeid::ChildId(1);
  EXPECT_TRUE(DecodeStructuralEntry(Slice(key), Slice(old_value), &name, &doc,
                                    &got_id)
                  .IsCorruption());
}

// Key bytes must sort by (name, doc, document order) so one name's entries
// are a contiguous range in (doc, document-order) order — also for the
// node IDs a subtree insert allocates between two siblings.
TEST(StructuralCodecTest, KeysSortInDocumentOrder) {
  auto key = [](NameId n, uint64_t d, const std::string& id) {
    std::string k;
    EncodeStructuralKey(n, d, Slice(id), &k);
    return k;
  };
  const std::string root = nodeid::ChildId(1);
  const std::string first = root + nodeid::ChildId(1);
  const std::string second = root + nodeid::ChildId(2);
  EXPECT_LT(key(1, 9, second), key(2, 0, root));
  EXPECT_LT(key(2, 1, second), key(2, 2, root));
  // Ancestors precede descendants; earlier siblings precede later ones
  // together with their whole subtrees.
  EXPECT_LT(key(2, 2, root), key(2, 2, first));
  EXPECT_LT(key(2, 2, first + nodeid::ChildId(5)), key(2, 2, second));
  // Between()-allocated IDs land between their neighbours, repeatedly.
  std::string left = nodeid::ChildId(1);
  const std::string right = nodeid::ChildId(2);
  for (int i = 0; i < 20; i++) {
    std::string mid;
    ASSERT_TRUE(nodeid::Between(left, right, &mid).ok());
    EXPECT_LT(key(2, 2, root + left), key(2, 2, root + mid)) << i;
    EXPECT_LT(key(2, 2, root + mid + nodeid::ChildId(1)),
              key(2, 2, root + right))
        << i;
    left = mid;
  }
}

// --- derivation from the virtual-SAX walk ---

std::vector<StructuralEntry> Derive(const std::string& xml,
                                    NameDictionary* dict) {
  Parser parser(dict);
  TokenWriter tokens;
  EXPECT_TRUE(parser.Parse(xml, &tokens).ok()) << xml;
  TokenStreamSource source(tokens.data());
  StructuralDeriver deriver;
  XmlEvent ev;
  for (;;) {
    auto more = source.Next(&ev);
    EXPECT_TRUE(more.ok()) << xml;
    if (!more.ok() || !more.value()) break;
    EXPECT_TRUE(deriver.Feed(ev).ok()) << xml;
  }
  std::vector<StructuralEntry> entries;
  EXPECT_TRUE(deriver.Finish(&entries).ok()) << xml;
  return entries;
}

TEST(StructuralDeriveTest, ListsElementsWithSubtreeSizes) {
  NameDictionary dict;
  //  <a>           subtree=3
  //    <b>         subtree=1
  //      <c/>      subtree=0
  //    </b>
  //    <b/>        subtree=0
  //  </a>
  std::vector<StructuralEntry> e = Derive("<a><b><c/></b><b/></a>", &dict);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[0].name_id, dict.Lookup("a"));
  EXPECT_EQ(e[0].subtree_size, 3u);
  EXPECT_EQ(e[1].name_id, dict.Lookup("b"));
  EXPECT_EQ(e[1].subtree_size, 1u);
  EXPECT_EQ(e[2].name_id, dict.Lookup("c"));
  EXPECT_EQ(e[2].subtree_size, 0u);
  EXPECT_EQ(e[3].name_id, dict.Lookup("b"));
  EXPECT_EQ(e[3].subtree_size, 0u);
  // Entries come in document order, which is node-ID byte order, and the
  // subtree sizes agree with prefix ancestry.
  for (size_t i = 0; i + 1 < e.size(); i++)
    EXPECT_LT(e[i].node_id, e[i + 1].node_id) << i;
  for (size_t i = 0; i < e.size(); i++) {
    uint32_t descendants = 0;
    for (size_t j = 0; j < e.size(); j++)
      if (nodeid::IsAncestor(Slice(e[i].node_id), Slice(e[j].node_id)))
        descendants++;
    EXPECT_EQ(descendants, e[i].subtree_size) << i;
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
    EXPECT_EQ(e[i].subtree_size, kDepth - i);
    EXPECT_TRUE(
        nodeid::IsAncestor(Slice(e[i].node_id), Slice(e[i + 1].node_id)));
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
  // Insert doc 2 first, then doc 1: Scan must still return (doc, document
  // position) order.
  std::vector<StructuralEntry> doc2 = Derive("<a><b/><b/></a>", &dict);
  std::vector<StructuralEntry> doc1 = Derive("<a><b><b/></b></a>", &dict);
  ASSERT_TRUE(index_->Apply(dict, 2, doc2, {}, /*remove=*/false).ok());
  ASSERT_TRUE(index_->Apply(dict, 1, doc1, {}, /*remove=*/false).ok());
  EXPECT_EQ(index_->CountEntries().value(), 6u);

  std::vector<Posting> hits;
  ASSERT_TRUE(index_->Scan(dict.Lookup("b"), &hits).ok());
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].doc_id, 1u);
  EXPECT_EQ(hits[1].doc_id, 1u);
  EXPECT_EQ(hits[2].doc_id, 2u);
  EXPECT_EQ(hits[3].doc_id, 2u);
  EXPECT_LT(hits[0].node_id, hits[1].node_id);
  EXPECT_LT(hits[2].node_id, hits[3].node_id);
  // Nested b in doc 1: ancestry is the node-ID prefix test.
  EXPECT_TRUE(nodeid::IsAncestor(Slice(hits[0].node_id),
                                 Slice(hits[1].node_id)));

  // Scanning a name with no entries (or an unknown id) is empty, not an
  // error.
  ASSERT_TRUE(index_->Scan(dict.Lookup("zzz"), &hits).ok());
  EXPECT_TRUE(hits.empty());

  ASSERT_TRUE(index_->Apply(dict, 1, doc1, {}, /*remove=*/true).ok());
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
  ASSERT_TRUE(per_name.Apply(dict, 1, entries, {}, /*remove=*/false).ok());
  EXPECT_EQ(per_name.CountEntries().value(), 1u);
  std::vector<Posting> hits;
  ASSERT_TRUE(per_name.Scan(dict.Lookup("a"), &hits).ok());
  EXPECT_TRUE(hits.empty());
  ASSERT_TRUE(per_name.Scan(dict.Lookup("b"), &hits).ok());
  EXPECT_EQ(hits.size(), 1u);
}

// Apply groups a write's entries by name, in first-appearance order, and
// calls the stats listener once per name.
TEST_F(StructuralIndexTest, ApplyCallsTheListenerOncePerName) {
  struct Recorder : StructuralIndexStatsListener {
    void OnElementsAdded(Slice name, uint64_t n, uint64_t span_sum) override {
      calls.push_back("+" + name.ToString() + " " + std::to_string(n) + "/" +
                      std::to_string(span_sum));
    }
    void OnElementsRemoved(Slice name,
                           std::span<const uint32_t> spans) override {
      std::string call = "-" + name.ToString();
      for (uint32_t span : spans) call += " " + std::to_string(span);
      calls.push_back(call);
    }
    void OnSpanMoved(Slice name, int64_t delta) override {
      calls.push_back("~" + name.ToString() + " " + std::to_string(delta));
    }
    std::vector<std::string> calls;
  } recorder;
  NameDictionary dict;
  index_->set_stats_listener(&recorder);
  std::vector<StructuralEntry> entries =
      Derive("<a><b/><c><b><d/></b></c></a>", &dict);
  const std::vector<NameId> ancestors{dict.Lookup("c"), dict.Lookup("a")};
  ASSERT_TRUE(index_->Apply(dict, 1, entries, ancestors, false).ok());
  ASSERT_TRUE(index_->Apply(dict, 1, entries, ancestors, true).ok());
  EXPECT_EQ(recorder.calls,
            (std::vector<std::string>{"+a 1/4", "+b 2/1", "+c 1/2", "+d 1/0",
                                      "~c 5", "~a 5", "-a 4", "-b 0 1", "-c 2",
                                      "-d 0", "~c -5", "~a -5"}));
  EXPECT_EQ(index_->CountEntries().value(), 0u);
  index_->set_stats_listener(nullptr);
}

// --- the per-name stats listener ---

// One call per name must leave the statistics exactly as one call per
// entry did, edge paths included. Every expected value below is what the
// same entries give through one call each.
TEST(StructuralStatsTest, RemovingMoreThanANameCountsClamps) {
  query::CollectionStats stats;
  StructuralIndexStatsListener* l = stats.NoteStructuralIndexCreated("s");
  l->OnElementsAdded("a", 2, 4);
  l->OnElementsAdded("b", 1, 5);
  const uint32_t spans[] = {2, 7, 1};
  l->OnElementsRemoved("a", spans);  // three removes of a name counting two
  query::StructuralStatsSnapshot s = stats.Snapshot().structural["s"];
  EXPECT_EQ(s.entry_count, 0u);
  EXPECT_EQ(s.other_count, 0u);
  EXPECT_EQ(s.entries_added, 3u);
  EXPECT_EQ(s.entries_removed, 3u);
  ASSERT_EQ(s.names.size(), 1u);
  EXPECT_EQ(s.names["b"].count, 1u);
  EXPECT_EQ(s.names["b"].span_sum, 5u);
  // A span larger than the name's sum clamps it at zero.
  l->OnElementsAdded("b", 1, 1);
  const uint32_t wide[] = {50};
  l->OnElementsRemoved("b", wide);
  s = stats.Snapshot().structural["s"];
  EXPECT_EQ(s.names["b"].count, 1u);
  EXPECT_EQ(s.names["b"].span_sum, 0u);
  EXPECT_EQ(s.entry_count, 0u);  // the clamped remove above drifted it
}

TEST(StructuralStatsTest, NamesPastTheCapPoolAndDrain) {
  query::CollectionStats stats;
  StructuralIndexStatsListener* l = stats.NoteStructuralIndexCreated("s");
  const size_t cap = query::CollectionStats::kMaxStructuralNames;
  for (size_t i = 0; i < cap; i++)
    l->OnElementsAdded("n" + std::to_string(i), 1, 1);
  l->OnElementsAdded("late", 3, 6);  // the table is full: pooled
  query::StructuralStatsSnapshot s = stats.Snapshot().structural["s"];
  EXPECT_EQ(s.names.size(), cap);
  EXPECT_EQ(s.names.count("late"), 0u);
  EXPECT_EQ(s.other_count, 3u);
  EXPECT_EQ(s.EstimateNameCount("late"), 3.0);

  // Two removes of a name counting one: the second drains the pool, and
  // the emptied name frees a slot for the next new name.
  const uint32_t two[] = {1, 4};
  l->OnElementsRemoved("n0", two);
  EXPECT_EQ(stats.Snapshot().structural["s"].other_count, 2u);
  l->OnElementsAdded("later", 2, 2);
  const uint32_t four[] = {0, 0, 0, 0};
  l->OnElementsRemoved("late", four);  // pool of 2 drains and clamps at 0
  s = stats.Snapshot().structural["s"];
  EXPECT_EQ(s.names.size(), cap);
  EXPECT_EQ(s.names.count("n0"), 0u);
  EXPECT_EQ(s.names["later"].count, 2u);
  EXPECT_EQ(s.names["later"].span_sum, 2u);
  EXPECT_EQ(s.other_count, 0u);
  EXPECT_EQ(s.entry_count, cap + 3 + 2 - 2 - 4);
  EXPECT_EQ(s.entries_added, cap + 3 + 2);
  EXPECT_EQ(s.entries_removed, 6u);
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
  // EXPLAIN names the index and the structural scan.
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

// Node IDs are stable, so an edit's structural work is its own subtree:
// inserting and deleting a 3-element subtree adds and removes exactly 3
// entries however many siblings it has, and a text update touches none.
TEST(StructuralEngineTest, EditWorkDoesNotGrowWithDocument) {
  for (int children : {1, 50, 200}) {
    auto engine = MemEngine();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    std::string xml = "<r>";
    for (int i = 0; i < children; i++) xml += "<k><v>x</v></k>";
    xml += "</r>";
    uint64_t doc = coll->InsertDocument(nullptr, xml).value();
    auto counters = [&]() {
      query::StructuralStatsSnapshot s =
          coll->stats()->Snapshot().structural["structure"];
      return std::make_pair(s.entries_added, s.entries_removed);
    };

    auto before = counters();
    auto id = coll->InsertSubtree(nullptr, doc, nodeid::ChildId(1), Slice(),
                                  "<k><v>y</v><w/></k>");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto after = counters();
    EXPECT_EQ(after.first - before.first, 3u) << children;
    EXPECT_EQ(after.second - before.second, 0u) << children;

    auto text = coll->Query(nullptr, "/r/k/v/text()").MoveValue();
    ASSERT_FALSE(text.nodes.empty());
    before = counters();
    ASSERT_TRUE(
        coll->UpdateTextNode(nullptr, doc, text.nodes[0].node_id, "z").ok());
    EXPECT_EQ(counters(), before) << children;

    ASSERT_TRUE(coll->DeleteSubtree(nullptr, doc, id.value()).ok());
    after = counters();
    EXPECT_EQ(after.first - before.first, 0u) << children;
    EXPECT_EQ(after.second - before.second, 3u) << children;
    EXPECT_EQ(coll->FindStructuralIndex("structure")->CountEntries().value(),
              1u + 2u * static_cast<uint64_t>(children));
  }
}

// A write's structural entries reach the B+tree as one sorted batch, with
// one descent per leaf they land in. Inserting, then deleting, a document
// of 301 elements takes a few dozen root-to-leaf walks over all of the
// collection's trees, not one walk per entry.
TEST(StructuralEngineTest, BatchedApplyDescendsPerLeaf) {
  auto engine = MemEngine();
  Collection* coll = engine->CreateCollection("docs").value();
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  StructuralIndex* ix = coll->FindStructuralIndex("structure");
  std::string xml = "<r>";
  for (int i = 0; i < 300; i++) xml += "<x/>";
  xml += "</r>";
  auto descents = [&] {
    return engine->MetricsSnapshot().Value("btree.descents");
  };

  uint64_t before = descents();
  uint64_t doc = coll->InsertDocument(nullptr, xml).value();
  EXPECT_LE(descents() - before, 30u);
  EXPECT_EQ(ix->CountEntries().value(), 301u);

  before = descents();
  ASSERT_TRUE(coll->DeleteDocument(nullptr, doc).ok());
  EXPECT_LE(descents() - before, 30u);
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

// A V4 catalog names structural trees whose entries have the old
// (pre, post) layout; opening it must rebuild each index from the records
// instead of reading the old tree.
TEST(StructuralEngineTest, V4CatalogRebuildsStructuralIndexes) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("xdb_structural_v4_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  EngineOptions opts;
  opts.dir = dir;
  uint64_t epoch = 0;
  {
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->CreateCollection("docs").value();
    ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
    uint64_t doc =
        coll->InsertDocument(nullptr, "<a><b><c>1</c></b></a>").value();
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>2</b><b/></a>").ok());
    // One old-format entry: [name][doc][pre] -> [post][level][node id].
    std::string key, value;
    PutBig32(&key, engine->dict()->Lookup("b"));
    PutBig64(&key, doc);
    PutBig32(&key, 1);
    PutBig32(&value, 1);
    PutBig32(&value, 2);
    value += nodeid::ChildId(1) + nodeid::ChildId(1);
    ASSERT_EQ(key.size(), 16u);
    BTree* tree = coll->FindStructuralIndex("structure")->tree();
    ASSERT_TRUE(tree->Insert(key, value).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    epoch = coll->stats()->epoch();
  }
  ASSERT_TRUE(RewriteAsLegacyCatalog(dir + "/catalog.xdb", kCatalogMagicV4));
  {
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    StructuralIndex* ix = coll->FindStructuralIndex("structure");
    ASSERT_NE(ix, nullptr);
    EXPECT_EQ(ix->CountEntries().value(), 6u);
    ExpectStructuralMatchesScan(coll, "//b");
    ExpectStructuralMatchesScan(coll, "//a//c");
    // The V4 catalog holds no statistics: they are re-derived, the index
    // filled by the same backfill. The epoch counts one bump for the reset
    // and one per document, as this history's index create and two inserts
    // did.
    query::CollectionStatsSnapshot snap = coll->stats()->Snapshot();
    EXPECT_EQ(snap.epoch, epoch);
    EXPECT_EQ(snap.structural["structure"].entry_count, 6u);
    // A checkpoint writes the rebuilt index under a current catalog.
    ASSERT_TRUE(engine->Checkpoint().ok());
  }
  {
    auto engine = Engine::Open(opts).MoveValue();
    Collection* coll = engine->GetCollection("docs").value();
    EXPECT_EQ(coll->FindStructuralIndex("structure")->CountEntries().value(),
              6u);
    ExpectStructuralMatchesScan(coll, "//b");
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
