// Tree-packing tests: record format, bottom-up building with proxies,
// NodeID intervals, cross-record traversal, point navigation, text
// replacement, and the shredded baseline.
#include <gtest/gtest.h>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/random.h"
#include "index/nodeid_index.h"
#include "pack/packed_record.h"
#include "pack/record_builder.h"
#include "pack/shredded_store.h"
#include "pack/tree_cursor.h"
#include "runtime/iterators.h"
#include "storage/buffer_manager.h"
#include "storage/record_manager.h"
#include "storage/tablespace.h"
#include "testing/differential.h"
#include "util/workload.h"
#include "xml/node_id.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"
#include "xpath/quickxscan.h"

namespace xdb {
namespace {

// Shared harness: parse XML, pack, store, index.
class PackedDocFixture {
 public:
  explicit PackedDocFixture(size_t budget = 3000) {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 512);
    records_ = std::make_unique<RecordManager>(bm_.get());
    tree_ = BTree::Create(bm_.get()).MoveValue();
    index_ = std::make_unique<NodeIdIndex>(tree_.get());
    budget_ = budget;
  }

  Status Store(uint64_t doc_id, const std::string& xml) {
    Parser parser(&dict_);
    TokenWriter tokens;
    XDB_RETURN_NOT_OK(parser.Parse(xml, &tokens));
    original_tokens_[doc_id] = tokens.buffer();
    RecordBuilderOptions opts;
    opts.record_budget = budget_;
    RecordBuilder builder(opts);
    record_count_ = 0;
    return builder.Build(tokens.data(), [&](PackedRecordOut&& rec) -> Status {
      XDB_ASSIGN_OR_RETURN(Rid rid, records_->Insert(rec.bytes));
      XDB_RETURN_NOT_OK(index_->AddRecord(doc_id, rec.bytes, rid));
      record_count_++;
      return Status::OK();
    });
  }

  // Stored traversal -> token stream, for byte-exact comparison with the
  // original parse.
  Result<std::string> ReadBack(uint64_t doc_id) {
    StoredDocSource source(records_.get(), index_.get(), doc_id);
    TokenWriter out;
    XDB_RETURN_NOT_OK(EventsToTokens(&source, &out));
    return out.buffer();
  }

  NameDictionary dict_;
  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<RecordManager> records_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<NodeIdIndex> index_;
  std::map<uint64_t, std::string> original_tokens_;
  size_t budget_;
  int record_count_ = 0;
};

TEST(RecordBuilderTest, SmallDocumentIsOneRecord) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<a><b>x</b><c y=\"1\"/></a>", &tokens).ok());
  auto records = PackDocument(tokens.data()).MoveValue();
  ASSERT_EQ(records.size(), 1u);
  // Root record: context is the document (empty id).
  RecordHeader header;
  Slice payload;
  ASSERT_TRUE(ParseRecordHeader(records[0].bytes, &header, &payload).ok());
  EXPECT_TRUE(header.context_node_id.empty());
  EXPECT_TRUE(header.root_path.empty());
  EXPECT_EQ(header.subtree_count, 1u);
  EXPECT_EQ(records[0].min_node_id, nodeid::ChildId(1));
  EXPECT_EQ(CountRecordNodes(records[0].bytes).value(), 5u);
}

TEST(RecordBuilderTest, BudgetForcesEviction) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  std::string xml = workload::GenWideXml(50, 100);
  ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
  RecordBuilderOptions opts;
  opts.record_budget = 600;
  auto records = PackDocument(tokens.data(), opts).MoveValue();
  EXPECT_GT(records.size(), 3u);
  // Total stored nodes across records == total nodes in the document
  // (proxies excluded, nothing lost, nothing duplicated).
  uint64_t total = 0;
  for (auto& rec : records) total += CountRecordNodes(rec.bytes).value();
  // root + 50 items, each with attribute + text.
  EXPECT_EQ(total, 1u + 50u * 3u);
  // The last record emitted is the root record (bottom-up order).
  RecordHeader header;
  Slice payload;
  ASSERT_TRUE(
      ParseRecordHeader(records.back().bytes, &header, &payload).ok());
  EXPECT_TRUE(header.context_node_id.empty());
}

TEST(RecordBuilderTest, EvictedRecordHeaderHasPathAndContext) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser
                  .Parse("<root><mid>" + std::string(500, 'x') +
                             "<leaf>deep</leaf></mid></root>",
                         &tokens)
                  .ok());
  RecordBuilderOptions opts;
  opts.record_budget = 100;
  auto records = PackDocument(tokens.data(), opts).MoveValue();
  ASSERT_GT(records.size(), 1u);
  // The first-emitted record was evicted from inside <mid>; its header
  // carries the root path and the context node's absolute id.
  RecordHeader header;
  Slice payload;
  ASSERT_TRUE(ParseRecordHeader(records[0].bytes, &header, &payload).ok());
  EXPECT_FALSE(header.context_node_id.empty());
  ASSERT_GE(header.root_path.size(), 1u);
  EXPECT_EQ(dict.Name(header.root_path[0].local).value(), "root");
}

TEST(NodeIdIntervalTest, PaperExampleShape) {
  // A record with structure elem(a)[ elem(b){...}, proxy, elem(c) ] yields
  // two intervals split at the proxy.
  std::string children;
  packfmt::AppendText(&children, nodeid::ChildId(1), TypeAnno::kUntyped, "x");
  packfmt::AppendProxy(&children, nodeid::ChildId(2));
  packfmt::AppendText(&children, nodeid::ChildId(3), TypeAnno::kUntyped, "y");
  std::string elem;
  packfmt::AppendElement(&elem, nodeid::ChildId(1), 1, 0, 0, 3, children);
  RecordHeader header;
  std::string record;
  AppendRecordHeader(header, &record);
  record += elem;

  std::vector<std::string> uppers;
  ASSERT_TRUE(ComputeNodeIdIntervals(record, &uppers).ok());
  ASSERT_EQ(uppers.size(), 2u);
  // First interval ends at the text node before the proxy.
  EXPECT_EQ(uppers[0], nodeid::ChildId(1) + nodeid::ChildId(1));
  // Second interval ends at the text node after the proxy.
  EXPECT_EQ(uppers[1], nodeid::ChildId(1) + nodeid::ChildId(3));
}

TEST(PackedRoundTripTest, SingleRecordDocuments) {
  PackedDocFixture fx;
  for (const char* xml :
       {"<a/>", "<a><b>one</b><b>two</b></a>",
        "<a x=\"1\" y=\"2\"><!-- c --><?pi d?>text</a>",
        "<ns:a xmlns:ns=\"urn:n\"><ns:b/></ns:a>"}) {
    static uint64_t doc = 1;
    ASSERT_TRUE(fx.Store(doc, xml).ok()) << xml;
    EXPECT_EQ(fx.ReadBack(doc).value(), fx.original_tokens_[doc]) << xml;
    doc++;
  }
}

TEST(PackedRoundTripTest, MultiRecordDocuments) {
  for (size_t budget : {64, 200, 700, 5000}) {
    PackedDocFixture fx(budget);
    Random rng(101);
    workload::CatalogOptions opts;
    opts.categories = 3;
    opts.products_per_category = 12;
    std::string xml = workload::GenCatalogXml(&rng, opts);
    ASSERT_TRUE(fx.Store(1, xml).ok());
    if (budget <= 200) {
      EXPECT_GT(fx.record_count_, 5) << budget;
    }
    EXPECT_EQ(fx.ReadBack(1).value(), fx.original_tokens_[1])
        << "budget " << budget;
  }
}

TEST(PackedRoundTripTest, RandomizedDocumentsAllBudgets) {
  Random rng(77);
  for (int iter = 0; iter < 25; iter++) {
    std::string xml = workload::GenRandomXml(&rng, 120);
    for (size_t budget : {48, 150, 1000}) {
      PackedDocFixture fx(budget);
      ASSERT_TRUE(fx.Store(1, xml).ok()) << xml;
      ASSERT_EQ(fx.ReadBack(1).value(), fx.original_tokens_[1])
          << "budget " << budget << " xml " << xml;
    }
  }
}

TEST(PackedRoundTripTest, DeepRecursiveDocument) {
  PackedDocFixture fx(128);
  std::string xml = workload::GenRecursiveXml(40, 2);
  ASSERT_TRUE(fx.Store(1, xml).ok());
  EXPECT_EQ(fx.ReadBack(1).value(), fx.original_tokens_[1]);
  EXPECT_GT(fx.record_count_, 2);
}

TEST(NodeIdIndexTest, LookupFindsContainingRecord) {
  PackedDocFixture fx(100);
  ASSERT_TRUE(fx.Store(7, workload::GenWideXml(30, 60)).ok());
  ASSERT_GT(fx.record_count_, 1);
  // Every node of the document must be resolvable.
  StoredDocSource source(fx.records_.get(), fx.index_.get(), 7);
  XmlEvent ev;
  int checked = 0;
  for (;;) {
    auto more = source.Next(&ev);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    if (ev.type == XmlEvent::Type::kEndElement ||
        ev.type == XmlEvent::Type::kStartDocument ||
        ev.type == XmlEvent::Type::kEndDocument)
      continue;
    std::string id = ev.node_id.ToString();
    auto rid = fx.index_->Lookup(7, id);
    ASSERT_TRUE(rid.ok()) << nodeid::ToString(id);
    // The record really contains the node.
    std::string rec;
    ASSERT_TRUE(fx.records_->Get(rid.value(), &rec).ok());
    RecordWalker walker((Slice(rec)));
    ASSERT_TRUE(walker.Init().ok());
    bool found = false;
    for (;;) {
      RecordWalker::Event rev;
      ASSERT_TRUE(walker.Next(&rev).ok());
      if (rev.type == RecordWalker::EventType::kDone) break;
      if (rev.type == RecordWalker::EventType::kStart &&
          rev.entry.kind != NodeKind::kProxy && rev.entry.abs_id == id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << nodeid::ToString(id);
    checked++;
  }
  EXPECT_GT(checked, 60);
}

TEST(NodeIdIndexTest, MissingNodesReportNotFoundOrWrongDoc) {
  PackedDocFixture fx;
  ASSERT_TRUE(fx.Store(1, "<a><b/></a>").ok());
  // A node id beyond the document's last node.
  std::string huge(1, char(0xFC));
  EXPECT_FALSE(fx.index_->Lookup(1, huge).ok());
  // Unknown document.
  EXPECT_FALSE(fx.index_->Lookup(99, "").ok());
}

TEST(NavigatorTest, GetNodeFirstChildNextSibling) {
  PackedDocFixture fx;
  ASSERT_TRUE(
      fx.Store(1, "<a><b>one</b><c><d/><e/></c><f attr=\"v\"/></a>").ok());
  StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);

  std::string root_elem = nav.FirstChildId("").value();  // <a>
  auto info = nav.GetNode(root_elem).value();
  EXPECT_EQ(info.kind, NodeKind::kElement);
  EXPECT_EQ(fx.dict_.Name(info.local).value(), "a");
  EXPECT_EQ(info.child_count, 3u);

  std::string b = nav.FirstChildId(root_elem).value();
  EXPECT_EQ(fx.dict_.Name(nav.GetNode(b).value().local).value(), "b");
  std::string c = nav.NextSiblingId(b).value();
  EXPECT_EQ(fx.dict_.Name(nav.GetNode(c).value().local).value(), "c");
  std::string f = nav.NextSiblingId(c).value();
  EXPECT_EQ(fx.dict_.Name(nav.GetNode(f).value().local).value(), "f");
  EXPECT_TRUE(nav.NextSiblingId(f).status().IsNotFound());

  // f's first child is its attribute node.
  std::string attr = nav.FirstChildId(f).value();
  auto attr_info = nav.GetNode(attr).value();
  EXPECT_EQ(attr_info.kind, NodeKind::kAttribute);
  EXPECT_EQ(attr_info.value, "v");
}

TEST(NavigatorTest, NextSiblingSkipsMultiRecordSubtree) {
  PackedDocFixture fx(80);  // tiny budget: subtrees span many records
  ASSERT_TRUE(fx.Store(1, "<a><big>" + workload::GenWideXml(20, 40) +
                              "</big><after>tail</after></a>")
                  .ok());
  ASSERT_GT(fx.record_count_, 3);
  StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);
  std::string a = nav.FirstChildId("").value();
  std::string big = nav.FirstChildId(a).value();
  EXPECT_EQ(fx.dict_.Name(nav.GetNode(big).value().local).value(), "big");
  std::string after = nav.NextSiblingId(big).value();
  EXPECT_EQ(fx.dict_.Name(nav.GetNode(after).value().local).value(), "after");
  EXPECT_EQ(nav.StringValue(after).value(), "tail");
}

TEST(NavigatorTest, StringValueCrossesRecords) {
  PackedDocFixture fx(64);
  ASSERT_TRUE(fx.Store(1, "<a><p>one </p><p>two </p><p>three</p></a>").ok());
  StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);
  std::string a = nav.FirstChildId("").value();
  EXPECT_EQ(nav.StringValue(a).value(), "one two three");
}

TEST(SubtreeSourceTest, StreamsOnlyTheSubtree) {
  PackedDocFixture fx;
  ASSERT_TRUE(fx.Store(1, "<a><b><x>1</x></b><c><y>2</y></c></a>").ok());
  StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);
  std::string a = nav.FirstChildId("").value();
  std::string b = nav.FirstChildId(a).value();
  std::string c = nav.NextSiblingId(b).value();

  StoredDocSource source(fx.records_.get(), fx.index_.get(), 1,
                         c);  // just <c>
  std::vector<std::string> names;
  XmlEvent ev;
  for (;;) {
    auto more = source.Next(&ev);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    if (ev.type == XmlEvent::Type::kStartElement)
      names.push_back(fx.dict_.Name(ev.local).value());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"c", "y"}));
}

TEST(ReplaceTextValueTest, RewritesValueAndPreservesStructure) {
  PackedDocFixture fx;
  ASSERT_TRUE(fx.Store(1, "<a><b>old</b><c>keep</c></a>").ok());
  StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);
  std::string a = nav.FirstChildId("").value();
  std::string b = nav.FirstChildId(a).value();
  std::string text = nav.FirstChildId(b).value();

  Rid rid = fx.index_->Lookup(1, text).value();
  std::string record;
  ASSERT_TRUE(fx.records_->Get(rid, &record).ok());
  std::string updated =
      ReplaceTextValue(record, text, "replacement value").MoveValue();
  ASSERT_TRUE(fx.records_->Update(rid, updated).ok());

  EXPECT_EQ(nav.StringValue(b).value(), "replacement value");
  std::string c = nav.NextSiblingId(b).value();
  EXPECT_EQ(nav.StringValue(c).value(), "keep");
  // Intervals are unchanged: same ids resolve to the same record.
  EXPECT_EQ(fx.index_->Lookup(1, text).value(), rid);
}

TEST(ReplaceTextValueTest, MissingNodeFails) {
  PackedDocFixture fx;
  ASSERT_TRUE(fx.Store(1, "<a>t</a>").ok());
  Rid rid = fx.index_->Lookup(1, "").value();
  std::string record;
  ASSERT_TRUE(fx.records_->Get(rid, &record).ok());
  std::string bogus_id = nodeid::ChildId(9) + nodeid::ChildId(9);
  EXPECT_TRUE(
      ReplaceTextValue(record, bogus_id, "x").status().IsNotFound());
}

// The (kind, absolute ID) of every entry of a record, in record order.
std::vector<std::pair<NodeKind, std::string>> RecordEntries(Slice record) {
  std::vector<std::pair<NodeKind, std::string>> seen;
  RecordWalker walker(record);
  EXPECT_TRUE(walker.Init().ok());
  for (;;) {
    RecordWalker::Event ev;
    EXPECT_TRUE(walker.Next(&ev).ok());
    if (ev.type == RecordWalker::EventType::kDone) break;
    if (ev.type == RecordWalker::EventType::kStart)
      seen.emplace_back(ev.entry.kind, ev.entry.abs_id.ToString());
  }
  return seen;
}

TEST(RecordSurgeryTest, BuilderSubtreeModeShape) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<n a=\"1\"><m>text</m></n>", &tokens).ok());
  SubtreeContext context;
  context.parent_id = nodeid::ChildId(1) + nodeid::ChildId(2);
  context.root_path = {{dict.Intern("r"), kEmptyNameId},
                       {dict.Intern("p"), kEmptyNameId}};
  context.namespaces = {{dict.Intern("x"), dict.Intern("urn:x")}};
  context.root_rel = nodeid::ChildId(5);
  const std::string root = context.parent_id + context.root_rel;
  std::vector<PackedRecordOut> inner;
  auto collect = [&](PackedRecordOut&& rec) {
    inner.push_back(std::move(rec));
    return Status::OK();
  };

  // Under the budget: one top record, the parent as context node and the
  // fragment's root, numbered by the context, as its one subtree.
  auto top = RecordBuilder().BuildSubtree(tokens.data(), context, collect);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_TRUE(inner.empty());
  RecordHeader header;
  Slice payload;
  ASSERT_TRUE(ParseRecordHeader(top.value().bytes, &header, &payload).ok());
  EXPECT_EQ(header.context_node_id.ToString(), context.parent_id);
  ASSERT_EQ(header.root_path.size(), 2u);
  EXPECT_EQ(header.root_path[1].local, context.root_path[1].local);
  EXPECT_EQ(header.namespaces, context.namespaces);
  EXPECT_EQ(header.subtree_count, 1u);
  EXPECT_EQ(top.value().min_node_id, root);
  auto entries = RecordEntries(top.value().bytes);
  ASSERT_EQ(entries.size(), 4u);  // n, @a, m, text
  EXPECT_EQ(entries[0], std::make_pair(NodeKind::kElement, root));
  EXPECT_EQ(entries[1].second, root + nodeid::ChildId(1));
  EXPECT_EQ(entries[3].first, NodeKind::kText);

  // Over the budget: inner records are cut at the same budget as a
  // document's; their headers extend the context's root path.
  auto cut = RecordBuilder(RecordBuilderOptions{16})
                 .BuildSubtree(tokens.data(), context, collect);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ASSERT_FALSE(inner.empty());
  ASSERT_TRUE(ParseRecordHeader(inner[0].bytes, &header, &payload).ok());
  EXPECT_TRUE(nodeid::IsAncestor(root, header.context_node_id) ||
              header.context_node_id == Slice(root));
  ASSERT_GT(header.root_path.size(), 2u);
  EXPECT_EQ(header.root_path[0].local, context.root_path[0].local);
  EXPECT_EQ(dict.Name(header.root_path[2].local).value(), "n");
  EXPECT_EQ(header.namespaces, context.namespaces);
  uint64_t nodes = CountRecordNodes(cut.value().bytes).value();
  for (const PackedRecordOut& rec : inner)
    nodes += CountRecordNodes(rec.bytes).value();
  EXPECT_EQ(nodes, 4u);

  // A fragment is exactly one element.
  const NameId x = dict.Intern("x");
  TokenWriter two_roots, text_only, empty;
  for (int i = 0; i < 2; i++) {
    two_roots.StartElement(x);
    two_roots.EndElement();
  }
  text_only.Text("t");
  empty.StartDocument();
  empty.EndDocument();
  for (const TokenWriter* bad : {&two_roots, &text_only, &empty}) {
    Status st =
        RecordBuilder().BuildSubtree(bad->data(), context, collect).status();
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  }
}

TEST(RecordSurgeryTest, InsertEntryInsideAnElement) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<a><b/><d/></a>", &tokens).ok());
  auto records = PackDocument(tokens.data()).MoveValue();
  ASSERT_EQ(records.size(), 1u);
  std::string a_id = nodeid::ChildId(1);
  std::string b_id = a_id + nodeid::ChildId(1);
  std::string d_id = a_id + nodeid::ChildId(2);

  // Splice a proxy between b and d.
  std::string mid_rel;
  ASSERT_TRUE(nodeid::Between(nodeid::ChildId(1), nodeid::ChildId(2), &mid_rel)
                  .ok());
  std::string proxy;
  packfmt::AppendProxy(&proxy, mid_rel);
  auto patched = InsertEntry(records[0].bytes, a_id, proxy);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  auto seen = RecordEntries(patched.value());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].second, a_id);
  EXPECT_EQ(seen[1].second, b_id);
  EXPECT_EQ(seen[2], std::make_pair(NodeKind::kProxy, a_id + mid_rel));
  EXPECT_EQ(seen[3].second, d_id);
  RecordWalker walker((Slice(patched.value())));
  ASSERT_TRUE(walker.Init().ok());
  RecordWalker::Event first;
  ASSERT_TRUE(walker.Next(&first).ok());
  EXPECT_EQ(first.entry.child_count, 3u);
  EXPECT_EQ(walker.header().subtree_count, 1u);

  // Interval computation now splits at the proxy.
  std::vector<std::string> uppers;
  ASSERT_TRUE(ComputeNodeIdIntervals(patched.value(), &uppers).ok());
  EXPECT_EQ(uppers.size(), 2u);

  // A new last child goes at the end of the list.
  std::string tail;
  packfmt::AppendProxy(&tail, nodeid::ChildId(9));
  auto appended = InsertEntry(patched.value(), a_id, tail);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(RecordEntries(appended.value()).back().second,
            a_id + nodeid::ChildId(9));

  // The parent must be in the record.
  EXPECT_TRUE(InsertEntry(records[0].bytes, b_id + nodeid::ChildId(1), proxy)
                  .status()
                  .IsNotFound());
}

TEST(RecordSurgeryTest, InsertEntryAtTopLevel) {
  // A top record of <p>'s child <b> (context = p); the top entry of a
  // second fragment, <c>, goes after it and a proxy before both.
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter b_tokens, c_tokens;
  ASSERT_TRUE(parser.Parse("<b>1</b>", &b_tokens).ok());
  ASSERT_TRUE(parser.Parse("<c>2</c>", &c_tokens).ok());
  SubtreeContext context;
  context.parent_id = nodeid::ChildId(1);
  context.root_path = {{dict.Intern("p"), kEmptyNameId}};
  auto emit = [](PackedRecordOut&&) { return Status::OK(); };
  context.root_rel = nodeid::ChildId(3);
  std::string record =
      RecordBuilder().BuildSubtree(b_tokens.data(), context, emit)
          .MoveValue()
          .bytes;
  context.root_rel = nodeid::ChildId(5);
  PackedRecordOut c =
      RecordBuilder().BuildSubtree(c_tokens.data(), context, emit).MoveValue();
  RecordHeader c_header;
  Slice c_entry;
  ASSERT_TRUE(ParseRecordHeader(c.bytes, &c_header, &c_entry).ok());

  // Positions follow the relative IDs: 1 (the proxy), 3 (b), 5 (c).
  auto patched = InsertEntry(record, context.parent_id, c_entry);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  std::string first;
  packfmt::AppendProxy(&first, nodeid::ChildId(1));
  patched = InsertEntry(patched.value(), context.parent_id, first);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  RecordHeader header;
  Slice payload;
  ASSERT_TRUE(ParseRecordHeader(patched.value(), &header, &payload).ok());
  EXPECT_EQ(header.subtree_count, 3u);
  auto seen = RecordEntries(patched.value());
  ASSERT_EQ(seen.size(), 5u);  // proxy, b, text, c, text
  EXPECT_EQ(seen[0].second, context.parent_id + nodeid::ChildId(1));
  EXPECT_EQ(seen[1].second, context.parent_id + nodeid::ChildId(3));
  EXPECT_EQ(seen[3].second, context.parent_id + nodeid::ChildId(5));
  std::vector<std::string> uppers;
  ASSERT_TRUE(ComputeNodeIdIntervals(patched.value(), &uppers).ok());
  EXPECT_EQ(uppers.size(), 1u);  // b and c are one contiguous run
}

TEST(RecordSurgeryTest, RemoveEntryReportsAnEmptyRecord) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<b><c/>t</b>", &tokens).ok());
  SubtreeContext context;
  context.parent_id = nodeid::ChildId(1);
  context.root_path = {{dict.Intern("p"), kEmptyNameId}};
  context.root_rel = nodeid::ChildId(3);
  std::string record =
      RecordBuilder()
          .BuildSubtree(tokens.data(), context,
                        [](PackedRecordOut&&) { return Status::OK(); })
          .MoveValue()
          .bytes;
  const std::string b_id = context.parent_id + context.root_rel;

  // A nested entry: the record keeps b, whose child count drops.
  bool empty = true;
  auto removed = RemoveEntry(record, b_id + nodeid::ChildId(1), &empty);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_FALSE(empty);
  RecordWalker walker((Slice(removed.value())));
  ASSERT_TRUE(walker.Init().ok());
  RecordWalker::Event ev;
  ASSERT_TRUE(walker.Next(&ev).ok());
  EXPECT_EQ(ev.entry.child_count, 1u);

  // The only top-level subtree: nothing resident is left.
  removed = RemoveEntry(removed.value(), b_id, &empty);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_TRUE(empty);
  RecordHeader header;
  Slice payload;
  ASSERT_TRUE(ParseRecordHeader(removed.value(), &header, &payload).ok());
  EXPECT_EQ(header.subtree_count, 0u);
  EXPECT_TRUE(payload.empty());

  // Removing a non-existent node fails.
  EXPECT_TRUE(RemoveEntry(record, b_id + nodeid::ChildId(9), nullptr)
                  .status()
                  .IsNotFound());
}

// A proxy must resolve to a record holding its node. Removing a record of
// packed children (and its NodeID entries) plants both ways it can fail:
// the children's lookups land in a record that lacks them, or in the
// parent's own record, which holds them only as proxies.
TEST(StoredDocSourceTest, UnresolvedProxyIsCorruption) {
  for (int children : {20, 12}) {
    PackedDocFixture fx(150);
    std::string xml = "<m>";
    for (int i = 0; i < children; i++)
      xml += "<s>value-number-" + std::to_string(i) + "</s>";
    xml += "</m>";
    ASSERT_TRUE(fx.Store(1, xml).ok());
    const std::string m = nodeid::ChildId(1);
    const std::string first = m + nodeid::ChildId(1);
    Rid packed = fx.index_->Lookup(1, first).value();
    Rid root = fx.index_->Lookup(1, "").value();
    ASSERT_NE(packed, root) << "the children were not packed";
    std::string bytes;
    ASSERT_TRUE(fx.records_->Get(packed, &bytes).ok());
    ASSERT_TRUE(fx.index_->RemoveRecord(1, bytes, packed).ok());
    ASSERT_TRUE(fx.records_->Delete(packed).ok());
    // 20 children: a later packed record; 12: the root record.
    Rid lands = fx.index_->Lookup(1, first).value();
    EXPECT_EQ(lands == root, children == 12);
    auto read = fx.ReadBack(1);
    EXPECT_TRUE(read.status().IsCorruption())
        << children << ": " << read.status().ToString();
  }
}

// --- record fetches and subtree skips ---

// E2's document (BM_TraversePacked): a 400-product catalog.
std::string CatalogDoc() {
  Random rng(13);
  workload::CatalogOptions opts;
  opts.categories = 4;
  opts.products_per_category = 100;
  return workload::GenCatalogXml(&rng, opts);
}

// Every record context remembers the last record a proxy in it resolved
// into, so packed sibling subtrees behind consecutive proxies are fetched
// once even when a nested proxy fetched another record in between: a
// whole-document stream fetches each record exactly once.
TEST(StoredDocSourceTest, WholeDocumentFetchesEachRecordOnce) {
  const std::string xml = CatalogDoc();
  for (size_t budget : {64, 256, 1024, 4096, 16384}) {
    PackedDocFixture fx(budget);
    ASSERT_TRUE(fx.Store(1, xml).ok());
    StoredDocSource source(fx.records_.get(), fx.index_.get(), 1);
    ASSERT_TRUE(DrainEvents(&source).ok());
    EXPECT_EQ(source.records_fetched(),
              static_cast<uint64_t>(fx.record_count_))
        << "budget " << budget;
  }
}

// Reads `source` into a scan of `tree` and returns its answer, and in
// `events` (when given) each event's type and node ID. With `skip`, the
// stream leaves out every element whose children the scan reports
// irrelevant, as EvalAnchor does.
Status ScanStream(const xpath::QueryTree* tree, StoredDocSource* source,
                  bool skip, NodeSequence* out,
                  std::vector<std::string>* events = nullptr) {
  xpath::QuickXScan scan(tree, 1);
  scan.Begin();
  XmlEvent ev;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, source->Next(&ev));
    if (!more) break;
    XDB_RETURN_NOT_OK(scan.Feed(ev));
    if (events != nullptr)
      events->push_back(std::to_string(static_cast<int>(ev.type)) + ":" +
                        nodeid::ToString(ev.node_id));
    if (skip && ev.type == XmlEvent::Type::kStartElement &&
        scan.ChildrenIrrelevant())
      source->SkipChildren();
  }
  return scan.Finish(out);
}

// True when `part` is `whole` with some events left out, the rest in order:
// a skipping stream adds, repeats and reorders nothing.
bool IsSubsequence(const std::vector<std::string>& part,
                   const std::vector<std::string>& whole) {
  size_t at = 0;
  for (const std::string& e : part) {
    while (at < whole.size() && whole[at] != e) at++;
    if (at == whole.size()) return false;
    at++;
  }
  return true;
}

std::string Render(const NodeSequence& seq) {
  std::string out;
  for (const ResultNode& r : seq)
    out += nodeid::ToString(r.node_id) + "=" + r.string_value + " ";
  return out;
}

// Skipping never changes an answer. Every differential-generator case, at
// the default budget and at 96 bytes (many records, proxies everywhere),
// with and without result values: the query over a skipping whole-document
// stream returns the full stream's nodes and values and fetches no more
// records; and its relative form over the subtree streams of the root
// element's children, read as one run (one listing over their span, one
// re-opened source), returns each subtree's full-stream answer.
TEST(SkippingStreamTest, AgreesWithTheFullStream) {
  testing::DiffOptions opts;
  uint64_t skipped_fetches = 0, subtree_streams = 0;
  for (uint64_t seed = 1; seed <= 1000; seed++) {
    const testing::DiffCase c = testing::GenCase(seed, opts);
    for (size_t budget : {RecordBuilderOptions().record_budget, size_t{96}}) {
      PackedDocFixture fx(budget);
      ASSERT_TRUE(fx.Store(1, c.doc).ok()) << seed;
      auto path = xpath::ParsePath(c.query);
      ASSERT_TRUE(path.ok()) << c.query;
      std::string relative = c.query[0] == '/' ? "." + c.query : c.query;
      auto rel_path = xpath::ParsePath(relative);
      StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);
      std::vector<std::string> roots;
      ASSERT_TRUE(nav.ChildIds(nav.FirstChildId("").value(), &roots).ok());
      for (bool values : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " budget " +
                     std::to_string(budget) + " values " +
                     std::to_string(values) + ": " + c.query);
        auto tree = xpath::QueryTree::Compile(path.value(), fx.dict_, values);
        if (!tree.ok()) continue;  // outside the scan's subset
        StoredDocSource full(fx.records_.get(), fx.index_.get(), 1);
        StoredDocSource skipping(fx.records_.get(), fx.index_.get(), 1);
        NodeSequence want, got;
        std::vector<std::string> all_events, kept_events;
        ASSERT_TRUE(ScanStream(tree.value().get(), &full, false, &want,
                               &all_events)
                        .ok());
        ASSERT_TRUE(ScanStream(tree.value().get(), &skipping, true, &got,
                               &kept_events)
                        .ok());
        EXPECT_EQ(Render(got), Render(want));
        EXPECT_TRUE(IsSubsequence(kept_events, all_events));
        EXPECT_LE(skipping.records_fetched(), full.records_fetched());
        skipped_fetches += full.records_fetched() - skipping.records_fetched();

        if (!rel_path.ok() || roots.empty()) continue;
        auto rel =
            xpath::QueryTree::Compile(rel_path.value(), fx.dict_, values);
        if (!rel.ok()) continue;
        StoredDocSource run(fx.records_.get(), fx.index_.get(), 1);
        SubtreeSpan span{Slice(roots[0])};
        for (size_t i = 1; i < roots.size(); i++) span.Extend(roots[i]);
        ASSERT_TRUE(run.ListSpan(span).ok());
        uint64_t alone_fetched = 0;
        for (const std::string& root : roots) {
          StoredDocSource alone(fx.records_.get(), fx.index_.get(), 1, root);
          NodeSequence sub_want, sub_got;
          std::vector<std::string> sub_all, sub_kept;
          ASSERT_TRUE(ScanStream(rel.value().get(), &alone, false, &sub_want,
                                 &sub_all)
                          .ok());
          run.Open(root);
          ASSERT_TRUE(
              ScanStream(rel.value().get(), &run, true, &sub_got, &sub_kept)
                  .ok())
              << nodeid::ToString(root);
          EXPECT_EQ(Render(sub_got), Render(sub_want))
              << nodeid::ToString(root);
          EXPECT_TRUE(IsSubsequence(sub_kept, sub_all))
              << nodeid::ToString(root);
          alone_fetched += alone.records_fetched();
          subtree_streams++;
        }
        EXPECT_LE(run.records_fetched(), alone_fetched);
      }
    }
  }
  // The sweep did skip records and read real subtree runs.
  EXPECT_GT(skipped_fetches, 0u);
  EXPECT_GT(subtree_streams, 1000u);
}

// A skipped element's proxies are never resolved: with the record behind
// the only proxy below it gone, a skipping stream still answers, while the
// full stream reports the damage.
TEST(SkippingStreamTest, NeverReadsAMissingRecordBelowASkip) {
  PackedDocFixture fx(150);
  ASSERT_TRUE(fx.Store(1, "<r><a><big>" + std::string(300, 'x') +
                              "</big></a><b>x</b></r>")
                  .ok());
  // Two records: the root's, and the one behind the proxy below a.
  std::vector<Rid> rids;
  ASSERT_TRUE(fx.index_->ListDocRecords(1, "", &rids).ok());
  ASSERT_EQ(rids.size(), 2u);
  const Rid root = fx.index_->Lookup(1, "").value();
  const Rid packed = rids[0] == root ? rids[1] : rids[0];
  std::string bytes;
  ASSERT_TRUE(fx.records_->Get(packed, &bytes).ok());
  ASSERT_TRUE(fx.index_->RemoveRecord(1, bytes, packed).ok());
  ASSERT_TRUE(fx.records_->Delete(packed).ok());

  auto tree = xpath::QueryTree::Compile(xpath::ParsePath("/r/b").value(),
                                        fx.dict_, /*want_result_values=*/true)
                  .MoveValue();
  StoredDocSource skipping(fx.records_.get(), fx.index_.get(), 1);
  NodeSequence got;
  ASSERT_TRUE(ScanStream(tree.get(), &skipping, true, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].string_value, "x");
  StoredDocSource full(fx.records_.get(), fx.index_.get(), 1);
  NodeSequence unused;
  Status st = ScanStream(tree.get(), &full, false, &unused);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// --- packed-record walker fuzzing ---

// A byte range of a record that the walker decodes.
struct Field {
  size_t at = 0, len = 0;
  bool varint = false;
};

// The decoded fields of `record`: each entry's kind byte and relative ID,
// an element's child_count and children_len, a leaf's value length.
std::vector<Field> RecordFields(const std::string& record) {
  std::vector<Field> fields;
  RecordWalker walker((Slice(record)));
  if (!walker.Init().ok()) return fields;
  const char* base = record.data();
  const char* limit = base + record.size();
  RecordWalker::Event ev;
  while (walker.Next(&ev).ok() &&
         ev.type != RecordWalker::EventType::kDone) {
    if (ev.type != RecordWalker::EventType::kStart) continue;
    const PackedEntry& e = ev.entry;
    const size_t rel = static_cast<size_t>(e.rel_id.data() - base);
    fields.push_back({rel - 1, 1, false});
    fields.push_back({rel, e.rel_id.size(), false});
    if (e.kind == NodeKind::kElement) {
      const char* p = e.rel_id.data() + e.rel_id.size();
      uint32_t v;
      for (int i = 0; i < 5; i++) {  // local, ns, prefix, count, length
        const size_t n = GetVarint32(p, limit, &v);
        if (i >= 3) fields.push_back({static_cast<size_t>(p - base), n, true});
        p += n;
      }
    } else if (e.kind != NodeKind::kProxy &&
               e.kind != NodeKind::kNamespace) {
      const size_t n = VarintLength(e.value.size());
      fields.push_back(
          {static_cast<size_t>(e.value.data() - base) - n, n, true});
    }
  }
  return fields;
}

// One seeded mutation: a bit flip or a rewritten length in a decoded field,
// or a bit flip or a rewritten byte anywhere in the record.
void Mutate(Random* rng, const std::vector<Field>& fields, std::string* rec) {
  const uint32_t kind = static_cast<uint32_t>(rng->Uniform(4));
  if (kind <= 1 && !fields.empty()) {
    const Field& f = fields[rng->Uniform(fields.size())];
    if (kind == 1 && f.varint) {
      const uint64_t kValues[] = {0,       1,          2,
                                  127,     128,        1u << 20,
                                  0xFFFFFFFFu, uint64_t{1} << 40,
                                  ~uint64_t{0}, rng->Next()};
      std::string enc;
      PutVarint64(&enc, kValues[rng->Uniform(std::size(kValues))]);
      rec->replace(f.at, f.len, enc);
    } else {
      (*rec)[f.at + rng->Uniform(f.len)] ^=
          static_cast<char>(1u << rng->Uniform(8));
    }
  } else if (kind == 2) {
    (*rec)[rng->Uniform(rec->size())] ^=
        static_cast<char>(1u << rng->Uniform(8));
  } else {
    (*rec)[rng->Uniform(rec->size())] = static_cast<char>(rng->Uniform(256));
  }
}

// Damaged packed records never crash, hang or grow the reader without
// bound: each of 2,000 seeded mutants (aimed at children_len, child_count,
// relative IDs and value lengths, or anywhere) is read as a whole-document
// stream and as a subtree stream, with no skips, skipping every element,
// and skipping where the scan allows, and every read ends in a Status or
// finishes within a bounded number of events. A failing seed replays as
// Random(kBase + mutant).
TEST(PackedRecordFuzzTest, MutantsEndInStatusOrFinish) {
  constexpr uint64_t kBase = 0x5EED0000;
  constexpr uint64_t kMutants = 2000;
  constexpr uint64_t kEventCap = 100000;
  PackedDocFixture fx(120);
  std::string xml = "<r a=\"1\"><!--note--><?pi data?>";
  for (int i = 0; i < 16; i++)
    xml += "<g k=\"" + std::to_string(i) + "\"><h>text " + std::to_string(i) +
           "</h><i/>tail</g>";
  ASSERT_TRUE(fx.Store(1, xml + "</r>").ok());
  std::vector<Rid> rids;
  ASSERT_TRUE(fx.index_->ListDocRecords(1, "", &rids).ok());
  ASSERT_GT(rids.size(), 4u);
  std::vector<std::string> originals(rids.size());
  std::vector<std::vector<Field>> fields(rids.size());
  for (size_t i = 0; i < rids.size(); i++) {
    ASSERT_TRUE(fx.records_->Get(rids[i], &originals[i]).ok());
    fields[i] = RecordFields(originals[i]);
  }
  StoredTreeNavigator nav(fx.records_.get(), fx.index_.get(), 1);
  std::vector<std::string> roots;
  ASSERT_TRUE(nav.ChildIds(nav.FirstChildId("").value(), &roots).ok());
  auto tree = xpath::QueryTree::Compile(xpath::ParsePath("/r/g[h]/i").value(),
                                        fx.dict_, false)
                  .MoveValue();
  auto rel = xpath::QueryTree::Compile(xpath::ParsePath("self::node()/h")
                                           .value(),
                                       fx.dict_, false)
                 .MoveValue();

  enum class Skip { kNever, kEvery, kScan };
  uint64_t refused = 0, finished = 0;
  for (uint64_t m = 0; m < kMutants; m++) {
    Random rng(kBase + m);
    const size_t r = rng.Uniform(rids.size());
    std::string bytes = originals[r];
    Mutate(&rng, fields[r], &bytes);
    ASSERT_TRUE(fx.records_->Update(rids[r], bytes).ok());
    const std::string sub = roots[rng.Uniform(roots.size())];
    for (const std::string& root : {std::string(), sub}) {
      for (Skip skip : {Skip::kNever, Skip::kEvery, Skip::kScan}) {
        StoredDocSource source(fx.records_.get(), fx.index_.get(), 1, root);
        xpath::QuickXScan scan(root.empty() ? tree.get() : rel.get(), 1);
        scan.Begin();
        Status st;
        uint64_t events = 0;
        XmlEvent ev;
        for (;;) {
          Result<bool> more = source.Next(&ev);
          if (!more.ok()) {
            st = more.status();
            break;
          }
          if (!more.value()) break;
          ASSERT_LT(++events, kEventCap) << "seed " << kBase + m;
          st = scan.Feed(ev);
          if (!st.ok()) break;
          if (ev.type == XmlEvent::Type::kStartElement &&
              (skip == Skip::kEvery ||
               (skip == Skip::kScan && scan.ChildrenIrrelevant())))
            source.SkipChildren();
        }
        NodeSequence out;
        if (st.ok()) st = scan.Finish(&out);
        (st.ok() ? finished : refused)++;
      }
    }
    ASSERT_TRUE(fx.records_->Update(rids[r], originals[r]).ok());
  }
  // The mutants reached both outcomes.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(finished, 0u);
}

TEST(ShreddedStoreTest, RoundTripMatchesPacked) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto space = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(space.get(), 512);
  RecordManager records(&bm);
  auto tree = BTree::Create(&bm).MoveValue();
  ShreddedStore store(&records, tree.get());

  NameDictionary dict;
  Parser parser(&dict);
  Random rng(55);
  std::string xml = workload::GenCatalogXml(&rng, {});
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
  uint64_t node_count = 0;
  ASSERT_TRUE(store.InsertDocument(3, tokens.data(), &node_count).ok());
  EXPECT_GT(node_count, 50u);
  // One record and one index entry per node.
  EXPECT_EQ(records.stats().inserts, node_count);
  EXPECT_EQ(tree->ComputeStats().value().entries, node_count);

  ShreddedStore::Source source(&store, 3);
  TokenWriter out;
  ASSERT_TRUE(EventsToTokens(&source, &out).ok());
  EXPECT_EQ(out.buffer(), tokens.buffer());
  EXPECT_EQ(source.records_fetched(), node_count);
}

TEST(ShreddedStoreTest, GetNodeByid) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto space = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(space.get(), 128);
  RecordManager records(&bm);
  auto tree = BTree::Create(&bm).MoveValue();
  ShreddedStore store(&records, tree.get());

  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<a><b>x</b></a>", &tokens).ok());
  ASSERT_TRUE(store.InsertDocument(1, tokens.data(), nullptr).ok());
  std::string rec;
  ASSERT_TRUE(store.GetNode(1, nodeid::ChildId(1), &rec).ok());
  EXPECT_FALSE(rec.empty());
  EXPECT_TRUE(store.GetNode(1, nodeid::ChildId(5), &rec).IsNotFound());
}

}  // namespace
}  // namespace xdb
