// Index-layer tests: typed key codecs, value index range probes, and the
// NodeID index interval behaviour at scale.
#include <gtest/gtest.h>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/random.h"
#include "index/key_codec.h"
#include "index/nodeid_index.h"
#include "index/value_index.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"
#include "xml/node_id.h"

namespace xdb {
namespace {

TEST(KeyCodecTest, TypeNames) {
  EXPECT_EQ(ValueTypeFromName("double").value(), ValueType::kDouble);
  EXPECT_EQ(ValueTypeFromName("string").value(), ValueType::kString);
  EXPECT_EQ(ValueTypeFromName("decimal").value(), ValueType::kDecimal);
  EXPECT_EQ(ValueTypeFromName("date").value(), ValueType::kDate);
  EXPECT_FALSE(ValueTypeFromName("float").ok());
  EXPECT_STREQ(ValueTypeName(ValueType::kDate), "date");
}

TEST(KeyCodecTest, DoubleKeysOrder) {
  auto key = [](const char* v) {
    std::string k;
    EXPECT_TRUE(EncodeTypedKey(ValueType::kDouble, v, 128, &k).ok());
    return k;
  };
  EXPECT_LT(Slice(key("-10")).Compare(Slice(key("-2"))), 0);
  EXPECT_LT(Slice(key("-2")).Compare(Slice(key("0"))), 0);
  EXPECT_LT(Slice(key("0")).Compare(Slice(key("3.5"))), 0);
  EXPECT_LT(Slice(key("3.5")).Compare(Slice(key("100"))), 0);
  std::string k;
  EXPECT_FALSE(EncodeTypedKey(ValueType::kDouble, "abc", 128, &k).ok());
  EXPECT_FALSE(EncodeTypedKey(ValueType::kDouble, "", 128, &k).ok());
}

TEST(KeyCodecTest, DecimalKeysExact) {
  auto key = [](const char* v) {
    std::string k;
    EXPECT_TRUE(EncodeTypedKey(ValueType::kDecimal, v, 128, &k).ok()) << v;
    return k;
  };
  EXPECT_LT(Slice(key("99.99")).Compare(Slice(key("100.00"))), 0);
  EXPECT_EQ(Slice(key("100")).Compare(Slice(key("100.00"))), 0);
  // Precision beyond double.
  EXPECT_LT(Slice(key("100000000000000.01"))
                .Compare(Slice(key("100000000000000.02"))),
            0);
}

TEST(KeyCodecTest, DateParsingAndOrder) {
  EXPECT_EQ(ParseDateDays("1970-01-01").value(), 0);
  EXPECT_EQ(ParseDateDays("1970-01-02").value(), 1);
  EXPECT_EQ(ParseDateDays("1969-12-31").value(), -1);
  EXPECT_EQ(ParseDateDays("2000-03-01").value(), 11017);
  EXPECT_FALSE(ParseDateDays("2000-13-01").ok());
  EXPECT_FALSE(ParseDateDays("2000-02-41").ok());
  EXPECT_FALSE(ParseDateDays("not-a-date").ok());
  EXPECT_FALSE(ParseDateDays("2000-02-01x").ok());

  auto key = [](const char* v) {
    std::string k;
    EXPECT_TRUE(EncodeTypedKey(ValueType::kDate, v, 128, &k).ok());
    return k;
  };
  EXPECT_LT(Slice(key("1999-12-31")).Compare(Slice(key("2000-01-01"))), 0);
  EXPECT_LT(Slice(key("1960-06-15")).Compare(Slice(key("1980-06-15"))), 0);
}

TEST(KeyCodecTest, StringKeysTruncateAtLimit) {
  std::string k;
  ASSERT_TRUE(EncodeTypedKey(ValueType::kString, "abcdefghij", 4, &k).ok());
  EXPECT_EQ(k, "abcd");
}

TEST(KeyCodecTest, PostingRoundTrip) {
  std::string posting;
  std::string node_id = nodeid::ChildId(1) + nodeid::ChildId(3);
  EncodeNodeIdKey(42, node_id, &posting);
  uint64_t doc;
  Slice node;
  ASSERT_TRUE(DecodeNodeIdKey(posting, &doc, &node).ok());
  EXPECT_EQ(doc, 42u);
  EXPECT_EQ(node.ToString(), node_id);
}

class ValueIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 128);
    tree_ = BTree::Create(bm_.get()).MoveValue();
    ValueIndexDef def;
    def.name = "price_idx";
    def.path = "/cat/p/price";
    def.type = ValueType::kDouble;
    index_ = std::make_unique<ValueIndex>(def, tree_.get());
  }

  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<ValueIndex> index_;
};

TEST_F(ValueIndexTest, AddAndEqualityProbe) {
  ASSERT_TRUE(index_->Add("100", 1, nodeid::ChildId(1)).ok());
  ASSERT_TRUE(index_->Add("250", 1, nodeid::ChildId(2)).ok());
  ASSERT_TRUE(index_->Add("100", 2, nodeid::ChildId(1)).ok());
  std::vector<Posting> hits;
  ASSERT_TRUE(index_->ScanEqual("100", &hits).ok());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, 1u);
  EXPECT_EQ(hits[1].doc_id, 2u);
}

TEST_F(ValueIndexTest, RangeProbesRespectBounds) {
  for (int v = 10; v <= 100; v += 10) {
    ASSERT_TRUE(index_->Add(std::to_string(v), static_cast<uint64_t>(v),
                            nodeid::ChildId(1))
                    .ok());
  }
  auto probe = [&](const char* lo, bool lo_inc, const char* hi, bool hi_inc) {
    std::optional<KeyBound> lob, hib;
    if (lo != nullptr) {
      std::string k;
      EXPECT_TRUE(index_->EncodeKey(lo, &k).ok());
      lob = KeyBound{k, lo_inc};
    }
    if (hi != nullptr) {
      std::string k;
      EXPECT_TRUE(index_->EncodeKey(hi, &k).ok());
      hib = KeyBound{k, hi_inc};
    }
    std::vector<Posting> hits;
    EXPECT_TRUE(index_->Scan(lob, hib, &hits).ok());
    return hits.size();
  };
  EXPECT_EQ(probe("30", true, "60", true), 4u);     // 30,40,50,60
  EXPECT_EQ(probe("30", false, "60", true), 3u);    // 40,50,60
  EXPECT_EQ(probe("30", true, "60", false), 3u);    // 30,40,50
  EXPECT_EQ(probe(nullptr, true, "25", true), 2u);  // 10,20
  EXPECT_EQ(probe("95", true, nullptr, true), 1u);  // 100
  EXPECT_EQ(probe(nullptr, true, nullptr, true), 10u);
}

TEST_F(ValueIndexTest, UncastableValuesProduceNoEntry) {
  ASSERT_TRUE(index_->Add("not a number", 1, nodeid::ChildId(1)).ok());
  EXPECT_EQ(tree_->ComputeStats().value().entries, 0u);
}

TEST_F(ValueIndexTest, RemoveDropsExactEntry) {
  ASSERT_TRUE(index_->Add("5", 1, nodeid::ChildId(1)).ok());
  ASSERT_TRUE(index_->Add("5", 1, nodeid::ChildId(2)).ok());
  ASSERT_TRUE(index_->Remove("5", 1, nodeid::ChildId(1)).ok());
  std::vector<Posting> hits;
  ASSERT_TRUE(index_->ScanEqual("5", &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].node_id, nodeid::ChildId(2));
}

TEST_F(ValueIndexTest, StringTypeIndexOrdersLexically) {
  ValueIndexDef def;
  def.name = "name_idx";
  def.path = "//name";
  def.type = ValueType::kString;
  auto tree = BTree::Create(bm_.get()).MoveValue();
  ValueIndex sidx(def, tree.get());
  ASSERT_TRUE(sidx.Add("banana", 1, nodeid::ChildId(1)).ok());
  ASSERT_TRUE(sidx.Add("apple", 2, nodeid::ChildId(1)).ok());
  ASSERT_TRUE(sidx.Add("cherry", 3, nodeid::ChildId(1)).ok());
  std::string lo_k;
  ASSERT_TRUE(sidx.EncodeKey("b", &lo_k).ok());
  std::vector<Posting> hits;
  ASSERT_TRUE(sidx.Scan(KeyBound{lo_k, true}, std::nullopt, &hits).ok());
  ASSERT_EQ(hits.size(), 2u);  // banana, cherry
  EXPECT_EQ(hits[0].doc_id, 1u);
  EXPECT_EQ(hits[1].doc_id, 3u);
}

TEST(NodeIdIndexScaleTest, ManyDocsLookupsStayScoped) {
  TableSpaceOptions opts;
  opts.in_memory = true;
  auto space = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(space.get(), 256);
  auto tree = BTree::Create(&bm).MoveValue();
  NodeIdIndex index(tree.get());
  for (uint64_t doc = 1; doc <= 100; doc++) {
    for (int rec = 0; rec < 3; rec++) {
      std::string upper1 = nodeid::ChildId(static_cast<uint32_t>(rec * 2 + 1));
      std::string upper2 = nodeid::ChildId(static_cast<uint32_t>(rec * 2 + 2));
      std::string key1, key2, value;
      EncodeNodeIdKey(doc, upper1, &key1);
      EncodeNodeIdKey(doc, upper2, &key2);
      PutFixed64(&value, Rid{static_cast<PageId>(rec + 1), 0}.Pack());
      ASSERT_TRUE(tree->Insert(key1, value).ok());
      ASSERT_TRUE(tree->Insert(key2, value).ok());
    }
  }
  EXPECT_EQ(tree->ComputeStats().value().entries, 600u);
  // Lookup lands inside the right document and never crosses into the next.
  auto rid = index.Lookup(50, nodeid::ChildId(3));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid.value().page_id, 2u);
  EXPECT_FALSE(index.Lookup(50, nodeid::ChildId(7)).ok());  // past the last
  std::vector<Rid> recs;
  ASSERT_TRUE(index.ListDocRecords(50, Slice(), &recs).ok());
  EXPECT_EQ(recs.size(), 3u);
  // A node-ID prefix bounds the listing to the intervals ending under it.
  ASSERT_TRUE(index.ListDocRecords(50, nodeid::ChildId(3), &recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].page_id, 2u);
  // A locator over the document's listed entries resolves as the B+tree
  // does, and the same list removes them.
  NodeIdEntries entries;
  ASSERT_TRUE(index.ListDocEntries(50, Slice(), &entries).ok());
  ASSERT_EQ(entries.size(), 6u);
  DocEntriesLocator listed(50, &entries);
  for (uint32_t c = 1; c <= 7; c++) {
    auto want = index.Lookup(50, nodeid::ChildId(c));
    auto got = listed.Lookup(50, nodeid::ChildId(c));
    ASSERT_EQ(want.ok(), got.ok()) << c;
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value()) << c;
    }
  }
  EXPECT_FALSE(listed.Lookup(51, nodeid::ChildId(1)).ok());
  ASSERT_TRUE(index.RemoveDocEntries(50, entries).ok());
  EXPECT_FALSE(index.Lookup(50, nodeid::ChildId(1)).ok());
  EXPECT_TRUE(index.Lookup(51, nodeid::ChildId(1)).ok());
}

}  // namespace
}  // namespace xdb
