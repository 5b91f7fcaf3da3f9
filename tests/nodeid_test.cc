// Tests for prefix-encoded node IDs: validity, document order, ancestor
// testing, and — the load-bearing property — Between() always finding room.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "index/nodeid_index.h"
#include "pack/record_builder.h"
#include "pack/tree_cursor.h"
#include "storage/buffer_manager.h"
#include "storage/record_manager.h"
#include "storage/tablespace.h"
#include "util/workload.h"
#include "xml/node_id.h"
#include "xml/parser.h"

namespace xdb {
namespace nodeid {
namespace {

TEST(NodeIdTest, ChildIdsAreSingleEvenBytes) {
  EXPECT_EQ(ChildId(1), std::string(1, char(0x02)));
  EXPECT_EQ(ChildId(2), std::string(1, char(0x04)));
  EXPECT_EQ(ChildId(126), std::string(1, char(0xFC)));
}

TEST(NodeIdTest, ChildIdsExtendPast126) {
  std::string id127 = ChildId(127);
  EXPECT_GT(id127.size(), 1u);
  EXPECT_TRUE(IsValidRelative(id127));
  // Order holds across the extension boundary.
  EXPECT_LT(Slice(ChildId(126)).Compare(Slice(id127)), 0);
  EXPECT_LT(Slice(id127).Compare(Slice(ChildId(128))), 0);
  EXPECT_LT(Slice(ChildId(200)).Compare(Slice(ChildId(300))), 0);
}

TEST(NodeIdTest, SiblingOrderIsStrictlyIncreasing) {
  std::string prev;
  for (uint32_t n = 1; n <= 1000; n++) {
    std::string id = ChildId(n);
    EXPECT_TRUE(IsValidRelative(id)) << n;
    if (!prev.empty()) {
      EXPECT_LT(Slice(prev).Compare(Slice(id)), 0) << n;
    }
    prev = id;
  }
}

TEST(NodeIdTest, Validity) {
  EXPECT_TRUE(IsValidRelative(std::string(1, 0x02)));
  EXPECT_TRUE(IsValidRelative(std::string{char(0x03), char(0x02)}));
  EXPECT_FALSE(IsValidRelative(""));
  EXPECT_FALSE(IsValidRelative(std::string(1, 0x03)));          // ends odd
  EXPECT_FALSE(IsValidRelative(std::string{char(0x02), char(0x04)}));  // 2 levels
  EXPECT_TRUE(IsValidAbsolute(""));  // the implicit root
  EXPECT_TRUE(IsValidAbsolute(std::string{char(0x02), char(0x04)}));
  EXPECT_FALSE(IsValidAbsolute(std::string{char(0x02), char(0x03)}));
}

TEST(NodeIdTest, SplitLevelsAndDepth) {
  // 02 | 03 04 | 06
  std::string abs{char(0x02), char(0x03), char(0x04), char(0x06)};
  std::vector<Slice> levels;
  ASSERT_TRUE(SplitLevels(abs, &levels).ok());
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0].size(), 1u);
  EXPECT_EQ(levels[1].size(), 2u);
  EXPECT_EQ(levels[2].size(), 1u);
  EXPECT_EQ(Depth(abs).value(), 3);
  EXPECT_EQ(Depth("").value(), 0);
}

TEST(NodeIdTest, Parent) {
  std::string abs{char(0x02), char(0x03), char(0x04), char(0x06)};
  Slice p = Parent(abs).value();
  EXPECT_EQ(p.size(), 3u);  // strips the final single-byte level
  Slice pp = Parent(p).value();
  EXPECT_EQ(pp.size(), 1u);  // strips the two-byte level
  Slice root = Parent(pp).value();
  EXPECT_TRUE(root.empty());
  EXPECT_FALSE(Parent(Slice()).ok());
}

TEST(NodeIdTest, AncestorIsProperPrefix) {
  std::string a{char(0x02)};
  std::string d{char(0x02), char(0x04)};
  EXPECT_TRUE(IsAncestor(a, d));
  EXPECT_FALSE(IsAncestor(d, a));
  EXPECT_FALSE(IsAncestor(a, a));
  EXPECT_TRUE(IsAncestor(Slice(), a));  // root is everyone's ancestor
}

TEST(NodeIdTest, DocumentOrderPutsAncestorsFirst) {
  std::string parent{char(0x04)};
  std::string child{char(0x04), char(0x02)};
  std::string next_sibling{char(0x06)};
  EXPECT_LT(Compare(parent, child), 0);
  EXPECT_LT(Compare(child, next_sibling), 0);
}

TEST(BetweenTest, BasicCases) {
  std::string mid;
  // First child ever.
  ASSERT_TRUE(Between(Slice(), Slice(), &mid).ok());
  EXPECT_TRUE(IsValidRelative(mid));

  // After last.
  std::string left = ChildId(3);
  ASSERT_TRUE(Between(left, Slice(), &mid).ok());
  EXPECT_TRUE(IsValidRelative(mid));
  EXPECT_LT(Slice(left).Compare(Slice(mid)), 0);

  // Before first.
  std::string right = ChildId(1);  // 0x02
  ASSERT_TRUE(Between(Slice(), right, &mid).ok());
  EXPECT_TRUE(IsValidRelative(mid));
  EXPECT_LT(Slice(mid).Compare(Slice(right)), 0);

  // Between adjacent single bytes: 02 < mid < 04.
  ASSERT_TRUE(Between(ChildId(1), ChildId(2), &mid).ok());
  EXPECT_TRUE(IsValidRelative(mid));
  EXPECT_LT(Slice(ChildId(1)).Compare(Slice(mid)), 0);
  EXPECT_LT(Slice(mid).Compare(Slice(ChildId(2))), 0);
}

TEST(BetweenTest, AfterLastAtByteCeiling) {
  std::string left(1, char(0xFE));
  std::string mid;
  ASSERT_TRUE(Between(left, Slice(), &mid).ok());
  EXPECT_TRUE(IsValidRelative(mid));
  EXPECT_LT(Slice(left).Compare(Slice(mid)), 0);
}

// The property the paper claims: "there is always space for insertion in the
// middle by extending the node ID length when necessary." Repeatedly insert
// at random gaps and verify validity + strict order every time.
TEST(BetweenTest, PropertyRandomInsertionsStaySorted) {
  for (uint64_t seed = 1; seed <= 5; seed++) {
    Random rng(seed);
    std::vector<std::string> ids = {ChildId(1), ChildId(2), ChildId(3)};
    for (int iter = 0; iter < 400; iter++) {
      size_t gap = rng.Uniform(ids.size() + 1);
      Slice left = gap == 0 ? Slice() : Slice(ids[gap - 1]);
      Slice right = gap == ids.size() ? Slice() : Slice(ids[gap]);
      std::string mid;
      Status st = Between(left, right, &mid);
      ASSERT_TRUE(st.ok()) << st.ToString() << " at iter " << iter;
      ASSERT_TRUE(IsValidRelative(mid)) << ToString(mid);
      if (!left.empty()) {
        ASSERT_LT(left.Compare(Slice(mid)), 0);
      }
      if (!right.empty()) {
        ASSERT_LT(Slice(mid).Compare(right), 0);
      }
      ids.insert(ids.begin() + gap, mid);
    }
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end(),
                               [](const std::string& a, const std::string& b) {
                                 return Slice(a).Compare(Slice(b)) < 0;
                               }));
    // All distinct.
    std::set<std::string> uniq(ids.begin(), ids.end());
    EXPECT_EQ(uniq.size(), ids.size());
  }
}

// Left-edge hammering: keep inserting before the first sibling; the encoding
// extends instead of running out (until the absolute floor).
TEST(BetweenTest, RepeatedInsertBeforeFirstExtends) {
  std::string right = ChildId(1);
  for (int i = 0; i < 100; i++) {
    std::string mid;
    Status st = Between(Slice(), right, &mid);
    ASSERT_TRUE(st.ok()) << "iteration " << i << ": " << st.ToString();
    ASSERT_TRUE(IsValidRelative(mid));
    ASSERT_LT(Slice(mid).Compare(Slice(right)), 0);
    right = mid;
  }
}

TEST(BetweenTest, RepeatedInsertBetweenAdjacentExtends) {
  std::string left = ChildId(1), right = ChildId(2);
  for (int i = 0; i < 100; i++) {
    std::string mid;
    ASSERT_TRUE(Between(left, right, &mid).ok()) << i;
    ASSERT_TRUE(IsValidRelative(mid));
    ASSERT_LT(Slice(left).Compare(Slice(mid)), 0) << i;
    ASSERT_LT(Slice(mid).Compare(Slice(right)), 0) << i;
    // Alternate narrowing from both sides.
    if (i % 2 == 0) left = mid; else right = mid;
  }
}

TEST(NodeIdTest, ToStringRendersLevels) {
  std::string abs{char(0x02), char(0x04)};
  EXPECT_EQ(ToString(abs), "02.04");
  EXPECT_EQ(ToString(Slice()), "00");
}

// --- Edge-case sweeps: deep Dewey prefixes and sibling overflow, first as
// raw ID properties, then fed through the NodeID B+tree index. ---

// A 64-deep chain: every proper prefix is an ancestor, depth counts levels
// exactly, and Parent() walks the chain back to the root.
TEST(NodeIdEdgeTest, DeepPrefixChainContainmentAndOrder) {
  std::vector<std::string> chain;  // chain[d] has depth d+1
  std::string id;
  for (int d = 0; d < 64; d++) {
    id += ChildId(static_cast<uint32_t>(d % 5 + 1));
    ASSERT_TRUE(IsValidAbsolute(id)) << d;
    EXPECT_EQ(Depth(id).value(), d + 1);
    chain.push_back(id);
  }
  for (size_t i = 0; i < chain.size(); i++) {
    for (size_t j = i + 1; j < chain.size(); j++) {
      EXPECT_TRUE(IsAncestor(chain[i], chain[j])) << i << "," << j;
      EXPECT_FALSE(IsAncestor(chain[j], chain[i])) << i << "," << j;
      // Document order puts ancestors first.
      EXPECT_LT(Compare(chain[i], chain[j]), 0) << i << "," << j;
    }
  }
  // Parent() inverts the construction.
  Slice cur = chain.back();
  for (int d = 63; d >= 1; d--) {
    cur = Parent(cur).value();
    EXPECT_EQ(cur.ToString(), chain[d - 1]) << d;
  }
  EXPECT_TRUE(Parent(cur).value().empty());
}

// Sibling overflow: once ChildId crosses the single-byte ceiling (126) the
// encoding extends. No sibling may become a prefix (= ancestor) of another,
// and order must stay strict through the boundary and far past it.
TEST(NodeIdEdgeTest, SiblingOverflowIsOrderedAndPrefixFree) {
  std::vector<std::string> sibs;
  for (uint32_t n = 100; n <= 600; n++) sibs.push_back(ChildId(n));
  for (size_t i = 0; i < sibs.size(); i++) {
    ASSERT_TRUE(IsValidRelative(sibs[i])) << 100 + i;
    if (i > 0) {
      EXPECT_LT(Slice(sibs[i - 1]).Compare(Slice(sibs[i])), 0) << 100 + i;
      // Siblings are never ancestors of each other, even when the shorter
      // one ends where the longer one's extension begins.
      EXPECT_FALSE(IsAncestor(sibs[i - 1], sibs[i])) << 100 + i;
      EXPECT_FALSE(IsAncestor(sibs[i], sibs[i - 1])) << 100 + i;
    }
  }
}

// Overflowed siblings used as interior levels: a child under sibling #n>126
// is a descendant of exactly that sibling, not its neighbours.
TEST(NodeIdEdgeTest, DeepPrefixesThroughOverflowedLevels) {
  for (uint32_t n : {126u, 127u, 128u, 254u, 255u, 300u}) {
    std::string parent = ChildId(n);
    std::string child = parent + ChildId(1);
    std::string grandchild = child + ChildId(200);
    ASSERT_TRUE(IsValidAbsolute(child)) << n;
    ASSERT_TRUE(IsValidAbsolute(grandchild)) << n;
    EXPECT_TRUE(IsAncestor(parent, child)) << n;
    EXPECT_TRUE(IsAncestor(parent, grandchild)) << n;
    EXPECT_TRUE(IsAncestor(child, grandchild)) << n;
    EXPECT_FALSE(IsAncestor(ChildId(n + 1), child)) << n;
    EXPECT_LT(Compare(parent, child), 0) << n;
    EXPECT_LT(Compare(grandchild, ChildId(n + 1)), 0) << n;
  }
}

// The same shapes, end to end: pack a document, feed the NodeID B+tree
// index, and verify every node resolves and the interval entries are sane.
struct IndexSweepParam {
  const char* label;
  uint32_t depth;    // nesting levels (GenRecursiveXml)
  uint32_t fanout;   // siblings per level; > 126 forces ID extension
  size_t budget;     // record budget — small values force many records
};

void PrintTo(const IndexSweepParam& p, std::ostream* os) { *os << p.label; }

class NodeIdIndexSweep : public ::testing::TestWithParam<IndexSweepParam> {};

TEST_P(NodeIdIndexSweep, EveryNodeResolvesAndIntervalsAreOrdered) {
  const IndexSweepParam& p = GetParam();
  std::string xml = workload::GenRecursiveXml(p.depth, p.fanout);

  TableSpaceOptions opts;
  opts.in_memory = true;
  auto space = TableSpace::Create("", opts).MoveValue();
  BufferManager bm(space.get(), 512);
  RecordManager records(&bm);
  auto tree = BTree::Create(&bm).MoveValue();
  NodeIdIndex index(tree.get());

  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
  RecordBuilderOptions rb;
  rb.record_budget = p.budget;
  RecordBuilder builder(rb);
  std::vector<Rid> inserted;
  ASSERT_TRUE(builder
                  .Build(tokens.data(),
                         [&](PackedRecordOut&& rec) -> Status {
                           XDB_ASSIGN_OR_RETURN(Rid rid,
                                                records.Insert(rec.bytes));
                           XDB_RETURN_NOT_OK(
                               index.AddRecord(1, rec.bytes, rid));
                           inserted.push_back(rid);
                           return Status::OK();
                         })
                  .ok());
  ASSERT_GT(inserted.size(), 1u) << "budget did not force a split";

  // Walk the stored document; every node's ID must be valid, resolvable,
  // and in strictly increasing document order, with every ancestor also
  // resolvable (containment holds level by level).
  StoredDocSource source(&records, &index, 1);
  XmlEvent ev;
  std::string prev;
  uint32_t nodes = 0;
  int max_depth = 0;
  for (;;) {
    auto more = source.Next(&ev);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    if (ev.type == XmlEvent::Type::kEndElement ||
        ev.type == XmlEvent::Type::kStartDocument ||
        ev.type == XmlEvent::Type::kEndDocument)
      continue;
    std::string id = ev.node_id.ToString();
    ASSERT_TRUE(IsValidAbsolute(id)) << ToString(id);
    if (!prev.empty()) {
      ASSERT_LT(Compare(prev, id), 0)
          << ToString(prev) << " !< " << ToString(id);
    }
    prev = id;
    max_depth = std::max(max_depth, Depth(id).value());
    ASSERT_TRUE(index.Lookup(1, id).ok()) << ToString(id);
    for (auto par = Parent(id); par.ok() && !par.value().empty();
         par = Parent(par.value())) {
      ASSERT_TRUE(IsAncestor(par.value(), id));
      ASSERT_TRUE(index.Lookup(1, par.value()).ok()) << ToString(par.value());
    }
    nodes++;
  }
  EXPECT_GE(max_depth, static_cast<int>(p.depth));
  EXPECT_GT(nodes, p.depth * p.fanout);

  // Interval entries: upper end points strictly increasing, and the distinct
  // RIDs cover exactly the records we inserted.
  std::vector<std::pair<std::string, Rid>> entries;
  ASSERT_TRUE(index.ListDocEntries(1, Slice(), &entries).ok());
  ASSERT_GE(entries.size(), inserted.size());
  for (size_t i = 1; i < entries.size(); i++) {
    EXPECT_LT(Compare(entries[i - 1].first, entries[i].first), 0) << i;
  }
  std::vector<Rid> listed;
  ASSERT_TRUE(index.ListDocRecords(1, Slice(), &listed).ok());
  std::set<std::pair<PageId, uint16_t>> want, got;
  for (const Rid& r : inserted) want.insert({r.page_id, r.slot});
  for (const Rid& r : listed) got.insert({r.page_id, r.slot});
  EXPECT_EQ(got, want);

  // Past-the-end IDs miss cleanly instead of resolving to a neighbour.
  EXPECT_FALSE(index.Lookup(1, ChildId(2000)).ok());
  EXPECT_FALSE(index.Lookup(2, ChildId(1)).ok());  // other doc untouched
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NodeIdIndexSweep,
    ::testing::Values(
        IndexSweepParam{"DeepChain", 48, 1, 96},
        IndexSweepParam{"DeepModeratelyWide", 16, 4, 128},
        IndexSweepParam{"SiblingOverflow", 2, 150, 512},
        IndexSweepParam{"OverflowTinyRecords", 2, 140, 64},
        IndexSweepParam{"DeepAndOverflowed", 6, 130, 256}),
    [](const ::testing::TestParamInfo<IndexSweepParam>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace nodeid
}  // namespace xdb
