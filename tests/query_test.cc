// Query-planning tests: candidate extraction, index matching, access-method
// selection (Table 2), anchoring, and posting-list algebra.
#include <gtest/gtest.h>

#include <cstdlib>

#include "btree/btree.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "query/access_path.h"
#include "query/executor.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"
#include "xml/node_id.h"
#include "xpath/parser.h"

namespace xdb {
namespace query {
namespace {

using xpath::ParsePath;

TEST(ExtractCandidatesTest, SingleComparison) {
  auto path =
      ParsePath("/Catalog/Categories/Product[RegPrice > 100]").MoveValue();
  std::vector<CandidatePredicate> cands;
  bool leftover;
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_FALSE(leftover);
  EXPECT_EQ(cands[0].step_index, 2u);
  EXPECT_EQ(cands[0].full_path.ToString(),
            "/Catalog/Categories/Product/RegPrice");
  EXPECT_EQ(cands[0].op, xpath::CompOp::kGt);
  EXPECT_EQ(cands[0].strip_levels, 1);
  EXPECT_FALSE(cands[0].or_group);
}

TEST(ExtractCandidatesTest, ConjunctsSplitAndOrGroups) {
  auto path =
      ParsePath("/c/p[a > 1 and b < 2][x = \"s\" or y = \"t\"]").MoveValue();
  std::vector<CandidatePredicate> cands;
  bool leftover;
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  ASSERT_EQ(cands.size(), 4u);
  EXPECT_FALSE(leftover);
  int and_count = 0, or_count = 0;
  for (auto& c : cands) (c.or_group ? or_count : and_count)++;
  EXPECT_EQ(and_count, 2);
  EXPECT_EQ(or_count, 2);
  EXPECT_EQ(cands[2].group_id, cands[3].group_id);
}

TEST(ExtractCandidatesTest, UnindexableShapesFlagged) {
  // not(...) and != are not probes.
  auto path = ParsePath("/c/p[not(a = 1)]").MoveValue();
  std::vector<CandidatePredicate> cands;
  bool leftover;
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  EXPECT_TRUE(cands.empty());
  EXPECT_TRUE(leftover);

  path = ParsePath("/c/p[a != 1]").MoveValue();
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  EXPECT_TRUE(cands.empty());
  EXPECT_TRUE(leftover);
}

TEST(ExtractCandidatesTest, DescendantBranchForbidsAnchoring) {
  auto path = ParsePath("/c/p[.//deep = 5]").MoveValue();
  std::vector<CandidatePredicate> cands;
  bool leftover;
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].strip_levels, -1);
}

TEST(ClonePathSkeletonTest, DropsPredicatesKeepsShape) {
  auto path = ParsePath("/a/b[c > 1]//d[@x]").MoveValue();
  xpath::Path skel = ClonePathSkeleton(path);
  EXPECT_EQ(skel.ToString(), "/a/b//d");
  for (const auto& s : skel.steps) EXPECT_TRUE(s.predicates.empty());
}

TEST(AnchorPostingsTest, StripsBranchLevels) {
  std::vector<Posting> postings;
  Posting p;
  p.doc_id = 1;
  p.node_id = nodeid::ChildId(1) + nodeid::ChildId(2) + nodeid::ChildId(3);
  postings.push_back(p);
  std::vector<Posting> anchored;
  ASSERT_TRUE(AnchorPostings(postings, 1, &anchored).ok());
  EXPECT_EQ(anchored[0].node_id, nodeid::ChildId(1) + nodeid::ChildId(2));
  ASSERT_TRUE(AnchorPostings(postings, 2, &anchored).ok());
  EXPECT_EQ(anchored[0].node_id, nodeid::ChildId(1));
  EXPECT_FALSE(AnchorPostings(postings, -1, &anchored).ok());
}

// The evaluation stage's partition: chunk boundaries move forward to
// document starts, so a document's anchors are one run in one chunk, and
// the chunks still cover the list in order.
TEST(PartitionByDocumentTest, ChunksNeverSplitADocument) {
  auto anchors = [](const std::vector<uint64_t>& per_doc) {
    std::vector<Posting> out;
    for (size_t d = 0; d < per_doc.size(); d++)
      for (uint32_t i = 1; i <= per_doc[d]; i++) {
        Posting p;
        p.doc_id = d + 1;
        p.node_id = nodeid::ChildId(i);
        out.push_back(p);
      }
    return out;
  };
  const std::vector<std::vector<uint64_t>> shapes = {
      {40}, {39, 1}, {1, 39}, {5, 5, 5, 5, 5, 5, 5, 5}, {3, 30, 3, 3},
      {26, 26, 26, 26, 26, 26}, {1, 1, 1, 1, 1, 1, 1, 1, 1}};
  for (const auto& shape : shapes) {
    const std::vector<Posting> list = anchors(shape);
    const std::vector<WorkRange> ranges = PartitionByDocument(list, 4);
    std::string label;
    for (uint64_t n : shape) label += std::to_string(n) + " ";
    if (shape.size() == 1) {
      EXPECT_TRUE(ranges.empty()) << label;  // one document runs serially
      continue;
    }
    size_t at = 0;
    for (const WorkRange& r : ranges) {
      EXPECT_EQ(r.begin, at) << label;
      EXPECT_LT(r.begin, r.end) << label;
      EXPECT_TRUE(r.begin == 0 ||
                  list[r.begin].doc_id != list[r.begin - 1].doc_id)
          << label << "chunk starts inside a document at " << r.begin;
      at = r.end;
    }
    if (!ranges.empty()) {
      EXPECT_EQ(at, list.size()) << label;
    }
  }
  // Fan-out still happens across documents, as PartitionForParallelism
  // allows: six documents of 26 anchors at parallelism 4.
  EXPECT_GT(PartitionByDocument(anchors({26, 26, 26, 26, 26, 26}), 4).size(),
            1u);
  EXPECT_TRUE(PartitionByDocument(anchors({40}), 4).empty());
  EXPECT_EQ(PartitionByDocument(anchors({39, 1}), 4).size(), 2u);
  EXPECT_EQ(PartitionByDocument(anchors({5, 5, 5, 5, 5, 5, 5, 5}), 4).size(),
            8u);
}

TEST(PostingAlgebraTest, IntersectAndUnion) {
  auto mk = [](uint64_t doc, uint32_t child) {
    Posting p;
    p.doc_id = doc;
    p.node_id = nodeid::ChildId(child);
    return p;
  };
  std::vector<Posting> a = {mk(1, 1), mk(1, 2), mk(2, 1)};
  std::vector<Posting> b = {mk(1, 2), mk(2, 2), mk(1, 1)};
  auto inter = IntersectPostings({a, b});
  ASSERT_EQ(inter.size(), 2u);
  EXPECT_EQ(inter[0].node_id, nodeid::ChildId(1));
  EXPECT_EQ(inter[1].node_id, nodeid::ChildId(2));
  auto uni = UnionPostings({a, b});
  EXPECT_EQ(uni.size(), 4u);

  // DocID lists are document anchors (node ID "") through the same merges.
  auto docs = [](std::vector<uint64_t> ids) {
    std::vector<Posting> out;
    for (uint64_t id : ids) {
      Posting p;
      p.doc_id = id;
      out.push_back(p);
    }
    return out;
  };
  auto ids = [](const std::vector<Posting>& postings) {
    std::vector<uint64_t> out;
    for (const Posting& p : postings) {
      EXPECT_TRUE(p.node_id.empty());
      out.push_back(p.doc_id);
    }
    return out;
  };
  EXPECT_EQ(ids(IntersectPostings(
                {docs({1, 2, 3}), docs({2, 3, 4}), docs({3, 2})})),
            (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(ids(UnionPostings({docs({1, 2}), docs({2, 4})})),
            (std::vector<uint64_t>{1, 2, 4}));
  EXPECT_TRUE(IntersectPostings({}).empty());
}

class PlannerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 128);
  }

  ValueIndex* AddIndex(const std::string& name, const std::string& path,
                       ValueType type) {
    trees_.push_back(BTree::Create(bm_.get()).MoveValue());
    ValueIndexDef def;
    def.name = name;
    def.path = path;
    def.type = type;
    indexes_.push_back(
        std::make_unique<ValueIndex>(def, trees_.back().get()));
    ctx_.indexes.push_back(indexes_.back().get());
    return indexes_.back().get();
  }

  QueryPlan Plan(const std::string& query,
                 ForceMethod force = ForceMethod::kAuto) {
    auto path = ParsePath(query).MoveValue();
    auto plan = ChoosePlan(path, ctx_, force);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.MoveValue();
  }

  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::vector<std::unique_ptr<BTree>> trees_;
  std::vector<std::unique_ptr<ValueIndex>> indexes_;
  PlannerContext ctx_;
};

TEST_F(PlannerFixture, NoIndexesMeansFullScan) {
  QueryPlan plan = Plan("/Catalog/Categories/Product[RegPrice > 100]");
  EXPECT_EQ(plan.method, AccessMethod::kFullScan);
}

// The fixture plans without statistics, where the cost model prices every
// probe above a scan of no documents: the Table-2 shapes are pinned through
// forced methods. Which method the prices pick is planner_test.cc's job.
TEST_F(PlannerFixture, Table2Case1ExactDocIdList) {
  AddIndex("regprice", "/Catalog/Categories/Product/RegPrice",
           ValueType::kDouble);
  QueryPlan plan = Plan("/Catalog/Categories/Product[RegPrice > 100]",
                        ForceMethod::kDocIdList);
  EXPECT_EQ(plan.method, AccessMethod::kDocIdList);
  ASSERT_EQ(plan.probes.size(), 1u);
  EXPECT_EQ(plan.probes[0].match, xpath::IndexMatch::kExact);
}

TEST_F(PlannerFixture, Table2Case2FilteringViaContainment) {
  AddIndex("discount", "//Discount", ValueType::kDouble);
  QueryPlan plan = Plan("/Catalog/Categories/Product[Discount > 0.1]",
                        ForceMethod::kDocIdList);
  EXPECT_EQ(plan.method, AccessMethod::kDocIdList);
  ASSERT_EQ(plan.probes.size(), 1u);
  EXPECT_EQ(plan.probes[0].match, xpath::IndexMatch::kContains);
  EXPECT_TRUE(plan.need_recheck);
}

TEST_F(PlannerFixture, Table2Case3Anding) {
  AddIndex("regprice", "/Catalog/Categories/Product/RegPrice",
           ValueType::kDouble);
  AddIndex("discount", "//Discount", ValueType::kDouble);
  QueryPlan plan =
      Plan("/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]",
           ForceMethod::kNodeIdList);
  EXPECT_EQ(plan.method, AccessMethod::kNodeIdAndOr);
  EXPECT_EQ(plan.probes.size(), 2u);
  EXPECT_FALSE(plan.disjunctive);
  // One exact + one containment: node-level ANDing makes the list exact,
  // but the residual path below the anchor still runs.
}

TEST_F(PlannerFixture, ForceOverridesHeuristic) {
  AddIndex("regprice", "/Catalog/Categories/Product/RegPrice",
           ValueType::kDouble);
  ctx_.avg_records_per_doc = 10.0;
  EXPECT_EQ(Plan("/Catalog/Categories/Product[RegPrice > 100]",
                 ForceMethod::kDocIdList)
                .method,
            AccessMethod::kDocIdList);
  EXPECT_EQ(Plan("/Catalog/Categories/Product[RegPrice > 100]",
                 ForceMethod::kScan)
                .method,
            AccessMethod::kFullScan);
}

TEST_F(PlannerFixture, OrGroupNeedsAllMembersIndexed) {
  AddIndex("regprice", "/Catalog/Categories/Product/RegPrice",
           ValueType::kDouble);
  // Only one side of the OR is indexed: the whole group is unusable.
  QueryPlan plan =
      Plan("/Catalog/Categories/Product[RegPrice > 100 or Discount > 0.1]");
  EXPECT_EQ(plan.method, AccessMethod::kFullScan);

  AddIndex("discount", "//Discount", ValueType::kDouble);
  plan = Plan("/Catalog/Categories/Product[RegPrice > 100 or Discount > 0.1]",
              ForceMethod::kDocIdList);
  EXPECT_EQ(plan.method, AccessMethod::kDocIdAndOr);
  EXPECT_TRUE(plan.disjunctive);
  EXPECT_EQ(plan.probes.size(), 2u);
}

TEST_F(PlannerFixture, TypeMismatchSkipsIndex) {
  AddIndex("name", "/Catalog/Categories/Product/ProductName",
           ValueType::kDouble);
  // A string literal cannot be probed against a double index.
  QueryPlan plan =
      Plan("/Catalog/Categories/Product[ProductName = \"gizmo\"]",
           ForceMethod::kDocIdList);
  EXPECT_EQ(plan.method, AccessMethod::kFullScan);

  // A string index is ordered by bytes; XPath compares <, <=, >, >= and =
  // against a number as numbers, so it serves only = with a string.
  AddIndex("n", "/a/n", ValueType::kString);
  for (const char* q : {"/a[n < 10]", "/a[n <= 10]", "/a[n > 10]",
                        "/a[n >= 10]", "/a[n = 5]", "/a[n < \"500\"]",
                        "/a[n >= \"5\"]", "/a[10 > n]"}) {
    EXPECT_EQ(Plan(q, ForceMethod::kDocIdList).method, AccessMethod::kFullScan)
        << q;
    EXPECT_EQ(Plan(q, ForceMethod::kNodeIdList).method,
              AccessMethod::kFullScan)
        << q;
  }
  plan = Plan("/a[n = \"5\"]", ForceMethod::kDocIdList);
  EXPECT_EQ(plan.method, AccessMethod::kDocIdList);
  ASSERT_EQ(plan.probes.size(), 1u);
  EXPECT_EQ(plan.probes[0].index->def().name, "n");

  // With a numeric index on the same path, the numeric comparisons go to
  // it instead of to the scan.
  AddIndex("n_num", "/a/n", ValueType::kDecimal);
  for (const char* q : {"/a[n < 10]", "/a[n = 5]", "/a[n < \"500\"]"}) {
    plan = Plan(q, ForceMethod::kDocIdList);
    EXPECT_EQ(plan.method, AccessMethod::kDocIdList) << q;
    ASSERT_EQ(plan.probes.size(), 1u) << q;
    EXPECT_EQ(plan.probes[0].index->def().name, "n_num") << q;
  }
}

// The probe key is the literal the query names: a number in its shortest
// round-trip form, a string under = as written, and a string under a
// relational operator as the number XPath compares with.
TEST(ProbeLiteralTest, ShortestRoundTripForNumbers) {
  auto literal = [](const std::string& query) {
    auto path = ParsePath(query).MoveValue();
    std::vector<CandidatePredicate> cands;
    bool leftover;
    EXPECT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
    EXPECT_EQ(cands.size(), 1u) << query;
    return cands.empty() ? std::string() : ProbeLiteral(cands[0]);
  };
  EXPECT_EQ(literal("/a[v = 0.46]"), "0.46");
  EXPECT_EQ(literal("/a[v <= 0.3]"), "0.3");
  EXPECT_EQ(literal("/a[v = 5]"), "5");
  EXPECT_EQ(literal("/a[v = 5.0]"), "5");
  EXPECT_EQ(literal("/a[v > 060]"), "60");
  // 2^63 and beyond: no integer cast, and the form still parses back to
  // the literal's double.
  EXPECT_EQ(std::strtod(literal("/a[v > 9223372036854775808]").c_str(),
                        nullptr),
            9223372036854775808.0);
  // The shortest digits in fixed notation, which XPath's number grammar
  // reads: 1e23's, not its double's exact 99999999999999991611392.
  EXPECT_EQ(literal("/a[v < 100000000000000000000000]"),
            "100000000000000000000000");
  EXPECT_EQ(literal("/a[v = 100000]"), "100000");
  EXPECT_EQ(literal("/a[v = 123456789012345678901234567]"),
            "123456789012345680000000000");
  EXPECT_EQ(literal("/a[v > 0.0000001]"), "0.0000001");
  EXPECT_EQ(literal("/a[v > 1.5]"), "1.5");
  EXPECT_EQ(literal("/a[v = \"5.0\"]"), "5.0");
  EXPECT_EQ(literal("/a[v < \" 7 \"]"), "7");
  EXPECT_EQ(literal("/a[v >= \"0.46\"]"), "0.46");
}

// Fills stack below the caller with digits, where a later call's
// uninitialised locals will sit.
[[gnu::noinline]] void FillStackWithDigits() {
  volatile char junk[8192];
  for (size_t i = 0; i < sizeof(junk); i++) junk[i] = '7';
}

// The exponent is read only from the characters to_chars wrote: digits left
// on the stack past them must not extend it (982.6 once probed as 982.6
// times a power of ten in the thousands).
TEST(ProbeLiteralTest, ReadsOnlyTheWrittenExponent) {
  auto path = ParsePath("/a[v > 982.60]").MoveValue();
  std::vector<CandidatePredicate> cands;
  bool leftover;
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  ASSERT_EQ(cands.size(), 1u);
  for (int i = 0; i < 100; i++) {
    FillStackWithDigits();
    ASSERT_EQ(ProbeLiteral(cands[0]), "982.6");
  }
}

TEST_F(PlannerFixture, ProbeBoundsFromOperators) {
  ValueIndex* idx = AddIndex("price", "/c/p/v", ValueType::kDouble);
  auto path = ParsePath("/c/p[v >= 10]").MoveValue();
  std::vector<CandidatePredicate> cands;
  bool leftover;
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  std::optional<KeyBound> lo, hi;
  bool ne;
  ASSERT_TRUE(ProbeBounds(*idx, cands[0], &lo, &hi, &ne).ok());
  ASSERT_TRUE(lo.has_value());
  EXPECT_TRUE(lo->inclusive);
  EXPECT_FALSE(hi.has_value());

  path = ParsePath("/c/p[v < 10]").MoveValue();
  ASSERT_TRUE(ExtractCandidates(path, &cands, &leftover).ok());
  ASSERT_TRUE(ProbeBounds(*idx, cands[0], &lo, &hi, &ne).ok());
  EXPECT_FALSE(lo.has_value());
  ASSERT_TRUE(hi.has_value());
  EXPECT_FALSE(hi->inclusive);
}

// --- compiled-plan cache lifecycle (hits, misses, evictions, invalidation) ---

std::unique_ptr<Engine> CacheEngine(size_t capacity) {
  EngineOptions opts;
  opts.in_memory = true;
  opts.enable_wal = false;
  opts.plan_cache_capacity = capacity;
  return Engine::Open(opts).MoveValue();
}

uint64_t Counter(Engine* engine, const char* name) {
  return engine->MetricsSnapshot().Value(name);
}

TEST(PlanCacheTest, HitMissCountersAndProfileState) {
  auto engine = CacheEngine(8);
  Collection* coll = engine->CreateCollection("c").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());

  QueryOptions o;
  o.explain = true;
  auto first = coll->Query(nullptr, "/a/b", o).MoveValue();
  EXPECT_EQ(first.profile.plan_cache, "miss");
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.misses"), 1u);
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.hits"), 0u);
  EXPECT_EQ(coll->plan_cache()->size(), 1u);

  auto second = coll->Query(nullptr, "/a/b", o).MoveValue();
  EXPECT_EQ(second.profile.plan_cache, "hit");
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.hits"), 1u);
  EXPECT_EQ(coll->plan_cache()->size(), 1u);

  // Different want_values / force / text are distinct keys.
  QueryOptions vals = o;
  vals.want_values = true;
  EXPECT_TRUE(coll->Query(nullptr, "/a/b", vals).ok());
  QueryOptions forced = o;
  forced.force = ForceMethod::kScan;
  EXPECT_TRUE(coll->Query(nullptr, "/a/b", forced).ok());
  EXPECT_TRUE(coll->Query(nullptr, "/a", o).ok());
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.misses"), 4u);
  EXPECT_EQ(coll->plan_cache()->size(), 4u);
}

TEST(PlanCacheTest, EpochBumpMakesCachedPlansUnreachable) {
  auto engine = CacheEngine(8);
  Collection* coll = engine->CreateCollection("c").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  QueryOptions o;
  o.explain = true;
  EXPECT_EQ(coll->Query(nullptr, "/a/b", o).value().profile.plan_cache,
            "miss");
  EXPECT_EQ(coll->Query(nullptr, "/a/b", o).value().profile.plan_cache,
            "hit");
  // Any document write bumps the stats epoch: the cached plan's key no
  // longer matches and the same text compiles (and re-prices) again.
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>2</b></a>").ok());
  EXPECT_EQ(coll->Query(nullptr, "/a/b", o).value().profile.plan_cache,
            "miss");
  EXPECT_EQ(coll->Query(nullptr, "/a/b", o).value().profile.plan_cache,
            "hit");
}

TEST(PlanCacheTest, LruEvictsAtCapacity) {
  auto engine = CacheEngine(2);
  Collection* coll = engine->CreateCollection("c").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b><c>2</c></a>").ok());
  QueryOptions o;
  EXPECT_TRUE(coll->Query(nullptr, "/a/b", o).ok());
  EXPECT_TRUE(coll->Query(nullptr, "/a/c", o).ok());
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.evictions"), 0u);
  EXPECT_TRUE(coll->Query(nullptr, "/a", o).ok());  // evicts LRU (/a/b)
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.evictions"), 1u);
  EXPECT_EQ(coll->plan_cache()->size(), 2u);
  // /a/b was the least recently used entry, so it is the one that left.
  QueryOptions ex;
  ex.explain = true;
  EXPECT_EQ(coll->Query(nullptr, "/a/c", ex).value().profile.plan_cache,
            "hit");
  EXPECT_EQ(coll->Query(nullptr, "/a/b", ex).value().profile.plan_cache,
            "miss");
}

TEST(PlanCacheTest, IndexLifecycleInvalidatesOutright) {
  auto engine = CacheEngine(8);
  Collection* coll = engine->CreateCollection("c").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  EXPECT_TRUE(coll->Query(nullptr, "/a/b").ok());
  EXPECT_GT(coll->plan_cache()->size(), 0u);

  ASSERT_TRUE(
      coll->CreateValueIndex({"b", "/a/b", ValueType::kString, 64}).ok());
  EXPECT_EQ(coll->plan_cache()->size(), 0u);
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.invalidations"), 1u);

  EXPECT_TRUE(coll->Query(nullptr, "/a/b").ok());
  EXPECT_GT(coll->plan_cache()->size(), 0u);
  ASSERT_TRUE(coll->DropValueIndex("b").ok());
  EXPECT_EQ(coll->plan_cache()->size(), 0u);
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.invalidations"), 2u);

  // Both invalidations landed in the event log with their causes.
  int created = 0, dropped = 0;
  for (const obs::Event& e : engine->RecentEvents()) {
    if (e.kind != obs::EventKind::kPlanCacheInvalidated) continue;
    if (e.message.find("index created") != std::string::npos) created++;
    if (e.message.find("index dropped") != std::string::npos) dropped++;
  }
  EXPECT_EQ(created, 1);
  EXPECT_EQ(dropped, 1);

  // Queries still work (and re-cache) after the drop.
  EXPECT_TRUE(coll->Query(nullptr, "/a/b").ok());
  EXPECT_GT(coll->plan_cache()->size(), 0u);
}

TEST(PlanCacheTest, DisabledCacheReportsOffAndStoresNothing) {
  auto engine = CacheEngine(0);
  Collection* coll = engine->CreateCollection("c").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());
  QueryOptions o;
  o.explain = true;
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(coll->Query(nullptr, "/a/b", o).value().profile.plan_cache,
              "off");
  }
  EXPECT_EQ(coll->plan_cache()->size(), 0u);
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.hits"), 0u);
  EXPECT_EQ(Counter(engine.get(), "query.plan_cache.misses"), 0u);
}

}  // namespace
}  // namespace query
}  // namespace xdb
