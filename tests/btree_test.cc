// B+tree tests: ordering, duplicates, splits at scale, deletion, iteration,
// persistence, and a randomized differential test against std::multimap.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

#include "btree/btree.h"
#include "common/random.h"
#include "storage/buffer_manager.h"
#include "storage/tablespace.h"

namespace xdb {
namespace {

class BtreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space_ = TableSpace::Create("", opts).MoveValue();
    bm_ = std::make_unique<BufferManager>(space_.get(), 256);
    tree_ = BTree::Create(bm_.get()).MoveValue();
  }

  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BtreeTest, InsertAndSeek) {
  ASSERT_TRUE(tree_->Insert("banana", "1").ok());
  ASSERT_TRUE(tree_->Insert("apple", "2").ok());
  ASSERT_TRUE(tree_->Insert("cherry", "3").ok());
  auto it = tree_->Seek("apple").MoveValue();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "apple");
  EXPECT_EQ(it.value().ToString(), "2");
  ASSERT_TRUE(it.Next().ok());
  EXPECT_EQ(it.key().ToString(), "banana");
  ASSERT_TRUE(it.Next().ok());
  EXPECT_EQ(it.key().ToString(), "cherry");
  ASSERT_TRUE(it.Next().ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BtreeTest, SeekLandsOnLowerBound) {
  ASSERT_TRUE(tree_->Insert("b", "x").ok());
  ASSERT_TRUE(tree_->Insert("d", "y").ok());
  auto it = tree_->Seek("c").MoveValue();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "d");
  it = tree_->Seek("e").MoveValue();
  EXPECT_FALSE(it.Valid());
}

TEST_F(BtreeTest, DuplicateKeysSortedByValue) {
  ASSERT_TRUE(tree_->Insert("k", "v3").ok());
  ASSERT_TRUE(tree_->Insert("k", "v1").ok());
  ASSERT_TRUE(tree_->Insert("k", "v2").ok());
  auto it = tree_->Seek("k").MoveValue();
  std::vector<std::string> values;
  while (it.Valid() && it.key() == Slice("k")) {
    values.push_back(it.value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(values, (std::vector<std::string>{"v1", "v2", "v3"}));
}

TEST_F(BtreeTest, InsertIsIdempotentOnExactPair) {
  ASSERT_TRUE(tree_->Insert("k", "v").ok());
  ASSERT_TRUE(tree_->Insert("k", "v").ok());
  auto stats = tree_->ComputeStats().value();
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(BtreeTest, DeleteExactPair) {
  ASSERT_TRUE(tree_->Insert("k", "v1").ok());
  ASSERT_TRUE(tree_->Insert("k", "v2").ok());
  ASSERT_TRUE(tree_->Delete("k", "v1").ok());
  EXPECT_TRUE(tree_->Delete("k", "v1").IsNotFound());
  auto it = tree_->Seek("k").MoveValue();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value().ToString(), "v2");
}

TEST_F(BtreeTest, ManyInsertsSplitAndStaySorted) {
  Random rng(3);
  const int kN = 20000;
  for (int i = 0; i < kN; i++) {
    std::string key = "key" + std::to_string(rng.Next() % 1000000);
    std::string value = std::to_string(i);
    ASSERT_TRUE(tree_->Insert(key, value).ok()) << i;
  }
  auto stats = tree_->ComputeStats().value();
  EXPECT_GT(stats.height, 1u);
  EXPECT_GT(stats.leaf_pages, 1u);

  auto it = tree_->SeekToFirst().MoveValue();
  std::string prev_key, prev_value;
  uint64_t count = 0;
  bool first = true;
  while (it.Valid()) {
    if (!first) {
      int c = Slice(prev_key).Compare(it.key());
      ASSERT_LE(c, 0);
      if (c == 0) {
        ASSERT_LT(Slice(prev_value).Compare(it.value()), 0);
      }
    }
    prev_key = it.key().ToString();
    prev_value = it.value().ToString();
    first = false;
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, stats.entries);
}

TEST_F(BtreeTest, RandomizedDifferentialAgainstStdMap) {
  Random rng(99);
  std::map<std::pair<std::string, std::string>, bool> model;
  for (int iter = 0; iter < 8000; iter++) {
    std::string key(1, static_cast<char>('a' + rng.Uniform(8)));
    key += std::to_string(rng.Uniform(200));
    std::string value = std::to_string(rng.Uniform(5));
    if (rng.OneIn(4) && !model.empty()) {
      // Delete a random existing pair.
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(tree_->Delete(it->first.first, it->first.second).ok());
      model.erase(it);
    } else {
      tree_->Insert(key, value).ok();
      model[{key, value}] = true;
    }
  }
  // Full scan must equal the model.
  auto it = tree_->SeekToFirst().MoveValue();
  auto mit = model.begin();
  while (it.Valid() && mit != model.end()) {
    EXPECT_EQ(it.key().ToString(), mit->first.first);
    EXPECT_EQ(it.value().ToString(), mit->first.second);
    ASSERT_TRUE(it.Next().ok());
    ++mit;
  }
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(mit, model.end());
}

// The sorted batch is the single-pair operations fused. After every batch
// the tree iterates like a std::set model and like a twin tree fed one pair
// at a time, and has the twin's shape, since a pair that does not fit
// splits its leaf as a lone Insert would. Seeded from gtest's random seed,
// so --gtest_shuffle --gtest_repeat walks new batches on every repeat.
TEST_F(BtreeTest, SortedBatchMatchesSingleOps) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  SCOPED_TRACE("gtest random seed " + std::to_string(seed));
  Random rng(seed);
  std::unique_ptr<BTree> twin = BTree::Create(bm_.get()).MoveValue();
  using Pair = std::pair<std::string, std::string>;
  std::set<Pair> model;
  // ~100-byte keys in 16 clusters: a leaf holds ~30 pairs, so a few
  // thousand make a three-level tree, and one batch lands in many leaves.
  auto random_pair = [&] {
    std::string key = "k" + std::to_string(rng.Uniform(16)) + "/" +
                      std::string(60 + rng.Uniform(40), 'x') +
                      std::to_string(rng.Uniform(1000000));
    return Pair{key, std::to_string(rng.Uniform(4))};
  };
  auto pick = [&] {
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng.Uniform(model.size())));
    return *it;
  };
  auto apply = [](BTree* tree, BTree::BatchOp op,
                  const std::vector<Pair>& pairs) {
    std::vector<BTree::Entry> batch;
    for (const Pair& p : pairs) batch.push_back({p.first, p.second});
    return tree->ApplySorted(op, batch);
  };
  auto expect_matches = [&](const std::string& when) {
    auto it = tree_->SeekToFirst().MoveValue();
    auto tw = twin->SeekToFirst().MoveValue();
    for (const Pair& want : model) {
      ASSERT_TRUE(it.Valid() && tw.Valid()) << when;
      ASSERT_EQ(it.key().ToString(), want.first) << when;
      ASSERT_EQ(it.value().ToString(), want.second) << when;
      ASSERT_EQ(tw.key().ToString(), want.first) << when;
      ASSERT_EQ(tw.value().ToString(), want.second) << when;
      ASSERT_TRUE(it.Next().ok());
      ASSERT_TRUE(tw.Next().ok());
    }
    EXPECT_FALSE(it.Valid()) << when;
    EXPECT_FALSE(tw.Valid()) << when;
    BtreeStats a = tree_->ComputeStats().value();
    BtreeStats b = twin->ComputeStats().value();
    EXPECT_EQ(a.leaf_pages, b.leaf_pages) << when;
    EXPECT_EQ(a.internal_pages, b.internal_pages) << when;
    EXPECT_EQ(a.height, b.height) << when;
  };

  for (int round = 0; round < 12; round++) {
    // Fresh pairs, plus a few already stored: those insert as no-ops.
    std::set<Pair> added;
    const size_t n = 200 + rng.Uniform(400);
    while (added.size() < n) added.insert(random_pair());
    for (int k = 0; k < 3 && !model.empty(); k++) added.insert(pick());
    std::vector<Pair> batch(added.begin(), added.end());
    ASSERT_TRUE(apply(tree_.get(), BTree::BatchOp::kInsert, batch).ok());
    for (const Pair& p : batch)
      ASSERT_TRUE(twin->Insert(p.first, p.second).ok());
    model.insert(batch.begin(), batch.end());
    expect_matches("insert round " + std::to_string(round));

    // About a third of the stored pairs, scattered or in one run that
    // empties whole leaves.
    std::set<Pair> doomed;
    if (round % 3 == 2) {
      auto it = model.lower_bound(pick());
      for (size_t k = 0; k < model.size() / 3 && it != model.end(); k++)
        doomed.insert(*it++);
    } else {
      while (doomed.size() < model.size() / 3) doomed.insert(pick());
    }
    batch.assign(doomed.begin(), doomed.end());
    ASSERT_TRUE(apply(tree_.get(), BTree::BatchOp::kDelete, batch).ok());
    for (const Pair& p : batch) {
      ASSERT_TRUE(twin->Delete(p.first, p.second).ok());
      model.erase(p);
    }
    expect_matches("delete round " + std::to_string(round));
  }
  EXPECT_GE(tree_->ComputeStats().value().height, 3u);

  // A delete batch stops with NotFound at a missing pair; the pairs before
  // it are gone and the ones after it stay, as with one Delete per pair.
  ASSERT_GE(model.size(), 3u);
  auto it = model.lower_bound(pick());
  if (std::distance(it, model.end()) < 3) it = model.begin();
  const Pair a = *it++;
  const Pair b = *it++;
  const Pair c = *it;
  const Pair missing{b.first, b.second + "!"};  // between b and c
  EXPECT_TRUE(apply(tree_.get(), BTree::BatchOp::kDelete, {a, b, missing, c})
                  .IsNotFound());
  ASSERT_TRUE(twin->Delete(a.first, a.second).ok());
  ASSERT_TRUE(twin->Delete(b.first, b.second).ok());
  EXPECT_TRUE(twin->Delete(missing.first, missing.second).IsNotFound());
  model.erase(a);
  model.erase(b);
  expect_matches("partial delete");

  // Unsorted input is refused before anything changes.
  EXPECT_TRUE(
      apply(tree_.get(), BTree::BatchOp::kInsert, {c, random_pair(), a})
          .code() == Status::Code::kInvalidArgument);
  expect_matches("unsorted batch");
}

TEST_F(BtreeTest, RootPageIdStableAcrossSplits) {
  PageId root = tree_->root();
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(
        tree_->Insert("stable-key-" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(tree_->root(), root);
}

TEST_F(BtreeTest, LargeEntryRejected) {
  std::string huge(8000, 'x');
  EXPECT_FALSE(tree_->Insert(huge, "v").ok());
}

TEST_F(BtreeTest, BinaryKeysWithEmbeddedZeros) {
  std::string k1{'\0', '\x01'};
  std::string k2{'\0', '\x02'};
  ASSERT_TRUE(tree_->Insert(k1, "a").ok());
  ASSERT_TRUE(tree_->Insert(k2, "b").ok());
  auto it = tree_->Seek(k1).MoveValue();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value().ToString(), "a");
  ASSERT_TRUE(it.Next().ok());
  EXPECT_EQ(it.value().ToString(), "b");
}

TEST(BtreePersistTest, SurvivesReopen) {
  TableSpaceOptions opts;  // file-backed
  std::string path = "/tmp/xdb_btree_persist_" + std::to_string(::getpid());
  std::remove(path.c_str());
  PageId root;
  {
    auto space = TableSpace::Create(path, opts).MoveValue();
    BufferManager bm(space.get(), 128);
    auto tree = BTree::Create(&bm).MoveValue();
    root = tree->root();
    for (int i = 0; i < 3000; i++)
      ASSERT_TRUE(tree->Insert("pk" + std::to_string(i), std::to_string(i)).ok());
    ASSERT_TRUE(bm.FlushAll().ok());
    ASSERT_TRUE(space->Sync().ok());
  }
  {
    auto space = TableSpace::Open(path, opts).MoveValue();
    BufferManager bm(space.get(), 128);
    auto tree = BTree::Open(&bm, root).MoveValue();
    for (int i = 0; i < 3000; i += 37) {
      auto it = tree->Seek("pk" + std::to_string(i)).MoveValue();
      ASSERT_TRUE(it.Valid()) << i;
      EXPECT_EQ(it.key().ToString(), "pk" + std::to_string(i));
      EXPECT_EQ(it.value().ToString(), std::to_string(i));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xdb
