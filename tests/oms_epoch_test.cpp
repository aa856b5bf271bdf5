// Change-tracking epoch contract (docs/incremental-checkout.md): every
// committed mutation advances the store-wide epoch and restamps exactly
// the objects it touched; objects_changed_since() answers from the
// epoch index without scanning; aborted transactions restore the
// stamps they disturbed, so a cursor taken before the transaction sees
// an empty delta afterwards. The final test is the TSan target for the
// feed: reader threads iterate objects_changed_since() while writer
// threads commit bursts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "jfm/oms/store.hpp"

namespace jfm::oms {
namespace {

Schema epoch_schema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .define_class({"Node",
                                 "",
                                 {{"label", AttrType::text}, {"weight", AttrType::integer}}})
                  .ok());
  EXPECT_TRUE(schema.define_class({"Leaf", "Node", {}}).ok());
  EXPECT_TRUE(schema.define_relation({"edge", "Node", "Node", Cardinality::many_to_many}).ok());
  return schema;
}

std::vector<ObjectId> ids_of(const std::vector<ChangedObject>& changes) {
  std::vector<ObjectId> out;
  for (const auto& c : changes) out.push_back(c.id);
  return out;
}

class EpochTest : public ::testing::Test {
 protected:
  support::SimClock clock;
  Store store{epoch_schema(), &clock};
};

TEST_F(EpochTest, EveryCommittedMutationAdvancesTheEpoch) {
  const std::uint64_t e0 = store.epoch();
  auto a = *store.create("Node");
  const std::uint64_t e1 = store.epoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("x"))).ok());
  const std::uint64_t e2 = store.epoch();
  EXPECT_GT(e2, e1);
  auto b = *store.create("Node");
  ASSERT_TRUE(store.link("edge", a, b).ok());
  EXPECT_GT(store.epoch(), e2);
}

TEST_F(EpochTest, ChangedSinceReturnsOnlyObjectsTouchedAfterTheCursor) {
  auto a = *store.create("Node");
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("old"))).ok());
  const std::uint64_t cursor = store.epoch();
  auto b = *store.create("Node");
  ASSERT_TRUE(store.set(b, "weight", AttrValue(std::int64_t{7})).ok());

  auto changed = store.objects_changed_since("Node", cursor);
  EXPECT_EQ(ids_of(changed), std::vector<ObjectId>{b});
  for (const auto& c : changed) EXPECT_GT(c.modified, cursor);
  // A later touch of `a` pulls it back into the delta.
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("new"))).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
  // Repeated touches still yield one entry per object, at its latest
  // stamp.
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("newer"))).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
  EXPECT_TRUE(store.objects_changed_since("Node", store.epoch()).empty());
}

TEST_F(EpochTest, SubclassInstancesFanIntoTheBaseClassFeed) {
  const std::uint64_t cursor = store.epoch();
  auto leaf = *store.create("Leaf");
  auto changed = store.objects_changed_since("Node", cursor);
  EXPECT_EQ(ids_of(changed), std::vector<ObjectId>{leaf});
  EXPECT_EQ(ids_of(store.objects_changed_since("Leaf", cursor)),
            std::vector<ObjectId>{leaf});
}

TEST_F(EpochTest, LinkAndUnlinkStampBothEndpoints) {
  auto a = *store.create("Node");
  auto b = *store.create("Node");
  std::uint64_t cursor = store.epoch();
  ASSERT_TRUE(store.link("edge", a, b).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
  cursor = store.epoch();
  ASSERT_TRUE(store.unlink("edge", a, b).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
}

TEST_F(EpochTest, AbortRestoresStampsSoThePreTransactionDeltaIsEmpty) {
  auto a = *store.create("Node");
  auto b = *store.create("Node");
  ASSERT_TRUE(store.link("edge", a, b).ok());
  const std::uint64_t cursor = store.epoch();

  ASSERT_TRUE(store.begin().ok());
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("tmp"))).ok());
  ASSERT_TRUE(store.unlink("edge", a, b).ok());
  auto c = *store.create("Node");
  ASSERT_TRUE(store.destroy(c).ok());
  EXPECT_FALSE(store.objects_changed_since("Node", cursor).empty());
  ASSERT_TRUE(store.abort().ok());

  // The counter itself never rewinds, but every stamp the transaction
  // issued was rolled back with the data it covered.
  EXPECT_GE(store.epoch(), cursor);
  EXPECT_TRUE(store.objects_changed_since("Node", cursor).empty());
}

TEST_F(EpochTest, DestroyedObjectsLeaveTheFeedAndAbortBringsThemBack) {
  const std::uint64_t cursor = store.epoch();
  auto a = *store.create("Node");
  EXPECT_EQ(ids_of(store.objects_changed_since("Node", cursor)), std::vector<ObjectId>{a});
  const std::uint64_t before_destroy = store.epoch();
  ASSERT_TRUE(store.destroy(a).ok());
  // The feed serves live objects only, but the destroy still advances
  // the store epoch so cursors notice that something happened.
  EXPECT_TRUE(store.objects_changed_since("Node", cursor).empty());
  EXPECT_GT(store.epoch(), before_destroy);

  auto b = *store.create("Node");
  const std::uint64_t cursor2 = store.epoch();
  ASSERT_TRUE(store.begin().ok());
  ASSERT_TRUE(store.destroy(b).ok());
  ASSERT_TRUE(store.abort().ok());
  // Undo re-inserted b's epoch entry at its pre-transaction stamp.
  EXPECT_TRUE(store.objects_changed_since("Node", cursor2).empty());
  EXPECT_EQ(ids_of(store.objects_changed_since("Node", 0)), std::vector<ObjectId>{b});
}

TEST_F(EpochTest, EpochIndexIsMaintainedWithSecondaryIndexesDisabled) {
  // Change tracking is not an ablation: the scan-path store keeps the
  // same epoch index (docs/incremental-checkout.md).
  Store scan_store{epoch_schema(), &clock, StoreOptions{.secondary_indexes = false}};
  const std::uint64_t cursor = scan_store.epoch();
  auto a = *scan_store.create("Node");
  EXPECT_EQ(ids_of(scan_store.objects_changed_since("Node", cursor)),
            std::vector<ObjectId>{a});
}

TEST_F(EpochTest, FeedReadersRaceCommitBurstsCleanly) {
  // TSan target: four writer threads commit create/set bursts while
  // four reader threads iterate the feed. The assertions are
  // deliberately weak -- the point is that every access to the epoch
  // index happens under the store lock.
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kRounds = 64;
  std::atomic<std::uint64_t> seen{0};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        auto id = store.create("Node");
        if (!id.ok()) continue;
        (void)store.set(*id, "weight", AttrValue(static_cast<std::int64_t>(w * kRounds + i)));
        if (i % 8 == 0) (void)store.destroy(*id);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      // Read until one pass starts after the last writer finished, so
      // every surviving object is seen whatever the scheduling.
      std::uint64_t cursor = 0;
      for (int i = 0;; ++i) {
        const bool writers_done = writers_left.load() == 0;
        const std::uint64_t now = store.epoch();
        auto changed = store.objects_changed_since("Node", cursor);
        for (const auto& c : changed) seen.fetch_add(c.modified != 0 ? 1 : 0);
        cursor = now;
        if (writers_done && i >= kRounds) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(seen.load(), 0u);
  EXPECT_EQ(store.objects_changed_since("Node", store.epoch()).size(), 0u);
}

}  // namespace
}  // namespace jfm::oms
