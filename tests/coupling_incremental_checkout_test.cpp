// Incremental checkout contract (docs/incremental-checkout.md). The
// headline property, parameterized over seeds: a workspace synced
// through the change-feed delta path stays BIT-IDENTICAL to a
// full-walk oracle world driven by the same randomized op stream --
// including across structure changes (new cells wired under the root),
// which must invalidate the cursor and force a full re-walk. Plus: the
// JCF change feed itself, cursor bookkeeping, the ablation flag, and a
// fault-injected leg where a mid-delta failure rolls back and leaves
// the cursor unmoved.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "jfm/coupling/hybrid.hpp"
#include "jfm/support/faultsim.hpp"
#include "test_seed.hpp"

namespace jfm::coupling {
namespace {

namespace faultsim = support::faultsim;

std::vector<ToolCommand> tiny_schematic() {
  return {
      {"add-port", {"a", "in"}},  {"add-port", {"y", "out"}},
      {"add-prim", {"g0", "NOT"}}, {"connect", {"a", "g0", "a"}},
      {"connect", {"y", "g0", "y"}},
  };
}

/// A re-edit adding one fresh net; unique names keep the tool happy
/// and make every edit a genuine new payload.
std::vector<ToolCommand> edit(int step) {
  return {{"add-net", {"n" + std::to_string(step)}}};
}

/// root-relative path -> content for every file under `root`.
std::map<std::string, std::string> tree_contents(vfs::FileSystem& fs, const vfs::Path& root) {
  std::map<std::string, std::string> out;
  if (!fs.exists(root)) return out;
  auto files = fs.walk_files(root);
  if (!files.ok()) return out;
  const std::string prefix = root.str() + "/";
  for (const auto& file : *files) {
    auto content = fs.read_file(file);
    if (!content.ok()) continue;
    std::string key = file.str();
    if (key.rfind(prefix, 0) == 0) key.erase(0, prefix.size());
    out[key] = *content;
  }
  return out;
}

struct World {
  std::unique_ptr<HybridFramework> hybrid;
  jcf::UserRef alice;
  std::vector<std::string> cells;
};

World build_world(bool incremental_on) {
  World w;
  HybridConfig config;
  config.content_addressed_cache = true;
  config.incremental_checkout = incremental_on;
  w.hybrid = std::make_unique<HybridFramework>(config);
  EXPECT_TRUE(w.hybrid->bootstrap().ok());
  w.alice = *w.hybrid->add_designer("alice");
  EXPECT_TRUE(w.hybrid->create_project("p").ok());
  for (const char* cell : {"top", "alu", "regfile"}) {
    EXPECT_TRUE(w.hybrid->create_cell("p", cell, w.alice).ok());
    EXPECT_TRUE(w.hybrid->reserve_cell("p", cell, w.alice).ok());
    auto run = w.hybrid->run_activity("p", cell, "enter_schematic", w.alice, tiny_schematic());
    EXPECT_TRUE(run.ok()) << run.error().to_text();
    w.cells.push_back(cell);
  }
  EXPECT_TRUE(w.hybrid->declare_child("p", "top", "alu").ok());
  EXPECT_TRUE(w.hybrid->declare_child("p", "top", "regfile").ok());
  return w;
}

/// One randomized mutation round applied identically to both worlds:
/// re-edit some cells, occasionally grow the hierarchy (a structure
/// change the delta path must not paper over).
void mutate(World& w, std::mt19937& rng, int* step) {
  const std::uint32_t roll = rng();
  if (roll % 5 == 0) {
    const std::string cell = "gen" + std::to_string((*step)++);
    ASSERT_TRUE(w.hybrid->create_cell("p", cell, w.alice).ok());
    ASSERT_TRUE(w.hybrid->reserve_cell("p", cell, w.alice).ok());
    auto run = w.hybrid->run_activity("p", cell, "enter_schematic", w.alice, tiny_schematic());
    ASSERT_TRUE(run.ok()) << run.error().to_text();
    ASSERT_TRUE(w.hybrid->declare_child("p", "top", cell).ok());
    w.cells.push_back(cell);
  }
  const int edits = 1 + static_cast<int>(roll % 2);
  for (int e = 0; e < edits; ++e) {
    const auto& cell = w.cells[rng() % w.cells.size()];
    auto run = w.hybrid->run_activity("p", cell, "enter_schematic", w.alice, edit((*step)++));
    ASSERT_TRUE(run.ok()) << run.error().to_text();
  }
}

class IncrementalCheckoutProperty : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void TearDown() override { faultsim::Injector::global().disarm(); }
};

TEST_P(IncrementalCheckoutProperty, DeltaSyncsStayBitIdenticalToTheFullWalkOracle) {
  const std::uint32_t seed = GetParam();
  World incr = build_world(/*incremental_on=*/true);
  World full = build_world(/*incremental_on=*/false);
  // Same generator state for both worlds: identical op streams.
  std::mt19937 incr_rng(seed);
  std::mt19937 full_rng(seed);
  const auto dst = vfs::Path().child("scratch").child("sync");
  int incr_step = 0;
  int full_step = 0;
  for (int round = 0; round < 8; ++round) {
    if (round > 0) {
      mutate(incr, incr_rng, &incr_step);
      mutate(full, full_rng, &full_step);
    }
    auto a = incr.hybrid->checkout_hierarchy("p", "top", incr.alice, dst);
    auto b = full.hybrid->checkout_hierarchy("p", "top", full.alice, dst);
    ASSERT_TRUE(a.ok()) << a.error().to_text();
    ASSERT_TRUE(b.ok()) << b.error().to_text();
    ASSERT_TRUE(a->failures.empty());
    ASSERT_TRUE(b->failures.empty());
    // The ablation world must never take the delta path.
    EXPECT_FALSE(b->incremental);
    EXPECT_EQ(tree_contents(incr.hybrid->fs(), dst), tree_contents(full.hybrid->fs(), dst))
        << "seed " << seed << " round " << round;
  }
  // The delta path actually ran: at least one repeat sync of an
  // unchanged-structure round rode the change feed.
  const auto cursors = incr.hybrid->checkout_cursors();
  ASSERT_EQ(cursors.size(), 1u);
  EXPECT_GT(cursors.begin()->second.incremental_syncs, 0u) << "seed " << seed;
  EXPECT_EQ(cursors.begin()->second.syncs, 8u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCheckoutProperty,
                         ::testing::ValuesIn(jfm::testing::test_seeds(
                             "incremental-checkout", {5u, 29u, 0xCAFEu, 0xF00DFACEu})));

// ---------------------------------------------------------------------------
// Deterministic behaviours.

class IncrementalCheckoutTest : public ::testing::Test {
 protected:
  void TearDown() override { faultsim::Injector::global().disarm(); }
};

TEST_F(IncrementalCheckoutTest, JcfChangeFeedReportsCreatedAndSupersededDovs) {
  World w = build_world(/*incremental_on=*/true);
  auto& jcf = w.hybrid->jcf();
  const std::uint64_t cursor = jcf.store().epoch();
  auto run = w.hybrid->run_activity("p", "alu", "enter_schematic", w.alice, edit(0));
  ASSERT_TRUE(run.ok()) << run.error().to_text();
  ASSERT_TRUE(w.hybrid->publish_cell("p", "alu", w.alice).ok());

  auto changes = jcf.dovs_changed_since(cursor);
  ASSERT_FALSE(changes.empty());
  bool saw_published = false;
  for (const auto& change : changes) {
    EXPECT_TRUE(change.dov.id.valid());
    EXPECT_TRUE(change.dobj.id.valid());
    EXPECT_GT(change.modified, cursor);
    saw_published = saw_published || change.published;
  }
  EXPECT_TRUE(saw_published);
  // The feed is empty once the cursor catches up.
  EXPECT_TRUE(jcf.dovs_changed_since(jcf.store().epoch()).empty());
}

TEST_F(IncrementalCheckoutTest, StructureChangesInvalidateTheCursor) {
  World w = build_world(/*incremental_on=*/true);
  const auto dst = vfs::Path().child("scratch").child("inv");
  ASSERT_TRUE(w.hybrid->checkout_hierarchy("p", "top", w.alice, dst).ok());
  const std::uint64_t structure_before = w.hybrid->jcf().structure_epoch();

  // Publishing new content does NOT move the structure epoch...
  ASSERT_TRUE(w.hybrid->run_activity("p", "alu", "enter_schematic", w.alice, edit(1)).ok());
  EXPECT_EQ(w.hybrid->jcf().structure_epoch(), structure_before);
  auto delta = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->incremental);

  // ...but growing the hierarchy does, and the next sync re-walks.
  ASSERT_TRUE(w.hybrid->create_cell("p", "mul", w.alice).ok());
  ASSERT_TRUE(w.hybrid->reserve_cell("p", "mul", w.alice).ok());
  ASSERT_TRUE(
      w.hybrid->run_activity("p", "mul", "enter_schematic", w.alice, tiny_schematic()).ok());
  ASSERT_TRUE(w.hybrid->declare_child("p", "top", "mul").ok());
  EXPECT_GT(w.hybrid->jcf().structure_epoch(), structure_before);
  auto rewalk = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  ASSERT_TRUE(rewalk.ok());
  EXPECT_FALSE(rewalk->incremental);
  EXPECT_EQ(rewalk->cells, 4u);
}

TEST_F(IncrementalCheckoutTest, UnchangedRepeatSyncSkipsEverything) {
  World w = build_world(/*incremental_on=*/true);
  const auto dst = vfs::Path().child("scratch").child("skip");
  auto first = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->incremental);  // no cursor yet: full walk

  auto second = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->incremental);
  EXPECT_EQ(second->requested, 0u);
  EXPECT_EQ(second->feed_size, 0u);
  EXPECT_EQ(second->skipped, 3u);  // the three known cellviews
}

// A sync counts its skips against the cursor in place: skipped is
// |known| - |known ∩ delta| for the cursor as it stood before the sync,
// whether the delta adds a cellview, re-exports a known one, or is
// empty.
TEST_F(IncrementalCheckoutTest, SkipCountMatchesTheCursor) {
  World w = build_world(/*incremental_on=*/true);
  const auto dst = vfs::Path().child("scratch").child("cow");
  auto cold = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  ASSERT_TRUE(cold.ok()) << cold.error().to_text();
  ASSERT_TRUE(cold->failures.empty());
  EXPECT_FALSE(cold->incremental);
  EXPECT_EQ(cold->requested, 3u);

  // One incremental sync whose delta must carry exactly `delta`; the
  // skip count is checked against the cursor as it stood before it.
  auto sync_and_check = [&](const std::set<std::string>& delta) {
    const auto cursors = w.hybrid->checkout_cursors();
    ASSERT_EQ(cursors.size(), 1u);
    const auto& known = cursors.begin()->second.known;
    std::size_t known_in_delta = 0;
    for (const auto& label : delta) known_in_delta += known.count(label);
    auto sync = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
    ASSERT_TRUE(sync.ok()) << sync.error().to_text();
    ASSERT_TRUE(sync->failures.empty());
    EXPECT_TRUE(sync->incremental);
    EXPECT_EQ(sync->requested, delta.size());
    EXPECT_EQ(sync->skipped, known.size() - known_in_delta);
  };
  {
    SCOPED_TRACE("delta with a new cellview");
    auto run = w.hybrid->run_activity("p", "alu", "simulate", w.alice,
                                      {{"set-dut", {"alu", "schematic"}}, {"run", {}}});
    ASSERT_TRUE(run.ok()) << run.error().to_text();
    // The run also links its schematic input (as the execution's input
    // and as a derivation source), and a link restamps both endpoints,
    // so the delta re-exports that unchanged input too.
    sync_and_check({"alu/simulate", "alu/schematic"});
  }
  {
    SCOPED_TRACE("delta with an already-known cellview");
    ASSERT_TRUE(
        w.hybrid->run_activity("p", "regfile", "enter_schematic", w.alice, edit(3)).ok());
    sync_and_check({"regfile/schematic"});
  }
  {
    SCOPED_TRACE("empty delta");
    sync_and_check({});
  }
}

TEST_F(IncrementalCheckoutTest, FailedDeltaRollsBackAndLeavesTheCursorUnmoved) {
  World w = build_world(/*incremental_on=*/true);
  auto& fs = w.hybrid->fs();
  const auto dst = vfs::Path().child("scratch").child("faulty");
  ASSERT_TRUE(w.hybrid->checkout_hierarchy("p", "top", w.alice, dst).ok());
  const auto cursor_before = w.hybrid->checkout_cursors();
  ASSERT_EQ(cursor_before.size(), 1u);
  const auto pre_state = tree_contents(fs, dst);
  ASSERT_EQ(pre_state.size(), 3u);

  ASSERT_TRUE(w.hybrid->run_activity("p", "alu", "enter_schematic", w.alice, edit(2)).ok());

  // Every export attempt of the one-item delta faults: the sync fails,
  // rolls the destination back, and must NOT advance the cursor.
  auto plan = faultsim::parse_plan("transfer.export_item@1,2,3,4");
  ASSERT_TRUE(plan.ok());
  faultsim::Injector::global().arm(std::move(*plan));
  auto failed = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  faultsim::Injector::global().disarm();
  ASSERT_TRUE(failed.ok()) << failed.error().to_text();
  EXPECT_TRUE(failed->incremental);
  EXPECT_EQ(failed->failures.size(), 1u);
  EXPECT_TRUE(failed->rolled_back);
  EXPECT_EQ(tree_contents(fs, dst), pre_state);
  const auto cursor_after = w.hybrid->checkout_cursors();
  ASSERT_EQ(cursor_after.size(), 1u);
  EXPECT_EQ(cursor_after.begin()->second.epoch, cursor_before.begin()->second.epoch);

  // The retry re-derives the same delta from the unmoved cursor and
  // converges to the fault-free oracle.
  const auto oracle_dst = vfs::Path().child("scratch").child("oracle");
  auto oracle = w.hybrid->checkout_hierarchy_full("p", "top", w.alice, oracle_dst);
  ASSERT_TRUE(oracle.ok());
  auto retry = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->incremental);
  EXPECT_TRUE(retry->failures.empty());
  EXPECT_EQ(tree_contents(fs, dst), tree_contents(fs, oracle_dst));
}

TEST_F(IncrementalCheckoutTest, AblationConfigNeverTakesTheDeltaPath) {
  World w = build_world(/*incremental_on=*/false);
  const auto dst = vfs::Path().child("scratch").child("abl");
  for (int i = 0; i < 3; ++i) {
    auto report = w.hybrid->checkout_hierarchy("p", "top", w.alice, dst);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->incremental);
    EXPECT_EQ(report->cells, 3u);
  }
}

}  // namespace
}  // namespace jfm::coupling
