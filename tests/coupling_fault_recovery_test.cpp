// Recovery invariants for the fault-tolerant checkout path
// (docs/fault-injection.md). The headline property: whatever faults a
// deterministic schedule injects, a checkout that eventually reports
// success leaves the destination BIT-IDENTICAL to a fault-free run,
// and a checkout that fails leaves the destination bit-identical to
// its pre-checkout state (rollback). Plus: retry absorption, explicit
// rollback, batch timeouts, replayability and a TSan storm.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "jfm/coupling/hybrid.hpp"
#include "jfm/oms/store.hpp"
#include "jfm/support/faultsim.hpp"
#include "test_seed.hpp"

namespace jfm::coupling {
namespace {

using support::Errc;
namespace faultsim = support::faultsim;

std::vector<ToolCommand> tiny_schematic() {
  return {
      {"add-port", {"a", "in"}},  {"add-port", {"y", "out"}},
      {"add-prim", {"g0", "NOT"}}, {"connect", {"a", "g0", "a"}},
      {"connect", {"y", "g0", "y"}},
  };
}

/// root-relative path -> content for every file under `root` (empty
/// map if absent). Relative keys make trees rooted at different
/// destinations directly comparable.
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

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { faultsim::Injector::global().disarm(); }

  /// A three-cell hierarchy (top -> {alu, regfile}) with populated
  /// schematics, built with the injector DISARMED so every world is
  /// identical before the experiment starts. cow=false selects the
  /// physical-copy ablation.
  void build_world(bool cache_on = true, bool cow = true) {
    faultsim::Injector::global().disarm();
    HybridConfig config;
    config.content_addressed_cache = cache_on;
    config.cow_extents = cow;
    hybrid = std::make_unique<HybridFramework>(config);
    ASSERT_TRUE(hybrid->bootstrap().ok());
    alice = *hybrid->add_designer("alice");
    ASSERT_TRUE(hybrid->create_project("p").ok());
    for (const char* cell : {"top", "alu", "regfile"}) {
      ASSERT_TRUE(hybrid->create_cell("p", cell, alice).ok());
      ASSERT_TRUE(hybrid->reserve_cell("p", cell, alice).ok());
      auto run = hybrid->run_activity("p", cell, "enter_schematic", alice, tiny_schematic());
      ASSERT_TRUE(run.ok()) << run.error().to_text();
    }
    ASSERT_TRUE(hybrid->declare_child("p", "top", "alu").ok());
    ASSERT_TRUE(hybrid->declare_child("p", "top", "regfile").ok());
  }

  void arm(const std::string& plan_text) {
    auto plan = faultsim::parse_plan(plan_text);
    ASSERT_TRUE(plan.ok()) << plan.error().to_text();
    faultsim::Injector::global().arm(std::move(*plan));
  }

  std::unique_ptr<HybridFramework> hybrid;
  jcf::UserRef alice;
};

// ---------------------------------------------------------------------------
// The headline property, parameterized over seeds: under fault rates
// 0%, 5% and 20% across every hook site on the export path, a
// recovering checkout converges to the exact fault-free tree.

class CheckoutRecoveryProperty : public FaultRecoveryTest,
                                 public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(CheckoutRecoveryProperty, RecoveredCheckoutIsBitIdenticalToFaultFreeRun) {
  const std::uint32_t seed = GetParam();
  for (double rate : {0.0, 0.05, 0.20}) {
    build_world();
    auto& fs = hybrid->fs();

    // Oracle: a fault-free checkout of the same hierarchy.
    auto oracle_dst = vfs::Path().child("scratch").child("oracle");
    auto oracle = hybrid->checkout_hierarchy("p", "top", alice, oracle_dst);
    ASSERT_TRUE(oracle.ok()) << oracle.error().to_text();
    ASSERT_TRUE(oracle->failures.empty());
    const auto want = tree_contents(fs, oracle_dst);
    ASSERT_EQ(want.size(), 3u);

    // Faulty run: every site on the export path draws from the same
    // deterministic schedule. Retry whole checkouts until one reports
    // clean success -- each failed attempt must have rolled back, so
    // every attempt starts from the pre-checkout state.
    const std::string rate_text = std::to_string(rate);
    arm("seed=" + std::to_string(seed) + ";transfer.export_item=" + rate_text +
        ";vfs.write=" + rate_text + ";vfs.copy=" + rate_text + ";vfs.read=" + rate_text);
    auto dst = vfs::Path().child("scratch").child("faulty");
    bool converged = false;
    for (int attempt = 0; attempt < 10 && !converged; ++attempt) {
      auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
      if (!report.ok()) continue;  // pre-mutation failure (journal capture)
      if (report->failures.empty()) {
        EXPECT_FALSE(report->rolled_back);
        converged = true;
      } else {
        // A failed checkout must restore the pre-state it journaled.
        EXPECT_TRUE(report->rolled_back);
      }
    }
    faultsim::Injector::global().disarm();
    ASSERT_TRUE(converged) << "seed " << seed << " rate " << rate;
    EXPECT_EQ(tree_contents(fs, dst), want) << "seed " << seed << " rate " << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckoutRecoveryProperty,
                         ::testing::ValuesIn(jfm::testing::test_seeds(
                             "fault-recovery", {3u, 17u, 0xBEEFu, 0xFEEDFACEu})));

// ---------------------------------------------------------------------------
// Deterministic single-shot behaviours via explicit-ordinal schedules.

TEST_F(FaultRecoveryTest, RetriesAbsorbTransientExportFaults) {
  build_world();
  // Ordinals 1 and 2 of transfer.export_item fail; attempts 2/3 of the
  // affected items succeed. The checkout reports clean success, no
  // rollback, and the retry counter records the absorbed faults.
  arm("transfer.export_item@1,2");
  auto dst = vfs::Path().child("scratch").child("retry");
  auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
  const auto injected = faultsim::Injector::global().injected_by_site();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_TRUE(report->failures.empty());
  EXPECT_FALSE(report->rolled_back);
  EXPECT_EQ(report->exported, 3u);
  EXPECT_GE(report->retries, 2u);
  EXPECT_EQ(tree_contents(hybrid->fs(), dst).size(), 3u);
  // exactly the two scheduled faults fired, both on the export path
  ASSERT_EQ(injected.size(), 1u);
  EXPECT_EQ(injected[0].first, "transfer.export_item");
  EXPECT_EQ(injected[0].second, 2u);
}

TEST_F(FaultRecoveryTest, ExhaustedRetriesRollBackToPreCheckoutState) {
  build_world();
  auto& fs = hybrid->fs();
  // Pre-existing content in the destination: one stale cellview file
  // (will be overwritten by a checkout) and one unrelated file (never a
  // checkout target). Rollback must restore the former and the
  // checkout must never touch the latter.
  auto dst = vfs::Path().child("scratch").child("rb");
  ASSERT_TRUE(fs.mkdirs(dst).ok());
  ASSERT_TRUE(fs.write_file(dst.child("top_schematic"), "stale pre-image").ok());
  ASSERT_TRUE(fs.write_file(dst.child("unrelated.txt"), "keep me").ok());
  const auto pre_state = tree_contents(fs, dst);

  // transfer.export_item fails every attempt: with max_attempts=4 and
  // 3 items, ordinals 1..12 cover every attempt of every item.
  arm("transfer.export_item@1,2,3,4,5,6,7,8,9,10,11,12");
  auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
  faultsim::Injector::global().disarm();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failures.size(), 3u);
  EXPECT_TRUE(report->rolled_back);
  EXPECT_GE(report->restored, 3u);
  EXPECT_EQ(tree_contents(fs, dst), pre_state);

  // After disarming, the very next checkout succeeds and overwrites
  // the stale pre-image with real data.
  auto clean = hybrid->checkout_hierarchy("p", "top", alice, dst);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->failures.empty());
  auto fresh = fs.read_file(dst.child("top_schematic"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, "stale pre-image");
  auto untouched = fs.read_file(dst.child("unrelated.txt"));
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, "keep me");
}

TEST_F(FaultRecoveryTest, FaultScheduleReplaysIdenticallyAcrossRuns) {
  // Same seed + same world => the same attempt-by-attempt outcome,
  // including which items needed retries, which faults fired and what
  // the transfer engine counted -- in both extent modes.
  for (const bool cow : {true, false}) {
    SCOPED_TRACE(cow ? "cow_extents=true" : "cow_extents=false");
    auto run_once = [this, cow]() {
      build_world(/*cache_on=*/true, cow);
      arm("seed=99;transfer.export_item=0.5");
      auto dst = vfs::Path().child("scratch").child("replay");
      auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
      const auto injected = faultsim::Injector::global().injected_by_site();
      faultsim::Injector::global().disarm();
      EXPECT_TRUE(report.ok());
      auto failures = report.ok() ? report->failures : std::vector<std::string>{};
      const auto stats = hybrid->transfer().stats_snapshot();
      return std::make_tuple(report.ok() ? report->retries : 0u,
                             report.ok() ? report->rolled_back : false, failures,
                             tree_contents(hybrid->fs(), dst), injected, stats.exports,
                             stats.bytes_exported, stats.bytes_exported_physical,
                             stats.cache_hits, stats.cache_misses);
    };
    const auto first = run_once();
    const auto second = run_once();
    EXPECT_EQ(first, second);
  }
}

TEST_F(FaultRecoveryTest, BatchDeadlineFailsLeftoverItemsWithTimeout) {
  build_world();
  // Every export attempt faults, so each item burns its full backoff
  // budget (50+100+200 us). A 1 us deadline expires before any work:
  // all items fail, at least one with Errc::timeout, and the checkout
  // rolls back.
  arm("transfer.export_item=1");
  auto dst = vfs::Path().child("scratch").child("deadline");
  auto report = hybrid->checkout_hierarchy("p", "top", alice, dst, /*ignored=*/0,
                                           /*timeout_us=*/1);
  faultsim::Injector::global().disarm();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failures.size(), 3u);
  EXPECT_TRUE(report->rolled_back);
  EXPECT_GE(report->timeouts, 1u);
  EXPECT_TRUE(tree_contents(hybrid->fs(), dst).empty());
}

TEST_F(FaultRecoveryTest, LaneCountInTheFifthSlotArmsNoDeadline) {
  // Callers that still pass a lane count (8) in checkout_hierarchy's
  // fifth slot must get no deadline: bound to timeout_us, 8 us would
  // expire during the 50 us backoff the first item's fault forces, and
  // the checkout would time out and roll back.
  build_world();
  arm("transfer.export_item@1");
  auto dst = vfs::Path().child("scratch").child("lanes");
  auto report = hybrid->checkout_hierarchy("p", "top", alice, dst, 8);
  faultsim::Injector::global().disarm();
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->timeouts, 0u);
  EXPECT_FALSE(report->rolled_back);
  EXPECT_TRUE(report->failures.empty());
  EXPECT_EQ(report->exported, 3u);
  EXPECT_EQ(report->retries, 1u);
  EXPECT_EQ(tree_contents(hybrid->fs(), dst).size(), 3u);
}

// A failure anywhere after start_activity aborts the execution: the
// import is the last step before complete_activity, and a fault there
// must not leave the activity running.
TEST_F(FaultRecoveryTest, FailedActivityImportAbortsTheExecution) {
  build_world();
  ASSERT_TRUE(hybrid->create_cell("p", "spare", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "spare", alice).ok());
  auto& jcf = hybrid->jcf();
  auto cell = *jcf.find_cell(*jcf.find_project("p"), "spare");
  auto variant = *jcf.find_variant(*jcf.latest_cell_version(cell), "work");
  auto enter = *jcf.find_activity("enter_schematic");

  arm("transfer.import@1");
  auto failed = hybrid->run_activity("p", "spare", "enter_schematic", alice, tiny_schematic());
  faultsim::Injector::global().disarm();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, Errc::io_error);
  EXPECT_NE(*jcf.activity_progress(variant, enter), jcf::ActivityProgress::running);

  auto rerun = hybrid->run_activity("p", "spare", "enter_schematic", alice, tiny_schematic());
  ASSERT_TRUE(rerun.ok()) << rerun.error().to_text();
  EXPECT_EQ(*jcf.activity_progress(variant, enter), jcf::ActivityProgress::done);
}

TEST_F(FaultRecoveryTest, OmsCommitFaultLeavesTransactionAbortable) {
  support::SimClock clock;
  oms::Schema schema;
  ASSERT_TRUE(schema.define_class({"Node", "", {{"label", oms::AttrType::text}}}).ok());
  oms::Store store(schema, &clock);
  arm("oms.commit@1");
  ASSERT_TRUE(store.begin().ok());
  auto id = store.create("Node");
  ASSERT_TRUE(id.ok());
  auto commit = store.commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.error().code, Errc::io_error);
  // The injected failure left the transaction open with its undo
  // journal intact; abort unwinds to the pre-transaction state.
  EXPECT_TRUE(store.in_transaction());
  EXPECT_TRUE(store.abort().ok());
  EXPECT_FALSE(store.exists(*id));
  EXPECT_EQ(store.object_count(), 0u);
  faultsim::Injector::global().disarm();
  // And the next transaction commits cleanly.
  ASSERT_TRUE(store.begin().ok());
  ASSERT_TRUE(store.create("Node").ok());
  EXPECT_TRUE(store.commit().ok());
  EXPECT_EQ(store.object_count(), 1u);
}

// ---------------------------------------------------------------------------
// TSan lane: concurrent checkout callers racing injected faults. The
// assertions are deliberately coarse (no torn files, counters add up);
// the value is the data-race coverage of retry/rollback under load.

TEST_F(FaultRecoveryTest, ParallelCheckoutStormUnderInjectedFaults) {
  // The cow_extents=false leg runs the same storm with every export
  // physically copying its payload.
  for (const bool cow : {true, false}) {
    SCOPED_TRACE(cow ? "cow_extents=true" : "cow_extents=false");
    build_world(/*cache_on=*/true, cow);
    auto& fs = hybrid->fs();
    auto oracle_dst = vfs::Path().child("scratch").child("storm_oracle");
    auto oracle = hybrid->checkout_hierarchy("p", "top", alice, oracle_dst);
    ASSERT_TRUE(oracle.ok());
    const auto want = tree_contents(fs, oracle_dst);

    arm("seed=7;transfer.export_item=0.15");
    constexpr int kThreads = 4;
    constexpr int kRounds = 6;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      // Each caller checks out into its OWN destination directory --
      // concurrent checkouts into one directory would race on the
      // journal pre-images by design.
      threads.emplace_back([this, t] {
        auto dst = vfs::Path().child("scratch").child("storm" + std::to_string(t));
        for (int round = 0; round < kRounds; ++round) {
          auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
          if (report.ok() && !report->failures.empty()) {
            // rolled-back attempt: the directory must be clean again
            EXPECT_TRUE(report->rolled_back);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    faultsim::Injector::global().disarm();

    // Converge every caller with one fault-free pass, then require the
    // oracle tree everywhere: no torn or half-rolled-back state may
    // survive the storm.
    for (int t = 0; t < kThreads; ++t) {
      auto dst = vfs::Path().child("scratch").child("storm" + std::to_string(t));
      auto last = hybrid->checkout_hierarchy("p", "top", alice, dst);
      ASSERT_TRUE(last.ok());
      EXPECT_TRUE(last->failures.empty());
      EXPECT_EQ(tree_contents(fs, dst), want) << "caller " << t;
    }

    if (!cow) {
      // Retries rarely run out at 15%, so end with a checkout whose
      // every attempt fails (3 items x 4 attempts): it must roll back
      // to the pre-image it journaled.
      auto dst = vfs::Path().child("scratch").child("storm_rollback");
      ASSERT_TRUE(fs.mkdirs(dst).ok());
      ASSERT_TRUE(fs.write_file(dst.child("top_schematic"), "stale pre-image").ok());
      const auto pre_state = tree_contents(fs, dst);
      arm("transfer.export_item@1,2,3,4,5,6,7,8,9,10,11,12");
      auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
      faultsim::Injector::global().disarm();
      ASSERT_TRUE(report.ok()) << report.error().to_text();
      EXPECT_EQ(report->failures.size(), 3u);
      EXPECT_TRUE(report->rolled_back);
      EXPECT_EQ(tree_contents(fs, dst), pre_state);
    }
  }
}

}  // namespace
}  // namespace jfm::coupling
