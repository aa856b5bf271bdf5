#pragma once
// The designer flow the benchmark drives through coupling::HybridFramework.
//
// One driver thread plays four scripted designers in a closed loop with
// zero think time; their operations interleave round-robin, each
// designer on a distinct cell (run_activity is not reentrant, so no
// call into the hybrid is ever made from two threads). Every workload is
// a fixed, seeded sequence of rounds, because several costs grow with
// store history (fmcad .meta size, DOV chains); a time window would make
// the amount of history depend on the machine's speed.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jfm/coupling/hybrid.hpp"
#include "jfm/support/rng.hpp"
#include "rollup.hpp"

namespace flowbench {

enum class Workload { edit_cycle, team_sync, hier_review };
std::optional<Workload> parse_workload(std::string_view name);

/// Raw per-operation samples and outcomes.
struct Tally {
  std::map<std::string, std::vector<double>> ms;  ///< op kind -> wall ms per call
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< operations that returned an error
  std::uint64_t check_failures = 0;
  std::vector<std::string> errors;  ///< first messages of failed ops and checks
  /// Time spent in the operations of each edit round (one cycle per designer).
  std::vector<double> edit_round_ms;

  void error(std::string message);
  void check(bool ok, const std::string& what);
  /// Sum of every sample of every op kind.
  double total_ms() const;
};

class Session {
 public:
  static constexpr int kDesigners = 4;

  /// The shared starting store of every workload: a durable hybrid, the
  /// depth-4 / fanout-4 hierarchy (341 cells, 32 gates per leaf), and
  /// a testbench and an LVS-clean layout for every cell.
  static std::unique_ptr<Session> setup(std::uint64_t seed, std::size_t workers, Tally& tally);

  /// Non-null: every operation runs under one "bench" span and its
  /// spans are drained into `rollup` as soon as it returns.
  void set_tracing(Rollup* rollup) { rollup_ = rollup; }
  std::uint64_t dropped_spans() const { return dropped_spans_; }
  /// Resolver calls made by the timing replays (traced runs only).
  std::uint64_t resolver_calls() const { return resolver_calls_; }

  /// Each designer reserves a leaf or level-3 cell, runs enter_schematic
  /// (a paired rename-net) -> simulate (re-run of the testbench) ->
  /// enter_layout (move-rect), then run_lvs and publish_cell.
  void edit_round(Tally& tally);
  /// One designer republishes ~1% of the cells, then each of the four
  /// workspaces syncs incrementally; every `cold_every`-th round one
  /// workspace is replaced by a newcomer doing a cold checkout.
  void sync_round(int cold_every, Tally& tally);
  /// Reviewers run STA on the top and on three mid-level cells, LVS on
  /// four random cells, sixteen read-only opens of random cellviews, and
  /// every fourth round the consistency sweep. No commits.
  void review_round(Tally& tally);
  /// Carry the /oms tree into a fresh hybrid and time open_store().
  /// With `verify`, the recovered hybrid must read back every cellview
  /// byte-equal to the live one.
  void recover(int times, bool verify, Tally& tally);
  /// Store-wide checks: the consistency sweep is clean.
  void check_store(Tally& tally);
  /// Initial full checkout of each designer's workspace (untimed set-up
  /// of the sync rounds; a no-op once the workspaces exist).
  void open_workspaces(Tally& tally);
  /// Every workspace is byte-equal to a checkout_hierarchy_full oracle,
  /// and the incremental syncs skipped unchanged cellviews.
  void check_workspaces(Tally& tally);

  /// Operations counted by the current phase: checkout calls (for
  /// executor tasks per checkout) and checkout skip accounting.
  struct CheckoutTotals {
    std::uint64_t checkouts = 0;
    std::uint64_t skipped = 0;
    std::uint64_t requested = 0;
  };
  const CheckoutTotals& checkout_totals() const { return checkout_totals_; }

 private:
  struct CellInfo {
    std::string parent;  ///< "" for the top cell
    bool renamed = false;  ///< net n0 currently carries its alternate name
    bool moved = false;    ///< rect 0 of the layout is currently shifted
  };
  struct Workspace {
    jfm::vfs::Path dir;
    int generation = 0;
  };

  Session() = default;
  bool populate(Tally& tally);
  /// A commit is coming: results seen so far may legitimately change.
  void store_changed();
  template <typename F>
  bool op(const char* kind, Tally& tally, F&& body);
  void drain();
  /// `count` distinct cells from `pool`, no two of them parent and child.
  std::vector<std::string> pick_unrelated(const std::vector<std::string>& pool, int count);
  bool edit_layout(const std::string& cell, jfm::jcf::UserRef user, Tally& tally);
  void sta(const char* kind, const std::string& cell, jfm::jcf::UserRef user, Tally& tally);
  void lvs(const std::string& cell, jfm::jcf::UserRef user, Tally& tally,
           std::optional<std::size_t> expected_violations);
  jfm::support::Result<jfm::tools::TimingReport> replay_timing(const std::string& cell,
                                                               jfm::jcf::UserRef user);
  jfm::support::Result<jfm::tools::LvsReport> replay_lvs(const std::string& cell,
                                                         jfm::jcf::UserRef user);
  std::unique_ptr<jfm::coupling::HybridFramework> hybrid_;
  jfm::support::Rng rng_{1};
  std::size_t workers_ = 1;
  jfm::jcf::ProjectRef project_;
  std::vector<jfm::jcf::UserRef> designers_;
  std::string top_;
  std::map<std::string, CellInfo> cells_;
  std::vector<std::string> all_cells_;
  std::vector<std::string> edit_pool_;  ///< leaves and level-3 cells
  std::vector<std::string> mid_cells_;  ///< level-1 and level-2 cells
  std::vector<Workspace> workspaces_;
  CheckoutTotals checkout_totals_;
  int sync_rounds_ = 0;
  int review_rounds_ = 0;

  // Since the last commit: the first result seen for each cell / cellview.
  std::map<std::string, std::pair<std::uint64_t, std::vector<int>>> sta_refs_;
  std::map<std::string, std::vector<std::string>> lvs_refs_;
  std::map<std::string, std::size_t> read_refs_;

  Rollup* rollup_ = nullptr;
  std::uint64_t dropped_spans_ = 0;
  std::uint64_t resolver_calls_ = 0;
};

}  // namespace flowbench
