#include "flow.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "jfm/coupling/resolvers.hpp"
#include "jfm/fmcad/hierarchy.hpp"
#include "jfm/support/telemetry.hpp"
#include "jfm/tools/elaborate.hpp"
#include "jfm/tools/layout.hpp"
#include "jfm/tools/schematic.hpp"
#include "jfm/workload/generators.hpp"

namespace flowbench {

namespace coupling = jfm::coupling;
namespace telemetry = jfm::support::telemetry;
namespace tools = jfm::tools;
using jfm::jcf::UserRef;
using jfm::support::Result;
using jfm::vfs::Path;

namespace {

constexpr const char* kProject = "chip";
constexpr std::size_t kMaxErrors = 20;

// Edits that keep the design size bounded: each toggles between two
// states, so a cell alternates between two payloads of equal size.
constexpr const char* kNet = "n0";
constexpr const char* kNetAlt = "n0x";
constexpr int kMoveStep = 40;
constexpr int kRepublishCells = 3;  // ~1% of the 341 cells

jfm::workload::HierarchySpec hierarchy_spec() {
  jfm::workload::HierarchySpec spec;
  spec.depth = 4;
  spec.fanout = 4;
  spec.leaf_gates = 32;
  return spec;
}

coupling::HybridConfig durable_config() {
  coupling::HybridConfig config;
  config.durable_store = true;
  return config;
}

template <typename T>
std::string error_text(const T& result) {
  return result.ok() ? std::string() : result.error().to_text();
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

int level_of(const std::string& cell) {
  // Generated names are "top" and "c<level>_<index>".
  if (cell.size() < 2 || cell[0] != 'c') return 0;
  return cell[1] - '0';
}

/// The crash survivor: carry one subtree as bytes between two otherwise
/// independent in-memory file systems.
std::string copy_tree(jfm::vfs::FileSystem& src, jfm::vfs::FileSystem& dst, const Path& dir) {
  if (auto st = dst.mkdirs(dir); !st.ok()) return st.error().to_text();
  auto names = src.list(dir);
  if (!names.ok()) return names.error().to_text();
  for (const auto& name : *names) {
    const Path child = dir.child(name);
    if (src.is_directory(child)) {
      if (auto err = copy_tree(src, dst, child); !err.empty()) return err;
      continue;
    }
    auto bytes = src.read_file(child);
    if (!bytes.ok()) return bytes.error().to_text();
    if (auto st = dst.write_file(child, std::move(*bytes)); !st.ok()) {
      return st.error().to_text();
    }
  }
  return {};
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "edit_cycle") return Workload::edit_cycle;
  if (name == "team_sync") return Workload::team_sync;
  if (name == "hier_review") return Workload::hier_review;
  return std::nullopt;
}

void Tally::error(std::string message) {
  if (errors.size() < kMaxErrors) errors.push_back(std::move(message));
}

void Tally::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures;
  error("check failed: " + what);
}

double Tally::total_ms() const {
  double total = 0.0;
  for (const auto& [kind, samples] : ms) {
    for (double v : samples) total += v;
  }
  return total;
}

// ---------------------------------------------------------------------------
// setup

std::unique_ptr<Session> Session::setup(std::uint64_t seed, std::size_t workers,
                                        Tally& tally) {
  std::unique_ptr<Session> s(new Session());
  s->rng_ = jfm::support::Rng(seed);
  s->workers_ = workers;
  s->hybrid_ = std::make_unique<coupling::HybridFramework>(durable_config());
  auto& h = *s->hybrid_;
  auto fail = [&](const std::string& step, const std::string& message) {
    tally.error("setup " + step + ": " + message);
    return nullptr;
  };
  if (auto st = h.open_store(); !st.ok()) return fail("open_store", error_text(st));
  if (auto st = h.bootstrap(); !st.ok()) return fail("bootstrap", error_text(st));
  for (int d = 0; d < kDesigners; ++d) {
    auto user = h.add_designer("designer" + std::to_string(d));
    if (!user.ok()) return fail("add_designer", error_text(user));
    s->designers_.push_back(*user);
  }
  auto project = h.create_project(kProject);
  if (!project.ok()) return fail("create_project", error_text(project));
  s->project_ = *project;

  const auto spec = hierarchy_spec();
  auto top = jfm::workload::build_hierarchical_design(h, kProject, spec, s->designers_[0]);
  if (!top.ok()) return fail("build_hierarchical_design", error_text(top));
  s->top_ = *top;

  auto& jcf = h.jcf();
  for (const auto& name : jfm::workload::hierarchy_cell_names(spec)) {
    s->all_cells_.push_back(name);
    const int level = level_of(name);
    if (level >= 3) s->edit_pool_.push_back(name);
    if (level == 1 || level == 2) s->mid_cells_.push_back(name);
  }
  for (const auto& name : s->all_cells_) {
    auto cell = jcf.find_cell(*project, name);
    if (!cell.ok()) return fail("find_cell", error_text(cell));
    auto cv = jcf.latest_cell_version(*cell);
    if (!cv.ok()) return fail("latest_cell_version", error_text(cv));
    auto kids = jcf.children(*cv);
    if (!kids.ok()) return fail("children", error_text(kids));
    for (auto kid : *kids) {
      auto kid_cell = jcf.cell_of(kid);
      if (!kid_cell.ok()) return fail("cell_of", error_text(kid_cell));
      auto kid_name = jcf.name_of(kid_cell->id);
      if (!kid_name.ok()) return fail("name_of", error_text(kid_name));
      s->cells_[*kid_name].parent = name;
    }
  }
  if (!s->populate(tally)) return nullptr;
  return s;
}

bool Session::populate(Tally& tally) {
  // A testbench and an LVS-clean layout for every cell, bottom-up (the
  // simulator elaborates through already-published children).
  auto& h = *hybrid_;
  const UserRef user = designers_[0];
  auto fail = [&](const std::string& step, const std::string& cell,
                  const std::string& message) {
    tally.error("setup " + step + " " + cell + ": " + message);
    return false;
  };
  for (const auto& cell : all_cells_) {
    if (auto st = h.reserve_cell(kProject, cell, user); !st.ok()) {
      return fail("reserve", cell, error_text(st));
    }
    const char* a = rng_.chance(0.5) ? "1" : "0";
    const char* b = rng_.chance(0.5) ? "1" : "0";
    auto sim = h.run_activity(kProject, cell, "simulate", user,
                              {{"set-dut", {cell, "schematic"}},
                               {"add-stim", {"0", "a", a}},
                               {"add-stim", {"0", "b", b}},
                               {"add-watch", {"y"}},
                               {"set-runtime", {"1000"}},
                               {"run", {}}});
    if (!sim.ok()) return fail("simulate", cell, error_text(sim));

    auto text = h.open_read_only(kProject, cell, "schematic", user);
    if (!text.ok()) return fail("read schematic", cell, error_text(text));
    auto file = jfm::fmcad::DesignFile::parse(*text);
    if (!file.ok()) return fail("parse", cell, error_text(file));
    auto sch = tools::Schematic::parse(file->payload);
    if (!sch.ok()) return fail("parse", cell, error_text(sch));
    std::vector<coupling::ToolCommand> layout = {{"add-layer", {"metal1"}},
                                                 {"add-layer", {"metal2"}}};
    for (std::size_t i = 0; i < sch->nets.size(); ++i) {
      const auto x = rng_.range(0, 20000);
      const auto y = rng_.range(0, 20000);
      layout.push_back({"draw-rect",
                        {i % 2 == 0 ? "metal1" : "metal2", std::to_string(x), std::to_string(y),
                         std::to_string(x + rng_.range(20, 400)),
                         std::to_string(y + rng_.range(20, 400)), sch->nets[i]}});
    }
    for (std::size_t k = 0; k < sch->instances.size(); ++k) {
      std::string placement = "p";
      placement += std::to_string(k);
      layout.push_back({"add-instance",
                        {placement, sch->instances[k].master_cell, "layout",
                         std::to_string(500 * k), "0"}});
    }
    auto lay = h.run_activity(kProject, cell, "enter_layout", user, layout);
    if (!lay.ok()) return fail("enter_layout", cell, error_text(lay));
    if (auto st = h.publish_cell(kProject, cell, user); !st.ok()) {
      return fail("publish", cell, error_text(st));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// measured operations

template <typename F>
bool Session::op(const char* kind, Tally& tally, F&& body) {
  ++tally.attempted;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  {
    telemetry::ScopedSpan span(kBenchSubsystem, kind);
    error = body();
  }
  tally.ms[kind].push_back(ms_since(start));
  if (!error.empty()) {
    ++tally.failed;
    tally.error(std::string(kind) + ": " + error);
  }
  if (rollup_ != nullptr) drain();
  return error.empty();
}

void Session::drain() {
  auto& tracer = telemetry::Tracer::global();
  dropped_spans_ += tracer.dropped();
  rollup_->add(tracer.snapshot());
  tracer.clear();
}

std::vector<std::string> Session::pick_unrelated(const std::vector<std::string>& pool,
                                                 int count) {
  std::vector<std::string> picked;
  while (static_cast<int>(picked.size()) < count) {
    const std::string& cell = rng_.pick(pool);
    const std::string& parent = cells_[cell].parent;
    bool clash = false;
    for (const auto& other : picked) {
      if (other == cell || other == parent || cells_[other].parent == cell) clash = true;
    }
    if (!clash) picked.push_back(cell);
  }
  return picked;
}

bool Session::edit_layout(const std::string& cell, UserRef user, Tally& tally) {
  CellInfo& info = cells_[cell];
  const int dx = info.moved ? -kMoveStep : kMoveStep;
  const bool ok = op("activity", tally, [&] {
    return error_text(hybrid_->run_activity(
        kProject, cell, "enter_layout", user,
        {{"move-rect", {"0", std::to_string(dx), std::to_string(dx)}}}));
  });
  if (ok) info.moved = !info.moved;
  return ok;
}

void Session::store_changed() {
  sta_refs_.clear();
  lvs_refs_.clear();
  read_refs_.clear();
}

void Session::edit_round(Tally& tally) {
  auto& h = *hybrid_;
  store_changed();
  const auto cells = pick_unrelated(edit_pool_, kDesigners);
  const double before = tally.total_ms();
  auto each = [&](auto&& step) {
    for (int d = 0; d < kDesigners; ++d) step(cells[d], designers_[d]);
  };
  each([&](const std::string& cell, UserRef user) {
    op("reserve", tally, [&] { return error_text(h.reserve_cell(kProject, cell, user)); });
  });
  each([&](const std::string& cell, UserRef user) {
    CellInfo& info = cells_[cell];
    const bool ok = op("activity", tally, [&] {
      return error_text(h.run_activity(
          kProject, cell, "enter_schematic", user,
          {{"rename-net", {info.renamed ? kNetAlt : kNet, info.renamed ? kNet : kNetAlt}}}));
    });
    if (ok) info.renamed = !info.renamed;
  });
  each([&](const std::string& cell, UserRef user) {
    op("activity", tally, [&] {
      return error_text(h.run_activity(kProject, cell, "simulate", user, {{"run", {}}}));
    });
  });
  each([&](const std::string& cell, UserRef user) { edit_layout(cell, user, tally); });
  each([&](const std::string& cell, UserRef user) {
    // A renamed n0 leaves one schematic net without geometry and one
    // layout label without a net.
    lvs(cell, user, tally, cells_[cell].renamed ? 2u : 0u);
  });
  each([&](const std::string& cell, UserRef user) {
    op("publish", tally, [&] { return error_text(h.publish_cell(kProject, cell, user)); });
  });
  tally.edit_round_ms.push_back(tally.total_ms() - before);
}

void Session::open_workspaces(Tally& tally) {
  if (!workspaces_.empty()) return;
  for (int d = 0; d < kDesigners; ++d) {
    Workspace ws{Path().child("ws").child("designer" + std::to_string(d) + "_g0"), 0};
    auto report = hybrid_->checkout_hierarchy(kProject, top_, designers_[d], ws.dir, workers_);
    tally.check(report.ok() && report->failures.empty(),
                "initial checkout " + ws.dir.str() + " " + error_text(report));
    workspaces_.push_back(ws);
  }
}

void Session::sync_round(int cold_every, Tally& tally) {
  auto& h = *hybrid_;
  store_changed();
  ++sync_rounds_;
  const UserRef user = designers_[sync_rounds_ % kDesigners];
  for (const auto& cell : pick_unrelated(all_cells_, kRepublishCells)) {
    op("reserve", tally, [&] { return error_text(h.reserve_cell(kProject, cell, user)); });
    edit_layout(cell, user, tally);
    op("publish", tally, [&] { return error_text(h.publish_cell(kProject, cell, user)); });
  }
  const bool cold = sync_rounds_ % cold_every == 0;
  const int joiner = cold ? (sync_rounds_ / cold_every) % kDesigners : -1;
  for (int d = 0; d < kDesigners; ++d) {
    Workspace& ws = workspaces_[d];
    if (d == joiner) {
      // A newcomer takes over this seat: fresh directory, no cursor.
      (void)h.fs().remove(ws.dir, /*recursive=*/true);
      ++ws.generation;
      ws.dir = Path().child("ws").child("designer" + std::to_string(d) + "_g" +
                                        std::to_string(ws.generation));
    }
    op(d == joiner ? "cold_checkout" : "sync", tally, [&] {
      auto report = h.checkout_hierarchy(kProject, top_, designers_[d], ws.dir, workers_);
      if (!report.ok()) return error_text(report);
      if (report->rolled_back || !report->failures.empty()) {
        return "checkout rolled back: " +
               (report->failures.empty() ? std::string() : report->failures.front());
      }
      if (report->incremental == (d == joiner)) {
        return std::string(report->incremental ? "cold checkout ran incrementally"
                                               : "sync fell back to the full walk");
      }
      ++checkout_totals_.checkouts;
      checkout_totals_.skipped += report->skipped;
      checkout_totals_.requested += report->requested;
      return std::string();
    });
  }
}

void Session::check_workspaces(Tally& tally) {
  auto& h = *hybrid_;
  tally.check(checkout_totals_.skipped > 0, "incremental syncs skipped no cellview");
  const Path oracle = Path().child("oracle");
  auto full = h.checkout_hierarchy_full(kProject, top_, designers_[0], oracle, workers_);
  tally.check(full.ok() && full->failures.empty(), "oracle checkout " + error_text(full));
  auto expected = h.fs().list(oracle);
  tally.check(expected.ok() && !expected->empty(), "oracle directory is empty");
  if (!expected.ok()) return;
  for (const auto& ws : workspaces_) {
    auto names = h.fs().list(ws.dir);
    const bool same_names = names.ok() && *names == *expected;
    tally.check(same_names, ws.dir.str() + " lists other files than the oracle");
    if (!same_names) continue;
    for (const auto& name : *expected) {
      auto want = h.fs().read_file(oracle.child(name));
      auto got = h.fs().read_file(ws.dir.child(name));
      tally.check(want.ok() && got.ok() && *want == *got,
                  ws.dir.str() + "/" + name + " differs from the oracle");
    }
  }
  (void)h.fs().remove(oracle, /*recursive=*/true);
}

// ---------------------------------------------------------------------------
// review

Result<tools::TimingReport> Session::replay_timing(const std::string& cell, UserRef user) {
  // report_timing's public steps, each under a span of its layer.
  auto inner = coupling::make_jcf_resolver(&hybrid_->jcf(), project_, user);
  tools::SchematicResolver resolver = [&](const jfm::fmcad::CellViewKey& key) {
    if (rollup_ != nullptr) ++resolver_calls_;
    telemetry::ScopedSpan span("coupling", "jcf_resolver");
    return inner(key);
  };
  auto top = resolver({cell, "schematic"});
  if (!top.ok()) return Result<tools::TimingReport>::failure(top.error().code, top.error().message);
  auto circuit = [&] {
    telemetry::ScopedSpan span("tools", "elaborate");
    return tools::elaborate(*top, cell, resolver);
  }();
  if (!circuit.ok()) {
    return Result<tools::TimingReport>::failure(circuit.error().code, circuit.error().message);
  }
  telemetry::ScopedSpan span("tools", "analyze_timing");
  return tools::analyze_timing(*circuit);
}

Result<tools::LvsReport> Session::replay_lvs(const std::string& cell, UserRef user) {
  // run_lvs's public steps: two read-only opens, parse, compare.
  using R = Result<tools::LvsReport>;
  auto sch_text = hybrid_->open_read_only(kProject, cell, "schematic", user);
  if (!sch_text.ok()) return R::failure(sch_text.error().code, sch_text.error().message);
  auto lay_text = hybrid_->open_read_only(kProject, cell, "layout", user);
  if (!lay_text.ok()) return R::failure(lay_text.error().code, lay_text.error().message);
  std::optional<Result<tools::Schematic>> schematic;
  std::optional<Result<tools::Layout>> layout;
  {
    telemetry::ScopedSpan span("tools", "parse");
    auto sch_file = jfm::fmcad::DesignFile::parse(*sch_text);
    if (!sch_file.ok()) return R::failure(sch_file.error().code, sch_file.error().message);
    auto lay_file = jfm::fmcad::DesignFile::parse(*lay_text);
    if (!lay_file.ok()) return R::failure(lay_file.error().code, lay_file.error().message);
    schematic = tools::Schematic::parse(sch_file->payload);
    layout = tools::Layout::parse(lay_file->payload);
  }
  if (!schematic->ok()) return R::failure(schematic->error().code, schematic->error().message);
  if (!layout->ok()) return R::failure(layout->error().code, layout->error().message);
  telemetry::ScopedSpan span("tools", "lvs_compare");
  return tools::lvs_compare(**schematic, **layout);
}

void Session::sta(const char* kind, const std::string& cell, UserRef user, Tally& tally) {
  // Untraced runs time the hybrid call and cross-check it against the
  // replay once per cell and phase; traced runs time the replay.
  const bool traced = rollup_ != nullptr;
  std::optional<Result<tools::TimingReport>> report;
  op(kind, tally, [&] {
    report = traced ? replay_timing(cell, user) : hybrid_->report_timing(kProject, cell, user);
    return error_text(*report);
  });
  if (!report->ok()) return;
  const auto result = std::make_pair((*report)->critical_delay, (*report)->critical_path);
  auto ref = sta_refs_.find(cell);
  if (ref == sta_refs_.end()) {
    if (!traced) {
      auto replay = replay_timing(cell, user);
      tally.check(replay.ok() && replay->critical_delay == result.first &&
                      replay->critical_path == result.second,
                  "timing replay differs from report_timing on " + cell);
    }
    sta_refs_.emplace(cell, result);
  } else {
    tally.check(ref->second == result, "STA of " + cell + " changed while the store did not");
  }
}

void Session::lvs(const std::string& cell, UserRef user, Tally& tally,
                  std::optional<std::size_t> expected_violations) {
  const bool traced = rollup_ != nullptr;
  std::optional<Result<tools::LvsReport>> report;
  op("lvs", tally, [&] {
    report = traced ? replay_lvs(cell, user) : hybrid_->run_lvs(kProject, cell, user);
    return error_text(*report);
  });
  if (!report->ok()) return;
  const auto rows = (*report)->describe();
  if (expected_violations) {
    tally.check((*report)->violation_count() == *expected_violations,
                "LVS of " + cell + " found " + std::to_string((*report)->violation_count()) +
                    " violations, expected " + std::to_string(*expected_violations));
    return;
  }
  auto ref = lvs_refs_.find(cell);
  if (ref == lvs_refs_.end()) {
    if (!traced) {
      auto replay = replay_lvs(cell, user);
      tally.check(replay.ok() && replay->describe() == rows,
                  "LVS replay differs from run_lvs on " + cell);
    }
    lvs_refs_.emplace(cell, rows);
  } else {
    tally.check(ref->second == rows, "LVS of " + cell + " changed while the store did not");
  }
}

void Session::review_round(Tally& tally) {
  auto& h = *hybrid_;
  const auto& views = coupling::HybridFramework::standard_views();
  constexpr int kOpensPerReviewer = 4;
  ++review_rounds_;
  sta("sta_top", top_, designers_[0], tally);
  for (int d = 1; d < kDesigners; ++d) sta("sta_mid", rng_.pick(mid_cells_), designers_[d], tally);
  for (int d = 0; d < kDesigners; ++d) lvs(rng_.pick(all_cells_), designers_[d], tally, {});
  for (int i = 0; i < kOpensPerReviewer; ++i) {
    for (int d = 0; d < kDesigners; ++d) {
      const std::string cell = rng_.pick(all_cells_);
      const std::string view = rng_.pick(views);
      std::string content;
      const bool ok = op("open_ro", tally, [&] {
        auto text = h.open_read_only(kProject, cell, view, designers_[d]);
        if (text.ok()) content = std::move(*text);
        return error_text(text);
      });
      if (!ok) continue;
      const std::size_t hash = std::hash<std::string>{}(content);
      auto [it, fresh] = read_refs_.emplace(cell + "/" + view, hash);
      tally.check(!content.empty() && (fresh || it->second == hash),
                  "read of " + cell + "/" + view + " changed while the store did not");
    }
  }
  if (review_rounds_ % kDesigners == 0) {
    std::size_t problems = 0;
    op("consistency", tally, [&] {
      auto found = h.check_consistency(kProject);
      if (found.ok()) problems = found->size();
      return error_text(found);
    });
    tally.check(problems == 0, "consistency sweep reported problems");
  }
}

// ---------------------------------------------------------------------------
// recovery and store checks

void Session::recover(int times, bool verify, Tally& tally) {
  auto& h = *hybrid_;
  tally.check(h.jcf().store().flush_wal().ok(), "WAL flush before recovery");
  const Path oms = Path().child("oms");
  for (int i = 0; i < times; ++i) {
    auto fresh = std::make_unique<coupling::HybridFramework>(durable_config());
    if (auto err = copy_tree(h.fs(), fresh->fs(), oms); !err.empty()) {
      tally.check(false, "copying /oms: " + err);
      return;
    }
    const bool ok = op("recover", tally, [&] { return error_text(fresh->open_store()); });
    if (!ok || !verify || i > 0) continue;
    tally.check(fresh->jcf().store().wal_stats().replayed_records > 0,
                "recovery replayed no WAL records");
    tally.check(fresh->bootstrap().ok(), "bootstrap of the recovered hybrid");
    auto reader = fresh->add_designer("designer0");
    tally.check(reader.ok() && fresh->create_project(kProject).ok(),
                "project of the recovered hybrid");
    if (!reader.ok()) return;
    // Every cellview, and so every cell the run touched, must read back
    // byte-equal from the recovered master database.
    for (const auto& cell : all_cells_) {
      for (const auto& view : coupling::HybridFramework::standard_views()) {
        auto live = h.open_read_only(kProject, cell, view, designers_[0]);
        auto back = fresh->open_read_only(kProject, cell, view, *reader);
        tally.check(live.ok() && back.ok() && *live == *back,
                    cell + "/" + view + " reads back differently after recovery");
      }
    }
  }
}

void Session::check_store(Tally& tally) {
  auto problems = hybrid_->check_consistency(kProject);
  tally.check(problems.ok() && problems->empty(),
              "consistency sweep: " +
                  (problems.ok() ? (problems->empty() ? std::string() : problems->front())
                                 : error_text(problems)));
}

}  // namespace flowbench
