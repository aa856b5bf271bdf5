// Fault-tolerance cost and recovery behaviour (docs/fault-injection.md).
//
// Three questions, one workload (the same 64-DOV / 128 KiB-payload
// hierarchy as bench_parallel_checkout):
//
//   * disabled_warm  -- what does the fault-tolerant export path cost
//     when injection is OFF? The hook points collapse to one relaxed
//     atomic load each, so this must match bench_parallel_checkout's
//     warm number (run_benches.py --check-fault-overhead gates the
//     ratio at 2%).
//   * armed_zero_warm -- the same warm batch with the injector ARMED
//     on every export-path site at rate 0: the full site-match +
//     ordinal-draw + decision machinery runs on every hook, nothing
//     fails. The armed_ratio quantifies what tests pay for injection.
//   * recovery       -- a hybrid checkout under a 20% export-fault
//     schedule, retried until clean: wall time to convergence plus the
//     retry / rollback / injected-fault counts that land in
//     BENCH_bench_fault_recovery.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "jfm/coupling/transfer.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/workload/generators.hpp"

namespace {

using namespace jfm;
namespace faultsim = support::faultsim;

constexpr int kCells = 16;
constexpr int kViews = 4;
constexpr int kDovs = kCells * kViews;
constexpr std::size_t kPayloadBytes = 128 * 1024;
constexpr int kReps = 5;

/// The bench_parallel_checkout world: kDovs seeded design object
/// versions behind one JCF framework. Kept byte-identical (same rng
/// seed, same payload sizes) so the overhead gate compares like with
/// like across the two binaries.
struct CheckoutEnv {
  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  jcf::JcfFramework jcf{&clock};
  jcf::UserRef user;
  std::vector<jcf::DovRef> dovs;
  std::uint64_t payload_bytes = 0;

  CheckoutEnv() {
    if (!fs.mkdirs(vfs::Path().child("out")).ok()) std::abort();
    user = *jcf.create_user("alice");
    auto team = *jcf.create_team("rtl");
    if (!jcf.add_member(team, user).ok()) std::abort();
    auto tool = *jcf.register_tool("editor");
    auto made = *jcf.create_viewtype("made");
    auto act = *jcf.create_activity("edit", tool, {}, {made});
    auto flow = *jcf.create_flow("f", {act});
    if (!jcf.freeze_flow(flow).ok()) std::abort();
    auto project = *jcf.create_project("p", team);
    std::vector<jcf::ViewTypeRef> views;
    for (int v = 0; v < kViews; ++v) {
      views.push_back(*jcf.create_viewtype("view" + std::to_string(v)));
    }
    support::Rng rng(42);
    for (int c = 0; c < kCells; ++c) {
      auto cell = *jcf.create_cell(project, "cell" + std::to_string(c), flow, team);
      auto cv = *jcf.create_cell_version(cell, user);
      if (!jcf.reserve(cv, user).ok()) std::abort();
      auto variant = *jcf.create_variant(cv, "work", user);
      for (int v = 0; v < kViews; ++v) {
        auto dobj = *jcf.create_design_object(
            variant, "c" + std::to_string(c) + "v" + std::to_string(v),
            views[static_cast<std::size_t>(v)], user);
        std::string payload = workload::schematic_payload_of_size(rng, kPayloadBytes);
        payload_bytes += payload.size();
        dovs.push_back(*jcf.create_dov(dobj, std::move(payload), user));
      }
    }
  }

  std::vector<coupling::ExportRequest> requests(const std::string& tag) const {
    std::vector<coupling::ExportRequest> items;
    for (std::size_t i = 0; i < dovs.size(); ++i) {
      items.push_back({dovs[i], user,
                       vfs::Path().child("out").child(tag + "_" + std::to_string(i))});
    }
    return items;
  }
};

std::uint64_t time_batch_us(coupling::TransferEngine& engine,
                            const std::vector<coupling::ExportRequest>& items) {
  const auto start = std::chrono::steady_clock::now();
  auto results = engine.export_batch(items);
  const auto end = std::chrono::steady_clock::now();
  for (const auto& st : results) {
    if (!st.ok()) std::abort();  // the warm workload must be all-green
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
}

void emit(const char* mode, std::uint64_t wall_us, std::uint64_t retries,
          std::uint64_t rollbacks, std::uint64_t injected) {
  std::printf("JFM_FAULT_RECOVERY mode=%s wall_us=%llu retries=%llu rollbacks=%llu "
              "injected=%llu\n",
              mode, static_cast<unsigned long long>(wall_us),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(rollbacks),
              static_cast<unsigned long long>(injected));
}

void print_report() {
  benchutil::header("fault recovery: injection overhead + checkout convergence");
  faultsim::Injector::global().disarm();
  char line[256];
  auto& registry = support::telemetry::Registry::global();

  // -- warm-path overhead, injection disabled vs armed-at-rate-0 ----------
  CheckoutEnv env;
  coupling::TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 2 * kDovs;
  coupling::TransferEngine engine(&env.jcf, &env.fs, vfs::Path().child("xfer"), options);
  auto items = env.requests("w");
  (void)time_batch_us(engine, items);  // prime destinations + cache

  std::uint64_t disabled_us = ~0ull;
  for (int rep = 0; rep < kReps; ++rep) {
    disabled_us = std::min(disabled_us, time_batch_us(engine, items));
  }

  auto plan = faultsim::parse_plan(
      "seed=1;transfer.export_item=0;vfs.read=0;vfs.write=0;vfs.copy=0");
  if (!plan.ok()) std::abort();
  faultsim::Injector::global().arm(std::move(*plan));
  std::uint64_t armed_us = ~0ull;
  for (int rep = 0; rep < kReps; ++rep) {
    armed_us = std::min(armed_us, time_batch_us(engine, items));
  }
  faultsim::Injector::global().disarm();

  const double armed_ratio =
      disabled_us == 0 ? 1.0 : static_cast<double>(armed_us) / static_cast<double>(disabled_us);
  std::snprintf(line, sizeof(line),
                "warm batch (%d DOVs): disarmed %6llu us, armed@rate0 %6llu us (%.2fx)",
                kDovs, static_cast<unsigned long long>(disabled_us),
                static_cast<unsigned long long>(armed_us), armed_ratio);
  benchutil::row(line);
  emit("disabled_warm", disabled_us, 0, 0, 0);
  emit("armed_zero_warm", armed_us, 0, 0, 0);
  registry.gauge("bench.fault_recovery.disabled_warm.us")
      .set(static_cast<std::int64_t>(disabled_us));
  registry.gauge("bench.fault_recovery.armed_zero_warm.us")
      .set(static_cast<std::int64_t>(armed_us));

  // -- recovery convergence under a 20% export-fault schedule -------------
  benchutil::HybridEnv world;
  coupling::HybridConfig config;  // (HybridEnv defaults: cache off, like the paper)
  (void)config;
  for (const char* cell : {"top", "alu", "regfile"}) {
    world.make_cell(cell);
    auto run = world.hybrid.run_activity("proj", cell, "enter_schematic", world.alice,
                                         benchutil::small_schematic_commands());
    if (!run.ok()) std::abort();
  }
  if (!world.hybrid.declare_child("proj", "top", "alu").ok()) std::abort();
  if (!world.hybrid.declare_child("proj", "top", "regfile").ok()) std::abort();

  // seed 4 front-loads injections (3 in the first 6 draws), so the
  // convergence loop always exercises real retries, not a lucky pass
  auto recovery_plan = faultsim::parse_plan("seed=4;transfer.export_item=0.2");
  if (!recovery_plan.ok()) std::abort();
  faultsim::Injector::global().arm(std::move(*recovery_plan));
  std::uint64_t retries = 0, rollbacks = 0;
  int attempts = 0;
  const auto start = std::chrono::steady_clock::now();
  for (; attempts < 20; ++attempts) {
    auto report = world.hybrid.checkout_hierarchy("proj", "top", world.alice,
                                                  vfs::Path().child("scratch").child("co"));
    if (!report.ok()) continue;
    retries += report->retries;
    if (report->rolled_back) ++rollbacks;
    if (report->failures.empty()) break;
  }
  const auto wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            start)
          .count());
  const std::uint64_t injected = faultsim::Injector::global().injected();
  faultsim::Injector::global().disarm();
  std::snprintf(line, sizeof(line),
                "recovery @20%% faults: converged after %d attempt(s) in %llu us "
                "(%llu retries, %llu rollbacks, %llu faults injected)",
                attempts + 1, static_cast<unsigned long long>(wall_us),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(rollbacks),
                static_cast<unsigned long long>(injected));
  benchutil::row(line);
  emit("recovery", wall_us, retries, rollbacks, injected);
  registry.gauge("bench.fault_recovery.recovery.us").set(static_cast<std::int64_t>(wall_us));
  registry.gauge("bench.fault_recovery.recovery.retries")
      .set(static_cast<std::int64_t>(retries));
  registry.gauge("bench.fault_recovery.recovery.rollbacks")
      .set(static_cast<std::int64_t>(rollbacks));

  std::printf("JFM_FAULT_RECOVERY_META dovs=%d payload_bytes=%llu armed_ratio=%.3f\n", kDovs,
              static_cast<unsigned long long>(env.payload_bytes), armed_ratio);
}

// -- google-benchmark micro-timings ----------------------------------------

/// The disarmed hook itself: one relaxed load. This is the entire cost
/// the data path pays when no plan is armed.
void BM_DisarmedTrip(benchmark::State& state) {
  faultsim::Injector::global().disarm();
  for (auto _ : state) {
    auto st = faultsim::trip("vfs.write");
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_DisarmedTrip);

/// The armed hook at rate 0: site match + ordinal draw + decision.
void BM_ArmedZeroRateTrip(benchmark::State& state) {
  auto plan = faultsim::parse_plan("seed=1;vfs.write=0");
  if (!plan.ok()) std::abort();
  faultsim::Injector::global().arm(std::move(*plan));
  for (auto _ : state) {
    auto st = faultsim::trip("vfs.write");
    benchmark::DoNotOptimize(st);
  }
  faultsim::Injector::global().disarm();
}
BENCHMARK(BM_ArmedZeroRateTrip);

}  // namespace

JFM_BENCH_MAIN(print_report)
