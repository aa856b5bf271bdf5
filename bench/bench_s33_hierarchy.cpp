// Section 3.3: handling of design hierarchies (the hardest part of the
// encapsulation, per the paper).
//
// Claims reproduced:
//  * the prototype requires ALL hierarchy relations to be submitted
//    manually via the JCF desktop before the design starts -- we count
//    those desktop steps as hierarchy size grows;
//  * the future-work "procedural interface" removes the manual steps
//    (ablation);
//  * isomorphic hierarchies pass; non-isomorphic ones are rejected by
//    JCF 3.0 and admitted only with the future-JCF extension;
//  * whole-hierarchy analysis is the standing price of a declared
//    hierarchy: report_timing on a 341-cell top, with its split
//    (JFM_STA line).

#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "jfm/coupling/resolvers.hpp"
#include "jfm/tools/timing.hpp"
#include "jfm/workload/generators.hpp"

namespace {

using namespace jfm;

// Build the design, then (non-isomorphic scenario) run a layout on the
// top cell that skips one schematic child.
support::Result<bool> try_diverged_layout(coupling::HybridFramework& hybrid,
                                          jcf::UserRef user) {
  // bottom-up: give every cell a layout matching its schematic except
  // the top, which places only the FIRST child (diverged hierarchy)
  auto cells = workload::hierarchy_cell_names({.depth = 1, .fanout = 2, .leaf_gates = 2});
  for (const auto& cell : cells) {
    if (!hybrid.reserve_cell("proj", cell, user).ok()) {
      // already reserved during build; fine
    }
    std::vector<coupling::ToolCommand> edits = {{"add-layer", {"metal1"}}};
    if (cell == "top") {
      edits.push_back({"add-instance", {"i0", cells[0], "layout", "0", "0"}});
      // NOTE: second child deliberately missing -> non-isomorphic
    } else {
      edits.push_back({"draw-rect", {"metal1", "0", "0", "10", "10"}});
    }
    // run simulate first so the flow admits the layout step
    auto sim = hybrid.run_activity("proj", cell, "simulate", user,
                                   {{"set-dut", {cell, "schematic"}}, {"run", {}}});
    if (!sim.ok()) return support::Result<bool>::failure(sim.error().code, sim.error().message);
    auto run = hybrid.run_activity("proj", cell, "enter_layout", user, edits);
    if (cell == "top") {
      if (run.ok()) return true;  // accepted (extension on)
      if (run.error().code == support::Errc::not_supported) return false;  // rejected
      return support::Result<bool>::failure(run.error().code, run.error().message);
    }
    if (!run.ok()) return support::Result<bool>::failure(run.error().code, run.error().message);
    if (!hybrid.publish_cell("proj", cell, user).ok()) {
      // top stays reserved; children published
    }
  }
  return false;
}

// report_timing on the top of the flowbench-shaped hierarchy (depth 4,
// fanout 4, 32 leaf gates: 341 cells), whole and split into its public
// steps: the resolver (JCF lookups, payload reads, DesignFile and
// Schematic parsing), elaboration outside the resolver, and
// analyze_timing. Each figure is its own minimum over kStaRuns runs.
void print_sta_report() {
  constexpr int kStaRuns = 21;
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); };
  benchutil::header("s3.3: whole-hierarchy STA (report_timing on the top cell)");
  workload::HierarchySpec spec;
  spec.depth = 4;
  spec.fanout = 4;
  spec.leaf_gates = 32;
  benchutil::HybridEnv env;
  auto top = workload::build_hierarchical_design(env.hybrid, "proj", spec, env.alice);
  auto project = env.hybrid.jcf().find_project("proj");
  if (!top.ok() || !project.ok()) {
    benchutil::row("build failed");
    return;
  }
  double total = 1e300, resolve = 1e300, elaborate = 1e300, timing = 1e300;
  std::size_t signals = 0, gates = 0;
  for (int run = 0; run < kStaRuns; ++run) {
    auto start = Clock::now();
    auto report = env.hybrid.report_timing("proj", *top, env.alice);
    total = std::min(total, us(Clock::now() - start));

    auto inner = coupling::make_jcf_resolver(&env.hybrid.jcf(), *project, env.alice);
    Clock::duration in_resolver{};
    tools::SchematicResolver resolver = [&](const fmcad::CellViewKey& key) {
      auto t0 = Clock::now();
      auto sch = inner(key);
      in_resolver += Clock::now() - t0;
      return sch;
    };
    auto t0 = Clock::now();
    auto sch = resolver({*top, "schematic"});
    if (!sch.ok()) std::abort();
    auto circuit = tools::elaborate(*sch, *top, resolver);
    auto t1 = Clock::now();
    if (!circuit.ok()) std::abort();
    auto replay = tools::analyze_timing(*circuit);
    auto t2 = Clock::now();
    if (!report.ok() || !replay.ok() || replay->critical_path != report->critical_path) {
      std::abort();
    }
    resolve = std::min(resolve, us(in_resolver));
    elaborate = std::min(elaborate, us(t1 - t0 - in_resolver));
    timing = std::min(timing, us(t2 - t1));
    signals = circuit->signal_count();
    gates = circuit->gates.size();
  }
  const std::size_t cells = workload::hierarchy_cell_names(spec).size();
  std::printf("  %5s | %7s | %5s | %16s | %13s | %12s | %9s\n", "cells", "signals", "gates",
              "report_timing us", "resolve+parse", "elaborate us", "timing us");
  std::printf("  %5zu | %7zu | %5zu | %16.0f | %13.0f | %12.0f | %9.0f\n", cells, signals, gates,
              total, resolve, elaborate, timing);
  std::printf("JFM_STA cells=%zu signals=%zu gates=%zu runs=%d report_timing_us=%.0f "
              "resolve_parse_us=%.0f elaborate_us=%.0f timing_us=%.0f\n",
              cells, signals, gates, kStaRuns, total, resolve, elaborate, timing);
}

void print_report() {
  benchutil::header("s3.3: manual hierarchy submission cost (desktop steps)");
  std::printf("  %-22s | %6s | %13s | %16s\n", "hierarchy (depth,fan)", "cells",
              "manual steps", "procedural calls");
  for (auto [depth, fanout] : std::vector<std::pair<int, int>>{{1, 2}, {2, 2}, {2, 3}, {3, 2}}) {
    workload::HierarchySpec spec;
    spec.depth = depth;
    spec.fanout = fanout;
    spec.leaf_gates = 2;
    // manual mode
    benchutil::HybridEnv manual_env;
    auto top = workload::build_hierarchical_design(manual_env.hybrid, "proj", spec,
                                                   manual_env.alice);
    if (!top.ok()) {
      benchutil::row("build failed: " + top.error().to_text());
      continue;
    }
    // procedural mode (future work): same design, no desktop walking
    coupling::HybridConfig config;
    config.procedural_hierarchy_interface = true;
    benchutil::HybridEnv proc_env(config);
    (void)workload::build_hierarchical_design(proc_env.hybrid, "proj", spec, proc_env.alice);
    std::printf("  depth=%d fanout=%-9d | %6zu | %13llu | %16llu\n", depth, fanout,
                workload::hierarchy_cell_names(spec).size(),
                static_cast<unsigned long long>(
                    manual_env.hybrid.hierarchy().stats().desktop_steps),
                static_cast<unsigned long long>(
                    proc_env.hybrid.hierarchy().stats().procedural_calls));
  }

  benchutil::header("s3.3: non-isomorphic hierarchies (schematic vs layout)");
  for (bool allow : {false, true}) {
    coupling::HybridConfig config;
    config.procedural_hierarchy_interface = true;  // isolate the isomorphism question
    config.allow_non_isomorphic = allow;
    benchutil::HybridEnv env(config);
    workload::HierarchySpec spec;
    spec.depth = 1;
    spec.fanout = 2;
    spec.leaf_gates = 2;
    auto top = workload::build_hierarchical_design(env.hybrid, "proj", spec, env.alice);
    if (!top.ok()) {
      benchutil::row("build failed: " + top.error().to_text());
      continue;
    }
    auto accepted = try_diverged_layout(env.hybrid, env.alice);
    std::string label = allow ? "future JCF (extension on): " : "JCF 3.0 (paper):           ";
    if (!accepted.ok()) {
      benchutil::row(label + "error: " + accepted.error().to_text());
    } else {
      benchutil::row(label + (*accepted ? "diverged layout ACCEPTED" : "diverged layout REJECTED (not_supported)"));
    }
  }

  print_sta_report();
}

// ---- micro-benchmarks -------------------------------------------------------

void BM_BuildHierarchicalDesign(benchmark::State& state) {
  workload::HierarchySpec spec;
  spec.depth = static_cast<int>(state.range(0));
  spec.fanout = 2;
  spec.leaf_gates = 2;
  for (auto _ : state) {
    state.PauseTiming();
    benchutil::HybridEnv env;
    state.ResumeTiming();
    auto top = workload::build_hierarchical_design(env.hybrid, "proj", spec, env.alice);
    benchmark::DoNotOptimize(top);
  }
  state.counters["cells"] = static_cast<double>(workload::hierarchy_cell_names(spec).size());
}
BENCHMARK(BM_BuildHierarchicalDesign)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_FmcadDynamicBinding(benchmark::State& state) {
  benchutil::FmcadEnv env;
  support::Rng rng(11);
  workload::HierarchySpec spec;
  spec.depth = static_cast<int>(state.range(0));
  spec.fanout = 2;
  spec.leaf_gates = 2;
  auto top = workload::build_hierarchical_library(*env.session, spec, rng);
  if (!top.ok()) std::abort();
  fmcad::HierarchyBinder binder(env.library.get());
  for (auto _ : state) {
    auto bound = binder.expand({*top, "schematic"});
    benchmark::DoNotOptimize(bound);
  }
  state.counters["cells"] = static_cast<double>(workload::hierarchy_cell_names(spec).size());
}
BENCHMARK(BM_FmcadDynamicBinding)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMicrosecond);

void BM_IsomorphismCheck(benchmark::State& state) {
  benchutil::FmcadEnv env;
  support::Rng rng(12);
  workload::HierarchySpec spec;
  spec.depth = 3;
  spec.fanout = 2;
  spec.leaf_gates = 2;
  auto top = workload::build_hierarchical_library(*env.session, spec, rng);
  if (!top.ok()) std::abort();
  fmcad::HierarchyBinder binder(env.library.get());
  for (auto _ : state) {
    auto sig = binder.signature({*top, "schematic"});
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_IsomorphismCheck)->Unit(benchmark::kMicrosecond);

}  // namespace

JFM_BENCH_MAIN(print_report)
