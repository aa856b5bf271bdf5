// Designer-flow benchmark driver.
//
//   flowbench --workload <edit_cycle|team_sync|hier_review> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One workload per process, so the process-global telemetry registry
// never blends workloads; every counter is a delta over the measured
// phase. --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer ones. The last line of stdout is the JSON result. See
// flowbench/README.md for every metric and workload.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "flow.hpp"
#include "jfm/support/telemetry.hpp"
#include "latency.hpp"
#include "rollup.hpp"

namespace telemetry = jfm::support::telemetry;
using flowbench::Session;
using flowbench::Tally;
using flowbench::Workload;

namespace {

// Rounds per second of --seconds. A workload is a fixed seeded sequence
// of rounds; these rates size it to take roughly --seconds on a 4-core
// x86 box, split over kPhases phases.
constexpr double kEditRoundsPerSecond = 35.0;
constexpr double kSyncRoundsPerSecond = 110.0;
constexpr double kReviewRoundsPerSecond = 7.5;
// A newcomer's cold checkout every this many sync rounds.
constexpr int kColdEvery = 8;
// On a shared machine a slow spell only ever adds time. The measured
// phase therefore runs kPhases times, each on a fresh store with its own
// seeded sequence of the same size, and every timing metric reports its
// best phase.
constexpr int kPhases = 3;
// Per phase: probe rounds of the other workloads' operations, so every
// workload reports every end-to-end metric. They run on a store of their
// own and are spread evenly through the phase.
constexpr int kProbeEditRounds = 12;
constexpr int kProbeSyncRounds = 12;
constexpr int kProbeReviewRounds = 4;
// Per phase: recoveries of the phase's store.
constexpr int kRecoveries = 5;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

enum class Round { edit, sync, review };

struct Args {
  Workload workload = Workload::edit_cycle;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 4) return false;
  auto workload = flowbench::parse_workload(kv["--workload"]);
  if (!workload) return false;
  args.workload = *workload;
  try {
    args.seed = std::stoull(kv.at("--seed"));
    args.seconds = std::stoi(kv.at("--seconds"));
  } catch (const std::exception&) {
    return false;
  }
  const std::string trace = kv["--trace"];
  if (args.seconds < 1 || (trace != "0" && trace != "1")) return false;
  args.trace = trace == "1";
  return true;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// CPUs this process may run on, as nproc counts them.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

Round own_round(Workload w) {
  switch (w) {
    case Workload::edit_cycle: return Round::edit;
    case Workload::team_sync: return Round::sync;
    case Workload::hier_review: return Round::review;
  }
  return Round::edit;
}

/// Own rounds in one phase.
int phase_rounds(Workload w, int seconds) {
  const double rate = w == Workload::edit_cycle  ? kEditRoundsPerSecond
                      : w == Workload::team_sync ? kSyncRoundsPerSecond
                                                 : kReviewRoundsPerSecond;
  return std::max(1, static_cast<int>(std::lround(rate * seconds / kPhases)));
}

/// The other two round kinds, merged in proportion so each is spread out.
std::vector<Round> probe_rounds(Workload w) {
  std::vector<std::pair<Round, int>> kinds;
  if (w != Workload::edit_cycle) kinds.emplace_back(Round::edit, kProbeEditRounds);
  if (w != Workload::team_sync) kinds.emplace_back(Round::sync, kProbeSyncRounds);
  if (w != Workload::hier_review) kinds.emplace_back(Round::review, kProbeReviewRounds);
  const auto [a, na] = kinds[0];
  const auto [b, nb] = kinds[1];
  std::vector<Round> out;
  for (int i = 0, j = 0; i < na || j < nb;) {
    if (j >= nb || (i < na && i * nb <= j * na)) {
      out.push_back(a);
      ++i;
    } else {
      out.push_back(b);
      ++j;
    }
  }
  return out;
}

void run_round(Session& s, Round kind, int cold_every, Tally& tally) {
  switch (kind) {
    case Round::edit: s.edit_round(tally); break;
    case Round::sync: s.sync_round(cold_every, tally); break;
    case Round::review: s.review_round(tally); break;
  }
}

/// One measured phase: the workload's own rounds on `s`, with the probe
/// rounds (when `probe` is set) on the probe store in between.
void run_phase(Session& s, Session* probe, Workload w, int seconds, Tally& tally) {
  const std::size_t n = phase_rounds(w, seconds);
  const auto probes = probe != nullptr ? probe_rounds(w) : std::vector<Round>{};
  const std::size_t p = probes.size();
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run_round(s, own_round(w), kColdEvery, tally);
    // Probe j follows own round floor((j + 1) * n / (p + 1)).
    while (next < p && (next + 1) * n / (p + 1) <= i) {
      run_round(*probe, probes[next++], /*cold_every=*/1, tally);
    }
  }
  while (next < p) run_round(*probe, probes[next++], 1, tally);
}

/// Checks that need the phase to be over.
void check_after_phase(Session& s, bool synced, Tally& tally) {
  if (synced) s.check_workspaces(tally);
  s.check_store(tally);
}

/// Each phase draws its own round sequence from the run's seed.
std::uint64_t phase_seed(std::uint64_t seed, int phase) { return seed * kPhases + phase; }

std::unique_ptr<Session> setup(const Args& args, int phase, std::size_t workers, Tally& tally) {
  auto s = Session::setup(phase_seed(args.seed, phase), workers, tally);
  if (s && args.workload == Workload::team_sync) s->open_workspaces(tally);
  return s;
}

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::printf("error: %s has no value\n", name.c_str());
      finite_ = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + unit + "\"}";
    std::printf("  %-40s %16.6f %s\n", name.c_str(), value, unit);
  }
  const std::string& body() const { return body_; }
  bool finite() const { return finite_; }

 private:
  std::string body_;
  bool finite_ = true;
};

int finish(const Tally& tally, bool correct, const JsonMetrics& metrics) {
  for (const auto& e : tally.errors) std::printf("error: %s\n", e.c_str());
  const long threads = thread_count();
  const long nproc = static_cast<long>(usable_cpus());
  std::printf("threads: %ld (nproc %ld)\n", threads, nproc);
  if (threads > nproc) {
    std::printf("error: more threads than nproc\n");
    correct = false;
  }
  const bool ok = correct && metrics.finite() && tally.failed == 0 && tally.check_failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, tally.attempted)),
              static_cast<unsigned long long>(tally.failed), metrics.body().c_str());
  std::fflush(stdout);
  return 0;
}

/// Fold a phase's outcome counts and messages into the run's tally.
void absorb(Tally& run, const Tally& phase, const std::string& label) {
  run.attempted += phase.attempted;
  run.failed += phase.failed;
  run.check_failures += phase.check_failures;
  for (const auto& e : phase.errors) run.error(label + e);
}

int run_end_to_end(const Args& args, std::size_t workers) {
  Tally run;
  const bool own_sync = args.workload == Workload::team_sync;
  auto probe = Session::setup(args.seed, workers, run);
  if (!probe) return finish(run, false, {});
  if (!own_sync) probe->open_workspaces(run);

  std::vector<double> setup_s;
  std::vector<Tally> phases(kPhases);
  for (int k = 0; k < kPhases; ++k) {
    Tally& tally = phases[k];
    const auto start = std::chrono::steady_clock::now();
    auto s = setup(args, k, workers, tally);
    if (!s) {
      absorb(run, tally, "");
      return finish(run, false, {});
    }
    setup_s.push_back(ms_since(start) / 1000.0);
    run_phase(*s, probe.get(), args.workload, args.seconds, tally);
    check_after_phase(*s, own_sync, tally);
    s->recover(kRecoveries, /*verify=*/k == 0, tally);
    absorb(run, tally, "phase " + std::to_string(k + 1) + ": ");
  }
  Tally probe_checks;
  check_after_phase(*probe, !own_sync, probe_checks);
  absorb(run, probe_checks, "probe store: ");

  // Per phase: the statistic; per run: the best phase.
  std::printf("%-16s %6s %8s %12s %12s %8s\n", "op", "phase", "samples", "p50_ms", "tail_ms",
              "tail_pct");
  for (int k = 0; k < kPhases; ++k) {
    for (const auto& [kind, samples] : phases[k].ms) {
      const auto s = flowbench::summarize(samples);
      std::printf("%-16s %6d %8zu %12.4f %12.4f %8.2f\n", kind.c_str(), k + 1, s.count, s.p50,
                  s.tail_valid ? s.tail : NAN, s.tail_pct);
    }
  }
  auto best = [&](auto&& value, bool higher_better = false) {
    double out = higher_better ? -HUGE_VAL : HUGE_VAL;
    for (const auto& phase : phases) {
      const double v = value(phase);
      if (!std::isfinite(v)) return std::nan("");  // a phase without samples
      out = higher_better ? std::max(out, v) : std::min(out, v);
    }
    return out;
  };
  auto p50 = [](const char* kind, double scale = 1.0) {
    return [=](const Tally& t) {
      auto it = t.ms.find(kind);
      return it == t.ms.end() ? NAN : flowbench::summarize(it->second).p50 * scale;
    };
  };
  auto tail = [&](const char* kind) {
    return [=, &run](const Tally& t) {
      auto it = t.ms.find(kind);
      const auto s = flowbench::summarize(it == t.ms.end() ? std::vector<double>{} : it->second);
      run.check(s.tail_valid, std::string("too few ") + kind + " samples for a tail");
      return s.tail;
    };
  };
  // Recovery time flips between a fast and a ~1.5x slower mode from one
  // stretch of a run to the next on a shared host; the fastest of the
  // run's recoveries is the program's own cost.
  auto fastest = [](const char* kind, double scale) {
    return [=](const Tally& t) {
      auto it = t.ms.find(kind);
      if (it == t.ms.end() || it->second.empty()) return std::nan("");
      return *std::min_element(it->second.begin(), it->second.end()) * scale;
    };
  };
  // Throughput at the median edit round (one cycle per designer).
  auto cycles_per_s = [](const Tally& t) {
    return Session::kDesigners / (flowbench::summarize(t.edit_round_ms).p50 / 1000.0);
  };
  JsonMetrics m;
  m.add("setup_s", flowbench::summarize(setup_s).p50, "s");
  m.add("cycles_per_s", best(cycles_per_s, /*higher_better=*/true), "1/s");
  m.add("activity_p50_ms", best(p50("activity")), "ms");
  m.add("activity_tail_ms", best(tail("activity")), "ms");
  m.add("recover_s", best(fastest("recover", 1e-3)), "s");
  m.add("sync_p50_ms", best(p50("sync")), "ms");
  m.add("sync_tail_ms", best(tail("sync")), "ms");
  m.add("cold_checkout_p50_ms", best(p50("cold_checkout")), "ms");
  m.add("sta_top_p50_ms", best(p50("sta_top")), "ms");
  m.add("lvs_p50_ms", best(p50("lvs")), "ms");
  m.add("open_ro_p50_us", best(p50("open_ro", 1e3)), "us");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("failed_frac: %.6f (%llu of %llu operations)\n",
              run.attempted == 0
                  ? 0.0
                  : static_cast<double>(run.failed) / static_cast<double>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  return finish(run, true, m);
}

std::uint64_t delta(const telemetry::MetricsSnapshot& before,
                    const telemetry::MetricsSnapshot& after, const std::string& name) {
  auto get = [&](const telemetry::MetricsSnapshot& snap) -> std::uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

/// Median of a histogram's samples recorded between two snapshots, as
/// the upper bound of the bucket holding it (the registry keeps buckets,
/// not samples).
double histogram_p50(const telemetry::MetricsSnapshot& before,
                     const telemetry::MetricsSnapshot& after, const std::string& name) {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  std::vector<std::uint64_t> buckets = a->second.buckets;
  if (auto b = before.histograms.find(name); b != before.histograms.end()) {
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] -= b->second.buckets[i];
  }
  std::uint64_t total = 0;
  for (auto n : buckets) total += n;
  if (total == 0) return 0.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (2 * seen >= total) {
      const auto& bounds = a->second.bounds;
      return static_cast<double>(i < bounds.size() ? bounds[i] : bounds.back());
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Args& args, std::size_t workers) {
  // Pass 1 (untraced) gives the wall time the traced pass is compared
  // against; pass 2 runs the same seeded sequence on a fresh store with
  // every operation under a bench span.
  Tally untraced;
  double untraced_ms = 0.0;
  const bool synced = args.workload == Workload::team_sync;
  {
    auto first = setup(args, 0, workers, untraced);
    if (!first) return finish(untraced, false, {});
    run_phase(*first, nullptr, args.workload, args.seconds, untraced);
    untraced_ms = untraced.total_ms();
    check_after_phase(*first, synced, untraced);
  }

  Tally tally;
  auto second = setup(args, 0, workers, tally);
  if (!second) return finish(tally, false, {});
  Session& s = *second;
  flowbench::Rollup rollup;
  auto& tracer = telemetry::Tracer::global();
  const auto checkouts_before = s.checkout_totals();
  const auto before = telemetry::Registry::global().snapshot();
  tracer.enable(kTraceCapacity);
  s.set_tracing(&rollup);
  run_phase(s, nullptr, args.workload, args.seconds, tally);
  const double traced_ms = tally.total_ms();
  const std::size_t sta_calls = tally.ms["sta_top"].size() + tally.ms["sta_mid"].size();
  s.recover(1, /*verify=*/false, tally);
  s.set_tracing(nullptr);
  tracer.disable();
  const auto after = telemetry::Registry::global().snapshot();
  const auto checkouts = s.checkout_totals();
  check_after_phase(s, synced, tally);
  absorb(tally, untraced, "untraced pass: ");

  auto d = [&](const char* name) { return static_cast<double>(delta(before, after, name)); };
  auto span_p50 = [&](const char* key) {
    auto it = rollup.durations_us.find(key);
    return it == rollup.durations_us.end() ? 0.0 : flowbench::summarize(it->second).p50;
  };
  auto span_self = [&](const char* key) {
    auto it = rollup.span_self_ms.find(key);
    return it == rollup.span_self_ms.end() ? 0.0 : it->second;
  };
  // Every committed transaction, explicit or a single auto-committed
  // mutation, is one WAL record.
  const double commits = d("oms.wal.records.count");
  const double checkout_calls = static_cast<double>(checkouts.checkouts - checkouts_before.checkouts);
  const double skipped = static_cast<double>(checkouts.skipped - checkouts_before.skipped);
  const double requested = static_cast<double>(checkouts.requested - checkouts_before.requested);

  std::printf("per-layer rollup over %llu spans of %.3f ms of bench operations\n",
              static_cast<unsigned long long>(rollup.spans), rollup.bench_ms);
  JsonMetrics m;
  m.add("fmcad.self_ms", rollup.layer_ms("fmcad"), "ms");
  m.add("fmcad.checkin_us_p50", span_p50("fmcad/library.checkin"), "us");
  m.add("fmcad.checkout_us_p50", span_p50("fmcad/library.checkout"), "us");
  m.add("fmcad.checkins", d("fmcad.library.checkin.count"), "count");
  m.add("oms.self_ms", rollup.layer_ms("oms"), "ms");
  m.add("oms.commits", commits, "count");
  m.add("oms.wal_bytes_per_commit", ratio(d("oms.wal.append.bytes"), commits), "B");
  m.add("oms.wal_flushes", d("oms.wal.flush.count"), "count");
  m.add("oms.store_bytes_per_user_byte",
        ratio(d("oms.wal.append.bytes"), d("coupling.transfer.import.bytes")), "ratio");
  m.add("oms.replayed_records", d("oms.wal.replayed.count"), "count");
  m.add("oms.query_scans", d("oms.query.scan.count"), "count");
  m.add("jcf.self_ms", rollup.layer_ms("jcf"), "ms");
  m.add("jcf.dov_reads", d("jcf.dov.read.count"), "count");
  m.add("jcf.dov_read_bytes", d("jcf.dov.read.bytes"), "B");
  m.add("jcf.feed_rows", d("jcf.changes.feed.count"), "count");
  m.add("jcf.fingerprints", d("jcf.dov.fingerprint.count"), "count");
  m.add("tools.self_ms", rollup.layer_ms("tools"), "ms");
  m.add("tools.elaborate_ms", span_self("tools/elaborate"), "ms");
  m.add("tools.timing_ms", span_self("tools/analyze_timing"), "ms");
  m.add("tools.lvs_compare_ms", span_self("tools/lvs_compare"), "ms");
  m.add("tools.resolver_calls_per_sta",
        ratio(static_cast<double>(s.resolver_calls()), static_cast<double>(sta_calls)), "count");
  m.add("coupling.self_ms", rollup.layer_ms("coupling"), "ms");
  m.add("coupling.checkout.skip_ratio", ratio(skipped, skipped + requested), "ratio");
  m.add("coupling.transfer.exports", d("coupling.transfer.export.count"), "count");
  m.add("coupling.transfer.bytes_exported", d("coupling.transfer.export.bytes"), "B");
  m.add("coupling.transfer.bytes_exported_physical", d("coupling.transfer.export.physical.bytes"),
        "B");
  m.add("coupling.transfer.lock_wait_us_p50",
        histogram_p50(before, after, "coupling.transfer.lock_wait.us"), "us");
  m.add("vfs.self_ms", rollup.layer_ms("vfs"), "ms");
  m.add("vfs.bytes_physical_copied", d("vfs.file.copy.physical.bytes"), "B");
  m.add("vfs.bytes_hashed", d("vfs.hash.bytes"), "B");
  m.add("vfs.cow_shared", d("vfs.cow.shared.count"), "count");
  const double tasks = d("executor.task.completed.count");
  m.add("executor.tasks", tasks, "count");
  m.add("executor.steals", d("executor.steal.count"), "count");
  m.add("executor.tasks_per_checkout", ratio(tasks, checkout_calls), "count");
  const double unattributed = rollup.unattributed_ms();
  m.add("trace.bench_ms", rollup.bench_ms, "ms");
  m.add("trace.unattributed_ms", unattributed, "ms");
  m.add("trace.attributed_frac", 1.0 - ratio(unattributed, rollup.bench_ms), "ratio");
  m.add("trace.dropped_spans", static_cast<double>(s.dropped_spans()), "count");
  m.add("trace.overhead_frac", ratio(traced_ms, untraced_ms) - 1.0, "ratio");

  tally.check(s.dropped_spans() == 0, "the tracer dropped spans");
  tally.check(rollup.orphans == 0, "spans outside any bench operation");
  tally.check(std::abs(rollup.total_self_ms() - rollup.bench_ms) <= 1e-6 * rollup.bench_ms + 1e-6,
              "layer self times do not add up to the bench spans");
  return finish(tally, true, m);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: flowbench --workload <edit_cycle|team_sync|hier_review> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  // The driver thread plus the executor pool stay within nproc threads;
  // both must be fixed before the first use of the executor or tracer.
  const std::size_t nproc = usable_cpus();
  const std::string pool = std::to_string(std::max<std::size_t>(1, nproc - 1));
  setenv("JFM_WORKERS", pool.c_str(), 1);
  unsetenv("JFM_TELEMETRY");
  return args.trace ? run_traced(args, nproc) : run_end_to_end(args, nproc);
}
