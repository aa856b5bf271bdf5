#pragma once
// Per-layer self time from the telemetry span tree.
//
// Every measured call runs under one benchmark-owned root span
// (subsystem "bench", name = the operation). A span's self time is its
// duration minus the part of its interval that its children cover.
// Children that overlap in time (worker lanes of a parallel checkout)
// share the covered wall time in proportion to their durations, so the
// self times of a tree add up exactly to its root's duration. The root's
// own self time is the time no in-program span explains: the
// "unattributed" remainder.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "jfm/support/telemetry.hpp"

namespace flowbench {

inline constexpr const char* kBenchSubsystem = "bench";

struct Rollup {
  /// Self time per subsystem in ms; kBenchSubsystem holds the
  /// unattributed remainder.
  std::map<std::string, double> self_ms;
  /// Self time per "subsystem/name" in ms.
  std::map<std::string, double> span_self_ms;
  /// Raw durations (us) per "subsystem/name", for per-span percentiles.
  std::map<std::string, std::vector<double>> durations_us;
  double bench_ms = 0.0;       ///< total duration of the bench root spans
  std::uint64_t spans = 0;     ///< spans folded in, roots included
  std::uint64_t orphans = 0;   ///< spans not under any bench root

  /// Fold in the spans of one or more complete bench operations.
  void add(const std::vector<jfm::support::telemetry::SpanRecord>& spans);

  double layer_ms(const std::string& subsystem) const;
  double unattributed_ms() const { return layer_ms(kBenchSubsystem); }
  /// Sum of every subsystem's self time, the remainder included.
  double total_self_ms() const;
};

}  // namespace flowbench
