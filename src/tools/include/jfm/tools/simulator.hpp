#pragma once
// Event-driven gate-level simulator (the third encapsulated tool's
// engine). Works on a flat Circuit produced by the elaborator.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "jfm/support/id_table.hpp"
#include "jfm/support/result.hpp"
#include "jfm/tools/logic.hpp"

namespace jfm::tools {

using SimTime = std::uint64_t;

struct CircuitGate {
  std::string type;             ///< AND/OR/.../DFF
  std::vector<int> inputs;      ///< signal indices (DFF: {d, clk})
  int output = -1;              ///< signal index
  SimTime delay = 1;            ///< propagation delay in ticks
};

struct Circuit {
  std::vector<std::string> signal_names;  ///< index = signal id
  std::vector<CircuitGate> gates;

  int find_signal(std::string_view name) const;  ///< -1 if missing; O(1)
  int add_signal(std::string_view name);         ///< existing id if present; O(1)
  std::size_t signal_count() const { return signal_names.size(); }

  /// Signals not driven by any gate output (primary inputs).
  std::vector<int> undriven_signals() const;
  /// Each signal must be driven by at most one gate.
  support::Status check_single_driver() const;

 private:
  /// Signal ids hashed by name and probed against signal_names, kept by
  /// add_signal. find_signal answers from it alone, so signal_names must
  /// only grow through add_signal.
  support::IdTable signal_ids_;
};

struct SignalChange {
  SimTime time = 0;
  int signal = -1;
  Logic value = Logic::X;
};

struct SimStats {
  std::uint64_t events_processed = 0;
  std::uint64_t gate_evaluations = 0;
  SimTime last_event_time = 0;
};

class Simulator {
 public:
  explicit Simulator(Circuit circuit);

  const Circuit& circuit() const noexcept { return circuit_; }

  /// Schedule a stimulus on a signal (typically a primary input).
  support::Status inject(SimTime time, int signal, Logic value);
  support::Status inject(SimTime time, std::string_view signal, Logic value);

  /// Run until the event queue is exhausted or `until` is passed.
  /// Returns the number of events processed.
  support::Result<std::uint64_t> run(SimTime until);

  Logic value(int signal) const;
  support::Result<Logic> value(std::string_view signal) const;
  SimTime now() const noexcept { return now_; }

  /// Every committed signal change, in time order (the waveform).
  const std::vector<SignalChange>& trace() const noexcept { return trace_; }
  const SimStats& stats() const noexcept { return stats_; }

 private:
  void evaluate_gate(std::size_t gate_index);

  Circuit circuit_;
  std::vector<Logic> values_;
  std::vector<std::vector<std::size_t>> fanout_;  ///< signal -> gate indices
  std::vector<Logic> dff_last_clk_;               ///< per gate (X for non-DFF)
  std::map<SimTime, std::vector<std::pair<int, Logic>>> queue_;
  std::vector<SignalChange> trace_;
  SimTime now_ = 0;
  SimStats stats_;
};

}  // namespace jfm::tools
