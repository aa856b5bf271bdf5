#include "jfm/tools/simulator.hpp"

#include <algorithm>

#include "jfm/support/telemetry.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;
using support::Status;

int Circuit::find_signal(std::string_view name) const {
  return signal_ids_.find(support::name_hash(name), [&](int other) {
    return signal_names[static_cast<std::size_t>(other)] == name;
  });
}

int Circuit::add_signal(std::string_view name) {
  const int next = static_cast<int>(signal_names.size());
  const int id = signal_ids_.insert(support::name_hash(name), next, [&](int other) {
    return signal_names[static_cast<std::size_t>(other)] == name;
  });
  if (id == next) signal_names.emplace_back(name);
  return id;
}

std::vector<int> Circuit::undriven_signals() const {
  std::vector<bool> driven(signal_names.size(), false);
  for (const auto& g : gates) {
    if (g.output >= 0 && static_cast<std::size_t>(g.output) < driven.size()) {
      driven[static_cast<std::size_t>(g.output)] = true;
    }
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < driven.size(); ++i) {
    if (!driven[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

Status Circuit::check_single_driver() const {
  std::vector<int> drivers(signal_names.size(), 0);
  for (const auto& g : gates) {
    if (g.output < 0 || static_cast<std::size_t>(g.output) >= drivers.size()) {
      return support::fail(Errc::invalid_argument, "gate with invalid output signal");
    }
    if (++drivers[static_cast<std::size_t>(g.output)] > 1) {
      return support::fail(Errc::consistency_violation,
                           "signal " + signal_names[static_cast<std::size_t>(g.output)] +
                               " has multiple drivers");
    }
  }
  return {};
}

Simulator::Simulator(Circuit circuit) : circuit_(std::move(circuit)) {
  values_.assign(circuit_.signal_count(), Logic::X);
  fanout_.assign(circuit_.signal_count(), {});
  dff_last_clk_.assign(circuit_.gates.size(), Logic::X);
  for (std::size_t g = 0; g < circuit_.gates.size(); ++g) {
    for (int in : circuit_.gates[g].inputs) {
      if (in >= 0 && static_cast<std::size_t>(in) < fanout_.size()) {
        fanout_[static_cast<std::size_t>(in)].push_back(g);
      }
    }
  }
}

Status Simulator::inject(SimTime time, int signal, Logic value) {
  if (signal < 0 || static_cast<std::size_t>(signal) >= values_.size()) {
    return support::fail(Errc::not_found, "no such signal id " + std::to_string(signal));
  }
  if (time < now_) {
    return support::fail(Errc::invalid_argument, "cannot schedule in the past");
  }
  queue_[time].emplace_back(signal, value);
  return {};
}

Status Simulator::inject(SimTime time, std::string_view signal, Logic value) {
  int id = circuit_.find_signal(signal);
  if (id < 0) return support::fail(Errc::not_found, "no such signal " + std::string(signal));
  return inject(time, id, value);
}

Result<std::uint64_t> Simulator::run(SimTime until) {
  JFM_SPAN("tools", "simulate");
  std::uint64_t processed = 0;
  constexpr std::uint64_t kEventLimit = 2'000'000;  // oscillation backstop
  while (!queue_.empty()) {
    auto it = queue_.begin();
    if (it->first > until) break;
    now_ = it->first;
    std::vector<std::pair<int, Logic>> batch = std::move(it->second);
    queue_.erase(it);
    // Apply all changes at this instant, then evaluate affected gates.
    std::vector<std::size_t> affected;
    for (const auto& [signal, value] : batch) {
      ++processed;
      ++stats_.events_processed;
      if (values_[static_cast<std::size_t>(signal)] == value) continue;
      values_[static_cast<std::size_t>(signal)] = value;
      trace_.push_back({now_, signal, value});
      stats_.last_event_time = now_;
      const auto& fans = fanout_[static_cast<std::size_t>(signal)];
      affected.insert(affected.end(), fans.begin(), fans.end());
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
    for (std::size_t g : affected) evaluate_gate(g);
    if (stats_.events_processed > kEventLimit) {
      return Result<std::uint64_t>::failure(Errc::internal,
                                            "event limit exceeded (oscillating circuit?)");
    }
  }
  if (queue_.empty() && now_ < until) now_ = until;
  return processed;
}

void Simulator::evaluate_gate(std::size_t gate_index) {
  const CircuitGate& gate = circuit_.gates[gate_index];
  ++stats_.gate_evaluations;
  Logic out;
  if (gate.type == "DFF") {
    // inputs = {d, clk}; sample d on a rising clock edge.
    Logic clk = values_[static_cast<std::size_t>(gate.inputs[1])];
    Logic prev = dff_last_clk_[gate_index];
    dff_last_clk_[gate_index] = clk;
    bool rising = prev == Logic::L0 && clk == Logic::L1;
    if (!rising) return;
    out = normalize_input(values_[static_cast<std::size_t>(gate.inputs[0])]);
  } else {
    std::vector<Logic> ins;
    ins.reserve(gate.inputs.size());
    for (int in : gate.inputs) ins.push_back(values_[static_cast<std::size_t>(in)]);
    auto v = eval_gate(gate.type, ins);
    if (!v.ok()) return;  // malformed circuits are caught at build time
    out = *v;
  }
  // Inertial-style suppression: only genuine transitions are scheduled.
  if (values_[static_cast<std::size_t>(gate.output)] == out) return;
  queue_[now_ + gate.delay].emplace_back(gate.output, out);
}

Logic Simulator::value(int signal) const {
  if (signal < 0 || static_cast<std::size_t>(signal) >= values_.size()) return Logic::X;
  return values_[static_cast<std::size_t>(signal)];
}

Result<Logic> Simulator::value(std::string_view signal) const {
  int id = circuit_.find_signal(signal);
  if (id < 0) return Result<Logic>::failure(Errc::not_found, "no such signal " + std::string(signal));
  return value(id);
}

}  // namespace jfm::tools
