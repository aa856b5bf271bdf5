#include "jfm/tools/timing.hpp"

#include <algorithm>

#include "jfm/support/telemetry.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;

std::string TimingReport::describe(const Circuit& circuit) const {
  std::string out;
  for (std::size_t i = 0; i < critical_path.size(); ++i) {
    if (i) out += " -> ";
    out += circuit.signal_names[static_cast<std::size_t>(critical_path[i])];
  }
  out += " (delay " + std::to_string(critical_delay) + ")";
  return out;
}

Result<TimingReport> analyze_timing(const Circuit& circuit) {
  JFM_SPAN("tools", "analyze_timing");
  const std::size_t n = circuit.signal_count();
  TimingReport report;
  report.arrival.assign(n, 0);
  std::vector<int> pred(n, -1);

  // Combinational edges only: a DFF launches a fresh path at its output.
  // CSR by source signal: the edges out of s are edges[first[s] ..
  // first[s + 1]), in gate and input order.
  struct Edge {
    int to;
    SimTime delay;
  };
  std::vector<int> indegree(n, 0);
  std::vector<std::size_t> first(n + 1, 0);
  for (const auto& gate : circuit.gates) {
    if (gate.type == "DFF") continue;
    for (int in : gate.inputs) ++first[static_cast<std::size_t>(in)];
    indegree[static_cast<std::size_t>(gate.output)] += static_cast<int>(gate.inputs.size());
  }
  for (std::size_t s = 1; s <= n; ++s) first[s] += first[s - 1];
  std::vector<Edge> edges(first[n]);
  for (auto gate = circuit.gates.rbegin(); gate != circuit.gates.rend(); ++gate) {
    if (gate->type == "DFF") continue;
    for (auto in = gate->inputs.rbegin(); in != gate->inputs.rend(); ++in) {
      edges[--first[static_cast<std::size_t>(*in)]] = {gate->output, gate->delay};
    }
  }

  // Kahn topological sweep computing longest arrival times; `order` is
  // the FIFO, each signal entering it once.
  std::vector<int> order;
  order.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (indegree[s] == 0) order.push_back(static_cast<int>(s));
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto from = static_cast<std::size_t>(order[head]);
    for (std::size_t e = first[from]; e < first[from + 1]; ++e) {
      const Edge& edge = edges[e];
      SimTime candidate = report.arrival[from] + edge.delay;
      auto& to_arrival = report.arrival[static_cast<std::size_t>(edge.to)];
      if (candidate > to_arrival) {
        to_arrival = candidate;
        pred[static_cast<std::size_t>(edge.to)] = static_cast<int>(from);
      }
      if (--indegree[static_cast<std::size_t>(edge.to)] == 0) order.push_back(edge.to);
    }
  }
  if (order.size() != n) {
    return Result<TimingReport>::failure(Errc::consistency_violation,
                                         "combinational cycle detected");
  }

  // critical endpoint = slowest signal anywhere
  int endpoint = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (report.arrival[s] > report.critical_delay) {
      report.critical_delay = report.arrival[s];
      endpoint = static_cast<int>(s);
    }
  }
  if (report.critical_delay > 0) {
    for (int s = endpoint; s != -1; s = pred[static_cast<std::size_t>(s)]) {
      report.critical_path.push_back(s);
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  }
  return report;
}

}  // namespace jfm::tools
