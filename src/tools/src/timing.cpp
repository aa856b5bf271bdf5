#include "jfm/tools/timing.hpp"

#include <algorithm>
#include <queue>

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
  struct Edge {
    int from;
    int to;
    SimTime delay;
  };
  std::vector<Edge> edges;
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out_edges(n);
  for (const auto& gate : circuit.gates) {
    if (gate.type == "DFF") continue;
    for (int in : gate.inputs) {
      out_edges[static_cast<std::size_t>(in)].push_back(edges.size());
      edges.push_back({in, gate.output, gate.delay});
      ++indegree[static_cast<std::size_t>(gate.output)];
    }
  }

  // Kahn topological sweep computing longest arrival times.
  std::queue<int> ready;
  for (std::size_t s = 0; s < n; ++s) {
    if (indegree[s] == 0) ready.push(static_cast<int>(s));
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    int signal = ready.front();
    ready.pop();
    ++visited;
    for (std::size_t e : out_edges[static_cast<std::size_t>(signal)]) {
      const Edge& edge = edges[e];
      SimTime candidate = report.arrival[static_cast<std::size_t>(edge.from)] + edge.delay;
      auto& to_arrival = report.arrival[static_cast<std::size_t>(edge.to)];
      if (candidate > to_arrival) {
        to_arrival = candidate;
        pred[static_cast<std::size_t>(edge.to)] = edge.from;
      }
      if (--indegree[static_cast<std::size_t>(edge.to)] == 0) ready.push(edge.to);
    }
  }
  if (visited != n) {
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
