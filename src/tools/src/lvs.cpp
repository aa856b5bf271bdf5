#include "jfm/tools/lvs.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "jfm/support/telemetry.hpp"

namespace jfm::tools {

std::vector<std::string> LvsReport::describe() const {
  std::vector<std::string> out;
  for (const auto& n : nets_missing_in_layout) {
    out.push_back("net " + n + " has no labeled geometry in the layout");
  }
  for (const auto& n : nets_unknown_to_schematic) {
    out.push_back("layout label " + n + " names no schematic net");
  }
  for (const auto& c : instances_missing_in_layout) {
    out.push_back("instance of " + c + " is not placed in the layout");
  }
  for (const auto& c : placements_unknown_to_schematic) {
    out.push_back("placement of " + c + " has no schematic instance");
  }
  return out;
}

LvsReport lvs_compare(const Schematic& schematic, const Layout& layout) {
  JFM_SPAN("tools", "lvs_compare");
  LvsReport report;

  std::set<std::string> sch_nets(schematic.nets.begin(), schematic.nets.end());
  std::set<std::string> lay_nets;
  for (const auto& rect : layout.rects) {
    if (!rect.net.empty()) lay_nets.insert(rect.net);
  }
  for (const auto& net : sch_nets) {
    if (!lay_nets.contains(net)) report.nets_missing_in_layout.push_back(net);
  }
  for (const auto& net : lay_nets) {
    if (!sch_nets.contains(net)) report.nets_unknown_to_schematic.push_back(net);
  }

  // Masters compared as multisets-by-cell: two instances of `adder`
  // require two placements of `adder`.
  auto count_by_cell = [](auto begin, auto end, auto cell_of) {
    std::map<std::string, int> out;
    for (auto it = begin; it != end; ++it) ++out[cell_of(*it)];
    return out;
  };
  auto sch_masters =
      count_by_cell(schematic.instances.begin(), schematic.instances.end(),
                    [](const SchInstance& i) { return i.master_cell; });
  auto lay_masters = count_by_cell(layout.placements.begin(), layout.placements.end(),
                                   [](const Placement& p) { return p.master_cell; });
  for (const auto& [cell, count] : sch_masters) {
    int placed = lay_masters.contains(cell) ? lay_masters[cell] : 0;
    for (int i = placed; i < count; ++i) report.instances_missing_in_layout.push_back(cell);
  }
  for (const auto& [cell, count] : lay_masters) {
    int wanted = sch_masters.contains(cell) ? sch_masters[cell] : 0;
    for (int i = wanted; i < count; ++i) report.placements_unknown_to_schematic.push_back(cell);
  }
  return report;
}

}  // namespace jfm::tools
