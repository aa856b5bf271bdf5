#include "jfm/tools/layout.hpp"

#include <algorithm>
#include <set>

#include "jfm/support/strings.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;
using support::Status;

std::string DrcViolation::describe() const {
  return "layer " + layer + ": rects #" + std::to_string(rect_a) + " and #" +
         std::to_string(rect_b) +
         (distance == 0 ? " overlap" : " spaced " + std::to_string(distance));
}

std::string Layout::serialize() const {
  std::string out;
  for (const auto& l : layers) out += "layer " + l + "\n";
  for (const auto& r : rects) {
    out += "rect " + r.layer + " " + std::to_string(r.x1) + " " + std::to_string(r.y1) + " " +
           std::to_string(r.x2) + " " + std::to_string(r.y2);
    if (!r.net.empty()) out += " " + r.net;
    out += "\n";
  }
  for (const auto& p : placements) {
    out += "place " + p.name + " " + p.master_cell + " " + p.master_view + " " +
           std::to_string(p.x) + " " + std::to_string(p.y) + "\n";
  }
  return out;
}

Result<Layout> Layout::parse(const std::string& payload) {
  Layout out;
  std::vector<std::string_view> f;
  for (const auto& raw : support::split(payload, '\n')) {
    std::string_view line = support::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    support::split_ws(line, f);
    try {
      if (f[0] == "layer" && f.size() == 2) {
        out.layers.emplace_back(f[1]);
      } else if (f[0] == "rect" && (f.size() == 6 || f.size() == 7)) {
        Rect r;
        r.layer = f[1];
        r.x1 = std::stoll(std::string(f[2]));
        r.y1 = std::stoll(std::string(f[3]));
        r.x2 = std::stoll(std::string(f[4]));
        r.y2 = std::stoll(std::string(f[5]));
        if (f.size() == 7) r.net = f[6];
        if (r.x1 > r.x2) std::swap(r.x1, r.x2);
        if (r.y1 > r.y2) std::swap(r.y1, r.y2);
        out.rects.push_back(std::move(r));
      } else if (f[0] == "place" && f.size() == 6) {
        Placement p;
        p.name = f[1];
        p.master_cell = f[2];
        p.master_view = f[3];
        p.x = std::stoll(std::string(f[4]));
        p.y = std::stoll(std::string(f[5]));
        out.placements.push_back(std::move(p));
      } else {
        return Result<Layout>::failure(Errc::parse_error,
                                       "layout: bad record '" + std::string(line) + "'");
      }
    } catch (const std::exception&) {
      return Result<Layout>::failure(Errc::parse_error,
                                     "layout: bad number in '" + std::string(line) + "'");
    }
  }
  return out;
}

bool Layout::has_layer(std::string_view name) const {
  return std::find(layers.begin(), layers.end(), name) != layers.end();
}

const Placement* Layout::find_placement(std::string_view name) const {
  for (const auto& p : placements) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Status Layout::validate() const {
  std::set<std::string> layer_set;
  for (const auto& l : layers) {
    if (!support::is_identifier(l)) {
      return support::fail(Errc::invalid_argument, "bad layer name '" + l + "'");
    }
    if (!layer_set.insert(l).second) {
      return support::fail(Errc::already_exists, "duplicate layer " + l);
    }
  }
  for (const auto& r : rects) {
    if (!layer_set.contains(r.layer)) {
      return support::fail(Errc::consistency_violation,
                           "rect on undefined layer " + r.layer);
    }
    if (r.width() <= 0 || r.height() <= 0) {
      return support::fail(Errc::invalid_argument, "degenerate rectangle on " + r.layer);
    }
  }
  std::set<std::string> names;
  for (const auto& p : placements) {
    if (!names.insert(p.name).second) {
      return support::fail(Errc::already_exists, "duplicate placement " + p.name);
    }
  }
  return {};
}

BBox Layout::bbox() const {
  BBox box;
  for (const auto& r : rects) {
    if (box.empty) {
      box = {r.x1, r.y1, r.x2, r.y2, false};
    } else {
      box.x1 = std::min(box.x1, r.x1);
      box.y1 = std::min(box.y1, r.y1);
      box.x2 = std::max(box.x2, r.x2);
      box.y2 = std::max(box.y2, r.y2);
    }
  }
  return box;
}

std::int64_t Layout::layer_area(std::string_view layer) const {
  std::int64_t total = 0;
  for (const auto& r : rects) {
    if (r.layer == layer) total += r.area();
  }
  return total;
}

std::vector<std::size_t> Layout::rects_on_net(std::string_view net) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    if (rects[i].net == net) out.push_back(i);
  }
  return out;
}

namespace {
/// Axis distance between intervals [a1,a2] and [b1,b2]; 0 if they touch
/// or overlap.
std::int64_t interval_gap(std::int64_t a1, std::int64_t a2, std::int64_t b1, std::int64_t b2) {
  if (b1 > a2) return b1 - a2;
  if (a1 > b2) return a1 - b2;
  return 0;
}
}  // namespace

std::vector<DrcViolation> Layout::drc_spacing(std::int64_t min_space) const {
  std::vector<DrcViolation> out;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      const Rect& a = rects[i];
      const Rect& b = rects[j];
      if (a.layer != b.layer) continue;
      if (!a.net.empty() && a.net == b.net) continue;  // same net may abut
      std::int64_t dx = interval_gap(a.x1, a.x2, b.x1, b.x2);
      std::int64_t dy = interval_gap(a.y1, a.y2, b.y1, b.y2);
      // Euclidean-free metric: rectangles are "close" when both axis
      // gaps are under the rule (classic Manhattan corner rule).
      std::int64_t gap = std::max(dx, dy);
      if (gap < min_space) {
        out.push_back({i, j, a.layer, gap});
      }
    }
  }
  return out;
}

}  // namespace jfm::tools
