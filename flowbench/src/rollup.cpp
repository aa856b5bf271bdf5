#include "rollup.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace flowbench {

using jfm::support::telemetry::SpanRecord;

namespace {

/// Length of the union of the children's intervals, clipped to the
/// parent's interval (spans carry whole microseconds, so a child may
/// appear to end a tick after its parent).
double covered_us(const SpanRecord& parent, const std::vector<const SpanRecord*>& kids) {
  const std::uint64_t lo = parent.start_us;
  const std::uint64_t hi = parent.start_us + parent.duration_us;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  intervals.reserve(kids.size());
  for (const SpanRecord* kid : kids) {
    const std::uint64_t a = std::clamp(kid->start_us, lo, hi);
    const std::uint64_t b = std::clamp(kid->start_us + kid->duration_us, lo, hi);
    if (b > a) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  std::uint64_t run_start = 0;
  std::uint64_t run_end = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) total += static_cast<double>(run_end - run_start);
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) total += static_cast<double>(run_end - run_start);
  return total;
}

}  // namespace

void Rollup::add(const std::vector<SpanRecord>& records) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& span : records) by_id[span.id] = &span;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const auto& span : records) {
    if (span.parent != 0 && by_id.contains(span.parent)) {
      children[span.parent].push_back(&span);
    } else {
      roots.push_back(&span);
    }
  }
  spans += records.size();

  // Depth-first with an explicit stack; `weight` scales a subtree whose
  // root shares its parent's covered time with overlapping siblings.
  std::vector<std::pair<const SpanRecord*, double>> stack;
  for (const SpanRecord* root : roots) {
    const bool bench = root->subsystem == kBenchSubsystem;
    if (bench) bench_ms += static_cast<double>(root->duration_us) / 1000.0;
    stack.emplace_back(root, 1.0);
    while (!stack.empty()) {
      auto [span, weight] = stack.back();
      stack.pop_back();
      const std::string key = span->subsystem + "/" + span->name;
      durations_us[key].push_back(static_cast<double>(span->duration_us));
      static const std::vector<const SpanRecord*> kNone;
      auto it = children.find(span->id);
      const auto& kids = it == children.end() ? kNone : it->second;
      if (!bench) {
        ++orphans;
        for (const SpanRecord* kid : kids) stack.emplace_back(kid, 0.0);
        continue;
      }
      const double covered = covered_us(*span, kids);
      const double self = static_cast<double>(span->duration_us) - covered;
      self_ms[span->subsystem] += weight * self / 1000.0;
      span_self_ms[key] += weight * self / 1000.0;
      double kids_us = 0.0;
      for (const SpanRecord* kid : kids) kids_us += static_cast<double>(kid->duration_us);
      const double scale = kids_us > 0.0 ? covered / kids_us : 0.0;
      for (const SpanRecord* kid : kids) stack.emplace_back(kid, weight * scale);
    }
  }
}

double Rollup::layer_ms(const std::string& subsystem) const {
  auto it = self_ms.find(subsystem);
  return it == self_ms.end() ? 0.0 : it->second;
}

double Rollup::total_self_ms() const {
  double total = 0.0;
  for (const auto& [subsystem, ms] : self_ms) total += ms;
  return total;
}

}  // namespace flowbench
