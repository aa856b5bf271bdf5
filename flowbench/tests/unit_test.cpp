// Unit tests of the benchmark's own code: the latency summariser and
// the span-tree self-time rollup. Exits non-zero if any check fails.
//
//   ctest --test-dir .bench_build/flowbench

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "latency.hpp"
#include "rollup.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b)); }

void summarizer_median_tail_and_count() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const auto s = flowbench::summarize(samples);
  expect(s.count == 100, "count");
  expect(near(s.p50, 50.5), "even-count median averages the middle pair");
  expect(s.tail_valid, "100 samples have a tail");
  expect(near(s.tail, 90.0), "tail is the 11th-largest sample");
  expect(near(s.tail_pct, 90.0), "tail percentile of 100 samples is p90");

  const auto odd = flowbench::summarize({3.0, 1.0, 2.0});
  expect(near(odd.p50, 2.0), "odd-count median is the middle sample");
  expect(!odd.tail_valid, "three samples have no percentile with ten beyond it");

  std::vector<double> eleven(11, 7.0);
  eleven[10] = 9.0;
  const auto e = flowbench::summarize(eleven);
  expect(e.tail_valid && near(e.tail, 7.0), "eleven samples: tail is the minimum");

  const auto empty = flowbench::summarize({});
  expect(empty.count == 0 && !empty.tail_valid, "empty input");
}

jfm::support::telemetry::SpanRecord span(std::uint64_t id, std::uint64_t parent,
                                         const char* subsystem, std::uint64_t start,
                                         std::uint64_t duration) {
  jfm::support::telemetry::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.subsystem = subsystem;
  s.name = "op";
  s.start_us = start;
  s.duration_us = duration;
  return s;
}

void rollup_sequential_children() {
  flowbench::Rollup r;
  r.add({span(1, 0, "bench", 0, 1000), span(2, 1, "coupling", 100, 500),
         span(3, 2, "oms", 200, 100), span(4, 1, "jcf", 700, 200)});
  expect(near(r.bench_ms, 1.0), "bench total");
  expect(near(r.unattributed_ms(), 0.3), "bench self time is the uncovered 300us");
  expect(near(r.layer_ms("coupling"), 0.4), "coupling self excludes its oms child");
  expect(near(r.layer_ms("oms"), 0.1), "oms self");
  expect(near(r.layer_ms("jcf"), 0.2), "jcf self");
  expect(near(r.total_self_ms(), r.bench_ms), "self times add up to the root");
  expect(r.orphans == 0, "no orphans");
}

void rollup_parallel_children_share_covered_time() {
  // Two worker lanes of 400us each overlap inside a 500us batch span:
  // together they cover 450us of wall time, split by duration.
  flowbench::Rollup r;
  r.add({span(1, 0, "bench", 0, 1000), span(2, 1, "coupling", 0, 500),
         span(3, 2, "vfs", 50, 400), span(4, 2, "vfs", 100, 400)});
  expect(near(r.layer_ms("coupling"), 0.05), "batch self is its uncovered 50us");
  expect(near(r.layer_ms("vfs"), 0.45), "lanes share the 450us they cover");
  expect(near(r.total_self_ms(), 1.0), "overlap never double counts");
}

void rollup_counts_orphans_and_clips_children() {
  flowbench::Rollup r;
  // A child that reads one tick past its parent's end is clipped.
  r.add({span(1, 0, "bench", 10, 100), span(2, 1, "jcf", 60, 51), span(9, 0, "oms", 0, 5)});
  expect(r.orphans == 1, "a span outside any bench root is an orphan");
  expect(near(r.total_self_ms(), r.bench_ms), "clipped child still adds up");
  expect(near(r.layer_ms("oms"), 0.0), "orphans are not attributed");
}

}  // namespace

int main() {
  summarizer_median_tail_and_count();
  rollup_sequential_children();
  rollup_parallel_children_share_covered_time();
  rollup_counts_orphans_and_clips_children();
  if (failures == 0) std::printf("all flowbench unit tests passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
