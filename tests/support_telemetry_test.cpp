// The telemetry layer: metrics registry (counters, gauges, histograms)
// and the structured tracer (scoped spans, ring buffer, exporters).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "jfm/support/telemetry.hpp"

namespace jfm::support::telemetry {
namespace {

// The registry and tracer are process-wide singletons shared by every
// TEST in this binary; each test uses its own metric names and the
// tracer tests re-enable() (which resets the ring and the epoch).

TEST(CounterTest, AddValueReset) {
  auto& c = Registry::global().counter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, SameNameSameCounter) {
  auto& a = Registry::global().counter("test.counter.same");
  auto& b = Registry::global().counter("test.counter.same");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
}

TEST(CounterTest, ConcurrentIncrements) {
  auto& c = Registry::global().counter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, ConcurrentLookupAndIncrement) {
  // Name lookup (shared_mutex) racing metric creation must be safe and
  // references must stay stable.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t]() {
      for (int i = 0; i < 500; ++i) {
        Registry::global().counter("test.counter.lookup." + std::to_string(i % 10)).add(1);
        Registry::global().gauge("test.gauge.lookup." + std::to_string(t)).add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Registry::global().counter("test.counter.lookup." + std::to_string(i)).value(),
              static_cast<std::uint64_t>(kThreads) * 50);
  }
}

TEST(GaugeTest, SetAddNegative) {
  auto& g = Registry::global().gauge("test.gauge.basic");
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  auto& h = Registry::global().histogram("test.hist.bounds", {10, 20, 50});
  // bucket 0: <= 10, bucket 1: (10, 20], bucket 2: (20, 50], overflow: > 50
  h.record(0);
  h.record(10);   // boundary lands in bucket 0
  h.record(11);   // just past the boundary -> bucket 1
  h.record(20);
  h.record(21);
  h.record(50);
  h.record(51);   // overflow
  h.record(5000);
  auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 20 + 21 + 50 + 51 + 5000);
}

TEST(HistogramTest, BoundsAreSortedAndDeduped) {
  auto& h = Registry::global().histogram("test.hist.unsorted", {50, 10, 20, 20});
  EXPECT_EQ(h.bounds(), (std::vector<std::uint64_t>{10, 20, 50}));
}

TEST(HistogramTest, FirstRegistrationFixesBounds) {
  auto& a = Registry::global().histogram("test.hist.fixed", {1, 2});
  auto& b = Registry::global().histogram("test.hist.fixed", {100, 200, 300});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(HistogramTest, LatencyHistogramUsesDefaultBounds) {
  auto& h = Registry::global().latency_histogram("test.hist.latency");
  EXPECT_EQ(h.bounds(), Registry::default_latency_bounds_us());
}

TEST(HistogramTest, ConcurrentRecords) {
  auto& h = Registry::global().histogram("test.hist.concurrent", {100});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h]() {
      for (int i = 0; i < kPerThread; ++i) h.record(i % 200);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[0] + buckets[1], h.count());
}

TEST(RegistryTest, SnapshotIsIsolatedFromLaterMutations) {
  auto& c = Registry::global().counter("test.snapshot.counter");
  auto& h = Registry::global().histogram("test.snapshot.hist", {10});
  c.add(5);
  h.record(3);
  auto snap = Registry::global().snapshot();
  c.add(100);
  h.record(3);
  EXPECT_EQ(snap.counters.at("test.snapshot.counter"), 5u);
  EXPECT_EQ(snap.histograms.at("test.snapshot.hist").count, 1u);
  EXPECT_EQ(c.value(), 105u);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsNames) {
  auto& c = Registry::global().counter("test.reset.counter");
  c.add(9);
  Registry::global().reset();
  auto snap = Registry::global().snapshot();
  EXPECT_TRUE(snap.counters.contains("test.reset.counter"));
  EXPECT_EQ(snap.counters.at("test.reset.counter"), 0u);
  EXPECT_EQ(&c, &Registry::global().counter("test.reset.counter"));
}

TEST(RegistryTest, TableExporterFiltersByPrefix) {
  Registry::global().counter("test.table.alpha.count").add(1);
  Registry::global().counter("test.table.beta.count").add(2);
  auto snap = Registry::global().snapshot();
  std::string table = snap.to_table("test.table.alpha.");
  EXPECT_NE(table.find("test.table.alpha.count"), std::string::npos);
  EXPECT_EQ(table.find("test.table.beta.count"), std::string::npos);
}

TEST(RegistryTest, JsonExporterRoundTripsValues) {
  Registry::global().counter("test.json.counter").add(1234);
  Registry::global().gauge("test.json.gauge").set(-5);
  Registry::global().histogram("test.json.hist", {10, 20}).record(15);
  auto json = Registry::global().snapshot().to_json();
  EXPECT_NE(json.find("\"test.json.counter\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[10,20]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  // The whole thing parses as one object: balanced braces, no trailing garbage.
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ======================= tracer ===========================================

TEST(TracerTest, DisabledSpansRecordNothing) {
  auto& tracer = Tracer::global();
  tracer.disable();
  {
    ScopedSpan span("test", "ignored");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(current_span_id(), 0u);
  }
  tracer.enable();
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.disable();
}

TEST(TracerTest, NestedSpansLinkToTheirParent) {
  auto& tracer = Tracer::global();
  tracer.enable();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    ScopedSpan outer("coupling", "outer");
    outer_id = outer.id();
    EXPECT_EQ(current_span_id(), outer_id);
    {
      JFM_SPAN("jcf", "inner");
      inner_id = current_span_id();
      EXPECT_NE(inner_id, outer_id);
    }
    EXPECT_EQ(current_span_id(), outer_id);
  }
  EXPECT_EQ(current_span_id(), 0u);
  auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are recorded at completion: inner closes first.
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[0].subsystem, "jcf");
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].id, outer_id);
  EXPECT_EQ(spans[1].parent, 0u);
  tracer.disable();
}

TEST(TracerTest, RingBufferWrapsAndCountsDrops) {
  auto& tracer = Tracer::global();
  tracer.enable(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ScopedSpan span("test", "wrap" + std::to_string(i));
    ids.push_back(span.id());
  }
  auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // Oldest two fell out; the survivors come back oldest first.
  EXPECT_EQ(spans[0].id, ids[2]);
  EXPECT_EQ(spans[3].id, ids[5]);
  tracer.disable();
}

TEST(TracerTest, ReenableDropsStraddlingSpans) {
  auto& tracer = Tracer::global();
  tracer.enable();
  {
    ScopedSpan span("test", "straddler");
    tracer.enable();  // new epoch while the span is open
  }                   // closes into the old epoch: dropped
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.disable();
}

TEST(TracerTest, TreeExporterIndentsChildren) {
  auto& tracer = Tracer::global();
  tracer.enable();
  {
    ScopedSpan outer("coupling", "checkout");
    { JFM_SPAN("vfs", "copy_file"); }
  }
  std::string tree = Tracer::to_tree(tracer.snapshot());
  EXPECT_NE(tree.find("[coupling] checkout"), std::string::npos);
  EXPECT_NE(tree.find("  [vfs] copy_file"), std::string::npos);
  // The child is indented under the root, not a root itself.
  EXPECT_EQ(tree.find("\n[vfs]"), std::string::npos);
  tracer.disable();
}

TEST(TracerTest, TreeExporterRendersOrphansAsRoots) {
  SpanRecord orphan;
  orphan.id = 99;
  orphan.parent = 42;  // never recorded
  orphan.subsystem = "jcf";
  orphan.name = "lonely";
  std::string tree = Tracer::to_tree({orphan});
  EXPECT_NE(tree.find("[jcf] lonely"), std::string::npos);
}

TEST(TracerTest, JsonExporterEmitsSpansAndDropCount) {
  auto& tracer = Tracer::global();
  tracer.enable();
  { JFM_SPAN("oms", "tx.commit"); }
  auto json = Tracer::to_json(tracer.snapshot(), tracer.dropped());
  EXPECT_NE(json.find("\"subsystem\":\"oms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tx.commit\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  tracer.disable();
}

TEST(TracerTest, ConcurrentSpansUnderTsan) {
  auto& tracer = Tracer::global();
  tracer.enable(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t]() {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan outer("test", "outer" + std::to_string(t));
        JFM_SPAN("test", "inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
  // Every recorded inner span must parent an outer span from its own thread.
  for (const auto& span : tracer.snapshot()) {
    if (span.name == "inner") EXPECT_NE(span.parent, 0u);
  }
  tracer.disable();
}

}  // namespace
}  // namespace jfm::support::telemetry
