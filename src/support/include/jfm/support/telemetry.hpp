#pragma once
// jfm::support::telemetry: the process-wide observability layer.
//
// Two halves, both shared by every subsystem (oms, jcf, fmcad, vfs,
// coupling) so that one snapshot correlates a slow checkout with the
// OMS transactions, lock conflicts and file copies underneath it:
//
//   * a METRICS REGISTRY of named counters, gauges and fixed-bucket
//     histograms. The mutation fast path is lock-free (relaxed
//     atomics); the registry mutex is only taken to look a metric up
//     by name, and hot call sites cache the returned reference in a
//     function-local static (references stay valid forever -- the
//     registry never erases a metric).
//
//   * a structured TRACER: scoped spans with ids, parent links,
//     subsystem tags and wall-clock durations, recorded into a bounded
//     in-memory ring buffer when tracing is enabled. Disabled tracing
//     costs one relaxed atomic load per span site. Parent links follow
//     the call stack through a thread-local.
//
// Naming convention for metrics: subsystem.operation.unit, e.g.
// "coupling.transfer.export.count", "vfs.file.copy.bytes",
// "jcf.workspace.reserve.conflict.count". See docs/observability.md.
//
// Environment: JFM_TELEMETRY=trace (or "on"/"1") enables tracing at
// process start; anything else (or unset) leaves it off. Metrics are
// always collected -- they are passive atomics.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jfm::support::telemetry {

// ======================= metrics ==========================================

/// Monotonic event/byte counter. add() is lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value (open sessions, cache entries, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are ascending inclusive upper
/// bounds; one implicit overflow bucket catches everything above the
/// last bound. record() is lock-free (one atomic add per sample plus
/// count/sum bookkeeping).
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t value) noexcept;
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  std::vector<std::uint64_t> bounds_;  // immutable after construction
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1, overflow last
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// A point-in-time, isolated copy of every registered metric: later
/// mutations of the live registry do not affect a taken snapshot.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Machine-readable exporter: one JSON object with "counters",
  /// "gauges" and "histograms" members. Stable key order.
  std::string to_json() const;
  /// Human-readable exporter: an aligned text table. `prefix` filters
  /// to metrics whose name starts with it ("" = everything).
  std::string to_table(std::string_view prefix = {}) const;
};

class Registry {
 public:
  /// The process-wide registry every subsystem reports into.
  static Registry& global();

  /// Find-or-create by name. Returned references are stable for the
  /// process lifetime; cache them in hot paths:
  ///   static auto& c = Registry::global().counter("vfs.file.read.bytes");
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The bounds are fixed by whichever call registers the name first;
  /// later calls with different bounds get the existing histogram.
  Histogram& histogram(std::string_view name, const std::vector<std::uint64_t>& bounds);
  /// Histogram with the default latency bounds (microseconds, roughly
  /// logarithmic from 1us to 10s).
  Histogram& latency_histogram(std::string_view name);

  static const std::vector<std::uint64_t>& default_latency_bounds_us();

  MetricsSnapshot snapshot() const;
  /// Zero every registered metric (names stay registered).
  void reset();

 private:
  Registry() = default;

  mutable std::shared_mutex mu_;  // guards the maps only, never the values
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// ======================= tracing ==========================================

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::string subsystem;     ///< layer tag: oms / jcf / fmcad / tools / vfs / coupling
  std::string name;          ///< operation, e.g. "checkout_hierarchy"
  std::uint64_t start_us = 0;     ///< wall clock, us since tracing was enabled
  std::uint64_t duration_us = 0;  ///< wall-clock duration
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static Tracer& global();

  /// Start recording. Resets the buffer and the span clock.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void clear();

  /// Completed spans, oldest first. At most `capacity` entries; older
  /// spans fall out of the ring buffer (see dropped()).
  std::vector<SpanRecord> snapshot() const;
  std::uint64_t recorded() const noexcept { return recorded_.load(std::memory_order_relaxed); }
  /// Spans lost to ring-buffer wraparound since enable().
  std::uint64_t dropped() const;
  std::size_t capacity() const;

  /// Exporters over a snapshot (static so dumps can be post-processed).
  static std::string to_json(const std::vector<SpanRecord>& spans, std::uint64_t dropped = 0);
  /// Indented span tree; children are nested under their parent and
  /// ordered by start time. Orphans (parent fell out of the buffer or
  /// is still open) render as roots.
  static std::string to_tree(const std::vector<SpanRecord>& spans);

  // -- internals used by ScopedSpan (not part of the public surface) ------
  std::uint64_t next_id() noexcept { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }
  std::uint64_t now_us() const noexcept;
  std::uint64_t epoch() const noexcept { return epoch_.load(std::memory_order_relaxed); }
  void record(SpanRecord span, std::uint64_t epoch);

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> epoch_{0};  // bumped on enable(); stale spans are dropped
  std::atomic<std::int64_t> epoch_start_ns_{0};  // steady-clock origin of start_us
  mutable std::mutex mu_;                // guards ring_ / ring_next_
  std::vector<SpanRecord> ring_;
  std::size_t ring_capacity_ = kDefaultCapacity;
  std::size_t ring_next_ = 0;
};

/// RAII span. Construction opens the span (parent = the calling
/// thread's innermost open span); destruction records it into the
/// global tracer. When tracing is disabled, both ends are a single
/// relaxed atomic load.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view subsystem, std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off).
  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_us_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t saved_current_ = 0;
  bool active_ = false;
  std::string subsystem_;
  std::string name_;
};

/// The innermost open span id on this thread (0 = none).
std::uint64_t current_span_id() noexcept;

#define JFM_TELEMETRY_CONCAT2_(a, b) a##b
#define JFM_TELEMETRY_CONCAT_(a, b) JFM_TELEMETRY_CONCAT2_(a, b)
/// Open a span covering the rest of the enclosing scope.
#define JFM_SPAN(subsystem, name)                                      \
  ::jfm::support::telemetry::ScopedSpan JFM_TELEMETRY_CONCAT_(         \
      jfm_span_, __LINE__)((subsystem), (name))

}  // namespace jfm::support::telemetry
