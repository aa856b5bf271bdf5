#include "jfm/support/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

namespace jfm::support::telemetry {

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local std::uint64_t t_current_span = 0;

}  // namespace

// ======================= Histogram ========================================

Histogram::Histogram(std::vector<std::uint64_t> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(std::uint64_t value) noexcept {
  // First bucket whose inclusive upper bound admits the value; the
  // overflow bucket is bounds_.size().
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ======================= MetricsSnapshot ==================================

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ",") << '"' << json_escape(name) << "\":" << value;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "" : ",") << '"' << json_escape(name) << "\":" << value;
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out << (first ? "" : ",") << '"' << json_escape(name) << "\":{\"count\":" << hist.count
        << ",\"sum\":" << hist.sum << ",\"bounds\":[";
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      out << (i == 0 ? "" : ",") << hist.bounds[i];
    }
    out << "],\"buckets\":[";
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      out << (i == 0 ? "" : ",") << hist.buckets[i];
    }
    out << "]}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string MetricsSnapshot::to_table(std::string_view prefix) const {
  std::size_t width = 0;
  auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  for (const auto& [name, value] : counters) {
    if (matches(name)) width = std::max(width, name.size());
  }
  for (const auto& [name, value] : gauges) {
    if (matches(name)) width = std::max(width, name.size());
  }
  for (const auto& [name, hist] : histograms) {
    if (matches(name)) width = std::max(width, name.size());
  }
  std::ostringstream out;
  auto pad = [&](const std::string& name) {
    out << "  " << name << std::string(width - name.size() + 2, ' ');
  };
  for (const auto& [name, value] : counters) {
    if (!matches(name)) continue;
    pad(name);
    out << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    if (!matches(name)) continue;
    pad(name);
    out << value << '\n';
  }
  for (const auto& [name, hist] : histograms) {
    if (!matches(name)) continue;
    pad(name);
    const std::uint64_t avg = hist.count == 0 ? 0 : hist.sum / hist.count;
    out << "count=" << hist.count << " sum=" << hist.sum << " avg=" << avg << '\n';
  }
  return out.str();
}

// ======================= Registry =========================================

Registry& Registry::global() {
  // Leaked on purpose: instrumented code may run during static
  // destruction; an immortal registry can never be used after free.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               const std::vector<std::uint64_t>& bounds) {
  {
    std::shared_lock lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  return histograms_.try_emplace(std::string(name), bounds).first->second;
}

Histogram& Registry::latency_histogram(std::string_view name) {
  return histogram(name, default_latency_bounds_us());
}

const std::vector<std::uint64_t>& Registry::default_latency_bounds_us() {
  // 1-2-5 decades from 1us to 10s: fine enough for the copy-dominated
  // transfer path, coarse enough for 16 fixed buckets.
  static const std::vector<std::uint64_t> kBounds = {
      1,    2,     5,     10,     20,     50,      100,     200,
      500,  1000,  2000,  5000,   10000,  100000,  1000000, 10000000};
  return kBounds;
}

MetricsSnapshot Registry::snapshot() const {
  std::shared_lock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) snap.counters[name] = counter.value();
  for (const auto& [name, gauge] : gauges_) snap.gauges[name] = gauge.value();
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.bounds = hist.bounds();
    h.buckets = hist.bucket_counts();
    h.count = hist.count();
    h.sum = hist.sum();
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

void Registry::reset() {
  std::unique_lock lock(mu_);
  for (auto& [name, counter] : counters_) counter.reset();
  for (auto& [name, gauge] : gauges_) gauge.reset();
  for (auto& [name, hist] : histograms_) hist.reset();
}

// ======================= Tracer ===========================================

Tracer::Tracer() {
  const char* env = std::getenv("JFM_TELEMETRY");
  if (env != nullptr) {
    const std::string value(env);
    if (value == "trace" || value == "on" || value == "1") enable();
  }
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // immortal, like the registry
  return *instance;
}

void Tracer::enable(std::size_t capacity) {
  std::lock_guard lock(mu_);
  ring_.clear();
  ring_capacity_ = capacity == 0 ? 1 : capacity;
  ring_.reserve(std::min<std::size_t>(ring_capacity_, 1024));
  ring_next_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
  epoch_start_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  ring_next_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_us() const noexcept {
  const std::int64_t origin = epoch_start_ns_.load(std::memory_order_relaxed);
  return static_cast<std::uint64_t>(std::max<std::int64_t>(0, steady_now_ns() - origin) / 1000);
}

void Tracer::record(SpanRecord span, std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (epoch != epoch_.load(std::memory_order_relaxed)) return;  // span pre-dates enable()
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[ring_next_] = std::move(span);
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // ring_next_ is the oldest entry once the buffer has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  const std::uint64_t total = recorded_.load(std::memory_order_relaxed);
  return total > ring_.size() ? total - ring_.size() : 0;
}

std::size_t Tracer::capacity() const {
  std::lock_guard lock(mu_);
  return ring_capacity_;
}

std::string Tracer::to_json(const std::vector<SpanRecord>& spans, std::uint64_t dropped) {
  std::ostringstream out;
  out << "{\"dropped\":" << dropped << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"subsystem\":\"" << json_escape(s.subsystem) << "\",\"name\":\""
        << json_escape(s.name) << "\",\"start_us\":" << s.start_us
        << ",\"duration_us\":" << s.duration_us << '}';
  }
  out << "]}";
  return out.str();
}

std::string Tracer::to_tree(const std::vector<SpanRecord>& spans) {
  // Index spans and group children under their parent, start-ordered.
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const auto& span : spans) {
    if (span.parent != 0 && by_id.contains(span.parent)) {
      children[span.parent].push_back(&span);
    } else {
      roots.push_back(&span);  // true root, or orphaned by wraparound
    }
  }
  auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us : a->id < b->id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) std::sort(kids.begin(), kids.end(), by_start);

  std::ostringstream out;
  // Iterative DFS so a deep hierarchy cannot overflow the stack.
  std::vector<std::pair<const SpanRecord*, std::size_t>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) stack.emplace_back(*it, 0);
  while (!stack.empty()) {
    auto [span, depth] = stack.back();
    stack.pop_back();
    out << std::string(2 * depth, ' ') << '[' << span->subsystem << "] " << span->name
        << "  +" << span->start_us << "us " << span->duration_us << "us\n";
    auto kid_it = children.find(span->id);
    if (kid_it != children.end()) {
      for (auto it = kid_it->second.rbegin(); it != kid_it->second.rend(); ++it) {
        stack.emplace_back(*it, depth + 1);
      }
    }
  }
  return out.str();
}

// ======================= ScopedSpan =======================================

std::uint64_t current_span_id() noexcept { return t_current_span; }

ScopedSpan::ScopedSpan(std::string_view subsystem, std::string_view name) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;  // one relaxed load: the disabled fast path
  active_ = true;
  id_ = tracer.next_id();
  parent_ = t_current_span;
  epoch_ = tracer.epoch();
  start_us_ = tracer.now_us();
  subsystem_ = subsystem;
  name_ = name;
  saved_current_ = t_current_span;
  t_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  t_current_span = saved_current_;
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;  // disabled mid-span: drop silently
  SpanRecord span;
  span.id = id_;
  span.parent = parent_;
  span.subsystem = std::move(subsystem_);
  span.name = std::move(name_);
  span.start_us = start_us_;
  const std::uint64_t end_us = tracer.now_us();
  span.duration_us = end_us > start_us_ ? end_us - start_us_ : 0;
  tracer.record(std::move(span), epoch_);
}

}  // namespace jfm::support::telemetry
