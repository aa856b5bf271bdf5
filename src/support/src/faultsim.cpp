#include "jfm/support/faultsim.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::support::faultsim {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// SplitMix64 finalizer, same mixing as support::Rng. Feeding it
// (seed, site hash, ordinal) gives one well-distributed u64 per
// decision without any shared mutable state.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t site_hash(std::string_view site) noexcept {
  // FNV-1a; cheap and stable across platforms.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : site) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Pure decision function: does operation `ordinal` at `site` fail?
bool decide(std::uint64_t seed, std::uint64_t site_h, std::uint64_t ordinal, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t z =
      mix(seed ^ (site_h * 0x9E3779B97F4A7C15ull) ^ (ordinal * 0xBF58476D1CE4E5B9ull));
  return static_cast<double>(z >> 11) * 0x1.0p-53 < rate;
}

Result<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  if (text.empty()) return Result<std::uint64_t>::failure(Errc::invalid_argument, "empty number");
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Result<std::uint64_t>::failure(Errc::invalid_argument,
                                            "not a number: " + std::string(text));
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

std::atomic<bool> Injector::armed_{false};

Result<FaultPlan> parse_plan(std::string_view text) {
  using Fail = Result<FaultPlan>;
  FaultPlan plan;
  for (const auto& raw : split(text, ';')) {
    const std::string entry{trim(raw)};
    if (entry.empty()) continue;
    if (auto at = entry.find('@'); at != std::string::npos && entry.find('=') == std::string::npos) {
      // <site>@<n,m,...> : explicit ordinals
      const std::string site = entry.substr(0, at);
      if (site.empty()) return Fail::failure(Errc::invalid_argument, "missing site: " + entry);
      SiteSpec& spec = plan.sites[site];
      for (const auto& num : split(std::string_view(entry).substr(at + 1), ',')) {
        auto n = parse_u64(trim(num));
        if (!n.ok() || *n == 0) {
          return Fail::failure(Errc::invalid_argument,
                               "bad ordinal (1-based integer expected): " + entry);
        }
        spec.ordinals.push_back(*n);
      }
      std::sort(spec.ordinals.begin(), spec.ordinals.end());
      continue;
    }
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Fail::failure(Errc::invalid_argument, "expected <key>=<value>: " + entry);
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      auto seed = parse_u64(value);
      if (!seed.ok()) return Fail::failure(Errc::invalid_argument, "bad seed: " + entry);
      plan.seed = *seed;
      continue;
    }
    // <site>=<rate>
    char* end = nullptr;
    const double rate = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
      return Fail::failure(Errc::invalid_argument, "rate must be in [0,1]: " + entry);
    }
    plan.sites[key].rate = rate;
  }
  return plan;
}

Injector& Injector::global() {
  static Injector* instance = [] {
    auto* injector = new Injector();
    if (const char* env = std::getenv("JFM_FAULTS"); env != nullptr && *env != '\0') {
      auto plan = parse_plan(env);
      if (plan.ok() && !plan->empty()) injector->arm(std::move(*plan));
    }
    return injector;
  }();
  return *instance;
}

void Injector::arm(FaultPlan plan) {
  armed_.store(false, kRelaxed);  // quiesce the gate while we rebuild
  plan_ = std::move(plan);
  sites_.clear();
  for (const auto& [name, spec] : plan_.sites) {
    auto site = std::make_unique<Site>();
    site->spec = spec;
    sites_.emplace(name, std::move(site));
  }
  injected_.store(0, kRelaxed);
  evaluated_.store(0, kRelaxed);
  if (!sites_.empty()) armed_.store(true, kRelaxed);
}

void Injector::disarm() {
  // Same quiescence contract as arm(): callers disarm only when no
  // hook point is mid-check. Dropping the plan keeps seed() honest
  // ("0 when disarmed") and frees the site table.
  armed_.store(false, kRelaxed);
  plan_ = FaultPlan{};
  sites_.clear();
}

const Injector::Site* Injector::match(std::string_view site) const {
  if (auto it = sites_.find(site); it != sites_.end()) return it->second.get();
  // Prefix wildcards: "<prefix>*". Longest prefix wins.
  const Site* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [key, entry] : sites_) {
    if (key.empty() || key.back() != '*') continue;
    const std::string_view prefix = std::string_view(key).substr(0, key.size() - 1);
    if (site.substr(0, prefix.size()) == prefix && prefix.size() >= best_len) {
      best = entry.get();
      best_len = prefix.size();
    }
  }
  return best;
}

Status Injector::check(std::string_view site) {
  evaluated_.fetch_add(1, kRelaxed);
  namespace telemetry = support::telemetry;
  static auto& evaluations = telemetry::Registry::global().counter("faults.evaluated.count");
  evaluations.add(1);
  const Site* entry = match(site);
  if (entry == nullptr) return {};
  // Sites keep their own ordinal streams: concurrency decides who draws
  // which ordinal, never which ordinals fail.
  const std::uint64_t ordinal = entry->ops.fetch_add(1, kRelaxed) + 1;
  const bool scheduled =
      std::binary_search(entry->spec.ordinals.begin(), entry->spec.ordinals.end(), ordinal);
  if (!scheduled && !decide(plan_.seed, site_hash(site), ordinal, entry->spec.rate)) {
    return {};
  }
  entry->injected.fetch_add(1, kRelaxed);
  injected_.fetch_add(1, kRelaxed);
  static auto& total = telemetry::Registry::global().counter("faults.injected.count");
  total.add(1);
  telemetry::Registry::global().counter("faults.injected." + std::string(site)).add(1);
  return fail(Errc::io_error,
              "injected fault at " + std::string(site) + " (op #" + std::to_string(ordinal) + ")");
}

std::vector<std::pair<std::string, std::uint64_t>> Injector::injected_by_site() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(sites_.size());
  for (const auto& [name, entry] : sites_) {
    out.emplace_back(name, entry->injected.load(kRelaxed));
  }
  return out;
}

}  // namespace jfm::support::faultsim
