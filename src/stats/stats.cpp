#include "stats/stats.h"

#include <algorithm>
#include <cmath>

namespace iph::stats {

namespace {

// CAS add keeps the double sum portable (atomic<double>::fetch_add is
// C++20 but not universally lowered); relaxed is fine — see header.
void add_double(std::atomic<double>& a, double d) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t before = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) >= target && buckets[i] > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i]
                                          : (bounds.empty() ? 0.0 : bounds.back());
      if (i >= bounds.size()) return hi;  // +Inf bucket: saturate.
      const double frac =
          (target - static_cast<double>(before)) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

HistogramSnapshot HistogramSnapshot::diff(const HistogramSnapshot& earlier) const {
  // Mismatched shapes or a shrinking count mean the source was swapped
  // or reset — current values already are "everything since".
  if (earlier.bounds != bounds || earlier.buckets.size() != buckets.size() ||
      earlier.count > count) {
    return *this;
  }
  HistogramSnapshot d;
  d.bounds = bounds;
  d.buckets.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (earlier.buckets[i] > buckets[i]) return *this;
    d.buckets[i] = buckets[i] - earlier.buckets[i];
  }
  d.count = count - earlier.count;
  d.sum = sum - earlier.sum;
  return d;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  bounds_.erase(std::remove_if(bounds_.begin(), bounds_.end(),
                               [](double b) { return !std::isfinite(b); }),
                bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::record(double v) noexcept {
  // First bound >= v, i.e. the Prometheus `le` bucket; past-the-end is
  // the +Inf overflow slot.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_double(sum_, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

const std::uint64_t* RegistrySnapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const std::int64_t* RegistrySnapshot::gauge(std::string_view name) const noexcept {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramSnapshot* RegistrySnapshot::histogram(
    std::string_view name) const noexcept {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

RegistrySnapshot RegistrySnapshot::diff(const RegistrySnapshot& earlier) const {
  RegistrySnapshot d;
  d.counters.reserve(counters.size());
  for (const auto& [name, now] : counters) {
    const std::uint64_t* prev = earlier.counter(name);
    const std::uint64_t base = (prev != nullptr && *prev <= now) ? *prev : 0;
    d.counters.emplace_back(name, now - base);
  }
  d.gauges = gauges;
  d.histograms.reserve(histograms.size());
  for (const auto& [name, now] : histograms) {
    const HistogramSnapshot* prev = earlier.histogram(name);
    d.histograms.emplace_back(name, prev != nullptr ? now.diff(*prev) : now);
  }
  return d;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c;
  }
  counters_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name), std::forward_as_tuple());
  return counters_.back().second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, g] : gauges_) {
    if (n == name) return g;
  }
  gauges_.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                       std::forward_as_tuple());
  return gauges_.back().second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return h;
  }
  histograms_.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                           std::forward_as_tuple(std::move(bounds)));
  return histograms_.back().second;
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [n, c] : counters_) s.counters.emplace_back(n, c.value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [n, g] : gauges_) s.gauges.emplace_back(n, g.value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [n, h] : histograms_) s.histograms.emplace_back(n, h.snapshot());
  return s;
}

std::string labeled(std::string_view base, std::string_view label,
                    std::string_view value) {
  std::string out;
  out.reserve(base.size() + label.size() + value.size() + 5);
  out.append(base);
  out.push_back('{');
  out.append(label);
  out.append("=\"");
  out.append(value);
  out.append("\"}");
  return out;
}

std::vector<double> latency_bounds_ms() {
  return {0.05, 0.1, 0.25, 0.5, 1.0,   2.5,   5.0,   10.0,
          25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0};
}

std::vector<double> batch_size_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
}

}  // namespace iph::stats
