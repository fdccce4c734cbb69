// iph::stats — a low-overhead service-metrics registry.
//
// The serving stack (serve/, tools/hullserved, tools/hullload) needs an
// aggregate, exportable view of what the server actually did — rejects
// by reason, queue depth, batch shaping, latency distributions — so
// perf claims can be cross-checked against *server-side* counters
// instead of trusting the client's echo (bench/e14, CI serve-smoke).
//
// Three instrument kinds, all safe to record from any thread:
//   Counter    monotonic u64; relaxed fetch_add.
//   Gauge      signed level (queue depth, leased shards); relaxed.
//   Histogram  fixed upper-bound buckets (Prometheus `le` semantics:
//              bucket i counts values <= bounds[i], plus an implicit
//              +Inf overflow bucket), with exact total count and sum.
//
// Recording is lock-free (one relaxed RMW per event; a histogram adds a
// small binary search). Registration and snapshotting take the registry
// mutex — both are off the hot path. Relaxed ordering is deliberate:
// counters are statistically consistent, not sequenced against each
// other; the one cross-counter invariant the serving layer needs
// (counters include a request before its response is visible) is
// provided by the release/acquire edge of the promise fulfillment, not
// by the registry.
//
// Snapshot/diff: snapshot() captures every instrument by value;
// RegistrySnapshot::diff(earlier) subtracts counters and histogram
// buckets (a shrinking counter means the source was reset — the diff
// then takes the current value wholesale) and keeps gauges at their
// current level. Two exporters live in stats/export.h: Prometheus text
// exposition and the repo's trace::Json shape (ingested by
// tools/benchreport and served by hullserved's `statz` command).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace iph::stats {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Value-type capture of one histogram. `buckets` has bounds.size() + 1
/// entries; the last is the +Inf overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;

  /// Quantile estimate by linear interpolation inside the selected
  /// bucket (lower edge of bucket 0 is 0). Values landing in the +Inf
  /// bucket report the largest finite bound — the estimate saturates
  /// rather than invents. 0 when empty.
  double quantile(double q) const noexcept;

  /// Bucket-wise subtraction (see RegistrySnapshot::diff for the
  /// reset rule).
  HistogramSnapshot diff(const HistogramSnapshot& earlier) const;
};

class Histogram {
 public:
  /// `bounds` are strictly increasing finite upper bounds; an +Inf
  /// overflow bucket is implicit. An empty/unsorted spec is sanitized
  /// (sorted, deduplicated; empty means everything lands in +Inf).
  explicit Histogram(std::vector<double> bounds);

  void record(double v) noexcept;
  std::size_t bucket_count() const noexcept { return bounds_.size() + 1; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }

  HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Point-in-time capture of a whole registry, in registration order.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  const std::uint64_t* counter(std::string_view name) const noexcept;
  const std::int64_t* gauge(std::string_view name) const noexcept;
  const HistogramSnapshot* histogram(std::string_view name) const noexcept;
  /// counter(name) or 0 when absent — for reconciliation arithmetic.
  std::uint64_t counter_or0(std::string_view name) const noexcept {
    const std::uint64_t* c = counter(name);
    return c != nullptr ? *c : 0;
  }

  /// What happened between `earlier` and this snapshot: counters and
  /// histogram buckets subtract; a counter that went *backwards* means
  /// the source registry was reset between the snapshots, and the diff
  /// takes the current value wholesale (everything since the reset).
  /// Gauges are levels, not rates — they stay at their current value.
  /// Instruments absent from `earlier` diff against zero.
  RegistrySnapshot diff(const RegistrySnapshot& earlier) const;
};

/// Named instrument registry. Instruments are created on first use and
/// live as long as the registry; returned references are stable.
/// Calling counter()/gauge() again with the same name returns the same
/// instrument (histogram() too — the bounds of the first registration
/// win). Label convention: labels are baked into the name with
/// labeled(), e.g. `iph_serve_rejected_total{reason="full"}` — the
/// exporters understand that shape.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  RegistrySnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  // deques: push_back never relocates, so instrument references handed
  // out stay valid across later registrations.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
};

/// `base{label="value"}` — the one label shape the exporters know.
std::string labeled(std::string_view base, std::string_view label,
                    std::string_view value);

/// Fixed boundary ladders shared by the serving instrumentation (one
/// place, so server, client scrape, and benchreport agree on buckets).
std::vector<double> latency_bounds_ms();
std::vector<double> batch_size_bounds();

}  // namespace iph::stats
