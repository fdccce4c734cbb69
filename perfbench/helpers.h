// Statistics, schedule and result-line helpers of the benchmark's load
// generator (loadgen.cpp). Header-only and free of repository
// dependencies, so helpers_test.cpp checks them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64 step. Every input, schedule and shuffle the generator
/// makes comes from this, so one seed fixes all of them.
inline std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1).
inline double uniform01(std::uint64_t* state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// A seed for sub-stream (a, b) of `seed`.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b = 0) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xc2b2ae3d27d4eb4fULL);
  return splitmix64(&s);
}

/// Linearly interpolated percentile (p in [0, 100]); 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Quartiles by the rule of Python's statistics.quantiles(n=4) (the
/// default "exclusive" method), so the per-layer quartiles printed here
/// and the spreads run.py computes follow one definition.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t samples = 0;
};

/// The highest of the usual percentiles that has at least 10 samples
/// beyond it (a tail read from fewer samples is noise, not a tail).
inline Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (const std::size_t tenths : {999, 990, 950, 900, 750, 500}) {
    if (v.size() * (1000 - tenths) >= 10000) {  // >= 10 samples beyond
      t.pct = static_cast<double>(tenths) / 10.0;
      t.value = percentile(v, t.pct);
      return t;
    }
  }
  t.value = percentile(v, 50.0);
  t.pct = 50.0;
  return t;
}

/// Send offsets (seconds from the start) of `count` open-loop arrivals
/// over `duration_s`: a Poisson process conditioned on exactly `count`
/// arrivals, i.e. sorted uniform draws. Fixing the count keeps every
/// per-second figure independent of the seed; the gaps stay exponential.
inline std::vector<double> poisson_schedule(std::uint64_t seed,
                                            std::size_t count,
                                            double duration_s) {
  std::uint64_t s = seed;
  std::vector<double> t(count);
  for (double& x : t) x = uniform01(&s) * duration_s;
  std::sort(t.begin(), t.end());
  return t;
}

/// Split `total` into integer shares proportional to `weights` by
/// largest remainder; the shares sum to `total` exactly.
inline std::vector<std::size_t> stratified_counts(
    std::size_t total, const std::vector<double>& weights) {
  double sum = 0;
  for (const double w : weights) sum += w;
  std::vector<std::size_t> out(weights.size());
  std::vector<std::pair<double, std::size_t>> rem;
  std::size_t given = 0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const double exact = static_cast<double>(total) * weights[k] / sum;
    out[k] = static_cast<std::size_t>(std::floor(exact));
    given += out[k];
    rem.push_back({exact - std::floor(exact), k});
  }
  std::stable_sort(rem.begin(), rem.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; given < total; ++i, ++given) {
    ++out[rem[i % rem.size()].second];
  }
  return out;
}

/// counts[k] copies of k, in a seeded (Fisher-Yates) order.
inline std::vector<int> shuffled_plan(std::uint64_t seed,
                                      const std::vector<std::size_t>& counts) {
  std::vector<int> plan;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    plan.insert(plan.end(), counts[k], static_cast<int>(k));
  }
  std::uint64_t s = seed;
  for (std::size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[splitmix64(&s) % i]);
  }
  return plan;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line the benchmark prints last:
///   {"correct": .., "attempted": .., "failed": .., "metrics":
///    {"<name>": {"value": <v>, "unit": "<u>"}, ...}}
/// Values carry all 17 significant digits; names and units are plain
/// identifiers (no escaping needed). A non-finite value prints as -1,
/// which no metric can read, rather than as invalid JSON.
inline std::string result_line(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += i == 0 ? "\"" : ", \"";
    out += metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
