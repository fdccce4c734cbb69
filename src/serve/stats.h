// Service-level metric bundle for iph::serve.
//
// ServeStats owns nothing: it registers the serving stack's instruments
// in a caller-provided stats::Registry (so a process embedding several
// services could share or separate registries) and hands out typed
// references. HullService constructs one over its own registry — the
// service's only counter set — and wires the pieces: the queues' depth
// gauges and its own admission, lane, occupancy and latency recording.
//
// Metric names are exported verbatim (Prometheus-style, labels baked in
// via stats::labeled) — statnames:: has the constants so the server,
// hullload --scrape, benchreport and the CI reconciliation checks never
// drift on spelling.
//
// Reconciliation invariants (asserted by tests, hullload --scrape and
// the CI serve-smoke job): every submit increments `submitted` exactly
// once, and exactly one of accepted/rejected{full|shutdown} — so
//   submitted == accepted + sum(rejected)
// and every accepted request terminates exactly once as completed,
// expired, or rejected{shutdown} (abandoned at shutdown):
//   accepted == completed + expired + rejected_at_shutdown_drain
// and every completed request ran on exactly one engine:
//   backend{pram} + backend{native} == completed
// Both lanes run the same one-request finish path, so these hold per
// lane. All counters are bumped BEFORE the corresponding promise is
// fulfilled; a client that has collected all its responses therefore
// always reads fully-settled counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pram/metrics.h"
#include "stats/stats.h"

namespace iph::serve {

namespace statnames {
inline constexpr const char* kSubmitted = "iph_serve_submitted_total";
inline constexpr const char* kAccepted = "iph_serve_accepted_total";
inline constexpr const char* kRejectedBase = "iph_serve_rejected_total";
inline constexpr const char* kExpired = "iph_serve_expired_total";
inline constexpr const char* kCompleted = "iph_serve_completed_total";
inline constexpr const char* kLargeRequests = "iph_serve_large_requests_total";
inline constexpr const char* kQueueDepthBase = "iph_serve_queue_depth";
inline constexpr const char* kShardsLeased = "iph_serve_shards_leased";
inline constexpr const char* kShardBusyBase = "iph_serve_shard_busy_us_total";
inline constexpr const char* kQueueWaitMs = "iph_serve_queue_wait_ms";
inline constexpr const char* kExecMs = "iph_serve_exec_ms";
inline constexpr const char* kE2eMs = "iph_serve_e2e_ms";
inline constexpr const char* kPramPrefix = "iph_serve_pram_";
/// Per-backend served-request counters, labeled backend=pram|native
/// (exec/backend.h names). pram + native == completed: every completed
/// request was served by exactly one engine.
inline constexpr const char* kBackendBase = "iph_serve_backend_requests_total";
}  // namespace statnames

/// Typed handles into a Registry for every serving instrument (see
/// statnames for the exported spellings). `shards` sizes the per-shard
/// busy counters of the small lane (labeled "0".."n-1"); one more
/// counter labeled "large" follows (index `shards`) for the large lane.
class ServeStats {
 public:
  ServeStats(stats::Registry& registry, std::size_t shards);

  // Admission and terminal-state counters.
  stats::Counter& submitted;
  stats::Counter& accepted;
  stats::Counter& rejected_full;
  stats::Counter& rejected_shutdown;
  stats::Counter& expired;
  stats::Counter& completed;

  // Requests admitted to the large lane.
  stats::Counter& large_requests;

  // Which execution engine served each completed request
  // (statnames::kBackendBase, labeled by backend name).
  stats::Counter& backend_pram;
  stats::Counter& backend_native;

  // Occupancy. `shards_leased` counts shards running a request right
  // now.
  stats::Gauge& small_depth;
  stats::Gauge& large_depth;
  stats::Gauge& shards_leased;

  // Latency.
  stats::Histogram& queue_wait_ms;
  stats::Histogram& exec_ms;
  stats::Histogram& e2e_ms;

  /// Busy-time counters (pop to completion of each executed request),
  /// one per shard index; "large" is the last.
  std::vector<stats::Counter*> shard_busy_us;

  /// Fold a finished run's PRAM counters into the registry's
  /// iph_serve_pram_*_total counters (pram::for_each_summable_counter
  /// defines the set — the registry tracks whatever Metrics exports,
  /// without this file naming each field).
  void fold_pram(const pram::Metrics& m) noexcept;

 private:
  std::vector<stats::Counter*> pram_counters_;
};

}  // namespace iph::serve
