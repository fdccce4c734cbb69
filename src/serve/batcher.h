// The adaptive batcher: policy + batched hull execution.
//
// Small hull queries are dominated by per-run fixed costs, so the
// service coalesces the small requests that arrive within a window into
// ONE execution run on a worker's machine: the batch's backend executes
// the requests back-to-back, each over its own point span and under its
// derived seed, so every request replays exactly its solo execution and
// its hull indices refer to its own points. Requests at or above
// BatchPolicy::small_threshold points go to the large lane instead,
// which runs them as batches of one (service.h).
//
// Why back-to-back in one run rather than one merged simulation: the
// service promises batched results bit-identical to solo runs
// (request.h determinism contract), and a merged simulation would key
// every random draw on the batch composition. The throughput win of
// batching here is amortizing the pop, the bookkeeping and the
// thread-pool warmth over many tiny queries — measured in bench/e14.
//
// Execution is routed through the iph::exec::Backend seam: each request
// names a BackendKind (kDefault defers to the service default) and the
// batch dispatches per request to the matching engine in the BackendSet,
// through its in-place entry, handing it the request's own point vector:
// no per-batch or per-request copy (BackendSet::keep_points aside).
// The PRAM simulator remains the metered oracle; the native engine is
// the fast path and reports zero PRAM counters (exec/backend.h).
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <vector>

#include "exec/backend.h"
#include "pram/metrics.h"
#include "serve/request.h"
#include "trace/recorder.h"

namespace iph::serve {

struct BatchPolicy {
  /// Requests with >= this many points go to the large lane.
  std::size_t small_threshold = 2048;
  /// Budget per batch: requests, and total points — which bounds the
  /// work of one run.
  std::size_t max_batch_requests = 64;
  std::size_t max_batch_points = std::size_t{1} << 16;
  /// How long a dequeued batch waits for stragglers.
  std::chrono::microseconds window{200};
};

/// The engines one batch may dispatch to, plus the service-level
/// default that resolves a request's kDefault. Non-owning: each service
/// worker provides the PRAM adapter over its own machine, and all share
/// one long-lived native engine. `native` may be null (PRAM-only
/// deployments); a kNative request then falls back to the PRAM engine
/// rather than failing — the resolved kind in RequestMetrics::backend
/// records what actually ran.
struct BackendSet {
  exec::Backend* pram = nullptr;    ///< Required.
  exec::Backend* native = nullptr;  ///< Optional fast path.
  exec::BackendKind service_default = exec::BackendKind::kPram;
  /// When set, execute_batch takes each PRAM-resolved request's phase
  /// spans out of this recorder right after its run
  /// (BatchExecInfo::phase_spans), so the recorder holds no span past
  /// the request that made it. Must be the recorder observing the
  /// machine behind `pram`.
  trace::Recorder* recorder = nullptr;
  /// Every request runs through Backend::upper_hull_in_place, which the
  /// native engine answers by sorting the points it is given
  /// (exec/backend.h): the request's own, or, when this is set, a copy
  /// of them, so that they stay as they were. The service sets it when
  /// something reads a request's points after its run (the exemplar
  /// repro writer, obs::ObsConfig::repro_dir).
  bool keep_points = false;

  /// Resolve a request's requested kind to the engine that will run it.
  exec::Backend* resolve(exec::BackendKind want) const noexcept {
    exec::BackendKind k =
        want == exec::BackendKind::kDefault ? service_default : want;
    if (k == exec::BackendKind::kNative && native != nullptr) return native;
    return pram;
  }
};

/// Host-side accounting of one execute_batch call, for the caller's
/// latency/stats bookkeeping (none of it affects results).
struct BatchExecInfo {
  /// When request i's hull finished computing — parallel to the
  /// returned responses. The service derives each request's OWN e2e
  /// from this (batch-mates that ran earlier in the batch complete
  /// earlier); before this existed every batch-mate was stamped with
  /// the batch tail's end time.
  std::vector<Clock::time_point> completed_at;
  /// When request i's execution started on the backend — parallel to
  /// completed_at. [started_at[i], completed_at[i]) is request i's own
  /// exec span; the gap back to started_at[0] is its wait for earlier
  /// batch-mates in the same run.
  std::vector<Clock::time_point> started_at;
  /// Request i's PRAM phase spans, taken from BackendSet::recorder
  /// after its run (empty without a recorder, and for native-resolved
  /// requests, which bypass the simulator).
  std::vector<std::vector<trace::PhaseSpan>> phase_spans;
  /// Per-request pram::Metrics counters summed over the batch
  /// (Metrics::add_counters) — the machine itself is reset per request,
  /// so its own metrics afterwards are only the last request's. Native
  /// runs contribute zeros, keeping the simulator's exact reconciliation
  /// intact.
  pram::Metrics pram_total;
  /// How many of the batch's requests each engine served (sums to the
  /// batch size) — feeds the backend-labeled serve counters.
  std::uint64_t pram_requests = 0;
  std::uint64_t native_requests = 0;
};

/// Execute `requests` as one batch through `backends` (see file
/// comment) and return one Response per request, in order. Fills the
/// deterministic RequestMetrics fields plus exec_ms, batch_size and the
/// resolved backend; queue/e2e timing and shard id belong to the caller
/// (per-request completion stamps for that are in `info` when
/// non-null). The batch consumes its requests: unless
/// BackendSet::keep_points is set, each request's points are
/// unspecified afterwards; its other fields stay as they were.
std::vector<Response> execute_batch(const BackendSet& backends,
                                    std::span<Request> requests,
                                    std::uint64_t master_seed,
                                    BatchExecInfo* info = nullptr);

}  // namespace iph::serve
