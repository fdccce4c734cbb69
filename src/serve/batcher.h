// Request execution: the lane policy and one request's run.
//
// Every service worker owns a pre-warmed pram::Machine, so a request
// pays no machine build; a worker pops ONE request and runs it alone,
// under its derived seed, over its own points. Requests at or above
// BatchPolicy::small_threshold points go to the large lane, so a big
// query never delays a small one (service.h).
//
// Execution is routed through the iph::exec::Backend seam: each request
// names a BackendKind (kDefault defers to the service default) and
// execute() dispatches to the matching engine in the BackendSet,
// through its in-place entry, handing it the request's own point
// vector: no copy (BackendSet::keep_points aside). The PRAM simulator
// remains the metered oracle; the native engine is the fast path and
// reports zero PRAM counters (exec/backend.h).
//
// The file and BatchPolicy keep their names from the batching service
// this replaced: the benchmark package spells them.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "exec/backend.h"
#include "pram/metrics.h"
#include "serve/request.h"
#include "trace/recorder.h"

namespace iph::serve {

struct BatchPolicy {
  /// Requests with >= this many points go to the large lane.
  std::size_t small_threshold = 2048;
  /// Read by nothing: requests are popped one at a time and never wait
  /// for others. Kept declared only because the benchmark package's
  /// service ladder assigns it; it goes when that ladder step does.
  std::chrono::microseconds window{200};
};

/// The engines a worker may dispatch to, plus the service-level default
/// that resolves a request's kDefault. Non-owning: each service worker
/// provides the PRAM adapter over its own machine, and all share one
/// long-lived native engine. `native` may be null (PRAM-only
/// deployments); a kNative request then falls back to the PRAM engine
/// rather than failing — the resolved kind in RequestMetrics::backend
/// records what actually ran.
struct BackendSet {
  exec::Backend* pram = nullptr;    ///< Required.
  exec::Backend* native = nullptr;  ///< Optional fast path.
  exec::BackendKind service_default = exec::BackendKind::kPram;
  /// When set, execute() takes a PRAM-resolved request's phase spans
  /// out of this recorder right after its run (Execution::phase_spans),
  /// so the recorder holds no span past the request that made it. Must
  /// be the recorder observing the machine behind `pram`.
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

/// One request's run, with the host-side accounting its caller needs
/// for latency, stats and spans (none of it affects the result).
struct Execution {
  /// Deterministic RequestMetrics fields plus exec_ms, batch_size (1)
  /// and the resolved backend; queue/e2e timing, shard and trace
  /// belong to the caller.
  Response response;
  /// [started_at, completed_at) is the request's exec span.
  Clock::time_point started_at;
  Clock::time_point completed_at;
  /// The run's PRAM phase spans, taken from BackendSet::recorder (empty
  /// without a recorder, and for native runs, which bypass the
  /// simulator).
  std::vector<trace::PhaseSpan> phase_spans;
  /// The run's full pram::Metrics counters, for the service's folded
  /// iph_serve_pram_* totals. Zeros for a native run.
  pram::Metrics pram;
};

/// Run `request` through `backends` (see file comment) under
/// derive_request_seed(master_seed, request.id). The run consumes the
/// request's points: unless BackendSet::keep_points is set, they are
/// unspecified afterwards; its other fields stay as they were.
Execution execute(const BackendSet& backends, Request& request,
                  std::uint64_t master_seed);

}  // namespace iph::serve
