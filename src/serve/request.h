// iph::serve — request/response vocabulary of the hull service.
//
// A Request is one 2-d upper-hull query: a point set, the paper's alpha
// knob, and an optional deadline. The service answers with a Response
// carrying the hull in the paper's output convention plus the
// per-request serving metrics (queue wait, batch size, PRAM steps/work,
// end-to-end latency) that feed the latency/throughput harness.
//
// Determinism contract: the randomized-CRCW seed a request executes
// under is derive_request_seed(master, id) — a splitmix of the service's
// master seed and the request id — so a request's result is a pure
// function of (points, id, alpha, master seed). In particular it does
// NOT depend on arrival order, on which shard ran it, or on which other
// requests were coalesced into the same batch: a batched run is
// bit-identical to a solo run of the same request (determinism_test
// locks this in).
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "exec/backend.h"
#include "geom/hull_types.h"
#include "geom/point.h"
#include "obs/context.h"
#include "support/rng.h"

namespace iph::serve {

using Clock = std::chrono::steady_clock;
using RequestId = std::uint64_t;

/// Milliseconds from `from` to `to` — THE timestamp-diff helper for the
/// serving stack. service.cpp, batcher.cpp and tools/hullload all used
/// to hand-roll this cast; keep new sites pointed here so every latency
/// number in the stack is computed the same way.
inline double ms_between(Clock::time_point from, Clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Terminal state of a request. Every submitted request gets exactly one
/// Response; rejections and expiries are Responses too, never silence.
enum class Status : std::uint8_t {
  kOk,                ///< Executed; hull and metrics are valid.
  kRejectedFull,      ///< Admission control: queue at capacity.
  kRejectedShutdown,  ///< Submitted after (or abandoned by) shutdown.
  kExpired,           ///< Deadline passed while waiting in the queue.
};

constexpr const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kRejectedFull:
      return "rejected_full";
    case Status::kRejectedShutdown:
      return "rejected_shutdown";
    case Status::kExpired:
      return "expired";
  }
  return "?";
}

/// The randomized-CRCW seed request `id` executes under, given the
/// service's master seed (splitmix mixing, support/rng.h).
constexpr std::uint64_t derive_request_seed(std::uint64_t master_seed,
                                            RequestId id) noexcept {
  return support::mix3(master_seed, 0x73657276ULL /* "serv" */, id);
}

struct Request {
  RequestId id = 0;
  std::vector<geom::Point2> points;
  int alpha = 8;  ///< in-place-bridge round budget (core/api Options).
  /// Which execution engine runs this request (exec/backend.h):
  /// kDefault defers to ServiceConfig::backend. The determinism
  /// contract above is per-backend — each backend is deterministic in
  /// (points, id, alpha, master seed), but the two engines' hulls agree
  /// only up to duplicate-point index choice (backend.h semantics
  /// contract; the differential suite holds them to it).
  exec::BackendKind backend = exec::BackendKind::kDefault;
  /// Ask for the per-point edge-above array (n entries; the wire field
  /// "edge_above"). Only an asked-for array is guaranteed: the native
  /// engine leaves Response::hull.edge_above empty otherwise, the PRAM
  /// engine fills it either way (exec/backend.h).
  bool edge_above = false;
  /// Absolute deadline; default-constructed = none. A request found
  /// past its deadline at dequeue time is answered kExpired without
  /// executing (expiry is detected at dequeue, not by a timer).
  Clock::time_point deadline{};

  /// Tracing identity (obs/context.h). Unset (trace_id == 0) means the
  /// service stamps one at submit; a caller-supplied id is adopted
  /// verbatim and its parent_span becomes the root span's parent.
  obs::TraceContext trace;

  bool has_deadline() const noexcept {
    return deadline != Clock::time_point{};
  }
};

/// Per-request serving metrics. The PRAM counters (steps/work/
/// max_active, seed) are pure functions of the request; the wall-clock
/// fields are not.
struct RequestMetrics {
  double queue_wait_ms = 0;  ///< submit -> popped by a worker.
  double exec_ms = 0;        ///< PRAM run wall-clock.
  /// submit -> THIS request's result computed. Per-request, not
  /// batch-end: batch-mates that executed earlier in the batch report
  /// smaller e2e, so (e2e - queue_wait) is this request's own service
  /// time plus its wait for earlier batch-mates.
  double e2e_ms = 0;
  std::uint64_t batch_size = 0;  ///< Requests coalesced into the run.
  /// The worker shard that ran it (HullService::shard_count() is the
  /// large lane).
  std::uint64_t shard = 0;
  std::uint64_t seed = 0;        ///< derive_request_seed(master, id).
  std::uint64_t steps = 0;       ///< PRAM time of this request alone.
  std::uint64_t work = 0;        ///< PRAM work of this request alone.
  std::uint64_t max_active = 0;  ///< Peak processors of this request.
  /// The engine that actually ran it — always resolved (kPram or
  /// kNative, never kDefault). Native runs report zero PRAM counters
  /// above (exec/backend.h cost-metric contract).
  exec::BackendKind backend = exec::BackendKind::kPram;
};

struct Response {
  RequestId id = 0;
  Status status = Status::kOk;
  /// Valid iff status == kOk; hull.edge_above only if the request asked
  /// for it (Request::edge_above).
  geom::HullResult2D hull;
  RequestMetrics metrics;
  /// The trace identity the request ran under (caller's id adopted
  /// verbatim, or the one the service stamped). Echoed on the wire so
  /// clients can join their latency tallies to server-side tracez.
  obs::TraceContext trace;
};

}  // namespace iph::serve
