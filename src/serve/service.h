// HullService — the in-process hull-serving front end.
//
//   submit(Request) -> std::future<Response>
//
// Architecture (DESIGN.md "Serving layer"):
//
//   submit ─admission─> small queue ─> `shards` workers ──┐ finish_batch:
//      │                               (batches)          ├─> expiry, run,
//      └─(points >= small_threshold)─> large queue ─>     │   stats, spans,
//                                      large worker ──────┘   promises
//                                      (batches of one)
//
// * Admission control happens on the caller's thread: a full queue or a
//   shut-down service answers immediately with a ready rejected future
//   — no request is ever silently dropped.
// * Every worker owns one pram::Machine (its shard) for the service's
//   whole lifetime and runs one loop: pop a batch (BoundedQueue::
//   pop_batch), then finish_batch. The small-lane workers pop under the
//   policy window and budgets; the large-lane worker pops batches of one
//   with no window, so a big query never sits behind a batch and a
//   batch never waits on a big query. Both lanes share the one finish
//   path.
// * shutdown(drain=true) closes admissions and drains: every admitted
//   request still executes. drain=false answers the backlog with
//   kRejectedShutdown instead. The destructor drains.
//
// Tracing: with ServiceConfig::trace set, every shard gets a
// trace::Recorder for the service's lifetime ("serve/request" phases,
// step timeline, space gauges — the same recorder the bench harness
// uses). Each PRAM run's phase spans are taken out of it right after
// the run and, with a flight recorder, published under the request's
// exec span. Only the shard's own worker drives it, so the recorder's
// no-locking contract holds; read them after shutdown().
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "exec/backend.h"
#include "exec/native_backend.h"
#include "obs/flight_recorder.h"
#include "pram/machine.h"
#include "serve/batcher.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "stats/stats.h"
#include "trace/recorder.h"

namespace iph::serve {

struct ServiceConfig {
  std::size_t queue_capacity = 1024;  ///< per queue (small and large).
  std::size_t shards = 2;             ///< small-lane workers (batch path).
  unsigned threads_per_shard = 0;     ///< 0 = support::env_threads().
  BatchPolicy batch;
  std::uint64_t master_seed = 0x19910722ULL;
  bool trace = false;  ///< attach a trace::Recorder per shard.
  /// Flight-recorder shape (obs/flight_recorder.h). Enabled by default:
  /// the recorder is designed to ride the hot path at near-zero cost
  /// (e14's obs-overhead claim gates that). With trace ALSO set, PRAM
  /// phase trees are linked into each request's span tree as child
  /// spans of its exec span.
  obs::ObsConfig obs;
  /// Engine that serves requests whose Request::backend is kDefault
  /// (exec/backend.h). kPram keeps the metered-simulator behavior this
  /// service shipped with; kNative routes defaulted requests to the
  /// thread-parallel fast path. A request naming a kind explicitly
  /// always wins over this. kDefault here is sanitized to kPram.
  exec::BackendKind backend = exec::BackendKind::kPram;
};

class HullService {
 public:
  explicit HullService(const ServiceConfig& cfg = {});
  ~HullService();  ///< shutdown(/*drain=*/true).

  HullService(const HullService&) = delete;
  HullService& operator=(const HullService&) = delete;

  /// Submit one request. Always yields exactly one Response through the
  /// future; rejections/expiries are ready immediately or answered by
  /// the draining worker. Requests without an id get a unique one
  /// (ids only seed the derived RNG stream; see request.h).
  std::future<Response> submit(Request req);

  /// Close admissions and join the workers. Idempotent, thread-safe
  /// against concurrent submit(): late submissions get
  /// kRejectedShutdown. drain=true executes the backlog; drain=false
  /// rejects it.
  void shutdown(bool drain = true);

  /// The service's metrics registry — its only counter set (serve/
  /// stats.h documents the instruments and the reconciliation
  /// invariants). Snapshot it any time; hullserved serves it as the
  /// `statz` wire command and hullload --scrape diffs it around a run.
  /// Counters are bumped strictly before the corresponding promise is
  /// fulfilled, so a client holding all its responses reads settled
  /// counters. The latency histograms record kOk requests only —
  /// server-side p99 is comparable to a client's ok-only percentile.
  stats::Registry& stats_registry() noexcept { return stats_registry_; }
  const stats::Registry& stats_registry() const noexcept {
    return stats_registry_;
  }

  /// Small-lane shard count; the large lane is shard index shard_count().
  std::size_t shard_count() const noexcept { return cfg_.shards; }
  /// Shard `i`'s recorder (the large shard is index shard_count()), or
  /// nullptr unless ServiceConfig::trace. Read after shutdown().
  const trace::Recorder* recorder(std::size_t i) const;

  /// The flight recorder (obs/flight_recorder.h), or nullptr when
  /// ServiceConfig::obs.enabled is false. Snapshot any time — the
  /// `tracez` wire command and --trace-out export read it live.
  obs::FlightRecorder* flight_recorder() noexcept { return flight_.get(); }
  const obs::FlightRecorder* flight_recorder() const noexcept {
    return flight_.get();
  }

 private:
  /// One worker's life: pop batches from its lane's queue and finish
  /// each on shard `shard`'s machine. shard == shard_count() is the
  /// large lane.
  void worker(std::size_t shard);
  void answer_rejection(Pending& p, Status status);
  void finish_batch(std::vector<Pending> batch, const BackendSet& backends,
                    std::size_t shard, Clock::time_point popped,
                    const char* tag);
  static std::future<Response> ready_response(Response r);
  /// Assemble + publish one completed request's span tree (no-op
  /// without a flight recorder). `phase_spans` are the request's run's
  /// spans, taken from the shard's recorder (BatchExecInfo).
  void publish_request_trace(
      const Request& req, const Response& resp, const char* tag,
      Clock::time_point enqueued, Clock::time_point popped,
      Clock::time_point started, Clock::time_point completed,
      std::uint64_t batch_size,
      const std::vector<trace::PhaseSpan>& phase_spans);

  ServiceConfig cfg_;
  // Registry before queues and workers: both hold bound instrument
  // pointers into it and touch them until the workers join, so the
  // registry must be destroyed after them (reverse declaration order).
  stats::Registry stats_registry_;
  ServeStats sstats_;
  // Flight recorder after the registry (it binds instruments into it)
  // and before the workers (they publish into it until they join).
  std::unique_ptr<obs::FlightRecorder> flight_;
  // One per shard (index shard_count() is the large lane) when
  // ServiceConfig::trace. Recorders before machines: machines are
  // destroyed first, so no machine outlives its observer.
  std::vector<std::unique_ptr<trace::Recorder>> recorders_;
  // One per shard; only the shard's own worker ever drives it.
  std::vector<std::unique_ptr<pram::Machine>> machines_;
  // The native engine is shared by every worker: NativeBackend::
  // upper_hull is safe to call concurrently (each call owns its own
  // buffers; the pool serializes fork-join rounds). PRAM execution is
  // per worker, on the machine the worker owns.
  exec::NativeBackend native_;
  BoundedQueue small_queue_;
  BoundedQueue large_queue_;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> closed_{false};
  std::atomic<bool> abandon_{false};  ///< drain=false shutdown.
  std::vector<std::thread> workers_;
  std::mutex shutdown_mu_;
  bool joined_ = false;
};

}  // namespace iph::serve
