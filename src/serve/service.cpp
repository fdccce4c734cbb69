#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "exec/pram_backend.h"
#include "support/check.h"
#include "support/env.h"

namespace iph::serve {

namespace {

ServiceConfig sanitize(ServiceConfig cfg) {
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  cfg.shards = std::max<std::size_t>(cfg.shards, 1);
  if (cfg.backend == exec::BackendKind::kDefault) {
    cfg.backend = exec::BackendKind::kPram;
  }
  if (cfg.obs.repro_dir.empty()) {
    cfg.obs.repro_dir = support::env_string("IPH_EXEC_REPRO_DIR", "");
  }
  return cfg;
}

std::uint64_t steady_ns(Clock::time_point tp) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// Write a tail-exemplar repro JSON in the exec_diff artifact shape
/// (family/n/seed/points, %.17g — tests/exec_diff_test.cpp replays any
/// .json in IPH_EXEC_REPRO_DIR through the full differential check, so
/// a pinned serving exemplar becomes a standing regression for free).
/// Returns the path, or empty on I/O failure.
std::string write_exemplar_repro(const std::string& dir,
                                 std::uint64_t trace_id,
                                 std::uint64_t seed,
                                 std::span<const geom::Point2> pts) {
  const std::string path =
      dir + "/serve_exemplar_" + obs::to_hex(trace_id) + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return std::string();
  std::fprintf(out,
               "{\"family\": \"serve\", \"n\": %zu, \"seed\": %llu,\n"
               " \"points\": [",
               pts.size(), static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::fprintf(out, "%s[%.17g, %.17g]", i == 0 ? "" : ", ", pts[i].x,
                 pts[i].y);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  return path;
}

}  // namespace

HullService::HullService(const ServiceConfig& cfg)
    : cfg_(sanitize(cfg)),
      sstats_(stats_registry_, cfg_.shards),
      native_(cfg_.threads_per_shard),
      small_queue_(cfg_.queue_capacity),
      large_queue_(cfg_.queue_capacity) {
  if (cfg_.obs.enabled) {
    flight_ =
        std::make_unique<obs::FlightRecorder>(cfg_.obs, stats_registry_);
  }
  small_queue_.bind_depth_gauge(&sstats_.small_depth);
  large_queue_.bind_depth_gauge(&sstats_.large_depth);
  // Shards 0..shards-1 are the small lane, shard `shards` the large one.
  // Every machine starts up here, before any worker runs: a thread
  // spawn while the first requests execute would slow them down.
  const std::size_t n = cfg_.shards + 1;
  machines_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    machines_.push_back(std::make_unique<pram::Machine>(
        cfg_.threads_per_shard, cfg_.master_seed));
    if (cfg_.trace) {
      recorders_.push_back(std::make_unique<trace::Recorder>());
      recorders_[i]->attach(*machines_[i]);
    }
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

HullService::~HullService() { shutdown(/*drain=*/true); }

std::future<Response> HullService::ready_response(Response r) {
  std::promise<Response> p;
  std::future<Response> f = p.get_future();
  p.set_value(std::move(r));
  return f;
}

std::future<Response> HullService::submit(Request req) {
  sstats_.submitted.inc();
  if (req.id == 0) {
    req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Adopt a caller-supplied trace id verbatim; stamp one otherwise so
  // every admitted request is traceable (context.h id semantics).
  if (flight_ != nullptr && !req.trace.has_id()) {
    req.trace.trace_id = flight_->stamp_trace_id();
  }
  const RequestId id = req.id;
  if (closed_.load(std::memory_order_acquire)) {
    sstats_.rejected_shutdown.inc();
    Response r;
    r.id = id;
    r.status = Status::kRejectedShutdown;
    r.trace = req.trace;
    return ready_response(std::move(r));
  }
  const bool large = req.points.size() >= cfg_.batch.small_threshold;
  BoundedQueue& q = large ? large_queue_ : small_queue_;

  Pending p;
  p.request = std::move(req);
  p.enqueued_at = Clock::now();
  std::future<Response> fut = p.promise.get_future();
  switch (q.push(p)) {
    case BoundedQueue::Admit::kOk:
      sstats_.accepted.inc();
      if (large) sstats_.large_requests.inc();
      return fut;
    case BoundedQueue::Admit::kFull:
      sstats_.rejected_full.inc();
      answer_rejection(p, Status::kRejectedFull);
      return fut;
    case BoundedQueue::Admit::kClosed:
      sstats_.rejected_shutdown.inc();
      answer_rejection(p, Status::kRejectedShutdown);
      return fut;
  }
  IPH_CHECK(false);  // unreachable
  return fut;
}

void HullService::answer_rejection(Pending& p, Status status) {
  Response r;
  r.id = p.request.id;
  r.status = status;
  r.trace = p.request.trace;
  p.promise.set_value(std::move(r));
}

void HullService::worker(std::size_t shard) {
  const bool large = shard == cfg_.shards;
  BoundedQueue& queue = large ? large_queue_ : small_queue_;
  const char* lane = large ? "large" : "small";

  exec::PramBackend pram_backend(*machines_[shard]);
  BackendSet backends;
  backends.pram = &pram_backend;
  backends.native = &native_;
  backends.service_default = cfg_.backend;
  backends.recorder = cfg_.trace ? recorders_[shard].get() : nullptr;
  // The exemplar repro writer reads a request's points after its run.
  backends.keep_points = flight_ != nullptr && !cfg_.obs.repro_dir.empty();

  Pending p;
  while (queue.pop(&p)) {  // false once closed and drained
    if (abandon_.load(std::memory_order_acquire)) {
      sstats_.rejected_shutdown.inc();
      answer_rejection(p, Status::kRejectedShutdown);
      continue;
    }
    finish(std::move(p), backends, shard, lane);
  }
}

void HullService::finish(Pending p, const BackendSet& backends,
                         std::size_t shard, const char* lane) {
  const Clock::time_point popped = Clock::now();
  Request& req = p.request;
  // Deadline expiry is detected here, at the pop: a request past its
  // deadline is answered kExpired without spending engine time on it.
  if (req.has_deadline() && req.deadline < popped) {
    sstats_.expired.inc();
    Response r;
    r.id = req.id;
    r.status = Status::kExpired;
    r.trace = req.trace;
    r.metrics.queue_wait_ms = ms_between(p.enqueued_at, popped);
    r.metrics.e2e_ms = r.metrics.queue_wait_ms;
    p.promise.set_value(std::move(r));
    return;
  }

  sstats_.shards_leased.add(1);
  Execution ex = execute(backends, req, cfg_.master_seed);
  sstats_.shards_leased.add(-1);
  Response& resp = ex.response;
  resp.metrics.shard = shard;
  resp.metrics.queue_wait_ms = ms_between(p.enqueued_at, popped);
  resp.metrics.e2e_ms = ms_between(p.enqueued_at, ex.completed_at);
  resp.trace = req.trace;

  // Stats strictly before the promise: a caller that has seen its
  // Response observes counters that already include it.
  sstats_.shard_busy_us[shard]->inc(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          ex.completed_at - popped)
          .count()));
  sstats_.completed.inc();
  sstats_.fold_pram(ex.pram);
  (resp.metrics.backend == exec::BackendKind::kNative
       ? sstats_.backend_native
       : sstats_.backend_pram)
      .inc();
  sstats_.queue_wait_ms.record(resp.metrics.queue_wait_ms);
  sstats_.exec_ms.record(resp.metrics.exec_ms);
  sstats_.e2e_ms.record(resp.metrics.e2e_ms);
  publish_request_trace(req, lane, p.enqueued_at, popped, ex);
  p.promise.set_value(std::move(resp));
}

void HullService::publish_request_trace(const Request& req, const char* lane,
                                        Clock::time_point enqueued,
                                        Clock::time_point popped,
                                        const Execution& ex) {
  if (flight_ == nullptr) return;
  const Response& resp = ex.response;
  obs::CompletedTrace t;
  t.trace_id = req.trace.trace_id;
  t.parent_span = req.trace.parent_span;
  t.request_id = req.id;
  t.status = status_name(resp.status);
  t.backend = exec::backend_name(resp.metrics.backend);
  t.tag = lane;
  t.e2e_ms = resp.metrics.e2e_ms;
  // The fixed 4-span tree (span.h reconciliation contract). The root's
  // parent is the caller's span when the wire supplied one. Workers own
  // their machines, so the lease span is zero-length at the pop stamp.
  t.spans.reserve(obs::kSpansPerRequest);
  t.spans.push_back({"request", obs::kRootSpanId, 0, steady_ns(enqueued),
                     steady_ns(ex.completed_at)});
  t.spans.push_back({"queue_wait", obs::kQueueWaitSpanId, obs::kRootSpanId,
                     steady_ns(enqueued), steady_ns(popped)});
  t.spans.push_back({"lease", obs::kLeaseSpanId, obs::kRootSpanId,
                     steady_ns(popped), steady_ns(popped)});
  t.spans.push_back({"exec", obs::kExecSpanId, obs::kRootSpanId,
                     steady_ns(ex.started_at), steady_ns(ex.completed_at)});
  t.phase_spans =
      obs::exec_phase_spans(ex.phase_spans, &t.phase_spans_truncated);
  // Tail exemplar about to be pinned: give it a standalone repro file
  // (native runs only — PRAM tails are explained by their linked phase
  // tree instead). Advisory check; the pin itself happens in publish.
  if (resp.metrics.backend == exec::BackendKind::kNative &&
      !cfg_.obs.repro_dir.empty() &&
      flight_->exemplar_bucket(t.e2e_ms) >= 0) {
    t.repro = write_exemplar_repro(cfg_.obs.repro_dir, t.trace_id,
                                   resp.metrics.seed, req.points);
  }
  flight_->publish(std::move(t));
}

void HullService::shutdown(bool drain) {
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  if (!joined_) {
    if (!drain) abandon_.store(true, std::memory_order_release);
    closed_.store(true, std::memory_order_release);
    small_queue_.close();
    large_queue_.close();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
}

const trace::Recorder* HullService::recorder(std::size_t i) const {
  return i < recorders_.size() ? recorders_[i].get() : nullptr;
}

}  // namespace iph::serve
