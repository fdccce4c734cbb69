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
  cfg.batch.max_batch_requests =
      std::max<std::size_t>(cfg.batch.max_batch_requests, 1);
  cfg.batch.max_batch_points =
      std::max<std::size_t>(cfg.batch.max_batch_points, 1);
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
  // The large lane is a batch of one: a one-request budget and no
  // straggler window.
  const std::size_t max_requests =
      large ? 1 : cfg_.batch.max_batch_requests;
  const std::chrono::microseconds window =
      large ? std::chrono::microseconds(0) : cfg_.batch.window;

  exec::PramBackend pram_backend(*machines_[shard]);
  BackendSet backends;
  backends.pram = &pram_backend;
  backends.native = &native_;
  backends.service_default = cfg_.backend;
  backends.recorder = cfg_.trace ? recorders_[shard].get() : nullptr;
  // The exemplar repro writer reads a request's points after its run.
  backends.keep_points = flight_ != nullptr && !cfg_.obs.repro_dir.empty();

  for (;;) {
    BatchClose close = BatchClose::kWindow;
    std::vector<Pending> batch =
        queue.pop_batch(max_requests, cfg_.batch.max_batch_points, window,
                        &close);
    if (batch.empty()) return;  // closed and drained
    const Clock::time_point popped = Clock::now();
    if (abandon_.load(std::memory_order_acquire)) {
      for (Pending& p : batch) {
        sstats_.rejected_shutdown.inc();
        answer_rejection(p, Status::kRejectedShutdown);
      }
      continue;
    }
    switch (close) {
      case BatchClose::kWindow:
        sstats_.close_window.inc();
        break;
      case BatchClose::kRequests:
        sstats_.close_requests.inc();
        break;
      case BatchClose::kPoints:
        sstats_.close_points.inc();
        break;
      case BatchClose::kClosed:
        sstats_.close_closed.inc();
        break;
    }
    finish_batch(std::move(batch), backends, shard, popped,
                 large ? "large" : batch_close_name(close));
  }
}

void HullService::finish_batch(std::vector<Pending> batch,
                               const BackendSet& backends,
                               std::size_t shard, Clock::time_point popped,
                               const char* tag) {
  // Deadline expiry is detected here, at the pop: anything past its
  // deadline is answered kExpired without spending engine time on it.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.request.has_deadline() && p.request.deadline < popped) {
      sstats_.expired.inc();
      Response r;
      r.id = p.request.id;
      r.status = Status::kExpired;
      r.trace = p.request.trace;
      r.metrics.queue_wait_ms = ms_between(p.enqueued_at, popped);
      r.metrics.e2e_ms = r.metrics.queue_wait_ms;
      p.promise.set_value(std::move(r));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  std::vector<Request> reqs;
  reqs.reserve(live.size());
  for (Pending& p : live) reqs.push_back(std::move(p.request));

  sstats_.shards_leased.add(1);
  BatchExecInfo info;
  std::vector<Response> responses =
      execute_batch(backends, reqs, cfg_.master_seed, &info);
  sstats_.shards_leased.add(-1);
  IPH_CHECK(responses.size() == live.size());
  IPH_CHECK(info.completed_at.size() == live.size());
  IPH_CHECK(info.started_at.size() == live.size());
  IPH_CHECK(info.phase_spans.size() == live.size());

  // Stats strictly before the promise fan-out: a caller that has seen
  // its Response observes counters that already include it.
  sstats_.shard_busy_us[shard]->inc(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          info.completed_at.back() - popped)
          .count()));
  sstats_.batches.inc();
  sstats_.completed.inc(live.size());
  sstats_.batch_size.record(static_cast<double>(live.size()));
  sstats_.fold_pram(info.pram_total);
  sstats_.backend_pram.inc(info.pram_requests);
  sstats_.backend_native.inc(info.native_requests);
  for (std::size_t i = 0; i < live.size(); ++i) {
    responses[i].metrics.shard = shard;
    responses[i].metrics.queue_wait_ms =
        ms_between(live[i].enqueued_at, popped);
    // Each request's OWN completion stamp, not the batch tail's: the
    // requests ran back-to-back in one run, so e2e grows along the
    // batch and (e2e - queue_wait) is per-request.
    responses[i].metrics.e2e_ms =
        ms_between(live[i].enqueued_at, info.completed_at[i]);
    responses[i].trace = reqs[i].trace;
    sstats_.queue_wait_ms.record(responses[i].metrics.queue_wait_ms);
    sstats_.exec_ms.record(responses[i].metrics.exec_ms);
    sstats_.e2e_ms.record(responses[i].metrics.e2e_ms);
    publish_request_trace(reqs[i], responses[i], tag, live[i].enqueued_at,
                          popped, info.started_at[i], info.completed_at[i],
                          live.size(), info.phase_spans[i]);
    live[i].promise.set_value(std::move(responses[i]));
  }
}

void HullService::publish_request_trace(
    const Request& req, const Response& resp, const char* tag,
    Clock::time_point enqueued, Clock::time_point popped,
    Clock::time_point started, Clock::time_point completed,
    std::uint64_t batch_size,
    const std::vector<trace::PhaseSpan>& phase_spans) {
  if (flight_ == nullptr) return;
  obs::CompletedTrace t;
  t.trace_id = req.trace.trace_id;
  t.parent_span = req.trace.parent_span;
  t.request_id = req.id;
  t.status = status_name(resp.status);
  t.backend = exec::backend_name(resp.metrics.backend);
  t.tag = tag;
  t.batch_size = batch_size;
  t.e2e_ms = resp.metrics.e2e_ms;
  // The fixed 4-span tree (span.h reconciliation contract). The root's
  // parent is the caller's span when the wire supplied one. Workers own
  // their machines, so the lease span is zero-length at the pop stamp.
  t.spans.reserve(obs::kSpansPerRequest);
  t.spans.push_back({"request", obs::kRootSpanId, 0, steady_ns(enqueued),
                     steady_ns(completed)});
  t.spans.push_back({"queue_wait", obs::kQueueWaitSpanId, obs::kRootSpanId,
                     steady_ns(enqueued), steady_ns(popped)});
  t.spans.push_back({"lease", obs::kLeaseSpanId, obs::kRootSpanId,
                     steady_ns(popped), steady_ns(popped)});
  t.spans.push_back({"exec", obs::kExecSpanId, obs::kRootSpanId,
                     steady_ns(started), steady_ns(completed)});
  t.phase_spans =
      obs::exec_phase_spans(phase_spans, &t.phase_spans_truncated);
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
