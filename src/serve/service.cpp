#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "exec/pram_backend.h"
#include "obs/phase_link.h"
#include "support/check.h"
#include "support/env.h"

namespace iph::serve {

namespace {

ServiceConfig sanitize(ServiceConfig cfg) {
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  cfg.shards = std::max<std::size_t>(cfg.shards, 1);
  cfg.workers = std::max<std::size_t>(cfg.workers, 1);
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
      sstats_(stats_registry_, cfg_.shards, cfg_.large_shard),
      native_(cfg_.threads_per_shard),
      pool_(cfg_.shards, cfg_.threads_per_shard, cfg_.master_seed),
      small_queue_(cfg_.queue_capacity),
      large_queue_(cfg_.queue_capacity) {
  if (cfg_.obs.enabled) {
    flight_ =
        std::make_unique<obs::FlightRecorder>(cfg_.obs, stats_registry_);
  }
  small_queue_.bind_depth_gauge(&sstats_.small_depth);
  large_queue_.bind_depth_gauge(&sstats_.large_depth);
  // The pool meters the batch shards; the dedicated large shard (index
  // pool_.size()) is metered by large_worker directly.
  pool_.bind_stats(&sstats_.shards_leased,
                   {sstats_.shard_busy_us.begin(),
                    sstats_.shard_busy_us.begin() +
                        static_cast<std::ptrdiff_t>(cfg_.shards)});
  if (cfg_.large_shard) {
    large_machine_ = std::make_unique<pram::Machine>(
        cfg_.threads_per_shard, cfg_.master_seed);
  }
  if (cfg_.batch.grain != 0) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      pool_.machine(i).set_grain(cfg_.batch.grain);
    }
    if (large_machine_) large_machine_->set_grain(cfg_.batch.grain);
  }
  if (cfg_.trace) {
    const std::size_t n = pool_.size() + (large_machine_ ? 1 : 0);
    recorders_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      recorders_.push_back(std::make_unique<trace::Recorder>());
    }
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      recorders_[i]->attach(pool_.machine(i));
    }
    if (large_machine_) recorders_.back()->attach(*large_machine_);
  }
  workers_.reserve(cfg_.workers + (large_machine_ ? 1 : 0));
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { batch_worker(); });
  }
  if (large_machine_) {
    workers_.emplace_back([this] { large_worker(); });
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
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
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
    stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    sstats_.rejected_shutdown.inc();
    Response r;
    r.id = id;
    r.status = Status::kRejectedShutdown;
    r.trace = req.trace;
    return ready_response(std::move(r));
  }
  const bool large = large_machine_ != nullptr &&
                     req.points.size() >= cfg_.batch.small_threshold;
  BoundedQueue& q = large ? large_queue_ : small_queue_;

  Pending p;
  p.request = std::move(req);
  p.enqueued_at = Clock::now();
  std::future<Response> fut = p.promise.get_future();
  switch (q.push(p)) {
    case BoundedQueue::Admit::kOk:
      sstats_.accepted.inc();
      if (large) {
        stats_.large_requests.fetch_add(1, std::memory_order_relaxed);
        sstats_.large_requests.inc();
      }
      return fut;
    case BoundedQueue::Admit::kFull: {
      stats_.rejected_full.fetch_add(1, std::memory_order_relaxed);
      sstats_.rejected_full.inc();
      answer_rejection(p, Status::kRejectedFull);
      return fut;
    }
    case BoundedQueue::Admit::kClosed: {
      stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
      sstats_.rejected_shutdown.inc();
      answer_rejection(p, Status::kRejectedShutdown);
      return fut;
    }
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

void HullService::batch_worker() {
  for (;;) {
    BatchClose close = BatchClose::kWindow;
    std::vector<Pending> batch =
        small_queue_.pop_batch(cfg_.batch.max_batch_requests,
                               cfg_.batch.max_batch_points,
                               cfg_.batch.window, &close);
    if (batch.empty()) return;  // closed and drained
    // Popped vs leased: the queue_wait span ends here, the lease span
    // covers the pool acquire below (metrics keep the original
    // submit -> post-lease definition of queue_wait_ms; the spans give
    // the finer attribution).
    const Clock::time_point popped = Clock::now();
    if (abandon_.load(std::memory_order_acquire)) {
      for (Pending& p : batch) {
        stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
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
    finish_batch(std::move(batch), pool_.acquire(), popped,
                 batch_close_name(close));
  }
}

void HullService::finish_batch(std::vector<Pending> batch,
                               MachinePool::Lease lease,
                               Clock::time_point popped,
                               const char* close_tag) {
  const Clock::time_point dequeued = Clock::now();  // lease granted

  // Deadline expiry is detected here, at dequeue: anything past its
  // deadline is answered kExpired without spending PRAM time on it.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.request.has_deadline() && p.request.deadline < dequeued) {
      stats_.expired.fetch_add(1, std::memory_order_relaxed);
      sstats_.expired.inc();
      Response r;
      r.id = p.request.id;
      r.status = Status::kExpired;
      r.trace = p.request.trace;
      r.metrics.queue_wait_ms = ms_between(p.enqueued_at, dequeued);
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

  exec::PramBackend pram_backend(lease.machine());
  BackendSet backends;
  backends.pram = &pram_backend;
  backends.native = &native_;
  backends.service_default = cfg_.backend;
  const trace::Recorder* rec =
      cfg_.trace && flight_ != nullptr && lease.shard() < recorders_.size()
          ? recorders_[lease.shard()].get()
          : nullptr;
  backends.recorder = rec;
  BatchExecInfo info;
  std::vector<Response> responses =
      execute_batch(backends, reqs, cfg_.master_seed, &info);
  const std::size_t shard = lease.shard();
  // Phase-tree linkage must be read out while the lease is held: the
  // shard's recorder is appended to by whoever leases the shard next.
  std::vector<std::vector<obs::Span>> phase_spans(live.size());
  std::vector<char> phase_truncated(live.size(), 0);
  if (rec != nullptr) {
    for (std::size_t i = 0; i < info.pram_events.size(); ++i) {
      bool trunc = false;
      phase_spans[i] = obs::phase_spans_from_events(
          rec, info.pram_events[i], obs::kExecSpanId, &trunc);
      phase_truncated[i] = trunc ? 1 : 0;
    }
  }
  lease.release();  // free the shard before the promise fan-out

  IPH_CHECK(responses.size() == live.size());
  IPH_CHECK(info.completed_at.size() == live.size());
  IPH_CHECK(info.started_at.size() == live.size());
  IPH_CHECK(info.pram_events.size() == live.size());
  // Stats strictly before the promise fan-out: a caller that has seen
  // its Response observes counters that already include it.
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.batched_requests.fetch_add(live.size(), std::memory_order_relaxed);
  stats_.completed.fetch_add(live.size(), std::memory_order_relaxed);
  std::uint64_t prev = stats_.max_batch.load(std::memory_order_relaxed);
  while (prev < live.size() &&
         !stats_.max_batch.compare_exchange_weak(
             prev, live.size(), std::memory_order_relaxed)) {
  }
  sstats_.batches.inc();
  sstats_.completed.inc(live.size());
  sstats_.batch_size.record(static_cast<double>(live.size()));
  sstats_.fold_pram(info.pram_total);
  sstats_.backend_pram.inc(info.pram_requests);
  sstats_.backend_native.inc(info.native_requests);
  for (std::size_t i = 0; i < live.size(); ++i) {
    responses[i].metrics.shard = shard;
    responses[i].metrics.queue_wait_ms =
        ms_between(live[i].enqueued_at, dequeued);
    // Each request's OWN completion stamp, not the batch tail's: the
    // requests ran back-to-back in one run, so e2e grows along the
    // batch and (e2e - queue_wait) is per-request (satellite fix,
    // regression-tested in serve_test).
    responses[i].metrics.e2e_ms =
        ms_between(live[i].enqueued_at, info.completed_at[i]);
    responses[i].trace = reqs[i].trace;
    sstats_.queue_wait_ms.record(responses[i].metrics.queue_wait_ms);
    sstats_.exec_ms.record(responses[i].metrics.exec_ms);
    sstats_.e2e_ms.record(responses[i].metrics.e2e_ms);
    publish_request_trace(reqs[i], responses[i], close_tag,
                          live[i].enqueued_at, popped, dequeued,
                          info.started_at[i], info.completed_at[i],
                          live.size(), std::move(phase_spans[i]),
                          phase_truncated[i] != 0);
    live[i].promise.set_value(std::move(responses[i]));
  }
}

void HullService::publish_request_trace(
    const Request& req, const Response& resp, const char* close_tag,
    Clock::time_point enqueued, Clock::time_point popped,
    Clock::time_point leased, Clock::time_point started,
    Clock::time_point completed, std::uint64_t batch_size,
    std::vector<obs::Span> phase_spans, bool phase_truncated) {
  if (flight_ == nullptr) return;
  obs::CompletedTrace t;
  t.trace_id = req.trace.trace_id;
  t.parent_span = req.trace.parent_span;
  t.request_id = req.id;
  t.status = status_name(resp.status);
  t.backend = exec::backend_name(resp.metrics.backend);
  t.tag = close_tag;
  t.batch_size = batch_size;
  t.e2e_ms = resp.metrics.e2e_ms;
  // The fixed 4-span tree (span.h reconciliation contract). The root's
  // parent is the caller's span when the wire supplied one.
  t.spans.reserve(obs::kSpansPerRequest);
  t.spans.push_back({"request", obs::kRootSpanId, 0, steady_ns(enqueued),
                     steady_ns(completed)});
  t.spans.push_back({"queue_wait", obs::kQueueWaitSpanId, obs::kRootSpanId,
                     steady_ns(enqueued), steady_ns(popped)});
  t.spans.push_back({"lease", obs::kLeaseSpanId, obs::kRootSpanId,
                     steady_ns(popped), steady_ns(leased)});
  t.spans.push_back({"exec", obs::kExecSpanId, obs::kRootSpanId,
                     steady_ns(started), steady_ns(completed)});
  t.phase_spans = std::move(phase_spans);
  t.phase_spans_truncated = phase_truncated;
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

void HullService::large_worker() {
  for (;;) {
    std::optional<Pending> p = large_queue_.pop();
    if (!p) return;  // closed and drained
    if (abandon_.load(std::memory_order_acquire)) {
      stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
      sstats_.rejected_shutdown.inc();
      answer_rejection(*p, Status::kRejectedShutdown);
      continue;
    }
    const Clock::time_point dequeued = Clock::now();
    if (p->request.has_deadline() && p->request.deadline < dequeued) {
      stats_.expired.fetch_add(1, std::memory_order_relaxed);
      sstats_.expired.inc();
      Response r;
      r.id = p->request.id;
      r.status = Status::kExpired;
      r.trace = p->request.trace;
      r.metrics.queue_wait_ms = ms_between(p->enqueued_at, dequeued);
      r.metrics.e2e_ms = r.metrics.queue_wait_ms;
      p->promise.set_value(std::move(r));
      continue;
    }
    const Request req = std::move(p->request);
    exec::PramBackend pram_backend(*large_machine_);
    BackendSet backends;
    backends.pram = &pram_backend;
    backends.native = &native_;
    backends.service_default = cfg_.backend;
    // The large shard's recorder is only ever driven by this worker, so
    // reading it after the run needs no lease discipline.
    const trace::Recorder* rec = cfg_.trace && flight_ != nullptr &&
                                         !recorders_.empty()
                                     ? recorders_.back().get()
                                     : nullptr;
    backends.recorder = rec;
    BatchExecInfo info;
    std::vector<Response> resp =
        execute_batch(backends, {&req, 1}, cfg_.master_seed, &info);
    IPH_CHECK(resp.size() == 1 && info.completed_at.size() == 1 &&
              info.started_at.size() == 1 && info.pram_events.size() == 1);
    const Clock::time_point done = info.completed_at[0];
    resp[0].metrics.shard = pool_.size();  // the dedicated large shard
    resp[0].metrics.queue_wait_ms = ms_between(p->enqueued_at, dequeued);
    resp[0].metrics.e2e_ms = ms_between(p->enqueued_at, done);
    resp[0].trace = req.trace;
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    sstats_.completed.inc();
    sstats_.fold_pram(info.pram_total);
    sstats_.backend_pram.inc(info.pram_requests);
    sstats_.backend_native.inc(info.native_requests);
    sstats_.queue_wait_ms.record(resp[0].metrics.queue_wait_ms);
    sstats_.exec_ms.record(resp[0].metrics.exec_ms);
    sstats_.e2e_ms.record(resp[0].metrics.e2e_ms);
    // The dedicated large shard is not pooled; meter its busy time here
    // (the pool meters the batch shards at lease release).
    if (!sstats_.shard_busy_us.empty()) {
      sstats_.shard_busy_us.back()->inc(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(done -
                                                                dequeued)
              .count()));
    }
    bool trunc = false;
    std::vector<obs::Span> phases = obs::phase_spans_from_events(
        rec, info.pram_events[0], obs::kExecSpanId, &trunc);
    // Large path: no batcher pop and no pool lease, so queue_wait runs
    // to dequeue and the lease span is zero-length at that stamp —
    // keeping the 4-span shape (and the span-count reconciliation)
    // uniform across paths.
    publish_request_trace(req, resp[0], "large", p->enqueued_at, dequeued,
                          dequeued, info.started_at[0], done,
                          /*batch_size=*/1, std::move(phases), trunc);
    p->promise.set_value(std::move(resp[0]));
  }
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

StatsSnapshot HullService::stats() const {
  StatsSnapshot s;
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.rejected_full = stats_.rejected_full.load(std::memory_order_relaxed);
  s.rejected_shutdown =
      stats_.rejected_shutdown.load(std::memory_order_relaxed);
  s.expired = stats_.expired.load(std::memory_order_relaxed);
  s.completed = stats_.completed.load(std::memory_order_relaxed);
  s.batches = stats_.batches.load(std::memory_order_relaxed);
  s.batched_requests =
      stats_.batched_requests.load(std::memory_order_relaxed);
  s.max_batch = stats_.max_batch.load(std::memory_order_relaxed);
  s.large_requests = stats_.large_requests.load(std::memory_order_relaxed);
  return s;
}

const trace::Recorder* HullService::recorder(std::size_t i) const {
  return i < recorders_.size() ? recorders_[i].get() : nullptr;
}

}  // namespace iph::serve
