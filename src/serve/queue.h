// Bounded MPMC request queue with admission control.
//
// The queue is the service's only backpressure point: push() never
// blocks — a full queue rejects immediately (Admit::kFull) so callers
// get a loaded-shed answer instead of unbounded latency, and a closed
// queue rejects with Admit::kClosed. Consumers block in pop() for one
// item; close() wakes them all, after which pops DRAIN the backlog
// (graceful shutdown: every admitted request is still handed to a
// worker) and then return false.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>

#include "serve/request.h"
#include "stats/stats.h"

namespace iph::serve {

/// A queued request plus its completion channel and arrival stamp.
struct Pending {
  Request request;
  std::promise<Response> promise;
  Clock::time_point enqueued_at{};
};

class BoundedQueue {
 public:
  enum class Admit : std::uint8_t { kOk, kFull, kClosed };

  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: kFull at capacity, kClosed after close().
  /// On kOk the queue owns `p`; otherwise `p` is untouched (the caller
  /// still holds the promise to answer the rejection on).
  Admit push(Pending& p);

  /// Blocks for the oldest item and moves it into *out. False once the
  /// queue is closed and drained.
  bool pop(Pending* out);

  /// No further admissions; blocked consumers wake and drain.
  void close();

  /// Optional live-depth instrument: once bound, the gauge tracks
  /// q_.size() after every mutation (under the queue mutex, so the
  /// level is never stale relative to the queue's own state). Bind
  /// before concurrent use; the gauge must outlive the queue.
  void bind_depth_gauge(stats::Gauge* g);

 private:
  void update_depth_locked() noexcept {
    if (depth_ != nullptr) depth_->set(static_cast<std::int64_t>(q_.size()));
  }

  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> q_;
  bool closed_ = false;
  stats::Gauge* depth_ = nullptr;
};

}  // namespace iph::serve
