// Bounded MPMC request queue with admission control.
//
// The queue is the service's only backpressure point: push() never
// blocks — a full queue rejects immediately (Admit::kFull) so callers
// get a loaded-shed answer instead of unbounded latency, and a closed
// queue rejects with Admit::kClosed. Consumers block in pop()/
// pop_batch(); close() wakes them all, after which pops DRAIN the
// backlog (graceful shutdown: every admitted request is still handed to
// a worker) and then return empty.
//
// pop_batch implements the batching window: it blocks for the first
// item, then keeps taking already-queued items — waiting up to `window`
// for stragglers — until the request or point budget is reached. The
// window prices latency against coalescing; the budgets bound the work
// of one run.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.h"
#include "stats/stats.h"

namespace iph::serve {

/// Why pop_batch stopped growing a (non-empty) batch — the batcher's
/// window-close reason counters key on this.
enum class BatchClose : std::uint8_t {
  kWindow,    ///< Straggler window elapsed.
  kRequests,  ///< Request budget reached.
  kPoints,    ///< Point budget reached.
  kClosed,    ///< Queue closed while the batch was collecting.
};

constexpr const char* batch_close_name(BatchClose c) noexcept {
  switch (c) {
    case BatchClose::kWindow:
      return "window";
    case BatchClose::kRequests:
      return "requests";
    case BatchClose::kPoints:
      return "points";
    case BatchClose::kClosed:
      return "closed";
  }
  return "?";
}

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

  /// One item, blocking until something arrives or the queue closes.
  /// Empty optional = closed and fully drained.
  std::optional<Pending> pop();

  /// Up to max_requests items totalling at most max_points input points
  /// (the first item is taken regardless of its size, so oversized
  /// requests cannot wedge the queue). Blocks for the first item; then
  /// waits up to `window` past the first take for stragglers. Empty
  /// vector = closed and fully drained. When `close_reason` is non-null
  /// and the batch is non-empty, it reports why collection stopped.
  std::vector<Pending> pop_batch(std::size_t max_requests,
                                 std::size_t max_points,
                                 std::chrono::microseconds window,
                                 BatchClose* close_reason = nullptr);

  /// No further admissions; blocked consumers wake and drain.
  void close();

  /// Optional live-depth instrument: once bound, the gauge tracks
  /// q_.size() after every mutation (under the queue mutex, so the
  /// level is never stale relative to the queue's own state). Bind
  /// before concurrent use; the gauge must outlive the queue.
  void bind_depth_gauge(stats::Gauge* g);

  std::size_t size() const;
  bool closed() const;

 private:
  void update_depth_locked() noexcept {
    if (depth_ != nullptr) depth_->set(static_cast<std::int64_t>(q_.size()));
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> q_;
  bool closed_ = false;
  stats::Gauge* depth_ = nullptr;
};

}  // namespace iph::serve
