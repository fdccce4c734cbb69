#include "serve/queue.h"

namespace iph::serve {

BoundedQueue::Admit BoundedQueue::push(Pending& p) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return Admit::kClosed;
    if (q_.size() >= capacity_) return Admit::kFull;
    q_.push_back(std::move(p));
    update_depth_locked();
  }
  cv_.notify_one();
  return Admit::kOk;
}

std::vector<Pending> BoundedQueue::pop_batch(
    std::size_t max_requests, std::size_t max_points,
    std::chrono::microseconds window, BatchClose* close_reason) {
  std::vector<Pending> out;
  BatchClose reason = BatchClose::kWindow;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return closed_ || !q_.empty(); });
  if (q_.empty()) return out;

  std::size_t points = 0;
  auto take_available = [&] {
    while (!q_.empty() && out.size() < max_requests) {
      const std::size_t sz = q_.front().request.points.size();
      // First take is unconditional so an oversized request can't wedge.
      if (!out.empty() && points + sz > max_points) break;
      out.push_back(std::move(q_.front()));
      q_.pop_front();
      points += sz;
    }
    update_depth_locked();
  };
  take_available();
  const auto batch_deadline = Clock::now() + window;
  while (out.size() < max_requests && !closed_) {
    // A spent point budget closes at once: no straggler can fit.
    if (points >= max_points) {
      reason = BatchClose::kPoints;
      break;
    }
    if (!q_.empty()) {
      const std::size_t sz = q_.front().request.points.size();
      if (points + sz > max_points) {
        reason = BatchClose::kPoints;
        break;
      }
      take_available();
      continue;
    }
    if (cv_.wait_until(lk, batch_deadline) == std::cv_status::timeout) {
      take_available();  // whatever raced the timeout
      reason = BatchClose::kWindow;
      break;
    }
  }
  if (out.size() >= max_requests) {
    reason = BatchClose::kRequests;
  } else if (closed_ && reason == BatchClose::kWindow) {
    // Fell out of the loop because close() woke us mid-window (the
    // points/timeout breaks already stamped their own reason).
    reason = BatchClose::kClosed;
  }
  if (close_reason != nullptr && !out.empty()) *close_reason = reason;
  return out;
}

void BoundedQueue::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void BoundedQueue::bind_depth_gauge(stats::Gauge* g) {
  std::lock_guard<std::mutex> lk(mu_);
  depth_ = g;
  update_depth_locked();
}

std::size_t BoundedQueue::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return q_.size();
}

bool BoundedQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

}  // namespace iph::serve
