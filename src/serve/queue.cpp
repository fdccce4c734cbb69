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

bool BoundedQueue::pop(Pending* out) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return closed_ || !q_.empty(); });
  if (q_.empty()) return false;
  *out = std::move(q_.front());
  q_.pop_front();
  update_depth_locked();
  return true;
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

}  // namespace iph::serve
