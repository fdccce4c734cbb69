#include "exec/pool.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <utility>

#include "support/env.h"

namespace iph::exec {

ThreadPool::ThreadPool(unsigned threads)
    : threads_(std::max(1u, threads == 0 ? support::env_threads() : threads)) {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ && drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

std::size_t ThreadPool::slice_count(std::size_t n,
                                    std::size_t grain) const noexcept {
  if (n == 0) return 0;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  return std::min<std::size_t>(threads_, (n + g - 1) / g);
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t slices = slice_count(n, grain);
  if (slices == 0) return;
  if (slices == 1) {
    fn(0, n, 0);
    return;
  }
  // Queued slices reference this frame, so no exit from it may skip the
  // latch wait, and no slice may throw into worker().
  struct Fork {
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn;
    std::size_t n;
    std::size_t chunk;
    std::latch done;
    std::mutex mu;
    std::exception_ptr error;

    void run(std::size_t s) noexcept {
      const std::size_t begin = s * chunk;
      try {
        fn(begin, std::min(n, begin + chunk), s);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
      }
    }
  } fork{fn, n, (n + slices - 1) / slices,
         std::latch(static_cast<std::ptrdiff_t>(slices - 1)), {}, {}};
  std::size_t queued = 1;
  try {
    std::lock_guard<std::mutex> lk(mu_);
    for (; queued < slices; ++queued) {
      tasks_.emplace_back([&fork, s = queued] {
        fork.run(s);
        fork.done.count_down();
      });
    }
  } catch (...) {
    // Out of memory queueing: the slices not queued run here instead.
  }
  cv_.notify_all();
  for (std::size_t s = queued; s < slices; ++s) {
    fork.run(s);
    fork.done.count_down();
  }
  fork.run(0);
  fork.done.wait();
  if (fork.error) std::rethrow_exception(fork.error);
}

}  // namespace iph::exec
