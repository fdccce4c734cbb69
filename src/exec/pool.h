// A small persistent fork-join pool for the native hull engine.
//
// pram::Machine owns its own lockstep thread pool, but that pool is
// built around barrier-synchronized PRAM steps — exactly the per-step
// tax the native backend exists to avoid. This one is plain fork-join:
// parallel_for splits [0, n) into contiguous slices, the calling thread
// executes slice 0 inline (so a 1-thread pool degenerates to a plain
// loop with zero scheduling), workers pull the rest from a shared
// queue, and a latch joins the fork.
//
// Concurrency contract: parallel_for may be called from MANY threads at
// once (the serving layer shares one NativeBackend across all its
// workers). Concurrent forks interleave in the task queue; each fork
// waits only on its own latch. Tasks never block on other tasks, so
// interleaving cannot deadlock. Nested parallel_for from inside a task
// is NOT supported (a task waiting on workers could starve the queue).
//
// Exceptions: a slice that throws does not cut the fork short. Every
// slice runs to its end or its own throw, parallel_for always waits for
// all of them (queued slices hold references into its frame), and then
// rethrows the first exception on the calling thread. Workers never see
// an exception, so the pool stays usable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iph::exec {

class ThreadPool {
 public:
  /// Total parallelism `threads` (0 = support::env_threads()): the pool
  /// spawns threads-1 workers, the caller of parallel_for is the rest.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threads() const noexcept { return threads_; }

  /// Number of slices parallel_for(n, grain, ...) would fork: enough
  /// threads that every slice has at least `grain` items, capped at
  /// threads(). Callers sizing per-slice scratch use this.
  std::size_t slice_count(std::size_t n, std::size_t grain) const noexcept;

  /// Run fn(begin, end, slice) over a partition of [0, n) into
  /// slice_count(n, grain) contiguous slices, concurrently; blocks
  /// until every slice finished, then rethrows the first exception a
  /// slice threw. Slice 0 runs on the calling thread. fn must not call
  /// back into parallel_for (see file comment).
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn);

 private:
  void worker();

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// pool->parallel_for(n, grain, fn), or fn(0, n, 0) on the calling
/// thread when `pool` is null: an inline run is the same code as a
/// one-slice fork.
template <class Fn>
void for_slices(ThreadPool* pool, std::size_t n, std::size_t grain,
                const Fn& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, grain, fn);
  } else if (n > 0) {
    fn(std::size_t{0}, n, std::size_t{0});
  }
}

/// How many slices for_slices(pool, n, grain, ...) runs.
inline std::size_t slice_count(const ThreadPool* pool, std::size_t n,
                               std::size_t grain) noexcept {
  if (pool != nullptr) return pool->slice_count(n, grain);
  return n > 0 ? 1 : 0;
}

}  // namespace iph::exec
