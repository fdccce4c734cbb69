// exec::ThreadPool — fork-join slicing and exception safety.
//
// A slice that throws must not cut the fork short: parallel_for waits
// for every other slice (they hold references into its frame), then
// rethrows on the caller, and the workers survive to serve the next
// fork. Run under the ASan/UBSan and TSan jobs, these cases are what
// catch a use-after-scope of the fork's latch or a worker terminating.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"

namespace iph::exec {
namespace {

constexpr std::size_t kSlices = 4;
constexpr std::size_t kGrain = 100;
constexpr std::size_t kN = kSlices * kGrain;

/// A plain fork whose slices together cover [0, kN) exactly once — the
/// pool still works after whatever the test did to it.
void expect_pool_works(ThreadPool& pool) {
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, kGrain, [&](std::size_t b, std::size_t e,
                                    std::size_t) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "item " << i;
}

/// Throws from slice `bad`; every other slice sleeps first, so when the
/// throw happens they are still running and still hold the fork's state.
void throwing_fork(ThreadPool& pool, std::size_t bad,
                   std::atomic<int>& finished) {
  pool.parallel_for(kN, kGrain, [&](std::size_t, std::size_t,
                                    std::size_t s) {
    if (s == bad) throw std::runtime_error("slice " + std::to_string(s));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(1);
  });
}

TEST(ThreadPool, SlicesCoverTheRangeOnce) {
  ThreadPool pool(kSlices);
  ASSERT_EQ(pool.slice_count(kN, kGrain), kSlices);
  expect_pool_works(pool);
}

TEST(ThreadPool, ThrowFromCallerSliceWaitsThenRethrows) {
  ThreadPool pool(kSlices);
  std::atomic<int> finished{0};
  try {
    throwing_fork(pool, 0, finished);
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slice 0");
  }
  // Returned only after the other slices were done with the fork.
  EXPECT_EQ(finished.load(), static_cast<int>(kSlices) - 1);
  expect_pool_works(pool);
}

TEST(ThreadPool, ThrowFromWorkerSliceReachesCaller) {
  ThreadPool pool(kSlices);
  std::atomic<int> finished{0};
  try {
    throwing_fork(pool, 2, finished);
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slice 2");
  }
  EXPECT_EQ(finished.load(), static_cast<int>(kSlices) - 1);
  expect_pool_works(pool);
}

TEST(ThreadPool, EverySliceThrowsOneExceptionArrives) {
  ThreadPool pool(kSlices);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(pool.parallel_for(kN, kGrain,
                                   [](std::size_t, std::size_t, std::size_t) {
                                     throw std::runtime_error("all");
                                   }),
                 std::runtime_error);
  }
  expect_pool_works(pool);
}

TEST(ThreadPool, NullPoolRunsOneInlineSlice) {
  std::size_t calls = 0;
  for_slices(nullptr, kN, kGrain,
             [&](std::size_t b, std::size_t e, std::size_t s) {
               EXPECT_EQ(b, 0u);
               EXPECT_EQ(e, kN);
               EXPECT_EQ(s, 0u);
               ++calls;
             });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(slice_count(nullptr, kN, kGrain), 1u);
  EXPECT_EQ(slice_count(nullptr, 0, kGrain), 0u);
  for_slices(nullptr, 0, kGrain,
             [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace iph::exec
