// Step-race discipline checker for the CRCW PRAM simulator.
//
// machine.h states the simulator's soundness contract: within one
// synchronous step, racing writes must go through the combining cells of
// cells.h, and a plain write is legal only to locations owned by exactly
// one pid. This header makes that contract *mechanical*. When checking is
// enabled (IPH_PRAM_CHECK=1, the CMake option IPH_ENABLE_PRAM_CHECK, or
// Machine::enable_check()), every write routed through tracked_write()
// and every combining-cell operation records its (address, step, pid)
// origin in a sharded shadow map; two distinct pids plain-writing the
// same location in the same step — or a plain write racing a
// combining-cell ("sanctioned") write — abort with a diagnostic naming
// the step index, both pids, the cell address and the active phase.
//
// The checker is *logical*: it validates the PRAM ownership discipline,
// not hardware data races, so it finds same-step conflicts even on a
// single hardware thread (where TSan sees nothing). Conversely a TSan
// build with the checker enabled validates both layers at once.
//
// Cost model: when no tracker is active, tracked_write() is one relaxed
// pointer load + a never-taken branch in front of the plain store, and
// the PRAM step/work metrics are identical with the checker on or off —
// the tracker only observes.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace iph::pram {

/// One detected discipline violation: two same-step writes to one cell.
struct ShadowViolation {
  std::uint64_t step = 0;      ///< Machine step index of the racing step.
  std::uint64_t pid_first = 0;   ///< pid of the earlier recorded write.
  std::uint64_t pid_second = 0;  ///< pid of the write that exposed the race.
  std::uintptr_t addr = 0;     ///< The contested cell's address.
  std::string phase;           ///< Active Machine::Phase name ("" if none).
  bool first_sanctioned = false;   ///< Earlier write went through a cell.
  bool second_sanctioned = false;  ///< Later write went through a cell.
};

/// Shadow memory for write-origin tracking. One instance per checking
/// Machine; all methods are thread-safe (the map is sharded by address).
class ShadowTracker {
 public:
  static constexpr std::uint64_t kNoPid = ~std::uint64_t{0};

  ShadowTracker() = default;
  ShadowTracker(const ShadowTracker&) = delete;
  ShadowTracker& operator=(const ShadowTracker&) = delete;

  /// Called by the Machine in the step prologue. `step` stamps every
  /// write recorded until end_step(); entries stamped with an older step
  /// are stale and never conflict (the lazy per-step epoch reset).
  void begin_step(std::uint64_t step, std::string phase);

  /// Step epilogue: periodically flushes the shadow map so memory stays
  /// bounded over long programs (stale entries are already inert).
  void end_step();

  /// A plain (ownership-asserting) write of the cell at `addr` by `pid`.
  void on_plain_write(const volatile void* addr, std::uint64_t pid);

  /// A combining-cell write: any number of same-step writers is legal,
  /// but a plain write to the same location still races it.
  void on_sanctioned_write(const volatile void* addr, std::uint64_t pid);

  /// Default true: print the diagnostic and abort on the first race.
  /// Tests flip this off to assert on the recorded violations instead.
  void set_abort_on_race(bool v) noexcept {
    abort_on_race_.store(v, std::memory_order_relaxed);
  }

  std::uint64_t tracked_writes() const noexcept {
    return n_tracked_.load(std::memory_order_relaxed);
  }

  std::vector<ShadowViolation> violations() const;
  void clear_violations();

 private:
  struct Entry {
    std::uint64_t step;
    std::uint64_t pid;
    bool sanctioned;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uintptr_t, Entry> map;
  };
  static constexpr std::size_t kShards = 64;
  /// Flush cadence for end_step(); any value works, this just bounds the
  /// shadow map's footprint between flushes.
  static constexpr std::uint64_t kFlushPeriod = 256;

  void record(const volatile void* addr, std::uint64_t pid, bool sanctioned);
  void report(std::uintptr_t addr, const Entry& prev, std::uint64_t pid,
              bool sanctioned);

  Shard shards_[kShards];
  std::atomic<std::uint64_t> step_{0};
  std::uint64_t steps_since_flush_ = 0;
  std::string phase_;
  std::atomic<bool> abort_on_race_{true};
  std::atomic<std::uint64_t> n_tracked_{0};
  mutable std::mutex vio_mu_;
  std::vector<ShadowViolation> violations_;
};

namespace shadow_detail {
/// The tracker the CURRENT THREAD is writing under, or null.
/// Thread-local, not process-global, because machines step concurrently
/// (each serve worker drives its own): the host thread binds its
/// machine's tracker around each checked step, and a machine's pool
/// workers bind it at job pickup under the pool mutex (machine.cpp
/// worker_loop). A thread can therefore never observe — or keep using
/// across a Machine::reset — another machine's tracker.
inline thread_local ShadowTracker* t_active = nullptr;
/// The virtual pid the current hardware thread is executing, so
/// combining cells can attribute sanctioned writes without plumbing pid
/// through every call. Maintained only while checking is active.
inline thread_local std::uint64_t t_pid = ShadowTracker::kNoPid;
}  // namespace shadow_detail

/// Tracker of the checked step this thread is executing, else null.
inline ShadowTracker* active_shadow() noexcept {
  return shadow_detail::t_active;
}

/// RAII pid scope: the Machine wraps each fn(pid) call in one of these
/// while checking, so cell writes know their writer.
class ShadowPidScope {
 public:
  explicit ShadowPidScope(std::uint64_t pid) noexcept {
    shadow_detail::t_pid = pid;
  }
  ~ShadowPidScope() { shadow_detail::t_pid = ShadowTracker::kNoPid; }
  ShadowPidScope(const ShadowPidScope&) = delete;
  ShadowPidScope& operator=(const ShadowPidScope&) = delete;
};

/// Combining cells call this on every write; no-op unless checking.
inline void shadow_sanctioned_write(const volatile void* addr) noexcept {
  if (ShadowTracker* t = active_shadow()) {
    t->on_sanctioned_write(addr, shadow_detail::t_pid);
  }
}

/// An owned plain write by virtual processor `pid`: asserts to the
/// checker that no other pid writes `loc` this step, then stores.
/// Compiles to the plain store plus one relaxed load + untaken branch
/// when checking is off.
template <typename T, typename V>
inline void tracked_write(std::uint64_t pid, T& loc, V&& v) {
  if (ShadowTracker* t = active_shadow()) t->on_plain_write(&loc, pid);
  loc = std::forward<V>(v);
}

/// Ownership assertion for a non-scalar mutation (e.g. push_back into a
/// per-pid vector): registers `obj`'s address as plain-written by `pid`
/// and hands the reference back.
template <typename T>
inline T& tracked_ref(std::uint64_t pid, T& obj) {
  if (ShadowTracker* t = active_shadow()) t->on_plain_write(&obj, pid);
  return obj;
}

}  // namespace iph::pram
