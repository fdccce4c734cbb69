// The CRCW PRAM simulator.
//
// A Machine executes synchronous PRAM steps: step(n, fn) runs fn(pid) for
// every virtual processor pid in [0, n), then barriers. One call = one unit
// of PRAM time; the work charged is the number of active processors. The
// virtual processors are multiplexed onto a persistent pool of hardware
// threads (this is exactly the Matias-Vishkin simulation of Lemma 7 in the
// paper; Metrics tracks both the ideal PRAM time and T(p) for a ladder of
// p values).
//
// Concurrency discipline inside a step (enforced mechanically by the
// shadow.h step-race checker when IPH_PRAM_CHECK=1 / IPH_ENABLE_PRAM_CHECK
// is set, and validated by the test suite):
//   * a processor may freely read shared memory written in *earlier* steps;
//   * racing writes in the *same* step must go through the combining cells
//     of cells.h (Or/Tally/Min/Max/ClaimSlot/FlagArray);
//   * a plain write is legal only to locations owned by exactly one pid —
//     write sites assert this by routing through pram::tracked_write().
//
// Randomness: rng(pid) returns a counter-based generator keyed on
// (seed, current step, pid), so results are bit-reproducible regardless of
// how the pool schedules chunks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "pram/conflict.h"
#include "pram/metrics.h"
#include "pram/shadow.h"
#include "support/rng.h"

namespace iph::pram {

/// Host-side observation hooks for structured tracing (trace::Recorder
/// implements this). All callbacks run on the host thread between or
/// around steps — never inside fn(pid) — so implementations need no
/// locking, and everything they see except wall-clock is deterministic
/// given (input, seed). The observer must outlive the Machine (or be
/// detached with set_observer(nullptr) first).
class PhaseObserver {
 public:
  virtual ~PhaseObserver() = default;
  /// A Machine::Phase opened/closed; step_index is the machine's step
  /// counter at that instant. Calls nest properly.
  virtual void on_phase_open(const std::string& name,
                             std::uint64_t step_index) = 0;
  virtual void on_phase_close(std::uint64_t step_index) = 0;
  /// One synchronous step completed with `active` charged processors and
  /// `conflicts` combining-write conflicts (0 unless counting is on).
  virtual void on_step(std::uint64_t active, std::uint64_t conflicts) = 0;
  /// Machine::charge accounted `steps` analytic steps of `work_per_step`.
  virtual void on_charge(std::uint64_t steps,
                         std::uint64_t work_per_step) = 0;
  /// The space ledger changed: `input_cells`/`aux_cells` are the new
  /// gauges after a Machine::space_alloc/space_release (pram/metrics.h,
  /// SpaceKind). Defaulted so observers that only care about time/work
  /// need not override.
  virtual void on_space(std::uint64_t input_cells,
                        std::uint64_t aux_cells) {
    (void)input_cells;
    (void)aux_cells;
  }
};

class Machine {
 public:
  /// threads == 0 selects support::env_threads().
  explicit Machine(unsigned threads = 0,
                   std::uint64_t seed = 0x19910722ULL);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Return the machine to its just-constructed state under a new seed,
  /// KEEPING the warm thread pool: step index, metrics, and per-phase
  /// accounting restart from zero, so a subsequent program is
  /// bit-identical to running it on a fresh Machine(threads(), seed).
  /// This is the reuse hook the serving layer's workers are built on:
  /// each owns one machine and resets it per request (a Machine spin-up
  /// costs threads()-1 thread spawns; a reset costs none). Host-side
  /// only, and only between programs: no Phase may be open. An attached observer stays attached (its
  /// recording simply continues); the step-race checker, if armed, gets
  /// a fresh shadow map so stale same-step stamps from the previous
  /// program cannot alias the restarted step numbering.
  void reset(std::uint64_t seed);

  /// Serial-dispatch grain: step bodies with n < grain() run inline on
  /// the calling thread instead of being fanned out to the pool (the
  /// per-chunk dispatch cost dwarfs tiny bodies). Default 2048,
  /// overridable per-process with IPH_PRAM_GRAIN (support/env.h) and
  /// per-machine here.
  /// Scheduling only: results and PRAM metrics are grain-independent.
  std::uint64_t grain() const noexcept { return grain_; }
  void set_grain(std::uint64_t g) noexcept { grain_ = g < 1 ? 1 : g; }

  /// One synchronous CRCW step with n active virtual processors.
  /// fn must be callable as fn(std::uint64_t pid).
  template <typename Fn>
  void step(std::uint64_t n, Fn&& fn) {
    step_active(n, n, std::forward<Fn>(fn));
  }

  /// One step that iterates pid over [0, n) but charges only `active` work.
  /// Used when processors attached to dead elements stand by: the paper's
  /// output-sensitive work bounds count only operations of live processors,
  /// so callers pass the live count. (The iteration over dead pids costs
  /// real wall-clock but not PRAM work.)
  ///
  /// Checked epilogue: with the race checker on, the step body runs with
  /// the shadow tracker published and each fn(pid) wrapped in a pid scope,
  /// and the epilogue advances the tracker's epoch; the PRAM metrics are
  /// bit-identical either way (the tracker only observes).
  template <typename Fn>
  void step_active(std::uint64_t n, std::uint64_t active, Fn&& fn) {
    if (count_conflicts_) counted_step_prologue();
    if (shadow_) {
      checked_step_prologue();
      if (n > 0) {
        auto wrapped = [&fn](std::uint64_t pid) {
          ShadowPidScope scope(pid);
          fn(pid);
        };
        run_fn(n, wrapped);
      }
      checked_step_epilogue();
    } else if (n > 0) {
      run_fn(n, fn);
    }
    const std::uint64_t conflicts =
        count_conflicts_ ? counted_step_epilogue() : 0;
    ++step_index_;
    metrics_.record_step(active, conflicts);
    note_active(active);
    if (observer_) observer_->on_step(active, conflicts);
  }

  /// Account abstract PRAM cost without executing anything (used when a
  /// sub-procedure's cost is charged analytically, e.g. a documented
  /// substitution whose concrete implementation is sequential). Constant
  /// time in `steps`; the resulting metrics equal `steps` individual
  /// record_step(work_per_step) calls.
  void charge(std::uint64_t steps, std::uint64_t work_per_step) {
    metrics_.record_steps(steps, work_per_step);
    step_index_ += steps;
    if (steps > 0) note_active(work_per_step);
    if (observer_) observer_->on_charge(steps, work_per_step);
  }

  // --- space ledger (pram/metrics.h; see also pram::SpaceLease) ---
  /// Register `cells` shared-memory cells coming alive under `kind`.
  /// Host-side only (call between steps, like Phase open/close): the
  /// ledger is deterministic bookkeeping, not simulated memory.
  void space_alloc(std::uint64_t cells, SpaceKind kind) {
    metrics_.record_space_alloc(cells, kind);
    note_space();
    if (observer_) {
      observer_->on_space(metrics_.input_cells, metrics_.aux_cells);
    }
  }
  /// Register `cells` cells of `kind` going dead.
  void space_release(std::uint64_t cells, SpaceKind kind) {
    metrics_.record_space_release(cells, kind);
    if (observer_) {
      observer_->on_space(metrics_.input_cells, metrics_.aux_cells);
    }
  }

  /// Counter-based RNG for processor pid at the current step.
  support::Rng rng(std::uint64_t pid) const noexcept {
    return support::Rng(support::mix3(seed_, 0xabcdef, step_index_), pid);
  }

  std::uint64_t seed() const noexcept { return seed_; }
  std::uint64_t step_index() const noexcept { return step_index_; }
  unsigned threads() const noexcept { return threads_; }

  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  PhaseMetrics& phases() noexcept { return phases_; }

  // --- step-race checker (shadow.h) ---
  /// Non-null when the discipline checker is on (IPH_PRAM_CHECK=1, the
  /// IPH_ENABLE_PRAM_CHECK build option, or enable_check()).
  ShadowTracker* shadow() noexcept { return shadow_.get(); }
  bool check_enabled() const noexcept { return shadow_ != nullptr; }
  /// Turn the checker on/off programmatically (tests, targeted debugging).
  void enable_check();
  void disable_check();

  // --- structured tracing (pram/conflict.h, trace::Recorder) ---
  /// Attach a phase/step observer (or detach with nullptr). The observer
  /// must outlive this Machine or be detached before the machine issues
  /// another step. Attaching also turns combining-write conflict counting
  /// on (a trace without conflicts is the uninteresting half).
  void set_observer(PhaseObserver* o) noexcept {
    observer_ = o;
    if (o != nullptr) count_conflicts_ = true;
  }
  PhaseObserver* observer() const noexcept { return observer_; }
  /// Combining-write conflict counting, independent of any observer
  /// (also on when IPH_CW_CONFLICTS=1). Off by default: when off,
  /// Metrics::cw_conflicts stays 0 and every cell write costs one extra
  /// untaken branch, and steps/work/T(p) are bit-identical either way.
  void set_conflict_counting(bool on) noexcept { count_conflicts_ = on; }
  bool conflict_counting() const noexcept { return count_conflicts_; }

  /// Scoped phase marker: accumulates a PhaseDelta over its lifetime
  /// into phases()[name], and names the phase in any step-race diagnostic
  /// raised while it is open. Counters (steps/work/...) are snapshot
  /// deltas; the peak fields (max_active/peak_live/peak_aux) are
  /// phase-LOCAL maxima kept on the machine's peak stack — a peak is not
  /// differencable, so it is observed per open frame and folded outward
  /// on close (a child's peak is also a maximum its parent saw).
  class Phase {
   public:
    Phase(Machine& m, std::string name)
        : m_(m), name_(std::move(name)), start_(m.metrics()) {
      m_.phase_stack_.push_back(name_);
      // Seed the frame's space peaks with the gauges at open: cells
      // already live when the phase starts are live during it too.
      m_.peak_stack_.push_back(PhasePeaks{0, m_.metrics_.live_cells(),
                                          m_.metrics_.aux_cells});
      if (m_.observer_) m_.observer_->on_phase_open(name_, m_.step_index_);
    }
    ~Phase() {
      m_.phase_stack_.pop_back();
      const PhasePeaks local = m_.peak_stack_.back();
      m_.peak_stack_.pop_back();
      if (!m_.peak_stack_.empty()) {
        PhasePeaks& parent = m_.peak_stack_.back();
        if (local.max_active > parent.max_active) {
          parent.max_active = local.max_active;
        }
        if (local.peak_live > parent.peak_live) {
          parent.peak_live = local.peak_live;
        }
        if (local.peak_aux > parent.peak_aux) {
          parent.peak_aux = local.peak_aux;
        }
      }
      PhaseDelta d = counter_delta(m_.metrics(), start_);
      d.invocations = 1;
      d.max_active = local.max_active;
      d.peak_live = local.peak_live;
      d.peak_aux = local.peak_aux;
      m_.phases()[name_].add(d);
      if (m_.observer_) m_.observer_->on_phase_close(m_.step_index_);
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Machine& m_;
    std::string name_;
    Metrics start_;
  };

 private:
  /// Phase-local maxima for the innermost open Phase. Only the stack top
  /// is updated per event; close folds a child's maxima into its parent
  /// (the child's open interval is contained in the parent's).
  struct PhasePeaks {
    std::uint64_t max_active = 0;
    std::uint64_t peak_live = 0;
    std::uint64_t peak_aux = 0;
  };

  void note_active(std::uint64_t active) noexcept {
    if (!peak_stack_.empty() && active > peak_stack_.back().max_active) {
      peak_stack_.back().max_active = active;
    }
  }
  void note_space() noexcept {
    if (peak_stack_.empty()) return;
    PhasePeaks& top = peak_stack_.back();
    if (metrics_.live_cells() > top.peak_live) {
      top.peak_live = metrics_.live_cells();
    }
    if (metrics_.aux_cells > top.peak_aux) {
      top.peak_aux = metrics_.aux_cells;
    }
  }

  using RangeFn = void (*)(void*, std::uint64_t, std::uint64_t);
  void run_range(std::uint64_t n, RangeFn fn, void* ctx);
  void worker_loop(unsigned worker_id);

  /// Dispatch a callable over [0, n) through the pool (type-erased once).
  template <typename Fn>
  void run_fn(std::uint64_t n, Fn& fn) {
    using F = std::remove_reference_t<Fn>;
    auto thunk = [](void* ctx, std::uint64_t lo, std::uint64_t hi) {
      F& f = *static_cast<F*>(ctx);
      for (std::uint64_t i = lo; i < hi; ++i) f(i);
    };
    run_range(n, thunk, &fn);
  }

  void checked_step_prologue();
  void checked_step_epilogue();
  void counted_step_prologue();
  std::uint64_t counted_step_epilogue();

  std::uint64_t seed_;
  std::uint64_t grain_;
  std::uint64_t step_index_ = 0;
  Metrics metrics_;
  PhaseMetrics phases_;
  std::unique_ptr<ShadowTracker> shadow_;
  PhaseObserver* observer_ = nullptr;
  bool count_conflicts_ = false;
  ConflictSink conflict_sink_;
  /// Open Phase names, innermost last (host-side only; steps are issued
  /// between pushes/pops, never during).
  std::vector<std::string> phase_stack_;
  /// Phase-local peaks, parallel to phase_stack_ (same push/pop sites).
  std::vector<PhasePeaks> peak_stack_;

  // --- thread pool ---
  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::uint64_t job_generation_ = 0;
  unsigned workers_remaining_ = 0;
  bool shutdown_ = false;
  // Current job (valid while workers_remaining_ > 0).
  RangeFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::uint64_t job_n_ = 0;
  std::uint64_t job_chunk_ = 0;
  std::atomic<std::uint64_t> job_next_{0};
  // This machine's checker/conflict context for the step in flight.
  // Written by the host in the step prologues (before the job is
  // published under mu_), read by workers at job pickup (under mu_) to
  // bind their thread-local tracker/sink — see shadow.h/conflict.h on
  // why these are per-thread, not process-global.
  ShadowTracker* step_shadow_ = nullptr;
  ConflictSink* step_sink_ = nullptr;
};

}  // namespace iph::pram
