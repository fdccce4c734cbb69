// PRAM cost accounting.
//
// Every bound in the paper is phrased in the PRAM cost model:
//   time  = number of synchronous steps,
//   procs = number of (virtual) processors alive in a step,
//   work  = sum over steps of active processors,
//   space = shared memory cells alive at any instant.
// Metrics records exactly these. In addition, for Lemma 7 (Matias-Vishkin
// processor allocation, Section 5 of the paper) we track, online, the
// simulated time T(p) = sum over steps of ceil(active/p) for a fixed
// ladder of p values, so bench e10 can report the T = t + w/p trade-off
// without storing a per-step trace.
//
// The space axis is a cell-lifetime ledger: allocations are registered
// with the machine (Machine::space_alloc / pram::SpaceLease) under one of
// two kinds, and the ledger keeps the current gauges plus high-water
// marks. The split makes "in-place" directly measurable: the paper's
// model gives every element a virtual processor with O(1) private
// registers, so per-element state scaling with the input is FOOTPRINT,
// while the shared scratch the in-place lemmas bound (Theta(k) sample
// cells, the m^(4e+d) compaction area) is AUXILIARY workspace — the
// number the claims gate on.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace iph::pram {

/// Processor counts for which simulated time T(p) is tracked online.
inline constexpr std::array<std::uint64_t, 12> kTrackedProcCounts = {
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096};

/// Ledger category of a space registration (see file comment).
enum class SpaceKind : std::uint8_t {
  kInput,  ///< Input cells + per-element standing-by registers.
  kAux,    ///< Shared auxiliary workspace — what "in-place" bounds.
};

struct Metrics {
  std::uint64_t steps = 0;       ///< PRAM time (synchronous steps).
  std::uint64_t work = 0;        ///< Sum of active processors over steps.
  std::uint64_t max_active = 0;  ///< Processor requirement (peak).
  /// Combining-cell write conflicts: same-step writes to one cell beyond
  /// the first (pram/conflict.h). 0 unless the Machine counts conflicts;
  /// when counted, a pure function of the program, never of the host
  /// schedule.
  std::uint64_t cw_conflicts = 0;
  /// T(p) = sum_steps ceil(active/p) for p in kTrackedProcCounts.
  std::array<std::uint64_t, kTrackedProcCounts.size()> time_at_p{};

  // --- space ledger (gauges + watermarks; host-side, deterministic) ---
  std::uint64_t input_cells = 0;    ///< Currently registered input cells.
  std::uint64_t aux_cells = 0;      ///< Currently live auxiliary cells.
  std::uint64_t peak_live = 0;      ///< max over time of input + aux.
  std::uint64_t peak_aux = 0;       ///< max over time of aux alone.
  std::uint64_t peak_input = 0;     ///< max over time of input footprint.
  std::uint64_t space_allocs = 0;   ///< Ledger allocate events.
  std::uint64_t space_releases = 0; ///< Ledger release events.

  std::uint64_t live_cells() const noexcept {
    return input_cells + aux_cells;
  }

  void record_step(std::uint64_t active, std::uint64_t conflicts = 0) noexcept {
    steps += 1;
    work += active;
    if (active > max_active) max_active = active;
    cw_conflicts += conflicts;
    for (std::size_t i = 0; i < kTrackedProcCounts.size(); ++i) {
      const std::uint64_t p = kTrackedProcCounts[i];
      time_at_p[i] += (active + p - 1) / p;
    }
  }

  /// `count` uniform steps of `active` processors each, in O(1): the
  /// per-step ceil(active/p) terms are all equal, so they batch. Used by
  /// Machine::charge for analytically-accounted sub-procedures.
  void record_steps(std::uint64_t count, std::uint64_t active) noexcept {
    if (count == 0) return;
    steps += count;
    work += count * active;
    if (active > max_active) max_active = active;
    for (std::size_t i = 0; i < kTrackedProcCounts.size(); ++i) {
      const std::uint64_t p = kTrackedProcCounts[i];
      time_at_p[i] += count * ((active + p - 1) / p);
    }
  }

  void record_space_alloc(std::uint64_t cells, SpaceKind kind) noexcept {
    (kind == SpaceKind::kAux ? aux_cells : input_cells) += cells;
    ++space_allocs;
    if (aux_cells > peak_aux) peak_aux = aux_cells;
    if (input_cells > peak_input) peak_input = input_cells;
    if (live_cells() > peak_live) peak_live = live_cells();
  }

  void record_space_release(std::uint64_t cells, SpaceKind kind) noexcept {
    std::uint64_t& gauge =
        kind == SpaceKind::kAux ? aux_cells : input_cells;
    gauge -= cells <= gauge ? cells : gauge;  // saturating: ledger bug,
                                              // not UB, on a double free
    ++space_releases;
  }

  /// Accumulate another run's counters into this one: counters sum,
  /// peaks max, gauges are left alone (they describe *this* machine's
  /// live state, not the other run's). A session rebuild uses this to
  /// fold its per-chain runs (Machine::reset clears metrics per run)
  /// into one total.
  void add_counters(const Metrics& o) noexcept {
    steps += o.steps;
    work += o.work;
    cw_conflicts += o.cw_conflicts;
    for (std::size_t i = 0; i < time_at_p.size(); ++i) {
      time_at_p[i] += o.time_at_p[i];
    }
    space_allocs += o.space_allocs;
    space_releases += o.space_releases;
    if (o.max_active > max_active) max_active = o.max_active;
    if (o.peak_live > peak_live) peak_live = o.peak_live;
    if (o.peak_aux > peak_aux) peak_aux = o.peak_aux;
    if (o.peak_input > peak_input) peak_input = o.peak_input;
  }
};

/// Visit the summable (monotonic across add_counters) counters of a
/// Metrics as (name, value) pairs, in a fixed order. External
/// aggregators — the serving stats registry folds PRAM totals into its
/// counters this way — stay decoupled from the Metrics field list:
/// build name-keyed sinks once with a default Metrics, then fold by the
/// same fixed order. Peaks and live gauges are excluded; they are not
/// summable.
template <class Fn>
void for_each_summable_counter(const Metrics& m, Fn&& fn) {
  fn("steps", m.steps);
  fn("work", m.work);
  fn("cw_conflicts", m.cw_conflicts);
  fn("space_allocs", m.space_allocs);
  fn("space_releases", m.space_releases);
}

/// Per-phase accounting: the counter fields are deltas over the phase's
/// lifetime; the peak fields are PHASE-LOCAL maxima, observed only while
/// the phase was open (a quiet phase nested in a busy run reports its own
/// small peaks, not the run's carried globals). Built by Machine::Phase;
/// peaks come from the machine's phase-peak stack, never from differencing
/// Metrics (peaks are not differencable).
struct PhaseDelta {
  std::uint64_t invocations = 0;
  std::uint64_t steps = 0;
  std::uint64_t work = 0;
  std::uint64_t cw_conflicts = 0;
  std::array<std::uint64_t, kTrackedProcCounts.size()> time_at_p{};
  std::uint64_t max_active = 0;  ///< Peak active procs while open.
  std::uint64_t peak_live = 0;   ///< Peak input + aux cells while open.
  std::uint64_t peak_aux = 0;    ///< Peak aux cells while open.

  /// Accumulate a re-entry: counters sum, peaks max.
  void add(const PhaseDelta& o) noexcept {
    invocations += o.invocations;
    steps += o.steps;
    work += o.work;
    cw_conflicts += o.cw_conflicts;
    for (std::size_t i = 0; i < time_at_p.size(); ++i) {
      time_at_p[i] += o.time_at_p[i];
    }
    if (o.max_active > max_active) max_active = o.max_active;
    if (o.peak_live > peak_live) peak_live = o.peak_live;
    if (o.peak_aux > peak_aux) peak_aux = o.peak_aux;
  }
};

/// Counter deltas between two Metrics snapshots (peak fields of the
/// result stay 0 — supply phase-local peaks separately, see PhaseDelta).
inline PhaseDelta counter_delta(const Metrics& now,
                                const Metrics& earlier) noexcept {
  PhaseDelta d;
  d.steps = now.steps - earlier.steps;
  d.work = now.work - earlier.work;
  d.cw_conflicts = now.cw_conflicts - earlier.cw_conflicts;
  for (std::size_t i = 0; i < d.time_at_p.size(); ++i) {
    d.time_at_p[i] = now.time_at_p[i] - earlier.time_at_p[i];
  }
  return d;
}

/// Named per-phase roll-up (e.g. "sample", "base-solve", "sweep").
using PhaseMetrics = std::map<std::string, PhaseDelta>;

}  // namespace iph::pram
