// Combining-write conflict accounting for the CRCW PRAM simulator.
//
// DESIGN.md §4 promises a `cw_conflicts` metric: how many same-step
// writes to one combining cell arrived *after* the first one. The count
// is a property of the PRAM program, not of the host schedule — for a
// cell written by w processors in one step it is exactly w-1 — so it is
// bit-reproducible across hardware thread counts and is safe to check
// against committed baselines.
//
// Mechanism (same discipline as the shadow.h step-race checker): while a
// counting Machine is mid-step it publishes a ConflictSink holding the
// current step stamp and a relaxed counter. Every combining-cell write
// calls conflict_probe() on the cell's private stamp word: exchanging in
// the step stamp and seeing it already there means another writer beat
// us this step, so the sink counter bumps. When no sink is published
// (counting off, the default) a probe is one relaxed load and an
// untaken branch — the same cost model as shadow_sanctioned_write — and
// the step/work metrics are identical either way.
#pragma once

#include <atomic>
#include <cstdint>

namespace iph::pram {

/// Published by a counting Machine for the duration of one step.
struct ConflictSink {
  /// step_index + 1 of the step being executed (never 0, so a
  /// freshly-zeroed cell stamp can never alias it).
  std::uint64_t stamp = 0;
  std::atomic<std::uint64_t> count{0};
};

namespace conflict_detail {
/// Sink the CURRENT THREAD is counting into, or null. Thread-local, not
/// process-global, because machines step concurrently (each serve
/// worker drives its own): the host thread binds its machine's
/// sink around each counted step, and a machine's pool workers bind it
/// at job pickup under the pool mutex (machine.cpp worker_loop), so no
/// thread can ever observe another machine's sink.
inline thread_local ConflictSink* t_sink = nullptr;
}  // namespace conflict_detail

/// Called by every combining-cell write with the cell's stamp word.
/// No-op unless the current thread is executing a counted step.
inline void conflict_probe(std::atomic<std::uint64_t>& cell_stamp) noexcept {
  ConflictSink* s = conflict_detail::t_sink;
  if (s == nullptr) return;
  if (cell_stamp.exchange(s->stamp, std::memory_order_relaxed) == s->stamp) {
    s->count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace iph::pram
