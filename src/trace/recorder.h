// Per-phase trace recorder for the PRAM simulator.
//
// A Recorder implements pram::PhaseObserver: attach one to a Machine
// (attach(), or Machine::set_observer) and every Machine::Phase
// open/close, every synchronous step, and every analytic charge() is
// folded into
//
//   * an AGGREGATED PHASE TREE — nodes keyed by (parent, name), merged
//     across re-entries, carrying PRAM steps, work, peak active
//     processors, combining-write conflicts, direct (own, non-child)
//     steps, invocation counts, and accumulated wall-clock; and
//   * a SPAN LIST — one PhaseSpan per closed phase invocation, with
//     wall and PRAM-step stamps at open and close. obs/chrome_export.h
//     renders it as a timeline; the serving layer takes each request's
//     spans out after its run (take_spans) and links them under the
//     request's exec span. Phases past the first kMaxSpans to open are
//     counted, not stored.
//
// All callbacks run on the host thread between steps, so the recorder
// needs no locking, and everything it records except wall-clock
// (wall_ns, span start/end) is a pure function of (input, seed) —
// bit-identical across hardware thread counts (trace_test locks this
// in).
//
// The implicit root node aggregates the whole run; steps issued while no
// phase is open land in root.direct_steps — `anonymous_steps()` — which
// the phase-coverage audit asserts to be zero for the core algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pram/machine.h"

namespace iph::trace {

/// One node of the aggregated phase tree.
struct PhaseStats {
  std::string name;               ///< "" for the root.
  std::uint64_t invocations = 0;  ///< Times this (parent, name) opened.
  std::uint64_t steps = 0;        ///< PRAM steps, children included.
  std::uint64_t work = 0;         ///< PRAM work, children included.
  std::uint64_t max_active = 0;   ///< Peak active processors in any step.
  std::uint64_t cw_conflicts = 0; ///< Combining-write conflicts.
  std::uint64_t direct_steps = 0; ///< Steps while this node was innermost.
  std::uint64_t peak_live = 0;    ///< Peak live cells (input + aux) while open.
  std::uint64_t peak_aux = 0;     ///< Peak auxiliary cells while open.
  std::uint64_t first_open_step = 0;  ///< Machine step index at first open.
  double wall_ns = 0;             ///< Accumulated host wall-clock.
  std::vector<std::unique_ptr<PhaseStats>> children;  // insertion order

  /// Child by name, or nullptr. Path lookup: child("a")->child("b").
  const PhaseStats* child(std::string_view child_name) const noexcept;
};

/// One bucket of the downsampled per-step utilization/space timeline.
/// Each bucket covers `timeline_stride()` consecutive PRAM steps starting
/// at step_begin; `steps` of them actually executed (the open tail bucket
/// may be partial). Every field is a pure function of (input, seed).
struct UtilSample {
  std::uint64_t step_begin = 0;  ///< First PRAM step the bucket covers.
  std::uint64_t steps = 0;       ///< Steps recorded into the bucket.
  std::uint64_t active_max = 0;  ///< Peak active processors in the bucket.
  std::uint64_t active_sum = 0;  ///< Work in the bucket (mean = sum/steps).
  std::uint64_t live_max = 0;    ///< Peak live ledger cells in the bucket.
  std::uint64_t aux_max = 0;     ///< Peak auxiliary ledger cells.
};

/// One closed phase invocation, appended when the phase closes (so a
/// recorder's list is in close order; ids give the open order). `name`
/// points into the recorder's phase tree and lives as long as it does.
struct PhaseSpan {
  const char* name = "";
  std::uint32_t id = 0;        ///< Open order since the last take, from 1.
  std::uint32_t parent = 0;    ///< Enclosing phase's id; 0 = none.
  std::uint64_t start_ns = 0;  ///< steady_clock time_since_epoch at open.
  std::uint64_t end_ns = 0;    ///< ... and at close.
  std::uint64_t open_step = 0;   ///< Machine step index at open.
  std::uint64_t close_step = 0;  ///< ... and at close.
};

class Recorder final : public pram::PhaseObserver {
 public:
  /// Span-list cap: only the first kMaxSpans phases to open since the
  /// last take_spans() are stored, so the list is always a whole tree
  /// prefix (every stored span's parent is stored). The aggregated tree
  /// is never truncated.
  static constexpr std::size_t kMaxSpans = 1u << 15;
  /// Utilization-timeline bucket cap: when full, adjacent buckets are
  /// pair-merged and the stride doubles, so memory stays bounded while
  /// the whole run remains covered (downsampling, not truncation).
  static constexpr std::size_t kMaxTimeline = 2048;
  /// Active-processor histogram buckets: [0] counts idle steps
  /// (active == 0), bucket b >= 1 counts steps with
  /// 2^(b-1) <= active < 2^b.
  static constexpr std::size_t kHistBuckets = 66;

  Recorder();
  ~Recorder() override;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Attach to a machine: set_observer(this) + conflict counting on.
  void attach(pram::Machine& m) { m.set_observer(this); }

  // pram::PhaseObserver
  void on_phase_open(const std::string& name,
                     std::uint64_t step_index) override;
  void on_phase_close(std::uint64_t step_index) override;
  void on_step(std::uint64_t active, std::uint64_t conflicts) override;
  void on_charge(std::uint64_t steps, std::uint64_t work_per_step) override;
  void on_space(std::uint64_t input_cells, std::uint64_t aux_cells) override;

  const PhaseStats& root() const noexcept { return root_; }
  /// Steps (incl. charges) recorded while no named phase was open.
  std::uint64_t anonymous_steps() const noexcept {
    return root_.direct_steps;
  }
  /// Deepest phase nesting seen.
  std::size_t max_depth() const noexcept { return max_depth_; }

  /// Spans closed since the last take_spans(), in close order.
  const std::vector<PhaseSpan>& spans() const noexcept { return spans_; }
  /// Phases past kMaxSpans since the last take_spans(): counted, not
  /// stored.
  std::uint64_t dropped_spans() const noexcept { return dropped_spans_; }
  /// Hand the span list to the caller and start a fresh one: ids restart
  /// at 1 and the drop count at 0. Call between runs (quiescent()), so
  /// no open phase carries an id from the old numbering.
  std::vector<PhaseSpan> take_spans();
  /// True iff every open has been matched by a close (i.e. between runs).
  bool quiescent() const noexcept { return open_.size() == 1; }

  // --- per-step utilization / space timeline ---
  /// Downsampled series covering every PRAM step recorded so far (the
  /// last bucket may still be filling). At most kMaxTimeline buckets.
  const std::vector<UtilSample>& timeline() const noexcept {
    return timeline_;
  }
  /// PRAM steps per timeline bucket (doubles on each pair-merge).
  std::uint64_t timeline_stride() const noexcept { return stride_; }
  /// Log2 histogram of active-processor counts over all recorded steps
  /// (see kHistBuckets for the bucketing).
  const std::array<std::uint64_t, kHistBuckets>& active_histogram()
      const noexcept {
    return active_hist_;
  }
  /// Current space-ledger gauges as mirrored from on_space.
  std::uint64_t cur_input_cells() const noexcept { return cur_input_; }
  std::uint64_t cur_aux_cells() const noexcept { return cur_aux_; }

 private:
  struct Frame {
    PhaseStats* node;
    std::uint64_t id;  ///< Span id; 0 for the root.
    std::uint64_t start_ns;
    std::uint64_t open_step;
  };

  /// Record `count` uniform steps of `active` processors into the
  /// timeline + histogram (count > 1 only from on_charge).
  void bump_timeline(std::uint64_t count, std::uint64_t active);
  /// Make timeline_.back() the bucket covering pram_step_, pair-merging
  /// when the cap is hit.
  void ensure_bucket();

  PhaseStats root_;
  std::vector<Frame> open_;  ///< Innermost last; [0] is the root.
  std::vector<PhaseSpan> spans_;
  std::uint64_t last_id_ = 0;  ///< Span ids handed out since the last take.
  std::uint64_t dropped_spans_ = 0;
  std::size_t max_depth_ = 0;

  std::vector<UtilSample> timeline_;
  std::uint64_t stride_ = 1;     ///< PRAM steps per timeline bucket.
  std::uint64_t pram_step_ = 0;  ///< Steps recorded (timeline cursor).
  std::array<std::uint64_t, kHistBuckets> active_hist_{};
  std::uint64_t cur_input_ = 0;  ///< Ledger gauge mirror (on_space).
  std::uint64_t cur_aux_ = 0;    ///< Ledger gauge mirror (on_space).
};

}  // namespace iph::trace
