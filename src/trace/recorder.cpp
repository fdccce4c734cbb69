#include "trace/recorder.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/check.h"

namespace iph::trace {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Histogram bucket for an active-processor count (see kHistBuckets).
std::size_t hist_bucket(std::uint64_t active) {
  if (active == 0) return 0;
  std::size_t b = 1;
  while (active >>= 1) ++b;
  return b;  // 1 + floor(log2(active)), <= 65 for uint64
}

}  // namespace

const PhaseStats* PhaseStats::child(std::string_view child_name) const noexcept {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

Recorder::Recorder() {
  open_.push_back(Frame{&root_, 0, 0, 0});
  root_.invocations = 1;
}

Recorder::~Recorder() = default;

std::vector<PhaseSpan> Recorder::take_spans() {
  IPH_CHECK(quiescent());
  last_id_ = 0;
  dropped_spans_ = 0;
  return std::exchange(spans_, {});
}

void Recorder::on_phase_open(const std::string& name,
                             std::uint64_t step_index) {
  PhaseStats* parent = open_.back().node;
  PhaseStats* node = nullptr;
  for (const auto& c : parent->children) {
    if (c->name == name) {
      node = c.get();
      break;
    }
  }
  if (node == nullptr) {
    parent->children.push_back(std::make_unique<PhaseStats>());
    node = parent->children.back().get();
    node->name = name;
    node->first_open_step = step_index;
  }
  ++node->invocations;
  // Cells already live at open are live during the phase: seed its peaks.
  if (cur_input_ + cur_aux_ > node->peak_live) {
    node->peak_live = cur_input_ + cur_aux_;
  }
  if (cur_aux_ > node->peak_aux) node->peak_aux = cur_aux_;
  open_.push_back(Frame{node, ++last_id_, steady_now_ns(), step_index});
  if (open_.size() - 1 > max_depth_) max_depth_ = open_.size() - 1;
}

void Recorder::on_phase_close(std::uint64_t step_index) {
  if (open_.size() <= 1) return;  // unmatched close: ignore, keep the root
  const Frame f = open_.back();
  open_.pop_back();
  const std::uint64_t end_ns = steady_now_ns();
  f.node->wall_ns += static_cast<double>(end_ns - f.start_ns);
  // Ids grow along the open order and a parent opens before its child,
  // so capping by id keeps the stored spans a whole tree prefix.
  if (f.id > kMaxSpans) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(PhaseSpan{f.node->name.c_str(),
                             static_cast<std::uint32_t>(f.id),
                             static_cast<std::uint32_t>(open_.back().id),
                             f.start_ns, end_ns, f.open_step, step_index});
}

// A node can never appear twice in open_ (a node's identity is its
// (parent, name) path, and the stack is exactly one path), so charging
// every open frame never double-counts.
void Recorder::on_step(std::uint64_t active, std::uint64_t conflicts) {
  for (const Frame& f : open_) {
    f.node->steps += 1;
    f.node->work += active;
    f.node->cw_conflicts += conflicts;
    if (active > f.node->max_active) f.node->max_active = active;
  }
  open_.back().node->direct_steps += 1;
  bump_timeline(1, active);
}

void Recorder::on_charge(std::uint64_t steps, std::uint64_t work_per_step) {
  for (const Frame& f : open_) {
    f.node->steps += steps;
    f.node->work += steps * work_per_step;
    if (work_per_step > f.node->max_active) {
      f.node->max_active = work_per_step;
    }
  }
  open_.back().node->direct_steps += steps;
  bump_timeline(steps, work_per_step);
}

void Recorder::on_space(std::uint64_t input_cells, std::uint64_t aux_cells) {
  cur_input_ = input_cells;
  cur_aux_ = aux_cells;
  const std::uint64_t live = input_cells + aux_cells;
  for (const Frame& f : open_) {
    if (live > f.node->peak_live) f.node->peak_live = live;
    if (aux_cells > f.node->peak_aux) f.node->peak_aux = aux_cells;
  }
  // Fold a between-steps spike into the bucket the next step lands in,
  // so the exported series never understates a watermark.
  ensure_bucket();
  UtilSample& b = timeline_.back();
  if (live > b.live_max) b.live_max = live;
  if (aux_cells > b.aux_max) b.aux_max = aux_cells;
}

void Recorder::ensure_bucket() {
  if (!timeline_.empty() &&
      pram_step_ < timeline_.back().step_begin + stride_) {
    return;
  }
  if (timeline_.size() >= kMaxTimeline) {
    // Pair-merge: buckets are contiguous from step 0, so (2i, 2i+1)
    // always form one aligned bucket of the doubled stride.
    for (std::size_t i = 0; i + 1 < timeline_.size(); i += 2) {
      UtilSample& a = timeline_[i];
      const UtilSample& c = timeline_[i + 1];
      a.steps += c.steps;
      a.active_sum += c.active_sum;
      a.active_max = std::max(a.active_max, c.active_max);
      a.live_max = std::max(a.live_max, c.live_max);
      a.aux_max = std::max(a.aux_max, c.aux_max);
      timeline_[i / 2] = a;
    }
    timeline_.resize(timeline_.size() / 2);
    stride_ *= 2;
  }
  UtilSample b;
  b.step_begin = (pram_step_ / stride_) * stride_;
  b.live_max = cur_input_ + cur_aux_;
  b.aux_max = cur_aux_;
  timeline_.push_back(b);
}

void Recorder::bump_timeline(std::uint64_t count, std::uint64_t active) {
  if (count > 0) active_hist_[hist_bucket(active)] += count;
  while (count > 0) {
    ensure_bucket();
    UtilSample& b = timeline_.back();
    const std::uint64_t room = b.step_begin + stride_ - pram_step_;
    const std::uint64_t take = std::min(count, room);
    b.steps += take;
    b.active_sum += take * active;
    if (active > b.active_max) b.active_max = active;
    const std::uint64_t live = cur_input_ + cur_aux_;
    if (live > b.live_max) b.live_max = live;
    if (cur_aux_ > b.aux_max) b.aux_max = cur_aux_;
    pram_step_ += take;
    count -= take;
  }
}

}  // namespace iph::trace
