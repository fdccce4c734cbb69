#include "obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "trace/recorder.h"

namespace iph::obs {

const char* intern_name(std::string_view name) {
  // Process-lifetime intern table; deque gives stable element addresses
  // and the set keys are views into those elements.
  static std::mutex mu;
  static std::deque<std::string>* storage = new std::deque<std::string>();
  static std::unordered_set<std::string_view>* names =
      new std::unordered_set<std::string_view>();
  std::lock_guard<std::mutex> lk(mu);
  auto it = names->find(name);
  if (it != names->end()) return it->data();
  storage->emplace_back(name);
  names->insert(std::string_view(storage->back()));
  return storage->back().c_str();
}

// The recorder keeps at least as many spans per run as a trace can
// hold, so a run it truncated is also longer than kMaxPhaseSpans.
static_assert(trace::Recorder::kMaxSpans >= kMaxPhaseSpans);

std::vector<Span> exec_phase_spans(const std::vector<trace::PhaseSpan>& run,
                                   bool* truncated) {
  const std::size_t kept = std::min(run.size(), kMaxPhaseSpans);
  if (run.size() > kMaxPhaseSpans) *truncated = true;
  const auto span_id = [](std::uint32_t phase_id) {
    return kFirstPhaseSpanId - 1 + phase_id;
  };
  // A run's ids are 1..run.size(), so span id k goes to slot k - 1:
  // the output is in open order, parents before children.
  std::vector<Span> out(kept);
  for (const trace::PhaseSpan& p : run) {
    if (p.id == 0 || p.id > kept) continue;
    out[p.id - 1] = Span{intern_name(p.name), span_id(p.id),
                         p.parent == 0 ? kExecSpanId : span_id(p.parent),
                         p.start_ns, p.end_ns};
  }
  return out;
}

namespace {

std::size_t sanitize_capacity(std::size_t cap) {
  if (cap == 0) return 1;
  if (cap > (1u << 20)) return 1u << 20;
  return cap;
}

}  // namespace

FlightRecorder::FlightRecorder(const ObsConfig& cfg,
                               stats::Registry& registry)
    : capacity_(sanitize_capacity(cfg.capacity)),
      slots_(new Slot[capacity_]),
      bounds_(stats::latency_bounds_ms()),
      exemplar_slots_(new ExemplarSlot[bounds_.size() + 1]),
      published_request_(registry.counter(stats::labeled(
          statnames::kTracesPublishedBase, "kind", "request"))),
      published_session_(registry.counter(stats::labeled(
          statnames::kTracesPublishedBase, "kind", "session"))),
      spans_request_(registry.counter(stats::labeled(
          statnames::kSpansRecordedBase, "kind", "request"))),
      spans_session_(registry.counter(stats::labeled(
          statnames::kSpansRecordedBase, "kind", "session"))),
      spans_phase_(registry.counter(stats::labeled(
          statnames::kSpansRecordedBase, "kind", "phase"))),
      spans_dropped_(registry.counter(statnames::kSpansDropped)),
      exemplars_pinned_(registry.counter(statnames::kExemplarsPinned)),
      traces_retained_(registry.gauge(statnames::kTracesRetained)) {}

int FlightRecorder::exemplar_bucket(double e2e_ms) const noexcept {
  if (!(e2e_ms >= 0)) return -1;  // NaN / negative: never an exemplar.
  const auto it =
      std::lower_bound(bounds_.begin(), bounds_.end(), e2e_ms);
  const std::size_t idx =
      static_cast<std::size_t>(it - bounds_.begin());
  const std::uint64_t best = exemplar_slots_[idx].best_e2e_bits.load(
      std::memory_order_relaxed);
  if (best != 0 && std::bit_cast<double>(best) >= e2e_ms) return -1;
  return static_cast<int>(idx);
}

bool FlightRecorder::publish(CompletedTrace&& t) {
  // Attempt-time accounting: the published/spans counters include this
  // trace whether or not the ring retains it, so the
  // published == completed identity survives contention drops.
  const std::uint64_t span_count = t.spans.size();
  const std::uint64_t phase_count = t.phase_spans.size();
  const bool is_session = std::strcmp(t.kind, "session") == 0;
  (is_session ? published_session_ : published_request_).inc();
  (is_session ? spans_session_ : spans_request_).inc(span_count);
  if (phase_count != 0) spans_phase_.inc(phase_count);

  // Tail exemplar: pin (copy) when this e2e sets a bucket record. The
  // copy allocates, but only on a new record for the bucket — bounded
  // churn, and obs_test's no-alloc harness pre-pins records so steady
  // state is measurable.
  const int bucket = exemplar_bucket(t.e2e_ms);
  if (bucket >= 0) {
    ExemplarSlot& ex = exemplar_slots_[static_cast<std::size_t>(bucket)];
    std::uint64_t seq = ex.seq.load(std::memory_order_relaxed);
    if ((seq & 1) == 0 &&
        ex.seq.compare_exchange_strong(seq, seq + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      // Re-check the record under the claim; a racing pin may have
      // raised the bar between the advisory check and the claim.
      const std::uint64_t best =
          ex.best_e2e_bits.load(std::memory_order_relaxed);
      if (best == 0 || std::bit_cast<double>(best) < t.e2e_ms) {
        ex.trace = t;  // Copy: the move below still owns the payload.
        ex.best_e2e_bits.store(std::bit_cast<std::uint64_t>(t.e2e_ms),
                               std::memory_order_relaxed);
        exemplars_pinned_.inc();
      }
      ex.seq.store(seq + 2, std::memory_order_release);
    }
    // Claim lost: another pin is in flight for this bucket; skip.
  }

  const std::uint64_t ticket =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % capacity_];
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    // Slot claimed by a concurrent reader/writer: drop, never wait.
    spans_dropped_.inc(span_count + phase_count);
    return false;
  }
  const bool was_empty = slot.ticket == 0;
  slot.ticket = ticket + 1;
  slot.trace = std::move(t);  // Move: no allocation (hot-path contract).
  slot.seq.store(seq + 2, std::memory_order_release);
  if (was_empty) traces_retained_.add(1);
  return true;
}

std::vector<CompletedTrace> FlightRecorder::snapshot() const {
  struct Taken {
    std::uint64_t ticket;
    CompletedTrace trace;
  };
  std::vector<Taken> taken;
  taken.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !slot.seq.compare_exchange_strong(seq, seq + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      continue;  // A writer owns it right now; its publish will land.
    }
    if (slot.ticket != 0) taken.push_back({slot.ticket, slot.trace});
    slot.seq.store(seq + 2, std::memory_order_release);
  }
  std::sort(taken.begin(), taken.end(),
            [](const Taken& a, const Taken& b) {
              return a.ticket > b.ticket;  // Most recent first.
            });
  std::vector<CompletedTrace> out;
  out.reserve(taken.size());
  for (auto& e : taken) out.push_back(std::move(e.trace));
  return out;
}

std::vector<Exemplar> FlightRecorder::exemplars() const {
  std::vector<Exemplar> out;
  const std::size_t n = bounds_.size() + 1;
  for (std::size_t i = 0; i < n; ++i) {
    ExemplarSlot& ex = exemplar_slots_[i];
    if (ex.best_e2e_bits.load(std::memory_order_relaxed) == 0) continue;
    std::uint64_t seq = ex.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !ex.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      continue;
    }
    if (ex.best_e2e_bits.load(std::memory_order_relaxed) != 0) {
      Exemplar e;
      e.bucket_le_ms = i < bounds_.size()
                           ? bounds_[i]
                           : std::numeric_limits<double>::infinity();
      e.trace = ex.trace;
      out.push_back(std::move(e));
    }
    ex.seq.store(seq + 2, std::memory_order_release);
  }
  return out;
}

}  // namespace iph::obs
