// Span trees of completed requests, as retained by the flight
// recorder.
//
// Spans are NOT opened/closed live on the hot path. The serving
// pipeline already stamps every boundary it needs for latency
// accounting (enqueue, batch pop, per-request exec start/end —
// serve/service.cpp; the lease span is zero-length at the pop, kept so
// the tree's shape is unchanged); a trace is assembled from those
// stamps once, at completion time, and handed to the FlightRecorder in
// one move. That is what keeps the always-on recorder near zero cost:
// the per-request work is a handful of already-taken clock reads plus
// one small vector the request was going to pay for anyway.
//
// Fixed span shape (the exact-reconciliation contract, extending the
// PR 5 scrape discipline to causality data):
//   * every completed ("ok") batch request publishes EXACTLY
//     kSpansPerRequest spans — request / queue_wait / lease / exec —
//     so iph_obs_spans_recorded_total{kind=request} ==
//     kSpansPerRequest x iph_serve_completed_total, checked by
//     hullload --scrape and serve_test;
//   * a session append publishes a session_append root plus a rebuild
//     child iff the append rebuilt, so
//     iph_obs_spans_recorded_total{kind=session} ==
//     appends + rebuilds.
// PRAM phase-tree spans (the iph::trace linkage) live in a SEPARATE
// vector and counter (kind=phase) precisely so they never perturb
// those identities — their count depends on the algorithm's recursion
// depth, not on request accounting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iph::trace {
struct PhaseSpan;
}  // namespace iph::trace

namespace iph::obs {

/// One closed span. Timestamps are absolute steady-clock nanoseconds
/// (steady_clock::time_since_epoch), so request spans and PRAM phase
/// spans (trace::PhaseSpan, same clock) land on one comparable
/// timeline without clock translation at record time.
struct Span {
  const char* name = "";        ///< Static string (no allocation).
  std::uint32_t span_id = 0;    ///< Unique within the trace; root is 1.
  std::uint32_t parent_id = 0;  ///< 0 = no parent (the root span).
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double duration_us() const noexcept {
    return end_ns > start_ns
               ? static_cast<double>(end_ns - start_ns) / 1e3
               : 0.0;
  }
};

/// Span ids of the fixed per-request tree (span.h file comment).
inline constexpr std::uint32_t kRootSpanId = 1;
inline constexpr std::uint32_t kQueueWaitSpanId = 2;
inline constexpr std::uint32_t kLeaseSpanId = 3;
inline constexpr std::uint32_t kExecSpanId = 4;
inline constexpr std::uint64_t kSpansPerRequest = 4;
/// Phase spans are numbered from here (parented under the exec span).
inline constexpr std::uint32_t kFirstPhaseSpanId = 8;

/// The span tree of one finished request (or session append), as
/// published to the flight recorder. All string-ish metadata is static
/// (const char*) and the vectors are built before publish, so moving a
/// CompletedTrace into a ring slot never allocates — the hot-path
/// contract obs_test pins down.
struct CompletedTrace {
  std::uint64_t trace_id = 0;
  /// Caller-supplied enclosing span (TraceContext::parent_span): the
  /// conceptual parent of the root span, kept out of Span::parent_id
  /// (which is trace-local and 32-bit). 0 = none.
  std::uint64_t parent_span = 0;
  std::uint64_t request_id = 0;  ///< Request id, or sid for sessions.
  const char* kind = "request";  ///< "request" | "session".
  const char* status = "ok";     ///< serve::status_name spelling.
  const char* backend = "";      ///< Engine that ran it ("" = n/a).
  const char* tag = "";          ///< e.g. batch close reason.
  std::uint64_t batch_size = 0;
  double e2e_ms = 0;
  /// Exemplar repro reference (IPH_EXEC_REPRO_DIR-shaped JSON written
  /// by the service when this trace was pinned as a native-backend
  /// tail exemplar); empty otherwise.
  std::string repro;
  std::vector<Span> spans;        ///< The fixed request/session tree.
  std::vector<Span> phase_spans;  ///< PRAM phase linkage (may be empty).
  bool phase_spans_truncated = false;  ///< Hit kMaxPhaseSpans.

  std::uint64_t root_start_ns() const noexcept {
    return spans.empty() ? 0 : spans.front().start_ns;
  }
};

/// Cap on linked PRAM phase spans per trace: deep recursions are
/// truncated (flagged, never silently) so one pathological request
/// cannot make publish cost unbounded.
inline constexpr std::size_t kMaxPhaseSpans = 128;

/// Intern a dynamic span name (e.g. a PRAM phase name out of a
/// trace::Recorder phase tree, whose std::string storage does not
/// outlive the recorder) into process-lifetime storage, returning a
/// stable const char*. The name set is small and bounded (algorithm
/// phase names), so the intern table never grows past a handful of
/// entries; safe from any thread. Defined in flight_recorder.cpp.
const char* intern_name(std::string_view name);

/// One PRAM run's phase spans (trace::Recorder::take_spans) as children
/// of the request's exec span: span ids follow the phases' open order
/// from kFirstPhaseSpanId, top-level phases hang off kExecSpanId, and
/// names are interned. Only the first kMaxPhaseSpans phases to open are
/// kept, so every kept span's parent is kept too; *truncated is set
/// when the run had more. Defined in flight_recorder.cpp.
std::vector<Span> exec_phase_spans(const std::vector<trace::PhaseSpan>& run,
                                   bool* truncated);

}  // namespace iph::obs
