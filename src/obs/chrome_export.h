// Exporters for flight-recorder contents and PRAM phase timelines — the
// only code in the repo that writes Chrome trace-event JSON.
//
//   * tracez_json      — the `tracez` wire command / --tracez-out dump:
//                        recent (or slowest) retained traces plus the
//                        pinned tail exemplars, span times relative to
//                        each trace's root (tools/serve_wire.h wraps it
//                        in an envelope; tools/benchreport renders the
//                        exemplar table from it).
//   * chrome_trace_json(traces)
//                      — a Chrome trace-event document (chrome://tracing
//                        / ui.perfetto.dev) putting every retained
//                        request's span tree AND its linked PRAM phase
//                        spans on one timeline, one thread row per
//                        trace (hullserved --trace-out).
//   * chrome_trace_json(recorder)
//                      — one trace::Recorder's phase spans (the bench
//                        harness's IPH_TRACE_DIR files) on two rows:
//                        tid 1 "wall clock" in real microseconds, and
//                        tid 2 "PRAM virtual time" at 1 µs per PRAM
//                        step with pram_step_open / _close / pram_steps
//                        args. Two counter tracks on the step axis, one
//                        sample per recorder timeline bucket, plot
//                        "active processors" (max / mean) and
//                        "workspace cells" (aux / live); a
//                        "dropped_spans" member in the root object
//                        counts phases past the recorder's span cap.
//
// Span timestamps are absolute steady-clock ns; every exporter rebases
// (per-trace root for tracez, earliest start for Chrome) so emitted
// microsecond values stay small and diff-friendly.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/flight_recorder.h"
#include "trace/json.h"
#include "trace/recorder.h"

namespace iph::obs {

/// The tracez document: {"retained","published","dropped_spans",
/// "exemplars":[...],"traces":[...]}. `limit` caps the trace list
/// (0 = all retained); `slowest` orders by e2e descending instead of
/// most-recent-first.
trace::Json tracez_json(const FlightRecorder& rec, std::size_t limit,
                        bool slowest);

/// Chrome trace-event JSON over an explicit trace list (so callers can
/// filter/merge snapshots before export).
trace::Json chrome_trace_json(const std::vector<CompletedTrace>& traces);

/// Chrome trace-event JSON of one recorder's phase spans and its
/// utilization / space timeline (file comment).
trace::Json chrome_trace_json(const trace::Recorder& rec);

}  // namespace iph::obs
