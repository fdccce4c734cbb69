#include "obs/chrome_export.h"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "obs/context.h"

namespace iph::obs {

namespace {

using trace::Json;

constexpr int kPid = 1;
/// Thread rows of a recorder export.
constexpr int kTidWall = 1;
constexpr int kTidPram = 2;

/// Microseconds from `base` to `ns`, clamped at 0.
double us_after(std::uint64_t ns, std::uint64_t base) {
  return ns >= base ? static_cast<double>(ns - base) / 1e3 : 0.0;
}

/// Metadata ("M") event naming a process or thread row.
Json meta_event(const char* name, int tid, std::string value) {
  Json e = Json::object();
  e["ph"] = "M";
  e["pid"] = kPid;
  e["tid"] = tid;
  e["name"] = name;
  Json args = Json::object();
  args["name"] = std::move(value);
  e["args"] = std::move(args);
  return e;
}

/// Complete ("X") event: one span on thread row `tid`.
Json complete_event(int tid, const char* name, double ts_us, double dur_us,
                    Json args) {
  Json e = Json::object();
  e["ph"] = "X";
  e["pid"] = kPid;
  e["tid"] = tid;
  e["name"] = name;
  e["ts"] = ts_us;
  e["dur"] = dur_us;
  e["args"] = std::move(args);
  return e;
}

/// Counter ("C") sample: one value per series of the named track.
Json counter_event(const char* name, double ts_us,
                   std::initializer_list<std::pair<const char*, double>>
                       series) {
  Json e = Json::object();
  e["ph"] = "C";
  e["pid"] = kPid;
  e["name"] = name;
  e["ts"] = ts_us;
  Json args = Json::object();
  for (const auto& [key, value] : series) args[key] = value;
  e["args"] = std::move(args);
  return e;
}

Json document(Json events) {
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

Json span_json(const Span& s, std::uint64_t base_ns) {
  Json j = Json::object();
  j["name"] = s.name;
  j["span"] = static_cast<std::uint64_t>(s.span_id);
  j["parent"] = static_cast<std::uint64_t>(s.parent_id);
  j["start_us"] =
      s.start_ns >= base_ns
          ? static_cast<double>(s.start_ns - base_ns) / 1e3
          : -static_cast<double>(base_ns - s.start_ns) / 1e3;
  j["dur_us"] = s.duration_us();
  return j;
}

Json trace_json(const CompletedTrace& t) {
  Json j = Json::object();
  j["trace"] = to_hex(t.trace_id);
  if (t.parent_span != 0) j["client_span"] = to_hex(t.parent_span);
  j["id"] = t.request_id;
  j["kind"] = t.kind;
  j["status"] = t.status;
  if (t.backend[0] != '\0') j["backend"] = t.backend;
  if (t.tag[0] != '\0') j["tag"] = t.tag;
  if (t.batch_size != 0) j["batch"] = t.batch_size;
  j["e2e_ms"] = t.e2e_ms;
  if (!t.repro.empty()) j["repro"] = t.repro;
  const std::uint64_t base = t.root_start_ns();
  Json spans = Json::array();
  for (const Span& s : t.spans) spans.push_back(span_json(s, base));
  for (const Span& s : t.phase_spans) spans.push_back(span_json(s, base));
  j["spans"] = std::move(spans);
  if (t.phase_spans_truncated) j["phase_spans_truncated"] = true;
  return j;
}

}  // namespace

Json tracez_json(const FlightRecorder& rec, std::size_t limit,
                 bool slowest) {
  std::vector<CompletedTrace> traces = rec.snapshot();
  if (slowest) {
    std::stable_sort(traces.begin(), traces.end(),
                     [](const CompletedTrace& a, const CompletedTrace& b) {
                       return a.e2e_ms > b.e2e_ms;
                     });
  }
  if (limit != 0 && traces.size() > limit) traces.resize(limit);

  Json doc = Json::object();
  doc["retained"] = static_cast<std::uint64_t>(
      rec.retained() < 0 ? 0 : rec.retained());
  doc["published"] = rec.published_total();
  doc["dropped_spans"] = rec.spans_dropped_total();
  Json exemplars = Json::array();
  for (const Exemplar& e : rec.exemplars()) {
    Json j = Json::object();
    j["bucket_le_ms"] =
        e.bucket_le_ms == std::numeric_limits<double>::infinity()
            ? Json("+Inf")
            : Json(e.bucket_le_ms);
    j["trace"] = trace_json(e.trace);
    exemplars.push_back(std::move(j));
  }
  doc["exemplars"] = std::move(exemplars);
  Json list = Json::array();
  for (const CompletedTrace& t : traces) list.push_back(trace_json(t));
  doc["traces"] = std::move(list);
  return doc;
}

Json chrome_trace_json(const std::vector<CompletedTrace>& traces) {
  Json events = Json::array();
  events.push_back(meta_event("process_name", 0, "iph flight recorder"));
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const CompletedTrace& t : traces) {
    const std::uint64_t r = t.root_start_ns();
    if (r != 0 && r < base) base = r;
  }

  int tid = 0;
  for (const CompletedTrace& t : traces) {
    ++tid;
    events.push_back(meta_event("thread_name", tid,
                                std::string(t.kind) + " " +
                                    to_hex(t.trace_id) + " #" +
                                    std::to_string(t.request_id)));
    auto emit = [&](const Span& s, bool phase) {
      Json args = Json::object();
      args["trace"] = to_hex(t.trace_id);
      args["span"] = static_cast<std::uint64_t>(s.span_id);
      args["parent"] = static_cast<std::uint64_t>(s.parent_id);
      if (phase) args["source"] = "pram_phase";
      if (s.span_id == kRootSpanId) {
        args["status"] = t.status;
        if (t.backend[0] != '\0') args["backend"] = t.backend;
        args["e2e_ms"] = t.e2e_ms;
        if (!t.repro.empty()) args["repro"] = t.repro;
      }
      events.push_back(complete_event(tid, s.name, us_after(s.start_ns, base),
                                      s.duration_us(), std::move(args)));
    };
    for (const Span& s : t.spans) emit(s, false);
    for (const Span& s : t.phase_spans) emit(s, true);
  }
  return document(std::move(events));
}

Json chrome_trace_json(const trace::Recorder& rec) {
  Json events = Json::array();
  events.push_back(meta_event("process_name", kTidWall, "iph pram::Machine"));
  events.push_back(meta_event("thread_name", kTidWall, "wall clock"));
  events.push_back(
      meta_event("thread_name", kTidPram, "PRAM virtual time (1us = 1 step)"));
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const trace::PhaseSpan& s : rec.spans()) {
    base = std::min(base, s.start_ns);
  }
  for (const trace::PhaseSpan& s : rec.spans()) {
    const std::uint64_t steps = s.close_step - s.open_step;
    Json args = Json::object();
    args["pram_step_open"] = s.open_step;
    args["pram_step_close"] = s.close_step;
    args["pram_steps"] = steps;
    events.push_back(complete_event(
        kTidWall, s.name, us_after(s.start_ns, base),
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, args));
    events.push_back(complete_event(kTidPram, s.name,
                                    static_cast<double>(s.open_step),
                                    static_cast<double>(steps),
                                    std::move(args)));
  }

  // Utilization + space counter tracks against PRAM virtual time, one
  // sample per timeline bucket (see Recorder::timeline). The viewer
  // renders these as stacked counter tracks above the span rows.
  for (const trace::UtilSample& b : rec.timeline()) {
    const double ts = static_cast<double>(b.step_begin);
    const double mean =
        b.steps > 0
            ? static_cast<double>(b.active_sum) / static_cast<double>(b.steps)
            : 0.0;
    events.push_back(counter_event(
        "active processors", ts,
        {{"max", static_cast<double>(b.active_max)}, {"mean", mean}}));
    events.push_back(counter_event(
        "workspace cells", ts,
        {{"aux", static_cast<double>(b.aux_max)},
         {"live", static_cast<double>(b.live_max)}}));
  }

  Json doc = document(std::move(events));
  if (rec.dropped_spans() > 0) doc["dropped_spans"] = rec.dropped_spans();
  return doc;
}

}  // namespace iph::obs
