// NDJSON wire protocol shared by hullserved (server) and hullload
// (load generator). One JSON object per line, in both directions.
//
// Request line — either inline points or a named workload:
//   {"id": 7, "points": [[x0,y0],[x1,y1],...]}
//   {"id": 7, "n": 512, "workload": "disk", "seed": 42}
// Optional fields: "alpha" (in-place-bridge round budget, default 8),
// "deadline_ms" (relative deadline from receipt; expired-in-queue
// requests are answered "expired"), "edge_above" (bool; include the
// per-point edge-above array in the response — it is n entries, so off
// by default), "backend" ("pram" | "native" | "default"; which
// execution engine runs the request — "default", the default, defers
// to the server's --backend; unknown names are a parse error).
//
// Response line:
//   {"id": 7, "status": "ok", "hull": [3,17,...], "edge_count": 5,
//    "metrics": {"queue_wait_ms": ..., "exec_ms": ..., "e2e_ms": ...,
//                "batch_size": ..., "shard": ..., "steps": ...,
//                "work": ..., "max_active": ..., "seed": "<u64>",
//                "backend": "pram" | "native"}}
// The metrics "backend" is the engine that actually ran the request
// (always resolved — never "default"); native runs report zero PRAM
// steps/work/max_active (exec/backend.h cost-metric contract).
// "batch_size" is always 1: a worker runs one request at a time.
// Non-ok statuses ("rejected_full", "rejected_shutdown", "expired")
// omit "hull"/"edge_count". A line the server cannot parse is answered
// {"error": "..."} and the stream continues — the protocol never goes
// silent mid-stream. Each line is first decoded by decode_envelope
// (cluster/protocol.h), which hullrouter shares, so a malformed line
// gets the same answer from both; the decoders below read the rest.
// Numbers are range-checked before any cast by cluster::number_field:
// "id", "seed", "sid" and "limit" must be integers in [0, 2^53] ("sid"
// from 1), "alpha" an integer in [1, kMaxAlpha], a generated "n" an
// integer in [1, kMaxGeneratedPoints], "deadline_ms" a number in
// [0, kMaxDeadlineMs], and every coordinate finite; anything else is a
// bad_request error line. It has no "status", so the router counts no
// forward for it (cluster/stats.h).
//
// Numbers are strict JSON, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?:
// hex, a leading '+', '0' or '.', and inf/nan words are bad_json, from
// either front end; a magnitude beyond the double range reads as +-inf
// and fails the range and finiteness checks. Points never become a
// tree: decode_envelope scans a "points" array of number pairs straight
// into Envelope::points (hullserved converts them; the router only
// checks them and forwards the line's bytes), and request_from_envelope
// / session_append_from_envelope move them into the decoded line.
// Any other "points" value stays in the tree and the decoders below
// read it there, so a bad one gets points_from_json's text either way;
// request_from_json and session_append_from_json decode a line parsed
// whole.
//
// The metrics "seed" is serialized as a decimal string: it is a full
// 64-bit splitmix value and Json numbers are doubles.
//
// Tracing: a request may carry {"trace": {"id": "<hex>", "span":
// "<hex>"?}} — the trace id (1-16 hex digits, no 0x; hex because Json
// numbers are doubles and cannot hold a u64) is adopted verbatim as the
// request's server-side identity, and the optional "span" names the
// client's enclosing span (becomes the conceptual parent of the
// server-side root span). Requests without one get a server-stamped id
// (hullserved: connection << 32 | sequence, so ids are unique and
// monotonic per connection). Every response echoes the identity back as
// {"trace": {"id": "...", "span"?}}. A malformed "trace" field is a
// per-message {"error": ...} like any bad line — the stream continues.
//
// {"cmd": "tracez", "limit": N?, "order": "recent" | "slowest"?}
//   -> {"tracez": {"retained": .., "published": .., "dropped_spans": ..,
//       "exemplars": [{"bucket_le_ms": .., "trace": {...}}, ...],
//       "traces": [{"trace": "<hex>", "id": .., "kind": "request",
//         "status": "ok", "backend": .., "e2e_ms": ..,
//         "spans": [{"name": .., "span": .., "parent": ..,
//                    "start_us": .., "dur_us": ..}, ...]}, ...]}}
// answers from the server's flight recorder (obs/flight_recorder.h);
// "limit" defaults to 16 (0 = everything retained), "order" defaults to
// "recent". With tracing disabled (--obs-capacity 0) tracez is an
// {"error": ...}.
//
// Introspection: a line carrying {"cmd": "statz"} is not a hull request
// — the server answers it with a snapshot of its service-level metrics
// registry (src/serve/stats.h), in stream order (the statz answer is
// written after every previously submitted request's response):
//   {"cmd": "statz", "format": "json"?}      -> {"statz": <iph-stats-v1>}
//   {"cmd": "statz", "format": "prometheus"} -> {"statz_text": "<text>"}
// An unknown "cmd" is answered {"error": ...} like any bad line.
//
// Streaming sessions (src/session) share the stream with batch
// requests; all three are command lines:
//   {"cmd": "session_open", "backend": "native"?}
//     -> {"sid": 7, "status": "ok", "backend": "native"}
//     -> {"sid": 0, "status": "cap"}          (admission cap)
//   {"cmd": "session_append", "sid": 7, "points": [[x,y],...]}
//   {"cmd": "session_append", "sid": 7, "n": 64, "workload": "disk",
//    "seed": 3}                               (named batch, like requests)
//     -> {"sid": 7, "status": "ok",
//         "delta": [[side,pos,removed,x,y],...],   side: 0=upper 1=lower
//         "rebuilt": false, "rebuild_ms": 0.0}
//     -> {"sid": 7, "status": "unknown" | "closed" | "oversized"}
//   {"cmd": "session_close", "sid": 7}
//     -> {"sid": 7, "status": "ok", "summary": {"points": ..,
//         "appends": .., "rebuilds": .., "mismatches": ..,
//         "peak_aux_cells": .., "upper": .., "lower": ..}}
//     -> {"sid": 7, "status": "unknown" | "closed"}
// A delta entry [side, pos, removed, x, y] means: in chain `side`,
// at position `pos`, remove `removed` vertices and insert (x, y)
// there; replaying entries in array order reconstructs the chains
// exactly (session/session.h DeltaOp). "unknown" = the sid was never
// issued; "closed" = issued and already closed — the distinction is
// real because sids are monotonic. Malformed session lines (missing
// sid, bad points) get {"error": ...} and the stream continues.
//
// Versioning (src/cluster/protocol.h): every response line carries
// {"v": 1}. Requests may pin a "v"; a request pinning a version newer
// than this build speaks is answered with a structured reject. Error
// lines carry a machine-readable {"reject": "<reason>"} alongside the
// prose — bad_json / bad_request / unknown_cmd / version from a
// backend, plus the router-minted reasons listed in protocol.h.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/protocol.h"
#include "exec/backend.h"
#include "geom/workloads.h"
#include "obs/chrome_export.h"
#include "obs/context.h"
#include "serve/request.h"
#include "session/manager.h"
#include "stats/export.h"
#include "support/linechan.h"
#include "trace/json.h"

namespace iph::tools {

using cluster::kMaxWireInteger;
using cluster::number_field;
using cluster::statz_from_json;

/// Both sides of the protocol speak through this (stdin/stdout or a
/// connected socket); shared with the cluster router via support/.
using LineChannel = support::LineChannel;

/// Generate a named 2-d workload (geom/workloads.h family names:
/// "circle", "disk", "square", ...). Returns false for unknown names.
inline bool make_workload(const std::string& name, std::size_t n,
                          std::uint64_t seed,
                          std::vector<geom::Point2>* out) {
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    if (geom::family_name(f) == name) {
      *out = geom::make2d(f, n, seed);
      return true;
    }
  }
  return false;
}

/// Largest "n" a request or session_append may ask the server to
/// generate: 2^22 points, 64 MiB of coordinates. Inline "points" are
/// bounded by the line itself.
inline constexpr double kMaxGeneratedPoints = 4194304;
/// Largest "alpha" (in-place-bridge round budget) a request may pin.
inline constexpr double kMaxAlpha = 64;

/// Decode inline "points": [x, y] pairs of finite numbers.
inline bool points_from_json(const trace::Json& pts,
                             std::vector<geom::Point2>* out,
                             std::string* err) {
  out->reserve(pts.size());
  for (const trace::Json& p : pts.items()) {
    if (!p.is_array() || p.size() != 2 || !p.at(0).is_number() ||
        !p.at(1).is_number()) {
      *err = "\"points\" entries must be [x, y] number pairs";
      return false;
    }
    const geom::Point2 q{p.at(0).as_double(), p.at(1).as_double()};
    if (!std::isfinite(q.x) || !std::isfinite(q.y)) {
      *err = "\"points\" coordinates must be finite";
      return false;
    }
    out->push_back(q);
  }
  return true;
}

/// Generate the named batch of a line without "points": "n" (required,
/// an integer in [1, kMaxGeneratedPoints]), "workload" (default "disk")
/// and "seed".
inline bool generated_from_json(const trace::Json& j,
                                std::vector<geom::Point2>* out,
                                std::string* err) {
  double n = 0;
  double seed = 0;
  if (!number_field(j, "n", 1, kMaxGeneratedPoints, true, 0, &n, err) ||
      !number_field(j, "seed", 0, kMaxWireInteger, true, 0, &seed, err)) {
    return false;
  }
  const std::string workload = j.get_str("workload", "disk");
  if (!make_workload(workload, static_cast<std::size_t>(n),
                     static_cast<std::uint64_t>(seed), out)) {
    *err = "unknown workload \"" + workload + "\"";
    return false;
  }
  return true;
}

/// The points of a request or session_append line: those decode_envelope
/// already read (`read`, moved from), else an inline "points" array from
/// the tree, else the named batch generated_from_json makes.
inline bool line_points(const trace::Json& j, std::vector<geom::Point2>* read,
                        std::vector<geom::Point2>* out, std::string* err) {
  out->clear();
  if (read != nullptr) {
    *out = std::move(*read);
    return true;
  }
  if (const trace::Json* pts = j.find("points"); pts && pts->is_array()) {
    return points_from_json(*pts, out, err);
  }
  return generated_from_json(j, out, err);
}

/// Decode one request line from its tree `j`, with `read` as in
/// line_points. On success fills `out` (deadline resolved against
/// Clock::now(), Request::edge_above from the wire field) and
/// `want_edge_above`; on failure returns false with a message in *err.
inline bool request_from(const trace::Json& j,
                         std::vector<geom::Point2>* read,
                         serve::Request* out, bool* want_edge_above,
                         std::string* err) {
  if (!j.is_object()) {
    *err = "request is not a JSON object";
    return false;
  }
  *out = serve::Request{};
  double alpha = 0;
  double deadline_ms = 0;
  if (!cluster::request_fields(j, &out->id, &deadline_ms, err) ||
      !number_field(j, "alpha", 1, kMaxAlpha, true, 8, &alpha, err) ||
      !line_points(j, read, &out->points, err)) {
    return false;
  }
  out->alpha = static_cast<int>(alpha);
  if (const trace::Json* b = j.find("backend"); b != nullptr) {
    if (!b->is_string() ||
        !exec::parse_backend(b->as_string(), &out->backend)) {
      *err = "\"backend\" must be \"pram\", \"native\" or \"default\"";
      return false;
    }
  }
  if (const trace::Json* tr = j.find("trace"); tr != nullptr) {
    if (!tr->is_object()) {
      *err = "\"trace\" must be an object";
      return false;
    }
    const trace::Json* tid = tr->find("id");
    if (tid == nullptr || !tid->is_string() ||
        !obs::from_hex(tid->as_string(), &out->trace.trace_id)) {
      *err = "\"trace\".\"id\" must be a 1-16 digit hex string";
      return false;
    }
    if (const trace::Json* sp = tr->find("span"); sp != nullptr) {
      if (!sp->is_string() ||
          !obs::from_hex(sp->as_string(), &out->trace.parent_span)) {
        *err = "\"trace\".\"span\" must be a 1-16 digit hex string";
        return false;
      }
    }
  }
  if (deadline_ms > 0) {
    out->deadline = serve::Clock::now() +
                    std::chrono::microseconds(
                        static_cast<std::int64_t>(deadline_ms * 1000.0));
  }
  const trace::Json* ea = j.find("edge_above");
  *want_edge_above = ea != nullptr && ea->as_bool();
  out->edge_above = *want_edge_above;
  return true;
}

/// Decode a request line parsed whole into `j` (no points read aside).
inline bool request_from_json(const trace::Json& j, serve::Request* out,
                              bool* want_edge_above, std::string* err) {
  return request_from(j, nullptr, out, want_edge_above, err);
}

/// Decode a request line that decode_envelope read with its points
/// kept; they move out of `in`.
inline bool request_from_envelope(cluster::Envelope& in, serve::Request* out,
                                  bool* want_edge_above, std::string* err) {
  return request_from(in.json, in.points_read ? &in.points : nullptr, out,
                      want_edge_above, err);
}

/// Encode one response line (see file comment for the shape).
inline trace::Json response_to_json(const serve::Response& r,
                                    bool edge_above) {
  trace::Json o = trace::Json::object();
  o["id"] = trace::Json(r.id);
  o["status"] = trace::Json(serve::status_name(r.status));
  if (r.status == serve::Status::kOk) {
    trace::Json hull = trace::Json::array();
    for (const geom::Index v : r.hull.upper.vertices) {
      hull.push_back(trace::Json(static_cast<std::uint64_t>(v)));
    }
    o["hull"] = std::move(hull);
    o["edge_count"] =
        trace::Json(static_cast<std::uint64_t>(r.hull.upper.edge_count()));
    if (edge_above) {
      trace::Json above = trace::Json::array();
      for (const geom::Index e : r.hull.edge_above) {
        above.push_back(trace::Json(static_cast<std::uint64_t>(e)));
      }
      o["edge_above"] = std::move(above);
    }
  }
  trace::Json m = trace::Json::object();
  m["queue_wait_ms"] = trace::Json(r.metrics.queue_wait_ms);
  m["exec_ms"] = trace::Json(r.metrics.exec_ms);
  m["e2e_ms"] = trace::Json(r.metrics.e2e_ms);
  m["batch_size"] = trace::Json(r.metrics.batch_size);
  m["shard"] = trace::Json(r.metrics.shard);
  m["steps"] = trace::Json(r.metrics.steps);
  m["work"] = trace::Json(r.metrics.work);
  m["max_active"] = trace::Json(r.metrics.max_active);
  m["seed"] = trace::Json(std::to_string(r.metrics.seed));
  m["backend"] = trace::Json(exec::backend_name(r.metrics.backend));
  o["metrics"] = std::move(m);
  if (r.trace.has_id()) {
    trace::Json t = trace::Json::object();
    t["id"] = trace::Json(obs::to_hex(r.trace.trace_id));
    if (r.trace.parent_span != 0) {
      t["span"] = trace::Json(obs::to_hex(r.trace.parent_span));
    }
    o["trace"] = std::move(t);
  }
  cluster::stamp_version(&o);
  return o;
}

/// Encode a statz answer (see file comment for both shapes).
inline trace::Json statz_response(const stats::RegistrySnapshot& snap,
                                  bool prometheus) {
  trace::Json o = trace::Json::object();
  if (prometheus) {
    o["statz_text"] = trace::Json(stats::to_prometheus(snap));
  } else {
    o["statz"] = stats::to_json(snap);
  }
  cluster::stamp_version(&o);
  return o;
}

/// Encode a tracez answer from the server's flight recorder.
inline trace::Json tracez_response(const obs::FlightRecorder& rec,
                                   std::size_t limit, bool slowest) {
  trace::Json o = trace::Json::object();
  o["tracez"] = obs::tracez_json(rec, limit, slowest);
  cluster::stamp_version(&o);
  return o;
}

/// Decode a session_open command line's "backend" (absent: kDefault).
inline bool session_open_from_json(const trace::Json& j,
                                   exec::BackendKind* want,
                                   std::string* err) {
  *want = exec::BackendKind::kDefault;
  if (const trace::Json* b = j.find("backend"); b != nullptr) {
    if (!b->is_string() || !exec::parse_backend(b->as_string(), want)) {
      *err = "\"backend\" must be \"pram\", \"native\" or \"default\"";
      return false;
    }
  }
  return true;
}

/// Decode a session_append line: sid plus inline "points" or a named
/// "n"/"workload"/"seed" batch (same generation as batch requests).
inline bool session_append_from_json(const trace::Json& j,
                                     std::uint64_t* sid,
                                     std::vector<geom::Point2>* pts,
                                     std::string* err) {
  return cluster::sid_field(j, sid, err) && line_points(j, nullptr, pts, err);
}

/// Decode a session_append line that decode_envelope read with its
/// points kept (its sid already checked there); they move out of `in`.
inline bool session_append_from_envelope(cluster::Envelope& in,
                                         std::vector<geom::Point2>* pts,
                                         std::string* err) {
  return line_points(in.json, in.points_read ? &in.points : nullptr, pts,
                     err);
}

/// Encode a session_open answer.
inline trace::Json session_open_response(session::SessionStatus st,
                                         const session::OpenInfo& info) {
  trace::Json o = trace::Json::object();
  o["sid"] = trace::Json(info.sid);
  o["status"] = trace::Json(session::session_status_name(st));
  if (st == session::SessionStatus::kOk) {
    o["backend"] = trace::Json(exec::backend_name(info.backend));
  }
  cluster::stamp_version(&o);
  return o;
}

/// Encode a session_append answer ("delta" only on ok — see the file
/// comment for the [side, pos, removed, x, y] entry shape).
inline trace::Json session_append_response(std::uint64_t sid,
                                           session::SessionStatus st,
                                           const session::AppendResult& res) {
  trace::Json o = trace::Json::object();
  o["sid"] = trace::Json(sid);
  o["status"] = trace::Json(session::session_status_name(st));
  if (st != session::SessionStatus::kOk) {
    cluster::stamp_version(&o);
    return o;
  }
  trace::Json delta = trace::Json::array();
  for (const session::DeltaOp& op : res.ops) {
    trace::Json e = trace::Json::array();
    e.push_back(trace::Json(static_cast<std::uint64_t>(op.side)));
    e.push_back(trace::Json(static_cast<std::uint64_t>(op.pos)));
    e.push_back(trace::Json(static_cast<std::uint64_t>(op.removed)));
    e.push_back(trace::Json(op.point.x));
    e.push_back(trace::Json(op.point.y));
    delta.push_back(std::move(e));
  }
  o["delta"] = std::move(delta);
  o["rebuilt"] = trace::Json(res.rebuilt);
  o["rebuild_ms"] = trace::Json(res.rebuild_ms);
  cluster::stamp_version(&o);
  return o;
}

/// Decode the delta array of a session_append answer back into ops
/// (the client-side replay path — hullload and session smoke use it).
inline bool delta_from_json(const trace::Json& reply,
                            std::vector<session::DeltaOp>* ops,
                            std::string* err) {
  ops->clear();
  const trace::Json* d = reply.is_object() ? reply.find("delta") : nullptr;
  if (d == nullptr || !d->is_array()) {
    *err = "no \"delta\" array in session_append reply";
    return false;
  }
  ops->reserve(d->size());
  for (const trace::Json& e : d->items()) {
    if (!e.is_array() || e.size() != 5) {
      *err = "delta entries must be [side, pos, removed, x, y]";
      return false;
    }
    session::DeltaOp op;
    op.side = e.at(0).as_double() == 0 ? session::Side::kUpper
                                       : session::Side::kLower;
    op.pos = static_cast<std::uint32_t>(e.at(1).as_double());
    op.removed = static_cast<std::uint32_t>(e.at(2).as_double());
    op.point = {e.at(3).as_double(), e.at(4).as_double()};
    ops->push_back(op);
  }
  return true;
}

/// Encode a session_close answer ("summary" only on ok).
inline trace::Json session_close_response(std::uint64_t sid,
                                          session::SessionStatus st,
                                          const session::CloseSummary& sum) {
  trace::Json o = trace::Json::object();
  o["sid"] = trace::Json(sid);
  o["status"] = trace::Json(session::session_status_name(st));
  if (st != session::SessionStatus::kOk) {
    cluster::stamp_version(&o);
    return o;
  }
  trace::Json s = trace::Json::object();
  s["points"] = trace::Json(sum.points_seen);
  s["appends"] = trace::Json(sum.appends);
  s["rebuilds"] = trace::Json(sum.rebuilds);
  s["mismatches"] = trace::Json(sum.rebuild_mismatches);
  s["peak_aux_cells"] = trace::Json(sum.peak_aux_cells);
  s["upper"] = trace::Json(sum.upper_size);
  s["lower"] = trace::Json(sum.lower_size);
  o["summary"] = std::move(s);
  cluster::stamp_version(&o);
  return o;
}

}  // namespace iph::tools
