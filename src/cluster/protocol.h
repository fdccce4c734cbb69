// The NDJSON line protocol's envelope, decoded in one place for the
// backend server (hullserved) and the cluster router: decode_envelope()
// checks every field a front end reads itself, and a refused line is
// answered make_error(reject, error), the same bytes from either. The
// rest of a line (points, n, ...) is the backend's to decode
// (tools/serve_wire.h), through the same number_field.
//
// Points never become a tree: decode_envelope walks the line's
// top-level object itself, scans a "points" array of [x, y] number
// pairs straight into Envelope::points, and hands every other member
// (and any other "points" value) to trace::Json's parser at its offset,
// so a line is accepted or refused, with the same text, exactly as a
// whole-line Json::parse would.
//
// Versioning: every response line carries {"v": 1}. Requests MAY carry
// "v"; an absent "v" means "any version" (pre-versioning peers keep
// working), while a request whose "v" exceeds kProtocolVersion is
// answered with a structured reject — the peer asked for semantics this
// server does not speak.
//
// Structured rejects: an {"error": ...} line additionally carries a
// machine-readable {"reject": "<reason>"} so clients (and the router,
// which must decide whether a failure is retryable) can distinguish an
// unknown command or a cross-version peer from a genuinely malformed
// line without parsing prose:
//   bad_json      the line was not JSON
//   bad_request   well-formed JSON, but not a valid request/command
//   unknown_cmd   {"cmd": ...} named a command this server lacks
//   version       the request's "v" exceeds kProtocolVersion
//   no_backend    (router) every shard is marked down
//   shard_down    (router) the session's pinned shard is marked down —
//                 session traffic is never re-routed (affinity)
//   retry_budget  (router) retries/deadline exhausted without an answer
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geom/point.h"
#include "trace/json.h"

namespace iph::stats {
struct RegistrySnapshot;
}  // namespace iph::stats

namespace iph::cluster {

inline constexpr int kProtocolVersion = 1;

namespace reject {
inline constexpr const char* kBadJson = "bad_json";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownCmd = "unknown_cmd";
inline constexpr const char* kVersion = "version";
inline constexpr const char* kNoBackend = "no_backend";
inline constexpr const char* kShardDown = "shard_down";
inline constexpr const char* kRetryBudget = "retry_budget";
}  // namespace reject

/// Largest integer a wire field may carry: 2^53, the last integer a
/// JSON number (a double) holds exactly.
inline constexpr double kMaxWireInteger = 9007199254740992.0;
/// Largest "deadline_ms": one day.
inline constexpr double kMaxDeadlineMs = 86400000;

/// Stamp the protocol version on a response object (all response
/// encoders call this so every line a server emits is versioned).
inline void stamp_version(trace::Json* o) {
  (*o)["v"] = trace::Json(kProtocolVersion);
}

/// Build a structured error reply: {"error": msg, "reject": reason,
/// "v": kProtocolVersion}.
inline trace::Json make_error(const std::string& reason,
                              const std::string& msg) {
  trace::Json o = trace::Json::object();
  o["error"] = trace::Json(msg);
  o["reject"] = trace::Json(reason);
  stamp_version(&o);
  return o;
}

/// Decode a {"statz": ...} answer, the JSON shape (the prometheus text
/// is for people and scrapers), into *out; false, with why in *err
/// when it is given, for anything else.
bool statz_from_json(const trace::Json& j, stats::RegistrySnapshot* out,
                     std::string* err);

/// False when the request object pins a protocol version this build
/// does not speak. Absent "v" is accepted (see file comment).
inline bool version_ok(const trace::Json& request) {
  const trace::Json* v = request.is_object() ? request.find("v") : nullptr;
  if (v == nullptr || !v->is_number()) return true;
  return v->as_double() <= static_cast<double>(kProtocolVersion);
}

/// Read the number `key` of `j` into *out, `dflt` when absent; false
/// with a message in *err unless it is a number in [lo, hi] (and, with
/// `integral`, an integer). `dflt` is checked too, so one outside
/// [lo, hi] makes the field required. Every numeric wire field passes
/// here before any cast, so no wire value reaches an out-of-range
/// conversion.
bool number_field(const trace::Json& j, std::string_view key, double lo,
                  double hi, bool integral, double dflt, double* out,
                  std::string* err);

/// A hull request's "id" (an integer in [0, 2^53], 0 when absent) and
/// "deadline_ms" (a number in [0, kMaxDeadlineMs], 0 when absent: none).
bool request_fields(const trace::Json& j, std::uint64_t* id,
                    double* deadline_ms, std::string* err);

/// The "sid" of a session command, or of a backend's session_open
/// answer: required, an integer in [1, 2^53]. A missing or bad sid is a
/// malformed line, not "unknown", which is kept for sids never issued.
bool sid_field(const trace::Json& j, std::uint64_t* sid, std::string* err);

/// What a line asks for: a hull request when it has no "cmd".
enum class Command {
  kRequest, kStatz, kTracez, kSessionOpen, kSessionAppend, kSessionClose,
  kMarkdown, kMarkup
};

/// One decoded line; only its command's fields are set.
struct Envelope {
  /// The parsed line, except a "points" member that was scanned into
  /// `points` instead (read in place or moved on, never copied).
  trace::Json json;
  /// The line's "points" (the last one, by the parser's last-wins rule)
  /// was an array of [x, y] number pairs, read into `points` and left
  /// out of `json`. Otherwise any "points" value is in `json`.
  bool points_read = false;
  /// Those pairs, converted, when decode_envelope was asked to keep
  /// them; a pair that does not convert to finite doubles is left to
  /// the tree, whose decoder refuses it (serve_wire.h points_from_json).
  std::vector<geom::Point2> points;
  /// Byte span of the last "sid" value in the line (see with_sid).
  std::size_t sid_at = 0;
  std::size_t sid_len = 0;
  Command cmd = Command::kRequest;
  std::uint64_t id = 0;     ///< kRequest
  double deadline_ms = 0;   ///< kRequest; 0 = none
  std::uint64_t sid = 0;    ///< kSessionAppend, kSessionClose
  std::size_t limit = 16;   ///< kTracez; 0 = everything retained
  bool slowest = false;     ///< kTracez: "order" is "slowest"
  bool prometheus = false;  ///< kStatz: "format" is "prometheus"
  std::size_t shard = 0;    ///< kMarkdown, kMarkup
  /// Why the line was refused: answer make_error(reject, error).
  std::string reject;
  std::string error;
};

/// Decode one line into *out; false when it is refused. `admin_shards`
/// is how many shards "markdown"/"markup" may name: the router's shard
/// count, or 0 at hullserved, where both are unknown commands. With
/// `keep_points` the "points" pairs are converted into out->points (the
/// backend runs them); without, they are only checked against the JSON
/// grammar (the router forwards the line's bytes).
bool decode_envelope(std::string_view line, std::size_t admin_shards,
                     bool keep_points, Envelope* out);

/// The checks decode_envelope makes once the line is parsed, on a line
/// parsed whole into out->json (the tree path the wire differential
/// test compares decode_envelope against).
bool check_envelope(std::size_t admin_shards, Envelope* out);

/// `line`, which decode_envelope read into `in`, with the bytes of its
/// last "sid" value replaced by `sid` and every other byte unchanged:
/// the router's rewrite of a session command to its backend's sid.
std::string with_sid(std::string_view line, const Envelope& in,
                     std::uint64_t sid);

}  // namespace iph::cluster
