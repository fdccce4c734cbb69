#include "cluster/protocol.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "stats/export.h"
#include "trace/json.h"

namespace iph::cluster {

namespace {

using trace::Json;

bool refuse(Envelope* out, const char* reason, std::string text) {
  out->reject = reason;
  out->error = std::move(text);
  return false;
}

/// An optional string field that must be `a` or `b`; *is_b when it is b.
bool choice_field(const Json& j, const char* key, const char* a,
                  const char* b, bool* is_b, std::string* err) {
  const Json* f = j.find(key);
  *is_b = f != nullptr && f->is_string() && f->as_string() == b;
  if (f == nullptr || *is_b || (f->is_string() && f->as_string() == a)) {
    return true;
  }
  char msg[96];
  std::snprintf(msg, sizeof msg, "\"%s\" must be \"%s\" or \"%s\"", key, a, b);
  *err = msg;
  return false;
}

/// Scan the "points" value at r's position as an array of [x, y] pairs
/// of JSON numbers, appending each pair to *out when it is given. False
/// for anything else — other syntax, or with *out a pair that does not
/// convert to finite doubles — which the tree parser then reads from
/// where the value starts.
bool scan_points(trace::JsonReader& r, std::vector<geom::Point2>* out) {
  if (!r.consume('[')) return false;
  if (r.consume(']')) return true;
  do {
    geom::Point2 q;
    if (!r.consume('[') || !r.number(out != nullptr ? &q.x : nullptr) ||
        !r.consume(',') || !r.number(out != nullptr ? &q.y : nullptr) ||
        !r.consume(']')) {
      return false;
    }
    if (out != nullptr) {
      if (!std::isfinite(q.x) || !std::isfinite(q.y)) return false;
      out->push_back(q);
    }
  } while (r.consume(','));
  return r.consume(']');
}

/// Read a line into out->json through `r` as Json::parse would, except
/// that a top-level "points" array of number pairs is scanned into
/// out->points (converted with `keep_points`) and left out of the tree;
/// false, with the parser's message in r.error(), when it is not JSON.
bool parse_line(bool keep_points, trace::JsonReader& r, Envelope* out) {
  Json& j = out->json;
  if (!r.consume('{')) return r.value(&j) && r.end();
  j = Json::object();
  if (!r.consume('}')) {
    for (;;) {
      std::string key;
      if (!r.string(&key)) return false;
      if (!r.consume(':')) return r.fail("expected ':'");
      r.skip_ws();
      const std::size_t at = r.pos();
      bool scanned = false;
      if (key == "points") {
        out->points.clear();
        scanned = scan_points(r, keep_points ? &out->points : nullptr);
        out->points_read = scanned;
        if (!scanned) {
          out->points.clear();
          r.seek(at);
        }
      }
      if (scanned) {
        j.erase(key);  // a "points" the tree read earlier loses to this one
      } else {
        Json v;
        if (!r.value(&v, 1)) return false;
        j[key] = std::move(v);
        if (key == "sid") {
          out->sid_at = at;
          out->sid_len = r.pos() - at;
        }
      }
      if (r.consume(',')) continue;
      if (r.consume('}')) break;
      return r.fail("expected ',' or '}'");
    }
  }
  return r.end();
}

}  // namespace

bool number_field(const Json& j, std::string_view key, double lo, double hi,
                  bool integral, double dflt, double* out, std::string* err) {
  const Json* f = j.find(key);
  const double v = f == nullptr    ? dflt
                   : f->is_number() ? f->as_double()
                                    : std::nan("");
  if (!(v >= lo && v <= hi) || (integral && v != std::floor(v))) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "\"%.*s\" must be %s in [%.17g, %.17g]",
                  static_cast<int>(key.size()), key.data(),
                  integral ? "an integer" : "a number", lo, hi);
    *err = msg;
    return false;
  }
  *out = v;
  return true;
}

bool request_fields(const Json& j, std::uint64_t* id, double* deadline_ms,
                    std::string* err) {
  double v = 0;
  if (!number_field(j, "id", 0, kMaxWireInteger, true, 0, &v, err) ||
      !number_field(j, "deadline_ms", 0, kMaxDeadlineMs, false, 0,
                    deadline_ms, err)) {
    return false;
  }
  *id = static_cast<std::uint64_t>(v);
  return true;
}

bool sid_field(const Json& j, std::uint64_t* sid, std::string* err) {
  double v = 0;
  if (!number_field(j, "sid", 1, kMaxWireInteger, true, 0, &v, err)) {
    return false;
  }
  *sid = static_cast<std::uint64_t>(v);
  return true;
}

bool statz_from_json(const Json& j, stats::RegistrySnapshot* out,
                     std::string* err) {
  const Json* s = j.is_object() ? j.find("statz") : nullptr;
  if (s == nullptr) {
    if (err != nullptr) *err = "no \"statz\" member in reply";
    return false;
  }
  return stats::from_json(*s, *out, err);
}

bool decode_envelope(std::string_view line, std::size_t admin_shards,
                     bool keep_points, Envelope* out) {
  trace::JsonReader r(line);
  if (!parse_line(keep_points, r, out)) {
    return refuse(out, reject::kBadJson, "bad JSON: " + r.error());
  }
  return check_envelope(admin_shards, out);
}

bool check_envelope(std::size_t admin_shards, Envelope* out) {
  const Json& j = out->json;
  std::string err;
  if (!j.is_object()) {
    return refuse(out, reject::kBadRequest, "request is not a JSON object");
  }
  if (!version_ok(j)) {
    // Printed, never cast: "v" may be 1e300, inf or nan.
    char v[32];
    std::snprintf(v, sizeof v, "%.17g", j.find("v")->as_double());
    return refuse(out, reject::kVersion,
                  "request pins protocol version " + std::string(v) +
                      "; this server speaks " +
                      std::to_string(kProtocolVersion));
  }
  const Json* c = j.find("cmd");
  if (c == nullptr) {
    out->cmd = Command::kRequest;
    return request_fields(j, &out->id, &out->deadline_ms, &err) ||
           refuse(out, reject::kBadRequest, std::move(err));
  }
  if (!c->is_string()) {
    return refuse(out, reject::kBadRequest, "\"cmd\" must be a string");
  }
  const std::string& name = c->as_string();
  double v = 0;
  bool ok = true;
  if (name == "statz") {
    out->cmd = Command::kStatz;  // "json" names the default shape
    ok = choice_field(j, "format", "json", "prometheus", &out->prometheus,
                      &err);
  } else if (name == "tracez") {
    out->cmd = Command::kTracez;
    ok = number_field(j, "limit", 0, kMaxWireInteger, true, 16, &v, &err) &&
         choice_field(j, "order", "recent", "slowest", &out->slowest, &err);
    out->limit = static_cast<std::size_t>(v);
  } else if (name == "session_open") {
    out->cmd = Command::kSessionOpen;
  } else if (name == "session_append" || name == "session_close") {
    out->cmd = name == "session_append" ? Command::kSessionAppend
                                        : Command::kSessionClose;
    ok = sid_field(j, &out->sid, &err);
  } else if ((name == "markdown" || name == "markup") && admin_shards > 0) {
    out->cmd = name == "markdown" ? Command::kMarkdown : Command::kMarkup;
    ok = number_field(j, "shard", 0, static_cast<double>(admin_shards - 1),
                      true, -1, &v, &err);
    out->shard = static_cast<std::size_t>(v);
  } else {
    return refuse(out, reject::kUnknownCmd, "unknown cmd \"" + name + "\"");
  }
  return ok || refuse(out, reject::kBadRequest, std::move(err));
}

std::string with_sid(std::string_view line, const Envelope& in,
                     std::uint64_t sid) {
  std::string out(line.substr(0, in.sid_at));
  out += std::to_string(sid);
  out += line.substr(in.sid_at + in.sid_len);
  return out;
}

}  // namespace iph::cluster
