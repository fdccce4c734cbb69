#include "cluster/protocol.h"

#include <cmath>
#include <cstdio>
#include <utility>

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

bool decode_envelope(std::string_view line, std::size_t admin_shards,
                     Envelope* out) {
  Json& j = out->json;
  std::string err;
  if (!Json::parse(line, &j, &err)) {
    return refuse(out, reject::kBadJson, "bad JSON: " + err);
  }
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

}  // namespace iph::cluster
