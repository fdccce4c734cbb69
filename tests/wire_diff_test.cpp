// Differential test of the wire decoder — the decode half of the wire
// fuzzer. Every line is decoded two ways:
//   * hullserved's path: cluster::decode_envelope with the points kept
//     (a "points" array is scanned straight into Envelope::points), then
//     tools::request_from_envelope / session_append_from_envelope;
//   * the tree path: trace::Json::parse of the whole line,
//     cluster::check_envelope, then the tree decoders request_from_json /
//     session_append_from_json.
// Both must accept or refuse alike, with the same reason and text, and
// accept bit-identical points and fields. The router's decode (points
// checked, not kept) must make the same envelope decision, and the
// session line it forwards must equal the client's line except for the
// bytes of the sid, and decode to the same thing with the new sid.
//
// Lines come from a seeded generator: valid request and session lines
// (%.17g, integer and exponent coordinates, whitespace, shuffled keys,
// duplicate "points"/"sid" keys, empty arrays), and byte mutations of
// them (truncations, swapped brackets, non-JSON number tokens, numbers
// nested in brackets around and far past JsonReader::kMaxDepth). A fixed
// slice always runs; IPH_WIRE_FUZZ_MS adds that many milliseconds of
// draws from IPH_SEED. The first mismatching line is written to
// wire_diff_repro.ndjson under IPH_EXEC_REPRO_DIR (default: the working
// directory).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cluster/protocol.h"
#include "support/env.h"
#include "support/rng.h"
#include "trace/json.h"
#include "../tools/serve_wire.h"

namespace iph {
namespace {

using cluster::Command;
using cluster::Envelope;

/// What one decode path made of a line.
struct Outcome {
  /// The envelope stage's error reply, "" when it accepted the line.
  std::string envelope_error;
  /// The final error reply, "" when the line was accepted.
  std::string error;
  Command cmd = Command::kRequest;
  std::uint64_t id = 0;
  std::uint64_t sid = 0;
  std::vector<geom::Point2> points;
  int alpha = 0;
  exec::BackendKind backend = exec::BackendKind::kDefault;
  bool edge_above = false;
  bool deadline = false;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

std::string error_line(const std::string& reason, const std::string& text) {
  return cluster::make_error(reason, text).dump();
}

/// The decoders after the envelope; `scanned` picks the envelope entry
/// points (hullserved's) over the tree ones.
void decode_rest(Envelope& in, bool scanned, Outcome* o) {
  o->cmd = in.cmd;
  o->sid = in.sid;
  std::string err;
  bool ok = true;
  if (in.cmd == Command::kRequest) {
    serve::Request req;
    bool want = false;
    ok = scanned ? tools::request_from_envelope(in, &req, &want, &err)
                 : tools::request_from_json(in.json, &req, &want, &err);
    o->id = req.id;
    o->points = std::move(req.points);
    o->alpha = req.alpha;
    o->backend = req.backend;
    o->edge_above = req.edge_above;
    o->deadline = req.has_deadline();
    o->trace_id = req.trace.trace_id;
    o->parent_span = req.trace.parent_span;
  } else if (in.cmd == Command::kSessionAppend) {
    ok = scanned ? tools::session_append_from_envelope(in, &o->points, &err)
                 : tools::session_append_from_json(in.json, &o->sid,
                                                   &o->points, &err);
  }
  if (!ok) o->error = error_line(cluster::reject::kBadRequest, err);
}

Outcome served(const std::string& line) {
  Outcome o;
  Envelope in;
  if (!cluster::decode_envelope(line, 0, /*keep_points=*/true, &in)) {
    o.envelope_error = o.error = error_line(in.reject, in.error);
    return o;
  }
  decode_rest(in, /*scanned=*/true, &o);
  return o;
}

Outcome tree(const std::string& line) {
  Outcome o;
  Envelope in;
  std::string err;
  if (!trace::Json::parse(line, &in.json, &err)) {
    o.envelope_error = o.error =
        error_line(cluster::reject::kBadJson, "bad JSON: " + err);
    return o;
  }
  if (!cluster::check_envelope(0, &in)) {
    o.envelope_error = o.error = error_line(in.reject, in.error);
    return o;
  }
  decode_rest(in, /*scanned=*/false, &o);
  return o;
}

bool same_points(const std::vector<geom::Point2>& a,
                 const std::vector<geom::Point2>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0);
}

/// "" when the two outcomes agree, else what differs. `ignore_sid` for
/// a forwarded line, whose sid is the backend's.
std::string compare(const Outcome& a, const Outcome& b, bool ignore_sid) {
  if (a.error != b.error) return "answers differ: " + a.error + " vs " + b.error;
  if (!a.error.empty()) return "";
  if (a.cmd != b.cmd) return "commands differ";
  if (!ignore_sid && a.sid != b.sid) return "sids differ";
  if (!same_points(a.points, b.points)) return "points differ";
  if (a.id != b.id || a.alpha != b.alpha || a.backend != b.backend ||
      a.edge_above != b.edge_above || a.deadline != b.deadline ||
      a.trace_id != b.trace_id || a.parent_span != b.parent_span) {
    return "request fields differ";
  }
  return "";
}

/// "" when every decode of `line` agrees, else the first disagreement.
std::string check_line(const std::string& line, std::uint64_t backend_sid) {
  const Outcome s = served(line);
  if (std::string why = compare(s, tree(line), false); !why.empty()) {
    return "hullserved vs tree: " + why;
  }
  Envelope r;
  const bool routed =
      cluster::decode_envelope(line, 2, /*keep_points=*/false, &r);
  const std::string routed_error =
      routed ? "" : error_line(r.reject, r.error);
  if (routed_error != s.envelope_error) {
    return "router vs hullserved envelope: " + routed_error + " vs " +
           s.envelope_error;
  }
  if (!routed || (r.cmd != Command::kSessionAppend &&
                  r.cmd != Command::kSessionClose)) {
    return "";
  }
  const std::string fwd = cluster::with_sid(line, r, backend_sid);
  const std::size_t tail = line.size() - r.sid_at - r.sid_len;
  if (fwd.compare(0, r.sid_at, line, 0, r.sid_at) != 0 ||
      fwd.compare(fwd.size() - tail, tail, line, line.size() - tail, tail) !=
          0 ||
      fwd.compare(r.sid_at, fwd.size() - tail - r.sid_at,
                  std::to_string(backend_sid)) != 0) {
    return "forwarded line differs outside the sid: " + fwd;
  }
  const Outcome f = served(fwd);
  if (std::string why = compare(s, f, true); !why.empty()) {
    return "forwarded line: " + why + " (" + fwd + ")";
  }
  if (f.error.empty() && f.sid != backend_sid) {
    return "forwarded line carries sid " + std::to_string(f.sid);
  }
  return "";
}

// --- line generator ------------------------------------------------------

class LineGen {
 public:
  explicit LineGen(std::uint64_t seed) : rng_(seed, /*stream=*/0x77697265) {}

  std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }
  bool coin(double p) { return rng_.bernoulli(p); }

  std::string ws() {
    static const char* const kWs[] = {"", "", "", " ", "\t", "  ", "\r", " \t"};
    return kWs[below(8)];
  }

  std::string number() {
    char buf[64];
    switch (below(7)) {
      case 0:
      case 1:
        std::snprintf(buf, sizeof buf, "%.17g",
                      (rng_.next_double() - 0.5) * 2000.0);
        break;
      case 2:
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(below(2000001)) - 1000000);
        break;
      case 3:
        std::snprintf(buf, sizeof buf, "%s%llu.%llu%c%s%llu",
                      coin(0.5) ? "-" : "",
                      static_cast<unsigned long long>(below(10)),
                      static_cast<unsigned long long>(below(1000)),
                      coin(0.5) ? 'e' : 'E',
                      coin(0.3) ? "+" : (coin(0.5) ? "-" : ""),
                      static_cast<unsigned long long>(below(40)));
        break;
      case 4: {
        static const char* const kOdd[] = {
            "0",       "-0",     "0.0",      "1e308",   "-1.7976931348623157e308",
            "4.9e-324", "1e-400", "2.5E-310", "123456789012345678901234567890"};
        return kOdd[below(sizeof kOdd / sizeof kOdd[0])];
      }
      default:
        std::snprintf(buf, sizeof buf, "%.17g",
                      (rng_.next_double() - 0.5) * std::ldexp(1.0, 40));
        break;
    }
    return buf;
  }

  std::string points() {
    const std::size_t n = coin(0.05) ? below(400) : below(24);
    std::string s = "[";
    for (std::size_t i = 0; i < n; ++i) {
      const std::string parts[] = {i > 0 ? "," : "", ws(), "[", ws(),
                                   number(),          ws(), ",", ws(),
                                   number(),          ws(), "]", ws()};
      for (const std::string& part : parts) s += part;
    }
    return s + "]";
  }

  std::string sid() { return std::to_string(1 + below(1000000)); }

  /// One valid line: a request, a session_append or a session_close.
  std::string valid() {
    std::vector<std::pair<std::string, std::string>> m;
    const std::uint64_t kind = below(10);
    if (kind < 6) {
      if (coin(0.7)) m.emplace_back("id", std::to_string(below(100000)));
      if (coin(0.85)) {
        m.emplace_back("points", points());
      } else {
        m.emplace_back("n", std::to_string(1 + below(40)));
        if (coin(0.5)) m.emplace_back("workload", "\"circle\"");
        if (coin(0.5)) m.emplace_back("seed", std::to_string(below(99)));
      }
      if (coin(0.2)) m.emplace_back("alpha", std::to_string(1 + below(64)));
      if (coin(0.2)) m.emplace_back("deadline_ms", number());
      if (coin(0.2)) m.emplace_back("edge_above", coin(0.5) ? "true" : "false");
      if (coin(0.2)) m.emplace_back("backend", "\"native\"");
      if (coin(0.1)) m.emplace_back("trace", R"({"id":"abc123","span":"7"})");
    } else if (kind < 9) {
      m.emplace_back("cmd", "\"session_append\"");
      m.emplace_back("sid", sid());
      m.emplace_back("points", points());
    } else {
      m.emplace_back("cmd", "\"session_close\"");
      m.emplace_back("sid", sid());
    }
    if (coin(0.1)) m.emplace_back("v", "1");
    // Later copies of a key win, whichever way each copy is read.
    if (coin(0.15)) m.emplace_back("points", coin(0.5) ? points() : number());
    if (coin(0.15)) m.emplace_back("sid", sid());
    for (std::size_t i = m.size(); i > 1; --i) {
      std::swap(m[i - 1], m[below(i)]);
    }
    std::string s = ws() + "{" + ws();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i > 0) s += ws() + "," + ws();
      s += "\"" + m[i].first + "\"" + ws() + ":" + ws() + m[i].second;
    }
    return s + ws() + "}" + ws();
  }

  /// A byte mutation of `s`.
  std::string mutate(std::string s) {
    if (s.empty()) return s;
    const std::size_t at = below(s.size());
    switch (below(7)) {
      case 0:
        return s.substr(0, at);
      case 1: {  // swap a bracket
        static const char kBrackets[] = "[]{}";
        for (std::size_t k = 0; k < s.size(); ++k) {
          char& c = s[(at + k) % s.size()];
          if (std::strchr(kBrackets, c) != nullptr) {
            c = kBrackets[below(4)];
            break;
          }
        }
        return s;
      }
      case 2: {  // a number JSON does not allow in place of one it does
        static const char* const kTokens[] = {
            "0x10", "+7",  "-infinity", "01",  "1.",  ".5",  "nan",
            "1e400", "-",   "1e",        "Infinity", "-.5", "1e+", "00"};
        for (std::size_t k = 0; k < s.size(); ++k) {
          const std::size_t b = (at + k) % s.size();
          if ((s[b] >= '0' && s[b] <= '9') || s[b] == '-') {
            std::size_t e = b;
            while (e < s.size() && std::strchr("0123456789+-.eE", s[e])) ++e;
            return s.substr(0, b) + kTokens[below(14)] + s.substr(e);
          }
        }
        return s;
      }
      case 3:
        return s.erase(at, 1);
      case 6: {  // a number nested in brackets about kMaxDepth deep, or far
        const std::size_t depth =
            coin(0.125) ? 50000
                        : trace::JsonReader::kMaxDepth - 3 + below(5);
        for (std::size_t k = 0; k < s.size(); ++k) {
          const std::size_t b = (at + k) % s.size();
          if ((s[b] >= '0' && s[b] <= '9') || s[b] == '-') {
            std::size_t e = b;
            while (e < s.size() && std::strchr("0123456789+-.eE", s[e])) ++e;
            return s.substr(0, b) + std::string(depth, '[') +
                   s.substr(b, e - b) + std::string(depth, ']') + s.substr(e);
          }
        }
        return s;
      }
      case 4:
        return s.insert(at, 1, s[at]);
      default: {
        static const char kBytes[] = ",:[]{}\"0-.eE tx";
        s[at] = kBytes[below(sizeof kBytes - 1)];
        return s;
      }
    }
  }

  std::string line() {
    std::string s = valid();
    if (coin(0.5)) {
      const std::uint64_t rounds = 1 + below(2);
      for (std::uint64_t k = 0; k < rounds; ++k) s = mutate(std::move(s));
    }
    return s;
  }

 private:
  support::Rng rng_;
};

/// Run `count` lines (or until `deadline`, when count is 0) from `seed`;
/// "" when all agree, else the first mismatch, its line written out.
std::string run_slice(std::uint64_t seed, std::size_t count,
                      std::chrono::steady_clock::time_point deadline,
                      std::size_t* ran) {
  LineGen gen(seed);
  for (*ran = 0; count == 0 ? std::chrono::steady_clock::now() < deadline
                            : *ran < count;
       ++*ran) {
    const std::string line = gen.line();
    const std::string why = check_line(line, 1 + gen.below(std::uint64_t{1} << 53));
    if (why.empty()) continue;
    const std::string path =
        support::env_string("IPH_EXEC_REPRO_DIR", ".") +
        "/wire_diff_repro.ndjson";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
    return why + "\n  line: " + line + "\n  written to " + path;
  }
  return "";
}

TEST(WireDiff, SatelliteTokensAreBadJsonBothWays) {
  for (const char* line :
       {R"({"id":0x10,"n":3})", R"({"id":+7,"n":3})",
        R"({"id":7,"n":3,"v":-infinity})", R"({"id":01,"n":3})",
        R"({"id":1.,"n":3})", R"({"points":[[.5,0]]})"}) {
    EXPECT_EQ(check_line(line, 5), "") << line;
    EXPECT_NE(served(line).error.find("\"reject\":\"bad_json\""),
              std::string::npos)
        << line;
  }
}

TEST(WireDiff, FixedSliceAgrees) {
  std::size_t ran = 0;
  const std::string why =
      run_slice(0x5eed, 6000, std::chrono::steady_clock::time_point{}, &ran);
  EXPECT_EQ(why, "");
  EXPECT_EQ(ran, 6000u);
}

TEST(WireDiff, FuzzTimeBounded) {
  const std::uint64_t budget_ms = support::env_u64("IPH_WIRE_FUZZ_MS", 0);
  if (budget_ms == 0) GTEST_SKIP() << "IPH_WIRE_FUZZ_MS not set";
  const std::uint64_t master = support::env_seed();
  std::size_t ran = 0;
  const std::string why = run_slice(
      support::mix3(master, 0x77697265, 1), 0,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms),
      &ran);
  EXPECT_EQ(why, "") << "master=" << master;
  std::printf("wire_diff fuzz: %zu lines in %llu ms budget\n", ran,
              static_cast<unsigned long long>(budget_ms));
}

}  // namespace
}  // namespace iph
