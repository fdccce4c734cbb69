// The serving tools' TCP layer, with plain POSIX sockets (no
// dependencies beyond libc): parse "host:port[,host:port...]" lists and
// numeric flags, dial one endpoint, serve a loopback port one thread
// per connection (hullserved, hullrouter), and write a JSON document to
// a file.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "trace/json.h"

namespace iph::stats {
struct RegistrySnapshot;
}  // namespace iph::stats

namespace iph::cluster {

struct Endpoint {
  std::string host;
  int port = 0;

  std::string str() const { return host + ":" + std::to_string(port); }
};

/// Parse "host:port". False on a missing colon or non-numeric /
/// out-of-range port.
bool parse_endpoint(const std::string& s, Endpoint* out);

/// Parse a comma-separated endpoint list; empty elements are an error.
bool parse_endpoint_list(const std::string& csv, std::vector<Endpoint>* out);

/// Parse a whole number in [lo, hi] into *out: decimal digits, with a
/// leading '-' only for a signed T, or for a floating-point T what
/// std::from_chars reads. False, leaving *out as it was, on an empty
/// string, a sign an unsigned T cannot take, trailing characters
/// ("2x"), a value T cannot hold, or one outside [lo, hi] (NaN
/// included). The serving tools parse every numeric flag with it, so a
/// bad value is a usage error, never a wrapped or partly read number.
template <typename T>
bool parse_number(std::string_view s, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || stop != end || !(v >= lo && v <= hi)) {
    return false;
  }
  *out = v;
  return true;
}

/// Blocking TCP connect. Returns the connected fd, or -1 on failure.
int dial(const Endpoint& ep);

/// One line to `ep` on a fresh connection, and its one-line answer in
/// *reply; false when the dial or the round trip fails. A throwaway
/// connection never interleaves with a client's request/answer order.
bool round_trip(const Endpoint& ep, const std::string& line,
                std::string* reply);

/// A {"cmd":"statz"} round trip to `ep`, its answer decoded by
/// statz_from_json (cluster/protocol.h); false, with why in *err when it
/// is given, when the dial, the round trip or the decode fails.
bool scrape_statz(const Endpoint& ep, stats::RegistrySnapshot* out,
                  std::string* err);

/// Serves one accepted connection on its own thread; serve_tcp closes
/// `fd` after it returns.
using ConnHandler = std::function<void(int fd, std::uint64_t conn_id)>;

/// Listen on 127.0.0.1:`port` (0 = kernel-picked) and print the
/// machine-readable "listening <port>" line to stdout — always, since
/// launchers learn a picked port from it — plus, unless `quiet`, a
/// "<tool>: listening on 127.0.0.1:<port>" note to stderr. Then run
/// `handle` on one thread per accepted connection, with connection ids
/// from 2 (stdin serving is connection 1), until SIGINT/SIGTERM, taken
/// by any of the process's threads, stops accepting. A finished
/// connection's thread is joined at the next accept, and every one
/// before returning. SIGPIPE is ignored from the first accept on, so a
/// client that hangs up ends only its own connection. Returns 0, or 3
/// when the socket cannot be set up (reported to stderr under `tool`).
int serve_tcp(int port, const char* tool, bool quiet,
              const ConnHandler& handle);

/// Write `doc` to `path` as indented JSON. False, after reporting
/// "<tool>: cannot write <path>" to stderr, when the file cannot be
/// opened, written or closed.
bool write_doc(const std::string& path, const trace::Json& doc,
               const char* tool);

}  // namespace iph::cluster
