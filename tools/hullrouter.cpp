// hullrouter — cluster front end for hullserved backends.
//
//   hullrouter --endpoints H:P[,H:P...] [options]
//       serve stdin -> stdout, exit at EOF
//   hullrouter --port P --endpoints H:P[,H:P...] [options]
//       serve TCP on 127.0.0.1:P, one thread per connection
//
// Speaks the same NDJSON protocol as the backends it fronts
// (tools/serve_wire.h): hull requests consistent-hash across the
// fleet, sessions pin to their opening shard, statz/tracez answer for
// the whole fleet, and {"cmd": "markdown"|"markup", "shard": K}
// drains / undrains one backend. Routing and the TCP accept loop live
// in src/cluster; this file is only flag parsing and the connection
// loop. Every numeric flag is parsed whole and range-checked
// (cluster::parse_number): junk or an out-of-range value is a usage
// error.
//
// --port 0 binds a kernel-picked free port; TCP mode always prints a
// machine-readable "listening <port>" line to stdout (same contract
// as hullserved).
//
// SIGINT/SIGTERM stop accepting, drain in-flight connections, dump
// --statz-out / --tracez-out snapshots and print a router summary to
// stderr. Exit codes: 0 clean, 2 usage error, 3 socket setup failure.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <string>

#include "cluster/endpoint.h"
#include "cluster/router.h"
#include "cluster/stats.h"
#include "stats/stats.h"
#include "support/linechan.h"

namespace {

using iph::cluster::Router;
using iph::cluster::RouterConfig;
using iph::support::LineChannel;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --endpoints H:P[,H:P...] [--port P]\n"
      "          [--retries N] [--probe-ms M]\n"
      "          [--statz-out FILE] [--tracez-out FILE] [--quiet]\n"
      "Routes NDJSON hull requests (tools/serve_wire.h) across the\n"
      "hullserved backends in --endpoints: requests consistent-hash on\n"
      "their id, sessions pin to the shard that opened them, and statz /\n"
      "tracez lines answer with an exactly-reconciled fleet roll-up.\n"
      "{\"cmd\":\"markdown\"|\"markup\",\"shard\":K} lines drain / undrain\n"
      "one backend. --port (0-65535; 0 picks a free port) serves TCP\n"
      "instead of stdin. --retries (0-1024) bounds sibling re-routes\n"
      "of a rejected stateless request (never session traffic);\n"
      "--probe-ms is the health-prober period (0 disables it).\n",
      argv0);
  return 2;
}

void serve_conn(Router& router, int in_fd, int out_fd) {
  Router::Conn conn(router);
  LineChannel chan(in_fd, out_fd);
  std::string line;
  while (chan.read_line(&line)) {
    if (line.empty()) continue;
    if (!chan.write_line(conn.handle_line(line))) return;
  }
}

void print_summary(Router& router) {
  namespace sn = iph::cluster::statnames;
  const iph::stats::RegistrySnapshot s = router.registry().snapshot();
  std::uint64_t retries = 0;
  std::uint64_t rejected = 0;
  std::uint64_t markdowns = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind(sn::kRetriesBase, 0) == 0) retries += v;
    if (name.rfind(sn::kRejectedBase, 0) == 0) rejected += v;
    if (name.rfind(sn::kMarkdownsBase, 0) == 0) markdowns += v;
  }
  std::fprintf(stderr,
               "hullrouter: forwards %llu  retries %llu  rejected %llu  "
               "markdowns %llu  ring rebuilds %llu\n",
               static_cast<unsigned long long>(
                   s.counter_or0(sn::kForwards)),
               static_cast<unsigned long long>(retries),
               static_cast<unsigned long long>(rejected),
               static_cast<unsigned long long>(markdowns),
               static_cast<unsigned long long>(
                   s.counter_or0(sn::kRingRebuilds)));
}

}  // namespace

int main(int argc, char** argv) {
  using iph::cluster::parse_number;
  int port = -1;
  bool quiet = false;
  std::string endpoints_csv;
  std::string statz_out;
  std::string tracez_out;
  RouterConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if (a == "--port" && (v = next())) {
      ok = parse_number(v, 0, 65535, &port);
    } else if (a == "--endpoints" && (v = next())) {
      endpoints_csv = v;
    } else if (a == "--retries" && (v = next())) {
      ok = parse_number(v, 0, 1024, &cfg.retry_limit);
    } else if (a == "--probe-ms" && (v = next())) {
      ok = parse_number(v, 0, INT_MAX, &cfg.probe_period_ms);
    } else if (a == "--statz-out" && (v = next())) {
      statz_out = v;
    } else if (a == "--tracez-out" && (v = next())) {
      tracez_out = v;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (endpoints_csv.empty()) return usage(argv[0]);
  if (!iph::cluster::parse_endpoint_list(endpoints_csv, &cfg.endpoints)) {
    std::fprintf(stderr, "hullrouter: bad --endpoints \"%s\"\n",
                 endpoints_csv.c_str());
    return usage(argv[0]);
  }

  Router router(cfg);
  int rc = 0;
  if (port < 0) {
    serve_conn(router, STDIN_FILENO, STDOUT_FILENO);
  } else {
    rc = iph::cluster::serve_tcp(port, "hullrouter", quiet,
                                 [&router](int fd, std::uint64_t) {
                                   serve_conn(router, fd, fd);
                                 });
  }
  // Final fleet snapshots after the drain, so every answered line's
  // counters are included (CI uploads both as artifacts).
  if (!statz_out.empty()) {
    iph::cluster::write_doc(
        statz_out, router.fleet_statz(/*prometheus=*/false), "hullrouter");
  }
  if (!tracez_out.empty()) {
    iph::cluster::write_doc(
        tracez_out, router.fleet_tracez(/*limit=*/0, /*slowest=*/true),
        "hullrouter");
  }
  if (!quiet) print_summary(router);
  return rc;
}
