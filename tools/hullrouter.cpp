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
// in src/cluster; this file is only flag parsing and the mark-down/up
// schedule used by benchmarks and CI to exercise churn
// deterministically.
//
// --port 0 binds a kernel-picked free port; TCP mode always prints a
// machine-readable "listening <port>" line to stdout (same contract
// as hullserved).
//
// SIGINT/SIGTERM stop accepting, drain in-flight connections, dump
// --statz-out / --tracez-out snapshots and print a router summary to
// stderr. Exit codes: 0 clean, 2 usage error, 3 socket setup failure.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
      "usage: %s --endpoints H:P[,H:P...] [--port P] [--vnodes N]\n"
      "          [--retries N] [--probe-ms M]\n"
      "          [--markdown-at-ms T:SHARD]... [--markup-at-ms T:SHARD]...\n"
      "          [--statz-out FILE] [--tracez-out FILE] [--quiet]\n"
      "Routes NDJSON hull requests (tools/serve_wire.h) across the\n"
      "hullserved backends in --endpoints: requests consistent-hash on\n"
      "their id, sessions pin to the shard that opened them, and statz /\n"
      "tracez lines answer with an exactly-reconciled fleet roll-up.\n"
      "--retries bounds sibling re-routes of a rejected stateless\n"
      "request (never session traffic); --probe-ms is the health-prober\n"
      "period (0 disables it). --markdown-at-ms/--markup-at-ms schedule\n"
      "administrative drain/undrain of one shard T ms after startup —\n"
      "deterministic churn for benchmarks and CI smoke.\n",
      argv0);
  return 2;
}

/// One scheduled administrative drain/undrain (--markdown-at-ms /
/// --markup-at-ms), applied `at_ms` after startup.
struct AdminEvent {
  int at_ms = 0;
  std::size_t shard = 0;
  bool up = false;
};

bool parse_admin_event(const char* spec, bool up, std::vector<AdminEvent>* out) {
  const char* colon = std::strchr(spec, ':');
  if (colon == nullptr) return false;
  char* end = nullptr;
  const long at = std::strtol(spec, &end, 10);
  if (end != colon || at < 0) return false;
  const long shard = std::strtol(colon + 1, &end, 10);
  if (*end != '\0' || shard < 0) return false;
  out->push_back(AdminEvent{static_cast<int>(at),
                            static_cast<std::size_t>(shard), up});
  return true;
}

/// Applies the admin schedule on its own thread; stoppable early so a
/// short run exits promptly.
class AdminScheduler {
 public:
  AdminScheduler(Router& router, std::vector<AdminEvent> events, bool quiet)
      : router_(router), events_(std::move(events)), quiet_(quiet) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const AdminEvent& a, const AdminEvent& b) {
                       return a.at_ms < b.at_ms;
                     });
    thread_ = std::thread([this] { run(); });
  }

  ~AdminScheduler() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void run() {
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(mu_);
    for (const AdminEvent& e : events_) {
      if (cv_.wait_until(lk, start + std::chrono::milliseconds(e.at_ms),
                         [this] { return stop_; })) {
        return;
      }
      const bool ok = e.up ? router_.mark_up_admin(e.shard)
                           : router_.mark_down_admin(e.shard);
      if (!quiet_) {
        std::fprintf(stderr, "hullrouter: %s shard %zu at +%dms%s\n",
                     e.up ? "markup" : "markdown", e.shard, e.at_ms,
                     ok ? "" : " (bad shard index)");
      }
    }
  }

  Router& router_;
  std::vector<AdminEvent> events_;
  const bool quiet_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

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
  int port = -1;
  bool quiet = false;
  std::string endpoints_csv;
  std::string statz_out;
  std::string tracez_out;
  std::vector<AdminEvent> schedule;
  RouterConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--port" && (v = next())) {
      port = std::atoi(v);
    } else if (a == "--endpoints" && (v = next())) {
      endpoints_csv = v;
    } else if (a == "--vnodes" && (v = next())) {
      cfg.vnodes = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--retries" && (v = next())) {
      cfg.retry_limit = std::atoi(v);
    } else if (a == "--probe-ms" && (v = next())) {
      cfg.probe_period_ms = std::atoi(v);
    } else if (a == "--markdown-at-ms" && (v = next())) {
      if (!parse_admin_event(v, /*up=*/false, &schedule)) {
        return usage(argv[0]);
      }
    } else if (a == "--markup-at-ms" && (v = next())) {
      if (!parse_admin_event(v, /*up=*/true, &schedule)) {
        return usage(argv[0]);
      }
    } else if (a == "--statz-out" && (v = next())) {
      statz_out = v;
    } else if (a == "--tracez-out" && (v = next())) {
      tracez_out = v;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (endpoints_csv.empty() || port > 65535) return usage(argv[0]);
  if (!iph::cluster::parse_endpoint_list(endpoints_csv, &cfg.endpoints)) {
    std::fprintf(stderr, "hullrouter: bad --endpoints \"%s\"\n",
                 endpoints_csv.c_str());
    return usage(argv[0]);
  }
  if (cfg.vnodes == 0) return usage(argv[0]);

  Router router(cfg);
  AdminScheduler scheduler(router, std::move(schedule), quiet);
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
