// hullload — closed/open-loop load generator for the hull service.
//
//   hullload [options]                     drive an in-process HullService
//   hullload --connect HOST:PORT [...]     drive a running hullserved
//   hullload --endpoints H:P[,H:P...]      drive several targets at once
//                                          (clients round-robin across
//                                          them; --scrape merges)
//
// --clients C threads each issue --requests R queries of workload
// --workload/--n (per-request generator seed = --seed + request id, so
// every query is distinct but the run is reproducible). Closed loop by
// default: each client waits for its answer before sending the next.
// --qps Q switches to open loop: clients send at a combined target rate
// of Q regardless of completions (over TCP a per-client reader thread
// matches responses to send times in FIFO order — hullserved answers
// each connection in submission order).
//
// Prints counts per terminal status, achieved qps, and p50/p95/p99
// end-to-end latency over the ok responses; --json appends one
// machine-readable summary line to stdout.
//
// --backend pram|native pins every request to one execution engine
// (exec/backend.h); default lets the server's own --backend decide.
//
// --scrape fetches the server's metrics registry (statz) before and
// after the run, diffs the snapshots, and cross-checks the server-side
// accounting against this client's own tally: every per-status counter
// must reconcile EXACTLY (the run must be the server's only traffic),
// including the backend-labeled served counters (pram + native ==
// completed; with --backend pinned, that engine's counter == ok) and
// the batch sizes (iph_serve_batch_size sum == completed), and
// server-side ok-e2e p99 must be within --scrape-tol (a ratio;
// default 8, floored at 0.05 ms to ignore sub-bucket noise; 0 disables)
// of the client-observed p99. Violations print loudly and exit 1.
// --scrape-out FILE writes the diffed snapshot as iph-stats-v1 JSON
// plus a "served_backend" key ("pram" | "native" | "mixed") naming the
// engine(s) that absorbed the run (the CI serve-smoke job uploads it
// as an artifact).
//
// With --endpoints, --scrape scrapes EVERY target before and after,
// diffs each pairwise and sums the diffs (src/cluster/merge.h) into
// one fleet view the same identities run against. When the scraped
// diff carries router counters (iph_router_forwards_total — the
// target is a hullrouter, whose statz already rolls up its backends),
// the identities account for re-routing: fleet submitted == client
// requests + executed retries{rejected_*} (a retried request submits
// once per attempt), per-reason backend rejects == surfaced client
// rejects + retries with that reason, and router forwards == fleet
// submitted (the load run is the fleet's only request traffic).
// Completed == client ok either way: a retried request completes
// exactly once.
//
// When the server runs a flight recorder (src/obs), --scrape also
// reconciles the tracing counters: every completed request published
// exactly one kind="request" trace of exactly kSpansPerRequest spans
// (--stream: one kind="session" trace per append, spans == appends +
// rebuilds). The checks key off counter PRESENCE in the diffed
// snapshot, so servers running --obs-capacity 0 still reconcile.
//
// --trace-slowest N fetches the server's flight recorder after the run
// (tracez order=slowest) and prints the span trees of the N
// worst-latency retained requests — queue_wait/lease/exec plus, on the
// PRAM path, the linked per-phase simulator spans.
//
// --stream switches to the streaming-session protocol (src/session):
// each client opens ONE session, issues --requests appends of
// --append-points points each (closed loop, or paced by --qps), then
// closes it. The latency percentiles are per-append DELTA latencies
// (send append -> delta applied), and the summary adds delta-op,
// rebuild and peak-workspace accounting from the close summaries.
// --scrape reconciles the iph_session_* registry counters instead:
// opened/closed == clients, appends == client ok count, append_points
// == appends x --append-points, zero rejects, zero rebuild
// mismatches, and both session gauges (live_sessions, aux_cells) back
// at zero after the run.
//
// Exit codes: 0 done, 1 with --expect-all-ok if any request was
// rejected/expired/errored or with --scrape on reconcile/tolerance
// failure, 2 usage error, 3 connect failure.
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/merge.h"
#include "cluster/stats.h"
#include "exec/backend.h"
#include "geom/workloads.h"
#include "obs/flight_recorder.h"
#include "serve/request.h"
#include "serve/service.h"
#include "serve_wire.h"
#include "session/manager.h"
#include "trace/json.h"

namespace {

using Clock = std::chrono::steady_clock;
using iph::serve::HullService;
using iph::serve::Response;
using iph::serve::ServiceConfig;
using iph::serve::Status;
using iph::tools::LineChannel;
using iph::trace::Json;

struct Options {
  int clients = 4;
  int requests = 64;  // per client
  double qps = 0;     // total offered rate; 0 = closed loop
  std::size_t n = 256;
  std::string workload = "disk";
  std::uint64_t seed = 1;
  double deadline_ms = 0;
  std::string connect;  // empty = in-process
  /// Multi-target mode (--endpoints): client c drives
  /// targets[c % size]; --scrape scrapes and merges all of them.
  /// --connect is the one-element special case.
  std::vector<std::string> endpoints;
  /// Engine every request asks for ("default" lets the server pick —
  /// tagged on the wire / Request so the scrape reconciliation knows
  /// which backend-labeled counter must absorb the run).
  iph::exec::BackendKind backend = iph::exec::BackendKind::kDefault;
  bool expect_all_ok = false;
  bool json = false;
  bool scrape = false;
  double scrape_tol = 8.0;   // p99 ratio tolerance; 0 disables
  std::string scrape_out;    // write diffed snapshot JSON here
  ServiceConfig cfg;  // in-process service shape
  /// Streaming-session mode: one session per client, --requests
  /// appends of `append_points` points each.
  bool stream = false;
  std::size_t append_points = 16;
  /// Print span trees of the N slowest retained traces after the run.
  int trace_slowest = 0;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--clients C] [--requests R] [--qps Q] [--n N]\n"
      "          [--workload W] [--seed S] [--deadline-ms D]\n"
      "          [--connect HOST:PORT | --endpoints H:P[,H:P...] |\n"
      "           --shards N --threads N --capacity N --window-us U]\n"
      "          [--backend pram|native|default]\n"
      "          [--stream] [--append-points K]\n"
      "          [--expect-all-ok] [--json]\n"
      "          [--scrape] [--scrape-tol R] [--scrape-out FILE]\n"
      "          [--trace-slowest N]\n",
      argv0);
  return 2;
}

/// Per-request outcome, merged across clients after the run.
struct Tally {
  std::uint64_t ok = 0, rejected_full = 0, rejected_shutdown = 0,
                expired = 0, errors = 0;
  std::vector<double> ok_e2e_ms;
  // --stream extras (zero in batch mode): delta-op count across ok
  // appends, rebuild audits observed, the close summaries' totals.
  std::uint64_t delta_ops = 0, rebuilds = 0, mismatches = 0, points = 0;
  std::uint64_t peak_aux_max = 0;

  void count(std::string_view status, double e2e_ms) {
    if (status == "ok") {
      ++ok;
      ok_e2e_ms.push_back(e2e_ms);
    } else if (status == "rejected_full") {
      ++rejected_full;
    } else if (status == "rejected_shutdown") {
      ++rejected_shutdown;
    } else if (status == "expired") {
      ++expired;
    } else {
      ++errors;
    }
  }
  void merge(Tally&& o) {
    ok += o.ok;
    rejected_full += o.rejected_full;
    rejected_shutdown += o.rejected_shutdown;
    expired += o.expired;
    errors += o.errors;
    ok_e2e_ms.insert(ok_e2e_ms.end(), o.ok_e2e_ms.begin(),
                     o.ok_e2e_ms.end());
    delta_ops += o.delta_ops;
    rebuilds += o.rebuilds;
    mismatches += o.mismatches;
    points += o.points;
    peak_aux_max = std::max(peak_aux_max, o.peak_aux_max);
  }
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Open-loop pacing: the instant client c should send its i-th request,
/// with the C clients' streams interleaved to hit `qps` combined.
Clock::time_point send_at(Clock::time_point start, const Options& opt,
                          int client, int i) {
  const double interval_s = static_cast<double>(opt.clients) / opt.qps;
  const double offset_s =
      interval_s * (static_cast<double>(i) +
                    static_cast<double>(client) / opt.clients);
  return start + std::chrono::microseconds(
                     static_cast<std::int64_t>(offset_s * 1e6));
}

Tally run_client_inproc(HullService& svc, const Options& opt, int client,
                        Clock::time_point start) {
  // Points are generated up front so the measured loop is pure serving.
  std::vector<std::vector<iph::geom::Point2>> pts(
      static_cast<std::size_t>(opt.requests));
  std::vector<iph::serve::RequestId> ids(
      static_cast<std::size_t>(opt.requests));
  for (int i = 0; i < opt.requests; ++i) {
    ids[i] = static_cast<iph::serve::RequestId>(client) * opt.requests + i +
             1;
    if (!iph::tools::make_workload(opt.workload, opt.n, opt.seed + ids[i],
                                   &pts[i])) {
      std::abort();  // workload validated in main()
    }
  }
  Tally t;
  auto make_req = [&](int i) {
    iph::serve::Request r;
    r.id = ids[i];
    r.points = pts[i];
    r.backend = opt.backend;
    if (opt.deadline_ms > 0) {
      r.deadline = Clock::now() + std::chrono::microseconds(static_cast<
                       std::int64_t>(opt.deadline_ms * 1000.0));
    }
    return r;
  };
  if (opt.qps <= 0) {  // closed loop: send, wait, repeat
    for (int i = 0; i < opt.requests; ++i) {
      const auto t0 = Clock::now();
      const Response resp = svc.submit(make_req(i)).get();
      const double ms = iph::serve::ms_between(t0, Clock::now());
      t.count(iph::serve::status_name(resp.status), ms);
    }
  } else {  // open loop: pace sends, collect afterwards
    std::vector<std::future<Response>> futs;
    futs.reserve(static_cast<std::size_t>(opt.requests));
    for (int i = 0; i < opt.requests; ++i) {
      std::this_thread::sleep_until(send_at(start, opt, client, i));
      futs.push_back(svc.submit(make_req(i)));
    }
    for (auto& f : futs) {
      const Response resp = f.get();
      // The service stamps submit -> response-ready; that IS the
      // open-loop latency (the client never waited in between).
      t.count(iph::serve::status_name(resp.status), resp.metrics.e2e_ms);
    }
  }
  return t;
}

int connect_to(const std::string& hostport) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos) return -1;
  const std::string host = hostport.substr(0, colon);
  const std::string port = hostport.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

Tally run_client_tcp(const Options& opt, const std::string& target,
                     int client, Clock::time_point start,
                     std::atomic<bool>* failed) {
  Tally t;
  const int fd = connect_to(target);
  if (fd < 0) {
    failed->store(true);
    return t;
  }
  LineChannel chan(fd, fd);
  auto request_line = [&](int i) {
    const auto id = static_cast<iph::serve::RequestId>(client) *
                        opt.requests + i + 1;
    Json j = Json::object();
    j["id"] = Json(id);
    j["n"] = Json(static_cast<std::uint64_t>(opt.n));
    j["workload"] = Json(opt.workload);
    j["seed"] = Json(opt.seed + id);
    if (opt.backend != iph::exec::BackendKind::kDefault) {
      j["backend"] = Json(iph::exec::backend_name(opt.backend));
    }
    if (opt.deadline_ms > 0) j["deadline_ms"] = Json(opt.deadline_ms);
    return j.dump();
  };
  auto status_of = [](const std::string& line) -> std::string {
    Json j;
    std::string err;
    if (!Json::parse(line, &j, &err)) return "error";
    if (j.find("error") != nullptr) return "error";
    return j.get_str("status", "error");
  };
  if (opt.qps <= 0) {  // closed loop
    std::string line;
    for (int i = 0; i < opt.requests; ++i) {
      const auto t0 = Clock::now();
      if (!chan.write_line(request_line(i)) || !chan.read_line(&line)) {
        failed->store(true);
        break;
      }
      const double ms = iph::serve::ms_between(t0, Clock::now());
      t.count(status_of(line), ms);
    }
  } else {
    // Open loop over TCP: the sender paces writes while a reader thread
    // pairs each response with the oldest outstanding send time —
    // positional FIFO matching, guaranteed by hullserved's in-order
    // responder.
    std::deque<Clock::time_point> sent;
    std::mutex mu;
    std::thread reader([&] {
      std::string line;
      for (int i = 0; i < opt.requests; ++i) {
        if (!chan.read_line(&line)) {
          failed->store(true);
          return;
        }
        Clock::time_point t0;
        {
          std::lock_guard<std::mutex> lk(mu);
          t0 = sent.front();
          sent.pop_front();
        }
        const double ms = iph::serve::ms_between(t0, Clock::now());
        t.count(status_of(line), ms);
      }
    });
    for (int i = 0; i < opt.requests; ++i) {
      std::this_thread::sleep_until(send_at(start, opt, client, i));
      const std::string line = request_line(i);
      {
        std::lock_guard<std::mutex> lk(mu);
        sent.push_back(Clock::now());
      }
      if (!chan.write_line(line)) {
        failed->store(true);
        break;
      }
    }
    reader.join();
  }
  ::close(fd);
  return t;
}

/// One streaming client against an in-process SessionManager: open,
/// --requests appends (paced when --qps is set), close. ok/latency
/// tally entries are per-append delta latencies.
Tally run_stream_inproc(iph::session::SessionManager& mgr,
                        const Options& opt, int client,
                        Clock::time_point start) {
  Tally t;
  iph::session::OpenInfo info;
  if (mgr.open(opt.backend, &info) != iph::session::SessionStatus::kOk) {
    ++t.errors;
    return t;
  }
  for (int i = 0; i < opt.requests; ++i) {
    const std::uint64_t append_seed =
        opt.seed + static_cast<std::uint64_t>(client) *
                       static_cast<std::uint64_t>(opt.requests) +
        static_cast<std::uint64_t>(i) + 1;
    std::vector<iph::geom::Point2> pts;
    if (!iph::tools::make_workload(opt.workload, opt.append_points,
                                   append_seed, &pts)) {
      std::abort();  // workload validated in main()
    }
    if (opt.qps > 0) {
      std::this_thread::sleep_until(send_at(start, opt, client, i));
    }
    const auto t0 = Clock::now();
    iph::session::AppendResult res;
    if (mgr.append(info.sid, pts, &res) !=
        iph::session::SessionStatus::kOk) {
      ++t.errors;
      continue;
    }
    t.count("ok", iph::serve::ms_between(t0, Clock::now()));
    t.delta_ops += res.ops.size();
    if (res.rebuilt) ++t.rebuilds;
    if (res.rebuild_mismatch) ++t.mismatches;
  }
  iph::session::CloseSummary sum;
  if (mgr.close(info.sid, &sum) != iph::session::SessionStatus::kOk) {
    ++t.errors;
    return t;
  }
  t.points += sum.points_seen;
  t.peak_aux_max = std::max(t.peak_aux_max, sum.peak_aux_cells);
  return t;
}

/// One streaming client over TCP. The session handshake (open, close)
/// is synchronous; the append phase is closed loop or, with --qps,
/// open loop with the same FIFO reader-thread pairing as batch mode.
Tally run_stream_tcp(const Options& opt, const std::string& target,
                     int client, Clock::time_point start,
                     std::atomic<bool>* failed) {
  Tally t;
  const int fd = connect_to(target);
  if (fd < 0) {
    failed->store(true);
    return t;
  }
  LineChannel chan(fd, fd);
  std::string line;
  auto round_trip = [&](const Json& j) -> bool {
    return chan.write_line(j.dump()) && chan.read_line(&line);
  };

  Json open = Json::object();
  open["cmd"] = Json("session_open");
  if (opt.backend != iph::exec::BackendKind::kDefault) {
    open["backend"] = Json(iph::exec::backend_name(opt.backend));
  }
  Json reply;
  std::string err;
  if (!round_trip(open) || !Json::parse(line, &reply, &err) ||
      reply.get_str("status") != "ok") {
    ++t.errors;
    ::close(fd);
    return t;
  }
  const auto sid = static_cast<std::uint64_t>(reply.get_num("sid", 0));

  auto append_line = [&](int i) {
    const std::uint64_t append_seed =
        opt.seed + static_cast<std::uint64_t>(client) *
                       static_cast<std::uint64_t>(opt.requests) +
        static_cast<std::uint64_t>(i) + 1;
    Json j = Json::object();
    j["cmd"] = Json("session_append");
    j["sid"] = Json(sid);
    j["n"] = Json(static_cast<std::uint64_t>(opt.append_points));
    j["workload"] = Json(opt.workload);
    j["seed"] = Json(append_seed);
    return j.dump();
  };
  auto tally_append = [&](const std::string& resp_line, double ms) {
    Json j;
    std::string perr;
    if (!Json::parse(resp_line, &j, &perr) ||
        j.get_str("status") != "ok") {
      ++t.errors;
      return;
    }
    t.count("ok", ms);
    if (const Json* d = j.find("delta"); d != nullptr && d->is_array()) {
      t.delta_ops += d->size();
    }
    const Json* rb = j.find("rebuilt");
    if (rb != nullptr && rb->as_bool()) ++t.rebuilds;
  };

  if (opt.qps <= 0) {  // closed loop
    for (int i = 0; i < opt.requests; ++i) {
      const auto t0 = Clock::now();
      if (!chan.write_line(append_line(i)) || !chan.read_line(&line)) {
        failed->store(true);
        break;
      }
      tally_append(line, iph::serve::ms_between(t0, Clock::now()));
    }
  } else {  // open loop, FIFO positional matching
    std::deque<Clock::time_point> sent;
    std::mutex mu;
    std::thread reader([&] {
      std::string rline;
      for (int i = 0; i < opt.requests; ++i) {
        if (!chan.read_line(&rline)) {
          failed->store(true);
          return;
        }
        Clock::time_point t0;
        {
          std::lock_guard<std::mutex> lk(mu);
          t0 = sent.front();
          sent.pop_front();
        }
        tally_append(rline, iph::serve::ms_between(t0, Clock::now()));
      }
    });
    for (int i = 0; i < opt.requests; ++i) {
      std::this_thread::sleep_until(send_at(start, opt, client, i));
      const std::string out = append_line(i);
      {
        std::lock_guard<std::mutex> lk(mu);
        sent.push_back(Clock::now());
      }
      if (!chan.write_line(out)) {
        failed->store(true);
        break;
      }
    }
    reader.join();
  }

  Json close_cmd = Json::object();
  close_cmd["cmd"] = Json("session_close");
  close_cmd["sid"] = Json(sid);
  if (!round_trip(close_cmd) || !Json::parse(line, &reply, &err) ||
      reply.get_str("status") != "ok") {
    ++t.errors;
    ::close(fd);
    return t;
  }
  if (const Json* s = reply.find("summary"); s != nullptr) {
    t.points += static_cast<std::uint64_t>(s->get_num("points", 0));
    t.mismatches +=
        static_cast<std::uint64_t>(s->get_num("mismatches", 0));
    t.peak_aux_max = std::max(
        t.peak_aux_max,
        static_cast<std::uint64_t>(s->get_num("peak_aux_cells", 0)));
  }
  ::close(fd);
  return t;
}

/// One statz round trip on a fresh connection (JSON format).
bool scrape_tcp(const std::string& hostport,
                iph::stats::RegistrySnapshot* out, std::string* err) {
  const int fd = connect_to(hostport);
  if (fd < 0) {
    *err = "connect failed";
    return false;
  }
  LineChannel chan(fd, fd);
  Json cmd = Json::object();
  cmd["cmd"] = Json("statz");
  std::string line;
  const bool io_ok = chan.write_line(cmd.dump()) && chan.read_line(&line);
  ::close(fd);
  if (!io_ok) {
    *err = "statz round trip failed";
    return false;
  }
  Json j;
  if (!Json::parse(line, &j, err)) return false;
  return iph::tools::statz_from_json(j, out, err);
}

/// Scrape every target into `out` (one snapshot per target, in
/// order). False (with the failing target named in *err) on any miss.
bool scrape_targets(const std::vector<std::string>& targets,
                    std::vector<iph::stats::RegistrySnapshot>* out,
                    std::string* err) {
  out->assign(targets.size(), {});
  for (std::size_t i = 0; i < targets.size(); ++i) {
    std::string why;
    if (!scrape_tcp(targets[i], &(*out)[i], &why)) {
      *err = targets[i] + ": " + why;
      return false;
    }
  }
  return true;
}

/// Cross-check the server-side snapshot diff against the client tally
/// and print the side-by-side summary. Returns false (after printing
/// why) when the accounting does not reconcile or p99s diverge beyond
/// `tol`. `server_p99` is left with the server-side ok-e2e p99;
/// `served_backend` with which engine(s) absorbed the run's completed
/// requests per the backend-labeled counters ("pram", "native" or
/// "mixed"). When `want` names an engine, that engine's counter must
/// equal the client's ok count exactly; either way pram + native must
/// equal completed (every completed request was served by exactly one
/// engine), and so must the summed batch sizes.
bool check_scrape(const iph::stats::RegistrySnapshot& d, const Tally& total,
                  double client_p99, double tol,
                  iph::exec::BackendKind want, double* server_p99,
                  std::string* served_backend) {
  namespace sn = iph::serve::statnames;
  const std::uint64_t srv_submitted = d.counter_or0(sn::kSubmitted);
  const std::uint64_t srv_completed = d.counter_or0(sn::kCompleted);
  const std::uint64_t srv_expired = d.counter_or0(sn::kExpired);
  const std::uint64_t srv_rej_full = d.counter_or0(
      iph::stats::labeled(sn::kRejectedBase, "reason", "full"));
  const std::uint64_t srv_rej_shutdown = d.counter_or0(
      iph::stats::labeled(sn::kRejectedBase, "reason", "shutdown"));
  const std::uint64_t srv_bk_pram = d.counter_or0(
      iph::stats::labeled(sn::kBackendBase, "backend", "pram"));
  const std::uint64_t srv_bk_native = d.counter_or0(
      iph::stats::labeled(sn::kBackendBase, "backend", "native"));
  const iph::stats::HistogramSnapshot* e2e = d.histogram(sn::kE2eMs);
  *server_p99 = e2e != nullptr ? e2e->quantile(0.99) : 0.0;
  *served_backend = srv_bk_native > 0
                        ? (srv_bk_pram > 0 ? "mixed" : "native")
                        : "pram";
  // Router-aware mode, keyed off counter presence: a hullrouter's
  // statz rolls its backends up with its own routing counters, and
  // re-routing changes the submission identities (file comment).
  namespace rn = iph::cluster::statnames;
  const std::uint64_t* forwards = d.counter(rn::kForwards);
  const std::uint64_t rt_full = d.counter_or0(
      iph::stats::labeled(rn::kRetriesBase, "reason", "rejected_full"));
  const std::uint64_t rt_shutdown = d.counter_or0(
      iph::stats::labeled(rn::kRetriesBase, "reason", "rejected_shutdown"));
  const std::uint64_t rt_io = d.counter_or0(
      iph::stats::labeled(rn::kRetriesBase, "reason", "io"));

  std::fprintf(stderr,
               "hullload scrape: server submitted %llu  completed %llu  "
               "rejected_full %llu  rejected_shutdown %llu  expired %llu\n",
               static_cast<unsigned long long>(srv_submitted),
               static_cast<unsigned long long>(srv_completed),
               static_cast<unsigned long long>(srv_rej_full),
               static_cast<unsigned long long>(srv_rej_shutdown),
               static_cast<unsigned long long>(srv_expired));
  std::fprintf(stderr,
               "hullload scrape: served by backend pram %llu  native %llu\n",
               static_cast<unsigned long long>(srv_bk_pram),
               static_cast<unsigned long long>(srv_bk_native));
  std::fprintf(stderr,
               "hullload scrape: e2e p99 server %.3f ms vs client %.3f ms\n",
               *server_p99, client_p99);
  if (forwards != nullptr) {
    std::fprintf(stderr,
                 "hullload scrape: router forwards %llu  retries full %llu "
                 "shutdown %llu io %llu\n",
                 static_cast<unsigned long long>(*forwards),
                 static_cast<unsigned long long>(rt_full),
                 static_cast<unsigned long long>(rt_shutdown),
                 static_cast<unsigned long long>(rt_io));
  }

  bool ok = true;
  auto must_equal = [&](const char* what, std::uint64_t server,
                        std::uint64_t client) {
    if (server != client) {
      std::fprintf(stderr,
                   "hullload scrape: RECONCILE FAIL: %s server %llu != "
                   "client %llu\n",
                   what, static_cast<unsigned long long>(server),
                   static_cast<unsigned long long>(client));
      ok = false;
    }
  };
  if (total.errors != 0) {
    std::fprintf(stderr,
                 "hullload scrape: RECONCILE FAIL: %llu client-side "
                 "errors\n",
                 static_cast<unsigned long long>(total.errors));
    ok = false;
  }
  const std::uint64_t client_total = total.ok + total.rejected_full +
                                     total.rejected_shutdown + total.expired;
  if (forwards == nullptr) {
    must_equal("submitted", srv_submitted, client_total);
    must_equal("rejected_full", srv_rej_full, total.rejected_full);
    must_equal("rejected_shutdown", srv_rej_shutdown,
               total.rejected_shutdown);
  } else {
    // A retried request submits once per executed attempt but the
    // client tallies exactly one answer; a rejected attempt is either
    // retried (counted in retries{reason}) or surfaced (counted by the
    // client). io retries forwarded nothing, so they appear in neither
    // submitted nor the per-reason identities.
    must_equal("fleet submitted vs client + retries", srv_submitted,
               client_total + rt_full + rt_shutdown);
    must_equal("router forwards vs fleet submitted", *forwards,
               srv_submitted);
    must_equal("rejected_full vs surfaced + retried", srv_rej_full,
               total.rejected_full + rt_full);
    must_equal("rejected_shutdown vs surfaced + retried", srv_rej_shutdown,
               total.rejected_shutdown + rt_shutdown);
  }
  must_equal("completed", srv_completed, total.ok);
  must_equal("expired", srv_expired, total.expired);
  // Server-internal conservation: everything submitted terminated.
  must_equal("submitted vs terminal states", srv_submitted,
             srv_completed + srv_expired + srv_rej_full + srv_rej_shutdown);
  // Backend conservation: every completed request was served by exactly
  // one engine — and when the client pinned one, by THAT engine.
  must_equal("backend pram+native vs completed",
             srv_bk_pram + srv_bk_native, srv_completed);
  if (want == iph::exec::BackendKind::kPram) {
    must_equal("backend=pram requests", srv_bk_pram, total.ok);
  } else if (want == iph::exec::BackendKind::kNative) {
    must_equal("backend=native requests", srv_bk_native, total.ok);
  }
  // Batch conservation: both lanes record each executed batch's size
  // once (a large-lane run is a batch of one), so the sizes sum to the
  // completed count — per server, and so on a merged fleet snapshot.
  const iph::stats::HistogramSnapshot* batch_size = d.histogram(sn::kBatchSize);
  must_equal("batch_size sum vs completed",
             batch_size != nullptr
                 ? static_cast<std::uint64_t>(batch_size->sum)
                 : 0,
             srv_completed);
  // Tracing conservation: with a flight recorder armed, every completed
  // request published exactly one kind=request trace of exactly
  // kSpansPerRequest spans (publish counts at attempt time, so ring
  // drops do not leak traces out of this identity). Keyed off counter
  // PRESENCE: an --obs-capacity 0 server never mints these counters and
  // skips the check.
  namespace on = iph::obs::statnames;
  if (const std::uint64_t* pub = d.counter(iph::stats::labeled(
          on::kTracesPublishedBase, "kind", "request"))) {
    must_equal("obs traces published{kind=request}", *pub, srv_completed);
  }
  if (const std::uint64_t* spans = d.counter(iph::stats::labeled(
          on::kSpansRecordedBase, "kind", "request"))) {
    must_equal("obs spans recorded{kind=request}", *spans,
               srv_completed * iph::obs::kSpansPerRequest);
  }

  if (tol > 0 && total.ok > 0 && e2e != nullptr && e2e->count > 0) {
    const double lo = std::max(std::min(*server_p99, client_p99), 0.05);
    const double ratio = std::max(*server_p99, client_p99) / lo;
    if (ratio > tol) {
      std::fprintf(stderr,
                   "hullload scrape: P99 DIVERGENCE: server %.3f ms vs "
                   "client %.3f ms (ratio %.2f > tol %.2f)\n",
                   *server_p99, client_p99, ratio, tol);
      ok = false;
    }
  }
  return ok;
}

/// --stream counterpart of check_scrape: reconcile the iph_session_*
/// registry against this client's tally. The run must be the server's
/// only session traffic; `after` supplies the post-run gauge LEVELS
/// (diffs keep gauges at their current value, so the levels double as
/// the "everything closed, all cells released" check).
bool check_scrape_stream(const iph::stats::RegistrySnapshot& d,
                         const Tally& total, const Options& opt,
                         double client_p99, double* server_p99) {
  namespace ssn = iph::session::statnames;
  const std::uint64_t opened = d.counter_or0(ssn::kOpened);
  const std::uint64_t closed = d.counter_or0(ssn::kClosed);
  const std::uint64_t appends = d.counter_or0(ssn::kAppends);
  const std::uint64_t append_points = d.counter_or0(ssn::kAppendPoints);
  const std::uint64_t rebuilds = d.counter_or0(ssn::kRebuilds);
  const std::uint64_t mismatches = d.counter_or0(ssn::kRebuildMismatch);
  std::uint64_t rejects = 0;
  for (const char* reason : {"cap", "unknown", "closed", "oversized"}) {
    rejects +=
        d.counter_or0(iph::stats::labeled(ssn::kRejectedBase, "reason",
                                          reason));
  }
  const std::uint64_t rb_pram = d.counter_or0(
      iph::stats::labeled(ssn::kRebuildBackendBase, "backend", "pram"));
  const std::uint64_t rb_native = d.counter_or0(
      iph::stats::labeled(ssn::kRebuildBackendBase, "backend", "native"));
  const iph::stats::HistogramSnapshot* append_ms =
      d.histogram(ssn::kAppendMs);
  const iph::stats::HistogramSnapshot* delta_ops =
      d.histogram(ssn::kDeltaOps);
  const std::int64_t* live = d.gauge(ssn::kLiveSessions);
  const std::int64_t* aux = d.gauge(ssn::kAuxCells);
  *server_p99 = append_ms != nullptr ? append_ms->quantile(0.99) : 0.0;

  std::fprintf(stderr,
               "hullload scrape: sessions opened %llu closed %llu  "
               "appends %llu  points %llu  rebuilds %llu (pram %llu "
               "native %llu)  mismatches %llu  rejects %llu\n",
               static_cast<unsigned long long>(opened),
               static_cast<unsigned long long>(closed),
               static_cast<unsigned long long>(appends),
               static_cast<unsigned long long>(append_points),
               static_cast<unsigned long long>(rebuilds),
               static_cast<unsigned long long>(rb_pram),
               static_cast<unsigned long long>(rb_native),
               static_cast<unsigned long long>(mismatches),
               static_cast<unsigned long long>(rejects));
  std::fprintf(stderr,
               "hullload scrape: append p99 server %.3f ms vs client "
               "%.3f ms\n",
               *server_p99, client_p99);

  bool ok = true;
  auto must_equal = [&](const char* what, std::uint64_t server,
                        std::uint64_t client) {
    if (server != client) {
      std::fprintf(stderr,
                   "hullload scrape: RECONCILE FAIL: %s server %llu != "
                   "client %llu\n",
                   what, static_cast<unsigned long long>(server),
                   static_cast<unsigned long long>(client));
      ok = false;
    }
  };
  if (total.errors != 0) {
    std::fprintf(stderr,
                 "hullload scrape: RECONCILE FAIL: %llu client-side "
                 "errors\n",
                 static_cast<unsigned long long>(total.errors));
    ok = false;
  }
  const auto clients = static_cast<std::uint64_t>(opt.clients);
  must_equal("sessions opened", opened, clients);
  must_equal("sessions closed", closed, clients);
  must_equal("appends", appends, total.ok);
  must_equal("append_points", append_points,
             total.ok * static_cast<std::uint64_t>(opt.append_points));
  must_equal("rebuilds", rebuilds, total.rebuilds);
  must_equal("rebuild backends pram+native", rb_pram + rb_native, rebuilds);
  must_equal("rebuild mismatches", mismatches, 0);
  must_equal("session rejects", rejects, 0);
  must_equal("append_ms count", append_ms != nullptr ? append_ms->count : 0,
             appends);
  must_equal("delta_ops count", delta_ops != nullptr ? delta_ops->count : 0,
             appends);
  must_equal("live_sessions gauge",
             live != nullptr ? static_cast<std::uint64_t>(*live) : 1, 0);
  must_equal("aux_cells gauge",
             aux != nullptr ? static_cast<std::uint64_t>(*aux) : 1, 0);
  // Behind a router (gauge presence-keyed like the obs checks): its
  // sid map must agree that every session this run opened is closed.
  namespace rn = iph::cluster::statnames;
  if (const std::int64_t* rso = d.gauge(rn::kSessionsOpen)) {
    must_equal("router sessions_open gauge",
               static_cast<std::uint64_t>(*rso), 0);
  }
  // Tracing conservation (manager.h contract): one kind=session trace
  // per append, with a rebuild child span iff that append rebuilt.
  // Presence-gated like the batch-mode obs checks.
  namespace on = iph::obs::statnames;
  if (const std::uint64_t* pub = d.counter(iph::stats::labeled(
          on::kTracesPublishedBase, "kind", "session"))) {
    must_equal("obs traces published{kind=session}", *pub, appends);
  }
  if (const std::uint64_t* spans = d.counter(iph::stats::labeled(
          on::kSpansRecordedBase, "kind", "session"))) {
    must_equal("obs spans recorded{kind=session}", *spans,
               appends + rebuilds);
  }

  if (opt.scrape_tol > 0 && total.ok > 0 && append_ms != nullptr &&
      append_ms->count > 0) {
    const double lo = std::max(std::min(*server_p99, client_p99), 0.05);
    const double ratio = std::max(*server_p99, client_p99) / lo;
    if (ratio > opt.scrape_tol) {
      std::fprintf(stderr,
                   "hullload scrape: P99 DIVERGENCE: server %.3f ms vs "
                   "client %.3f ms (ratio %.2f > tol %.2f)\n",
                   *server_p99, client_p99, ratio, opt.scrape_tol);
      ok = false;
    }
  }
  return ok;
}

/// One tracez round trip on a fresh connection; leaves the inner
/// tracez document (retained/published/exemplars/traces) in `out`.
bool tracez_fetch_tcp(const std::string& hostport, int limit, Json* out,
                      std::string* err) {
  const int fd = connect_to(hostport);
  if (fd < 0) {
    *err = "connect failed";
    return false;
  }
  LineChannel chan(fd, fd);
  Json cmd = Json::object();
  cmd["cmd"] = Json("tracez");
  cmd["limit"] = Json(limit);
  cmd["order"] = Json("slowest");
  std::string line;
  const bool io_ok = chan.write_line(cmd.dump()) && chan.read_line(&line);
  ::close(fd);
  if (!io_ok) {
    *err = "tracez round trip failed";
    return false;
  }
  Json reply;
  if (!Json::parse(line, &reply, err)) return false;
  if (reply.find("error") != nullptr) {
    *err = reply.get_str("error", "server refused tracez");
    return false;
  }
  const Json* doc = reply.find("tracez");
  if (doc == nullptr) {
    *err = "reply has no \"tracez\" key";
    return false;
  }
  *out = *doc;
  return true;
}

/// Recursively print the spans whose parent id is `parent`, indented
/// one level per tree depth. Span ids are unique within a trace and
/// the arrays are tiny, so the quadratic walk is fine.
void print_span_children(const Json& spans, std::uint64_t parent,
                         int depth) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Json& s = spans.at(i);
    if (static_cast<std::uint64_t>(s.get_num("parent", 0)) != parent) {
      continue;
    }
    const auto id = static_cast<std::uint64_t>(s.get_num("span", 0));
    std::fprintf(stderr, "    %*s%-*s +%9.1f us  %9.1f us\n", depth * 2,
                 "", 24 - depth * 2, s.get_str("name", "?").c_str(),
                 s.get_num("start_us", 0), s.get_num("dur_us", 0));
    if (id != parent) print_span_children(spans, id, depth + 1);
  }
}

/// Render the tracez document's slowest-first trace list as indented
/// span trees (the human half of --trace-slowest; the machine half is
/// the tracez JSON itself, which --tracez-out on the server dumps).
void print_trace_trees(const Json& doc) {
  const Json* traces = doc.find("traces");
  const std::size_t count =
      traces != nullptr && traces->is_array() ? traces->size() : 0;
  std::fprintf(stderr,
               "hullload tracez: %llu retained, %llu published, %llu "
               "spans dropped; %zu slowest:\n",
               static_cast<unsigned long long>(doc.get_num("retained", 0)),
               static_cast<unsigned long long>(doc.get_num("published", 0)),
               static_cast<unsigned long long>(
                   doc.get_num("dropped_spans", 0)),
               count);
  for (std::size_t i = 0; i < count; ++i) {
    const Json& t = traces->at(i);
    std::fprintf(stderr,
                 "  trace %s  id %llu  kind %s  status %s  backend %s  "
                 "batch %llu  e2e %.3f ms\n",
                 t.get_str("trace", "?").c_str(),
                 static_cast<unsigned long long>(t.get_num("id", 0)),
                 t.get_str("kind", "?").c_str(),
                 t.get_str("status", "?").c_str(),
                 t.get_str("backend", "-").c_str(),
                 static_cast<unsigned long long>(t.get_num("batch", 0)),
                 t.get_num("e2e_ms", 0));
    if (const Json* repro = t.find("repro"); repro != nullptr) {
      std::fprintf(stderr, "    repro: %s\n",
                   t.get_str("repro", "").c_str());
    }
    if (const Json* spans = t.find("spans");
        spans != nullptr && spans->is_array()) {
      print_span_children(*spans, 0, 0);
    }
    if (const Json* tr = t.find("phase_spans_truncated");
        tr != nullptr && tr->as_bool()) {
      std::fprintf(stderr, "    (phase spans truncated)\n");
    }
  }
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--clients" && (v = next())) {
      opt.clients = std::atoi(v);
    } else if (a == "--requests" && (v = next())) {
      opt.requests = std::atoi(v);
    } else if (a == "--qps" && (v = next())) {
      opt.qps = std::atof(v);
    } else if (a == "--n" && (v = next())) {
      opt.n = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--workload" && (v = next())) {
      opt.workload = v;
    } else if (a == "--seed" && (v = next())) {
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--deadline-ms" && (v = next())) {
      opt.deadline_ms = std::atof(v);
    } else if (a == "--connect" && (v = next())) {
      opt.connect = v;
    } else if (a == "--endpoints" && (v = next())) {
      opt.endpoints.clear();
      std::string item;
      for (const char* p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (item.empty()) return usage(argv[0]);
          opt.endpoints.push_back(item);
          item.clear();
          if (*p == '\0') break;
        } else {
          item.push_back(*p);
        }
      }
    } else if (a == "--backend" && (v = next())) {
      if (!iph::exec::parse_backend(v, &opt.backend)) return usage(argv[0]);
    } else if (a == "--shards" && (v = next())) {
      opt.cfg.shards = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--threads" && (v = next())) {
      opt.cfg.threads_per_shard = static_cast<unsigned>(std::atoi(v));
    } else if (a == "--capacity" && (v = next())) {
      opt.cfg.queue_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--window-us" && (v = next())) {
      opt.cfg.batch.window = std::chrono::microseconds(std::atoll(v));
    } else if (a == "--stream") {
      opt.stream = true;
    } else if (a == "--append-points" && (v = next())) {
      opt.append_points = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--expect-all-ok") {
      opt.expect_all_ok = true;
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--scrape") {
      opt.scrape = true;
    } else if (a == "--scrape-tol" && (v = next())) {
      opt.scrape_tol = std::atof(v);
    } else if (a == "--scrape-out" && (v = next())) {
      opt.scrape_out = v;
      opt.scrape = true;
    } else if (a == "--trace-slowest" && (v = next())) {
      opt.trace_slowest = std::atoi(v);
      if (opt.trace_slowest < 1) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.clients < 1 || opt.requests < 1 || opt.n == 0 ||
      (opt.stream && opt.append_points == 0)) {
    return usage(argv[0]);
  }
  {
    std::vector<iph::geom::Point2> probe;
    if (!iph::tools::make_workload(opt.workload, 4, 0, &probe)) {
      std::fprintf(stderr, "hullload: unknown workload \"%s\"\n",
                   opt.workload.c_str());
      return 2;
    }
  }

  // Load targets, round-robined across clients; --connect is the
  // one-target case, and no target at all means in-process.
  std::vector<std::string> targets = opt.endpoints;
  if (targets.empty() && !opt.connect.empty()) {
    targets.push_back(opt.connect);
  }
  const bool inproc = targets.empty();
  std::string target_desc = inproc ? "in-process" : targets[0];
  for (std::size_t i = 1; i < targets.size(); ++i) {
    target_desc += "+" + targets[i];
  }
  std::unique_ptr<HullService> svc;
  std::unique_ptr<iph::stats::Registry> stream_registry;
  std::unique_ptr<iph::obs::FlightRecorder> stream_flight;
  std::unique_ptr<iph::session::SessionManager> mgr;
  if (inproc && opt.stream) {
    iph::session::ManagerConfig mc;
    mc.max_sessions = std::max<std::size_t>(
        mc.max_sessions, static_cast<std::size_t>(opt.clients));
    mc.default_backend = opt.backend;
    mc.master_seed = opt.seed;
    stream_registry = std::make_unique<iph::stats::Registry>();
    // Arm a flight recorder so in-process stream runs exercise the
    // session-trace path and the obs reconciliation identities too.
    stream_flight = std::make_unique<iph::obs::FlightRecorder>(
        iph::obs::ObsConfig{}, *stream_registry);
    mgr = std::make_unique<iph::session::SessionManager>(
        mc, *stream_registry, stream_flight.get());
  } else if (inproc) {
    svc = std::make_unique<HullService>(opt.cfg);
  }

  // --scrape brackets the run with registry snapshots; the diff makes
  // the cross-check robust to traffic the server saw before us (but the
  // run itself must be the server's only traffic).
  iph::stats::RegistrySnapshot scrape_before;
  std::vector<iph::stats::RegistrySnapshot> scrape_before_tcp;
  if (opt.scrape && !inproc) {
    std::string err;
    if (!scrape_targets(targets, &scrape_before_tcp, &err)) {
      std::fprintf(stderr, "hullload: statz scrape failed: %s\n",
                   err.c_str());
      return 3;
    }
  } else if (opt.scrape) {
    scrape_before = opt.stream ? stream_registry->snapshot()
                               : svc->stats_registry().snapshot();
  }

  std::atomic<bool> conn_failed{false};
  std::vector<Tally> tallies(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string target =
          inproc ? std::string()
                 : targets[static_cast<std::size_t>(c) % targets.size()];
      if (opt.stream) {
        tallies[c] = inproc
                         ? run_stream_inproc(*mgr, opt, c, start)
                         : run_stream_tcp(opt, target, c, start,
                                          &conn_failed);
      } else {
        tallies[c] = inproc
                         ? run_client_inproc(*svc, opt, c, start)
                         : run_client_tcp(opt, target, c, start,
                                          &conn_failed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (conn_failed.load()) {
    std::fprintf(stderr, "hullload: connection to %s failed\n",
                 target_desc.c_str());
    return 3;
  }

  Tally total;
  for (auto& t : tallies) total.merge(std::move(t));
  std::sort(total.ok_e2e_ms.begin(), total.ok_e2e_ms.end());
  const double qps = static_cast<double>(total.ok) / wall_s;
  const double p50 = percentile(total.ok_e2e_ms, 0.50);
  const double p95 = percentile(total.ok_e2e_ms, 0.95);
  const double p99 = percentile(total.ok_e2e_ms, 0.99);

  if (opt.stream) {
    std::fprintf(stderr,
                 "hullload: %d sessions x %d appends of %zu points, %s "
                 "loop, %s, workload %s\n",
                 opt.clients, opt.requests, opt.append_points,
                 opt.qps > 0 ? "open" : "closed", target_desc.c_str(),
                 opt.workload.c_str());
    std::fprintf(stderr,
                 "  appends ok %llu  errors %llu  delta ops %llu  "
                 "rebuilds %llu  mismatches %llu\n",
                 static_cast<unsigned long long>(total.ok),
                 static_cast<unsigned long long>(total.errors),
                 static_cast<unsigned long long>(total.delta_ops),
                 static_cast<unsigned long long>(total.rebuilds),
                 static_cast<unsigned long long>(total.mismatches));
    std::fprintf(stderr,
                 "  points %llu  peak workspace %llu cells (max session)\n",
                 static_cast<unsigned long long>(total.points),
                 static_cast<unsigned long long>(total.peak_aux_max));
    std::fprintf(stderr, "  wall %.3f s  appends/s %.1f\n", wall_s, qps);
    std::fprintf(stderr, "  delta ms (ok): p50 %.2f  p95 %.2f  p99 %.2f\n",
                 p50, p95, p99);
  } else {
    std::fprintf(stderr,
                 "hullload: %d clients x %d requests, %s loop, %s, "
                 "workload %s n=%zu\n",
                 opt.clients, opt.requests, opt.qps > 0 ? "open" : "closed",
                 target_desc.c_str(), opt.workload.c_str(), opt.n);
    std::fprintf(stderr,
                 "  ok %llu  rejected_full %llu  rejected_shutdown %llu  "
                 "expired %llu  errors %llu\n",
                 static_cast<unsigned long long>(total.ok),
                 static_cast<unsigned long long>(total.rejected_full),
                 static_cast<unsigned long long>(total.rejected_shutdown),
                 static_cast<unsigned long long>(total.expired),
                 static_cast<unsigned long long>(total.errors));
    std::fprintf(stderr, "  wall %.3f s  qps %.1f\n", wall_s, qps);
    std::fprintf(stderr, "  e2e ms (ok): p50 %.2f  p95 %.2f  p99 %.2f\n",
                 p50, p95, p99);
  }
  double mean_batch = 0;
  std::uint64_t large = 0;
  if (inproc && !opt.stream) {
    svc->shutdown(/*drain=*/true);
    const iph::stats::RegistrySnapshot s = svc->stats_registry().snapshot();
    mean_batch = iph::serve::mean_batch(s);
    large = s.counter_or0(iph::serve::statnames::kLargeRequests);
    std::fprintf(stderr, "  service: mean batch %.2f  large %llu\n",
                 mean_batch, static_cast<unsigned long long>(large));
  }

  bool scrape_failed = false;
  double server_p99 = 0;
  std::string served_backend;
  if (opt.scrape) {
    iph::stats::RegistrySnapshot d;
    if (!inproc) {
      std::vector<iph::stats::RegistrySnapshot> after;
      std::string err;
      if (!scrape_targets(targets, &after, &err)) {
        std::fprintf(stderr, "hullload: statz scrape failed: %s\n",
                     err.c_str());
        return 3;
      }
      // Per-target diffs first (each target's counters are its own
      // monotone series), then one fleet sum over the diffs.
      std::vector<iph::stats::RegistrySnapshot> diffs;
      diffs.reserve(targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        diffs.push_back(after[i].diff(scrape_before_tcp[i]));
      }
      if (!iph::cluster::merge_snapshots(diffs, &d, &err)) {
        std::fprintf(stderr, "hullload: scrape merge failed: %s\n",
                     err.c_str());
        return 1;
      }
    } else {
      const iph::stats::RegistrySnapshot after =
          opt.stream ? stream_registry->snapshot()
                     : svc->stats_registry().snapshot();
      d = after.diff(scrape_before);
    }
    if (opt.stream) {
      scrape_failed = !check_scrape_stream(d, total, opt, p99, &server_p99);
    } else {
      scrape_failed = !check_scrape(d, total, p99, opt.scrape_tol,
                                    opt.backend, &server_p99,
                                    &served_backend);
    }
    if (!opt.scrape_out.empty()) {
      // The diffed snapshot plus which engine(s) served the run —
      // stats::from_json ignores the extra key, so the file still
      // parses as iph-stats-v1.
      Json scrape_json = iph::stats::to_json(d);
      if (!opt.stream) scrape_json["served_backend"] = Json(served_backend);
      if (!write_file(opt.scrape_out, scrape_json.dump(2) + "\n")) {
        std::fprintf(stderr, "hullload: cannot write %s\n",
                     opt.scrape_out.c_str());
        scrape_failed = true;
      }
    }
  }

  if (opt.trace_slowest > 0) {
    Json doc;
    bool have = false;
    if (!inproc) {
      // First target only — against a router that IS the whole fleet
      // (fleet_tracez), against plain backends it is a sample.
      std::string err;
      if (!tracez_fetch_tcp(targets[0], opt.trace_slowest, &doc, &err)) {
        std::fprintf(stderr, "hullload: tracez fetch of %s failed: %s\n",
                     targets[0].c_str(), err.c_str());
      } else {
        have = true;
      }
    } else {
      const iph::obs::FlightRecorder* fr =
          opt.stream ? stream_flight.get()
                     : (svc != nullptr ? svc->flight_recorder() : nullptr);
      if (fr == nullptr) {
        std::fprintf(stderr, "hullload: tracing disabled in-process\n");
      } else {
        doc = iph::obs::tracez_json(
            *fr, static_cast<std::size_t>(opt.trace_slowest),
            /*slowest=*/true);
        have = true;
      }
    }
    if (have) print_trace_trees(doc);
  }

  if (opt.json) {
    Json j = Json::object();
    j["clients"] = Json(opt.clients);
    j["requests_per_client"] = Json(opt.requests);
    j["mode"] = Json(opt.qps > 0 ? "open" : "closed");
    j["target"] = Json(target_desc);
    j["workload"] = Json(opt.workload);
    j["n"] = Json(static_cast<std::uint64_t>(opt.n));
    j["backend"] = Json(iph::exec::backend_name(opt.backend));
    j["ok"] = Json(total.ok);
    j["rejected_full"] = Json(total.rejected_full);
    j["rejected_shutdown"] = Json(total.rejected_shutdown);
    j["expired"] = Json(total.expired);
    j["errors"] = Json(total.errors);
    j["wall_s"] = Json(wall_s);
    j["qps"] = Json(qps);
    j["p50_ms"] = Json(p50);
    j["p95_ms"] = Json(p95);
    j["p99_ms"] = Json(p99);
    if (opt.stream) {
      j["stream"] = Json(true);
      j["append_points"] = Json(static_cast<std::uint64_t>(
          opt.append_points));
      j["delta_ops"] = Json(total.delta_ops);
      j["rebuilds"] = Json(total.rebuilds);
      j["rebuild_mismatches"] = Json(total.mismatches);
      j["points"] = Json(total.points);
      j["peak_aux_cells_max"] = Json(total.peak_aux_max);
    }
    if (inproc && !opt.stream) j["mean_batch"] = Json(mean_batch);
    if (opt.scrape) {
      j["server_p99_ms"] = Json(server_p99);
      j["scrape_ok"] = Json(!scrape_failed);
      if (!opt.stream) j["served_backend"] = Json(served_backend);
    }
    std::printf("%s\n", j.dump().c_str());
  }

  if (scrape_failed) return 1;
  const std::uint64_t not_ok = total.rejected_full +
                               total.rejected_shutdown + total.expired +
                               total.errors;
  return opt.expect_all_ok && not_ok != 0 ? 1 : 0;
}
