// hullload — closed/open-loop load generator for a running hullserved
// or hullrouter. It speaks only the wire (serve_wire.h):
//
//   hullload --connect HOST:PORT [...]     drive one target
//   hullload --endpoints H:P[,H:P...]      drive several targets at once
//                                          (clients round-robin across
//                                          them; --scrape merges)
//
// One of the two is required (a run without a target is a usage error).
// --clients C threads each open one connection and issue --requests R
// queries of workload --workload/--n (per-request generator seed =
// --seed + request id, so every query is distinct but the run is
// reproducible). Closed loop by default: each client waits for its
// answer before sending the next. --qps Q switches to open loop: clients
// send at a combined target rate of Q regardless of completions, and a
// per-client reader thread matches responses to send times in FIFO
// order — hullserved answers each connection in submission order. In
// both loops a reply whose "id" is not its request's counts as a client
// error, which fails --expect-all-ok and --scrape.
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
// the queue-depth and shards-leased gauges (back at 0), and the
// server-side ok-e2e median must be within --scrape-tol (a ratio;
// default 8, floored at 0.05 ms to ignore sub-bucket noise; 0 disables)
// of the client-observed median. Medians, not p99s: a smoke run has a
// few dozen samples, whose p99 is their maximum, so one stalled client
// thread would decide it. Violations print loudly and exit 1.
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
// --trace-slowest N fetches the first target's flight recorder after
// the run (tracez order=slowest) and prints the span trees of the N
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
// Numeric flags are parsed whole and range-checked
// (cluster::parse_number): --clients 1-4096, --n and --append-points
// 1-4194304 (the wire's generated-point cap), --requests and
// --trace-slowest >= 1, reals >= 0. Junk or an out-of-range value is a
// usage error.
//
// Exit codes: 0 done, 1 with --expect-all-ok if any request was
// rejected/expired/errored or with --scrape on reconcile/tolerance
// failure, 2 usage error, 3 connect failure.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/endpoint.h"
#include "cluster/merge.h"
#include "cluster/stats.h"
#include "exec/backend.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "serve_wire.h"
#include "session/stats.h"
#include "trace/json.h"

namespace {

using Clock = std::chrono::steady_clock;
using iph::cluster::Endpoint;
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
  std::string connect;
  /// Multi-target mode (--endpoints): client c drives
  /// targets[c % size]; --scrape scrapes and merges all of them.
  /// --connect is the one-element special case.
  std::vector<Endpoint> endpoints;
  /// Engine every request asks for ("default" lets the server pick —
  /// tagged on the wire so the scrape reconciliation knows which
  /// backend-labeled counter must absorb the run).
  iph::exec::BackendKind backend = iph::exec::BackendKind::kDefault;
  bool expect_all_ok = false;
  bool json = false;
  bool scrape = false;
  double scrape_tol = 8.0;   // median ratio tolerance; 0 disables
  std::string scrape_out;    // write diffed snapshot JSON here
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
      "usage: %s (--connect HOST:PORT | --endpoints H:P[,H:P...])\n"
      "          [--clients C] [--requests R] [--qps Q] [--n N]\n"
      "          [--workload W] [--seed S] [--deadline-ms D]\n"
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

/// The run-wide number of client c's i-th line, from 1: a batch
/// request's id, and the generator seed's offset from --seed.
std::uint64_t line_number(const Options& opt, int client, int i) {
  return static_cast<std::uint64_t>(client) *
             static_cast<std::uint64_t>(opt.requests) +
         static_cast<std::uint64_t>(i) + 1;
}

/// One connection's run of --requests lines: line(i) makes the i-th,
/// answer(i, reply, ms) takes the reply paired with line i and its
/// latency. Closed loop by default: send, wait for the answer, repeat.
/// With --qps the sends are paced while a reader thread pairs each reply
/// with the oldest outstanding send — positional FIFO matching, which
/// hullserved's in-order responder guarantees and answer() checks where
/// the reply names its line. False when the connection breaks, or when a
/// reply arrives with no line outstanding to answer.
bool drive(LineChannel& chan, const Options& opt, int client,
           Clock::time_point start,
           const std::function<std::string(int)>& line,
           const std::function<void(int, const std::string&, double)>& answer) {
  std::string reply;
  if (opt.qps <= 0) {
    for (int i = 0; i < opt.requests; ++i) {
      const auto t0 = Clock::now();
      if (!chan.write_line(line(i)) || !chan.read_line(&reply)) return false;
      answer(i, reply, iph::serve::ms_between(t0, Clock::now()));
    }
    return true;
  }
  std::deque<Clock::time_point> sent;
  std::mutex mu;
  std::atomic<bool> ok{true};
  std::thread reader([&] {
    for (int i = 0; i < opt.requests; ++i) {
      if (!chan.read_line(&reply)) {
        ok.store(false);
        return;
      }
      Clock::time_point t0;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (sent.empty()) {
          ok.store(false);
          return;
        }
        t0 = sent.front();
        sent.pop_front();
      }
      answer(i, reply, iph::serve::ms_between(t0, Clock::now()));
    }
  });
  for (int i = 0; i < opt.requests && ok.load(); ++i) {
    std::this_thread::sleep_until(send_at(start, opt, client, i));
    const std::string out = line(i);
    {
      std::lock_guard<std::mutex> lk(mu);
      sent.push_back(Clock::now());
    }
    if (!chan.write_line(out)) {
      ok.store(false);
      break;
    }
  }
  reader.join();
  return ok.load();
}

/// One batch client: --requests generated queries through drive(),
/// each answer tallied by its status. A reply whose "id" is not its
/// line's is a client error: the stream is out of step, so its status
/// and latency belong to some other line.
bool run_batch(LineChannel& chan, const Options& opt, int client,
               Clock::time_point start, Tally* t) {
  auto request_line = [&](int i) {
    const std::uint64_t id = line_number(opt, client, i);
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
  auto tally = [&](int i, const std::string& reply, double ms) {
    Json j;
    std::string err;
    const Json* id = nullptr;
    if (!Json::parse(reply, &j, &err) || j.find("error") != nullptr ||
        (id = j.find("id")) == nullptr || !id->is_number() ||
        id->as_double() !=
            static_cast<double>(line_number(opt, client, i))) {
      t->count("error", ms);
    } else {
      t->count(j.get_str("status", "error"), ms);
    }
  };
  return drive(chan, opt, client, start, request_line, tally);
}

/// One command line and its parsed one-line answer.
bool exchange(LineChannel& chan, const Json& cmd, Json* reply) {
  std::string line;
  std::string err;
  return chan.write_line(cmd.dump()) && chan.read_line(&line) &&
         Json::parse(line, reply, &err);
}

/// One streaming client: session_open, --requests session_appends
/// through drive() (the tally's ok latencies are per-append delta
/// latencies), session_close. A refused or unanswered open or close is
/// a client-side error; false only when the appends' connection breaks.
bool run_session(LineChannel& chan, const Options& opt, int client,
                 Clock::time_point start, Tally* t) {
  Json open = Json::object();
  open["cmd"] = Json("session_open");
  if (opt.backend != iph::exec::BackendKind::kDefault) {
    open["backend"] = Json(iph::exec::backend_name(opt.backend));
  }
  Json reply;
  if (!exchange(chan, open, &reply) || reply.get_str("status") != "ok") {
    ++t->errors;
    return true;
  }
  const auto sid = static_cast<std::uint64_t>(reply.get_num("sid", 0));

  auto append_line = [&](int i) {
    Json j = Json::object();
    j["cmd"] = Json("session_append");
    j["sid"] = Json(sid);
    j["n"] = Json(static_cast<std::uint64_t>(opt.append_points));
    j["workload"] = Json(opt.workload);
    j["seed"] = Json(opt.seed + line_number(opt, client, i));
    return j.dump();
  };
  auto tally = [&](int, const std::string& line, double ms) {
    Json j;
    std::string err;
    if (!Json::parse(line, &j, &err) || j.get_str("status") != "ok") {
      ++t->errors;
      return;
    }
    t->count("ok", ms);
    if (const Json* d = j.find("delta"); d != nullptr && d->is_array()) {
      t->delta_ops += d->size();
    }
    const Json* rb = j.find("rebuilt");
    if (rb != nullptr && rb->as_bool()) ++t->rebuilds;
  };
  if (!drive(chan, opt, client, start, append_line, tally)) return false;

  Json close = Json::object();
  close["cmd"] = Json("session_close");
  close["sid"] = Json(sid);
  if (!exchange(chan, close, &reply) || reply.get_str("status") != "ok") {
    ++t->errors;
    return true;
  }
  if (const Json* s = reply.find("summary"); s != nullptr) {
    t->points += static_cast<std::uint64_t>(s->get_num("points", 0));
    t->mismatches +=
        static_cast<std::uint64_t>(s->get_num("mismatches", 0));
    t->peak_aux_max = std::max(
        t->peak_aux_max,
        static_cast<std::uint64_t>(s->get_num("peak_aux_cells", 0)));
  }
  return true;
}

/// Scrape every target's statz into `out` (one snapshot per target, in
/// order). False (with the failing target named in *err) on any miss.
bool scrape_targets(const std::vector<Endpoint>& targets,
                    std::vector<iph::stats::RegistrySnapshot>* out,
                    std::string* err) {
  out->assign(targets.size(), {});
  for (std::size_t i = 0; i < targets.size(); ++i) {
    std::string why;
    if (!iph::cluster::scrape_statz(targets[i], &(*out)[i], &why)) {
      *err = targets[i].str() + ": " + why;
      return false;
    }
  }
  return true;
}

/// What both scrape checks share: the run reconciles when the client
/// saw no errors, every identity passed to equal() holds, and the
/// server's median latency is within the tolerance of the client's.
/// Each failure prints why.
class Reconcile {
 public:
  explicit Reconcile(const Tally& total) : total_(total) {
    if (total.errors != 0) {
      std::fprintf(stderr,
                   "hullload scrape: RECONCILE FAIL: %llu client-side "
                   "errors\n",
                   static_cast<unsigned long long>(total.errors));
      ok_ = false;
    }
  }

  void equal(const std::string& what, std::uint64_t server,
             std::uint64_t client) {
    if (server != client) {
      std::fprintf(stderr,
                   "hullload scrape: RECONCILE FAIL: %s server %llu != "
                   "client %llu\n",
                   what.c_str(), static_cast<unsigned long long>(server),
                   static_cast<unsigned long long>(client));
      ok_ = false;
    }
  }

  /// Tracing conservation: `traces` published traces of `kind`, and
  /// `spans` recorded spans. Keyed off counter PRESENCE: an
  /// --obs-capacity 0 server never mints these counters and skips it.
  void obs(const iph::stats::RegistrySnapshot& d, const std::string& kind,
           std::uint64_t traces, std::uint64_t spans) {
    namespace on = iph::obs::statnames;
    const std::string label = "{kind=" + kind + "}";
    if (const std::uint64_t* pub = d.counter(iph::stats::labeled(
            on::kTracesPublishedBase, "kind", kind))) {
      equal("obs traces published" + label, *pub, traces);
    }
    if (const std::uint64_t* rec = d.counter(iph::stats::labeled(
            on::kSpansRecordedBase, "kind", kind))) {
      equal("obs spans recorded" + label, *rec, spans);
    }
  }

  /// The verdict, after the median check of the server's `latency`
  /// histogram against the client's p50 (skipped when `tol` is 0 or
  /// either side has no samples).
  bool done(const iph::stats::HistogramSnapshot* latency, double client_p50,
            double tol) {
    if (tol > 0 && total_.ok > 0 && latency != nullptr &&
        latency->count > 0) {
      const double server_p50 = latency->quantile(0.50);
      const double lo = std::max(std::min(server_p50, client_p50), 0.05);
      const double ratio = std::max(server_p50, client_p50) / lo;
      if (ratio > tol) {
        std::fprintf(stderr,
                     "hullload scrape: MEDIAN DIVERGENCE: server %.3f ms vs "
                     "client %.3f ms (ratio %.2f > tol %.2f)\n",
                     server_p50, client_p50, ratio, tol);
        ok_ = false;
      }
    }
    return ok_;
  }

 private:
  const Tally& total_;
  bool ok_ = true;
};

/// Cross-check the server-side snapshot diff against the client tally
/// and print the side-by-side summary. Returns false (after printing
/// why) when the accounting does not reconcile or the medians diverge
/// beyond `tol`. `server_p99` is left with the server-side ok-e2e p99;
/// `served_backend` with which engine(s) absorbed the run's completed
/// requests per the backend-labeled counters ("pram", "native" or
/// "mixed"). When `want` names an engine, that engine's counter must
/// equal the client's ok count exactly; either way pram + native must
/// equal completed (every completed request was served by exactly one
/// engine), and so must the summed batch sizes.
bool check_scrape(const iph::stats::RegistrySnapshot& d, const Tally& total,
                  double client_p50, double tol,
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
  const double server_p50 = e2e != nullptr ? e2e->quantile(0.50) : 0.0;
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
               "hullload scrape: e2e p50 server %.3f ms vs client %.3f ms "
               "(server p99 %.3f ms)\n",
               server_p50, client_p50, *server_p99);
  if (forwards != nullptr) {
    std::fprintf(stderr,
                 "hullload scrape: router forwards %llu  retries full %llu "
                 "shutdown %llu io %llu\n",
                 static_cast<unsigned long long>(*forwards),
                 static_cast<unsigned long long>(rt_full),
                 static_cast<unsigned long long>(rt_shutdown),
                 static_cast<unsigned long long>(rt_io));
  }

  Reconcile r(total);
  const std::uint64_t client_total = total.ok + total.rejected_full +
                                     total.rejected_shutdown + total.expired;
  if (forwards == nullptr) {
    r.equal("submitted", srv_submitted, client_total);
    r.equal("rejected_full", srv_rej_full, total.rejected_full);
    r.equal("rejected_shutdown", srv_rej_shutdown, total.rejected_shutdown);
  } else {
    // A retried request submits once per executed attempt but the
    // client tallies exactly one answer; a rejected attempt is either
    // retried (counted in retries{reason}) or surfaced (counted by the
    // client). io retries forwarded nothing, so they appear in neither
    // submitted nor the per-reason identities.
    r.equal("fleet submitted vs client + retries", srv_submitted,
            client_total + rt_full + rt_shutdown);
    r.equal("router forwards vs fleet submitted", *forwards, srv_submitted);
    r.equal("rejected_full vs surfaced + retried", srv_rej_full,
            total.rejected_full + rt_full);
    r.equal("rejected_shutdown vs surfaced + retried", srv_rej_shutdown,
            total.rejected_shutdown + rt_shutdown);
  }
  r.equal("completed", srv_completed, total.ok);
  r.equal("expired", srv_expired, total.expired);
  // Server-internal conservation: everything submitted terminated.
  r.equal("submitted vs terminal states", srv_submitted,
          srv_completed + srv_expired + srv_rej_full + srv_rej_shutdown);
  // Backend conservation: every completed request was served by exactly
  // one engine — and when the client pinned one, by THAT engine.
  r.equal("backend pram+native vs completed", srv_bk_pram + srv_bk_native,
          srv_completed);
  if (want == iph::exec::BackendKind::kPram) {
    r.equal("backend=pram requests", srv_bk_pram, total.ok);
  } else if (want == iph::exec::BackendKind::kNative) {
    r.equal("backend=native requests", srv_bk_native, total.ok);
  }
  // Tracing conservation: with a flight recorder armed, every completed
  // request published exactly one kind=request trace of exactly
  // kSpansPerRequest spans (publish counts at attempt time, so ring
  // drops do not leak traces out of this identity).
  r.obs(d, "request", srv_completed,
        srv_completed * iph::obs::kSpansPerRequest);
  // Occupancy: with every answer in, no queue slot or running shard
  // stays occupied. Diffs keep gauges at their current level.
  for (const std::string& g :
       {iph::stats::labeled(sn::kQueueDepthBase, "queue", "small"),
        iph::stats::labeled(sn::kQueueDepthBase, "queue", "large"),
        std::string(sn::kShardsLeased)}) {
    const std::int64_t* v = d.gauge(g);
    r.equal(g + " gauge", v != nullptr ? static_cast<std::uint64_t>(*v) : 1,
            0);
  }
  return r.done(e2e, client_p50, tol);
}

/// --stream counterpart of check_scrape: reconcile the iph_session_*
/// registry against this client's tally. The run must be the server's
/// only session traffic; the diff's gauges are the post-run LEVELS
/// (diffs keep gauges at their current value, so the levels double as
/// the "everything closed, all cells released" check).
bool check_scrape_stream(const iph::stats::RegistrySnapshot& d,
                         const Tally& total, const Options& opt,
                         double client_p50, double* server_p99) {
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
  const double server_p50 =
      append_ms != nullptr ? append_ms->quantile(0.50) : 0.0;

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
               "hullload scrape: append p50 server %.3f ms vs client "
               "%.3f ms (server p99 %.3f ms)\n",
               server_p50, client_p50, *server_p99);

  Reconcile r(total);
  const auto clients = static_cast<std::uint64_t>(opt.clients);
  r.equal("sessions opened", opened, clients);
  r.equal("sessions closed", closed, clients);
  r.equal("appends", appends, total.ok);
  r.equal("append_points", append_points,
          total.ok * static_cast<std::uint64_t>(opt.append_points));
  r.equal("rebuilds", rebuilds, total.rebuilds);
  r.equal("rebuild backends pram+native", rb_pram + rb_native, rebuilds);
  r.equal("rebuild mismatches", mismatches, 0);
  r.equal("session rejects", rejects, 0);
  r.equal("append_ms count", append_ms != nullptr ? append_ms->count : 0,
          appends);
  r.equal("delta_ops count", delta_ops != nullptr ? delta_ops->count : 0,
          appends);
  r.equal("live_sessions gauge",
          live != nullptr ? static_cast<std::uint64_t>(*live) : 1, 0);
  r.equal("aux_cells gauge",
          aux != nullptr ? static_cast<std::uint64_t>(*aux) : 1, 0);
  // Behind a router (gauge presence-keyed like the obs checks): its
  // sid map must agree that every session this run opened is closed.
  namespace rn = iph::cluster::statnames;
  if (const std::int64_t* rso = d.gauge(rn::kSessionsOpen)) {
    r.equal("router sessions_open gauge", static_cast<std::uint64_t>(*rso),
            0);
  }
  // Tracing conservation (manager.h contract): one kind=session trace
  // per append, with a rebuild child span iff that append rebuilt.
  r.obs(d, "session", appends, appends + rebuilds);
  return r.done(append_ms, client_p50, opt.scrape_tol);
}

/// The tracez document (retained/published/exemplars/traces) of the
/// `limit` slowest traces `ep` retains, from one round trip.
bool fetch_tracez(const Endpoint& ep, int limit, Json* out,
                  std::string* err) {
  Json cmd = Json::object();
  cmd["cmd"] = Json("tracez");
  cmd["limit"] = Json(limit);
  cmd["order"] = Json("slowest");
  std::string line;
  if (!iph::cluster::round_trip(ep, cmd.dump(), &line)) {
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
                 "e2e %.3f ms\n",
                 t.get_str("trace", "?").c_str(),
                 static_cast<unsigned long long>(t.get_num("id", 0)),
                 t.get_str("kind", "?").c_str(),
                 t.get_str("status", "?").c_str(),
                 t.get_str("backend", "-").c_str(), t.get_num("e2e_ms", 0));
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

}  // namespace

int main(int argc, char** argv) {
  using iph::cluster::parse_number;
  constexpr double kMaxReal = std::numeric_limits<double>::max();
  constexpr auto kMaxPoints =
      static_cast<std::size_t>(iph::tools::kMaxGeneratedPoints);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if (a == "--clients" && (v = next())) {
      ok = parse_number(v, 1, 4096, &opt.clients);
    } else if (a == "--requests" && (v = next())) {
      ok = parse_number(v, 1, INT_MAX, &opt.requests);
    } else if (a == "--qps" && (v = next())) {
      ok = parse_number(v, 0.0, kMaxReal, &opt.qps);
    } else if (a == "--n" && (v = next())) {
      ok = parse_number(v, 1, kMaxPoints, &opt.n);
    } else if (a == "--workload" && (v = next())) {
      opt.workload = v;
    } else if (a == "--seed" && (v = next())) {
      ok = parse_number(v, 0, UINT64_MAX, &opt.seed);
    } else if (a == "--deadline-ms" && (v = next())) {
      ok = parse_number(v, 0.0, kMaxReal, &opt.deadline_ms);
    } else if (a == "--connect" && (v = next())) {
      opt.connect = v;
    } else if (a == "--endpoints" && (v = next())) {
      ok = iph::cluster::parse_endpoint_list(v, &opt.endpoints);
    } else if (a == "--backend" && (v = next())) {
      ok = iph::exec::parse_backend(v, &opt.backend);
    } else if (a == "--stream") {
      opt.stream = true;
    } else if (a == "--append-points" && (v = next())) {
      ok = parse_number(v, 1, kMaxPoints, &opt.append_points);
    } else if (a == "--expect-all-ok") {
      opt.expect_all_ok = true;
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--scrape") {
      opt.scrape = true;
    } else if (a == "--scrape-tol" && (v = next())) {
      ok = parse_number(v, 0.0, kMaxReal, &opt.scrape_tol);
    } else if (a == "--scrape-out" && (v = next())) {
      opt.scrape_out = v;
      opt.scrape = true;
    } else if (a == "--trace-slowest" && (v = next())) {
      ok = parse_number(v, 1, INT_MAX, &opt.trace_slowest);
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (opt.endpoints.empty() && opt.connect.empty()) return usage(argv[0]);
  {
    std::vector<iph::geom::Point2> probe;
    if (!iph::tools::make_workload(opt.workload, 4, 0, &probe)) {
      std::fprintf(stderr, "hullload: unknown workload \"%s\"\n",
                   opt.workload.c_str());
      return 2;
    }
  }

  // Load targets, round-robined across clients; --connect is the
  // one-target case. A --connect that does not parse is a connection
  // that fails.
  std::vector<Endpoint> targets = opt.endpoints;
  if (targets.empty()) {
    Endpoint ep;
    if (!iph::cluster::parse_endpoint(opt.connect, &ep)) {
      std::fprintf(stderr, "hullload: connection to %s failed\n",
                   opt.connect.c_str());
      return 3;
    }
    targets.push_back(ep);
  }
  std::string target_desc = targets[0].str();
  for (std::size_t i = 1; i < targets.size(); ++i) {
    target_desc += "+" + targets[i].str();
  }

  // --scrape brackets the run with registry snapshots; the diff makes
  // the cross-check robust to traffic the server saw before us (but the
  // run itself must be the server's only traffic).
  std::vector<iph::stats::RegistrySnapshot> scrape_before;
  if (opt.scrape) {
    std::string err;
    if (!scrape_targets(targets, &scrape_before, &err)) {
      std::fprintf(stderr, "hullload: statz scrape failed: %s\n",
                   err.c_str());
      return 3;
    }
  }

  std::atomic<bool> conn_failed{false};
  std::vector<Tally> tallies(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = iph::cluster::dial(
          targets[static_cast<std::size_t>(c) % targets.size()]);
      if (fd < 0) {
        conn_failed.store(true);
        return;
      }
      // Every client starts at `start`, so wall_s spans the whole run.
      std::this_thread::sleep_until(start);
      LineChannel chan(fd, fd);
      const bool ok = opt.stream
                          ? run_session(chan, opt, c, start, &tallies[c])
                          : run_batch(chan, opt, c, start, &tallies[c]);
      if (!ok) conn_failed.store(true);
      ::close(fd);
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

  bool scrape_failed = false;
  double server_p99 = 0;
  std::string served_backend;
  if (opt.scrape) {
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
      diffs.push_back(after[i].diff(scrape_before[i]));
    }
    iph::stats::RegistrySnapshot d;
    if (!iph::cluster::merge_snapshots(diffs, &d, &err)) {
      std::fprintf(stderr, "hullload: scrape merge failed: %s\n",
                   err.c_str());
      return 1;
    }
    if (opt.stream) {
      scrape_failed = !check_scrape_stream(d, total, opt, p50, &server_p99);
    } else {
      scrape_failed = !check_scrape(d, total, p50, opt.scrape_tol,
                                    opt.backend, &server_p99,
                                    &served_backend);
    }
    if (!opt.scrape_out.empty()) {
      // The diffed snapshot plus which engine(s) served the run —
      // stats::from_json ignores the extra key, so the file still
      // parses as iph-stats-v1.
      Json scrape_json = iph::stats::to_json(d);
      if (!opt.stream) scrape_json["served_backend"] = Json(served_backend);
      if (!iph::cluster::write_doc(opt.scrape_out, scrape_json, "hullload")) {
        scrape_failed = true;
      }
    }
  }

  if (opt.trace_slowest > 0) {
    // First target only — against a router that IS the whole fleet
    // (fleet_tracez), against plain backends it is a sample.
    Json doc;
    std::string err;
    if (fetch_tracez(targets[0], opt.trace_slowest, &doc, &err)) {
      print_trace_trees(doc);
    } else {
      std::fprintf(stderr, "hullload: tracez fetch of %s failed: %s\n",
                   targets[0].str().c_str(), err.c_str());
    }
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
