// hullserved — the iph::serve subsystem behind an NDJSON endpoint.
//
//   hullserved [options]              serve stdin -> stdout, exit at EOF
//   hullserved --port P [options]     serve TCP on 127.0.0.1:P,
//                                     one thread per connection
//
// --port 0 binds a kernel-picked free port; TCP mode always prints a
// machine-readable "listening <port>" line to stdout so launchers
// (serve_smoke, bench/e16_cluster, hullrouter wrappers) can start
// backends without racing for fixed ports.
//
// Wire protocol: serve_wire.h (one JSON object per line, both ways).
// Plain POSIX sockets, no dependencies beyond the repo's own libraries.
//
// Responses on a connection are written in submission order: a reader
// loop parses + submits while a per-connection responder thread drains
// the futures FIFO — submission keeps flowing while earlier hulls are
// still computing, so a pipelined client's burst spreads over the
// service's workers. (FIFO also pairs with hullload's open-loop reader,
// which matches responses to send times positionally.)
//
// Every numeric flag is parsed whole and range-checked
// (cluster::parse_number): junk, a negative count or an out-of-range
// value is a usage error.
//
// SIGINT/SIGTERM stop accepting, drain in-flight connections, and
// print the service stats to stderr. Exit codes: 0 clean, 2 usage
// error, 3 socket setup failure.
#include <unistd.h>

#include <climits>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/endpoint.h"
#include "serve/request.h"
#include "serve/service.h"
#include "serve_wire.h"
#include "session/manager.h"
#include "support/env.h"
#include "trace/json.h"

namespace {

using iph::serve::HullService;
using iph::serve::ServiceConfig;
using iph::session::SessionManager;
using iph::tools::LineChannel;
using iph::trace::Json;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port P] [--shards N] [--threads N]\n"
      "          [--capacity N] [--seed S] [--quiet]\n"
      "          [--stats-every-ms M] [--backend pram|native]\n"
      "          [--max-sessions N] [--max-append-points N]\n"
      "          [--trace] [--obs-capacity N] [--repro-dir D]\n"
      "          [--trace-out FILE] [--tracez-out FILE]\n"
      "Serves NDJSON hull requests (see tools/serve_wire.h) from stdin\n"
      "(default) or TCP connections on 127.0.0.1:P (0-65535; 0 picks a\n"
      "free port). --shards (1-4096) small-query workers and one\n"
      "large-query worker each run one request at a time on an engine\n"
      "--threads wide (0-4096; 0 = $IPH_THREADS or every core), behind\n"
      "queues of --capacity requests. A {\"cmd\":\"statz\"}\n"
      "line returns the service metrics registry; --stats-every-ms logs\n"
      "a periodic snapshot-diff line to stderr. --backend picks the\n"
      "engine for requests that don't name one (default: pram, the\n"
      "metered simulator; native is the thread-parallel fast path).\n"
      "Streaming sessions (session_open/append/close command lines)\n"
      "share every stream; --max-sessions caps concurrently live ones,\n"
      "--max-append-points caps one append's points.\n"
      "Tracing: the flight recorder is on by default (a {\"cmd\":\n"
      "\"tracez\"} line returns recent/slowest span trees); --obs-capacity\n"
      "sizes its ring (0-1048576; 0 disables tracing), --repro-dir overrides\n"
      "$IPH_EXEC_REPRO_DIR for tail-exemplar repro files, --trace arms\n"
      "per-shard PRAM phase recorders (linked as child spans), and\n"
      "--trace-out / --tracez-out dump a Chrome trace / tracez JSON\n"
      "snapshot of the recorder at shutdown.\n",
      argv0);
  return 2;
}

/// One NDJSON stream: reader parses + submits on this thread, a
/// responder thread writes answers in submission order. `conn_id`
/// namespaces server-stamped trace ids: a request that brings no
/// {"trace":{"id":...}} gets (conn_id << 32 | sequence), unique across
/// connections and strictly monotonic within one (stdin is connection
/// 1, so its stamped ids are deterministic — serve_smoke asserts them).
void serve_stream(HullService& svc, SessionManager& mgr, int in_fd,
                  int out_fd, std::uint64_t conn_id) {
  namespace tools = iph::tools;
  using iph::cluster::Command;
  LineChannel chan(in_fd, out_fd);

  // Each line's answer, queued in read order as a function returning its
  // text. Errors and session answers are rendered when the line is read
  // (SessionManager calls are synchronous); a request renders when its
  // hull is done, and statz/tracez at WRITE time, so that their snapshot
  // includes every request answered before them on the stream.
  using Answer = std::function<std::string()>;
  std::deque<Answer> queue;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  std::thread responder([&] {
    for (;;) {
      Answer next;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;  // done && drained
        next = std::move(queue.front());
        queue.pop_front();
      }
      if (!chan.write_line(next())) return;
    }
  });

  // Sessions this connection opened and has not yet closed — closed
  // server-side when the stream ends, so an abandoned connection can't
  // pin live-session slots (or their aux-cell footprint) forever.
  std::vector<std::uint64_t> open_sids;
  std::uint64_t trace_seq = 0;  // server-stamped ids on this stream

  const auto ready = [](const Json& reply) -> Answer {
    return [text = reply.dump()]() mutable { return std::move(text); };
  };
  const auto bad_request = [&ready](const std::string& text) {
    return ready(iph::cluster::make_error(iph::cluster::reject::kBadRequest,
                                          text));
  };
  const auto answer = [&](iph::cluster::Envelope& in) -> Answer {
    std::string err;
    switch (in.cmd) {
      case Command::kStatz:
        return [&svc, prometheus = in.prometheus] {
          return tools::statz_response(svc.stats_registry().snapshot(),
                                       prometheus)
              .dump();
        };
      case Command::kTracez:
        if (svc.flight_recorder() == nullptr) {
          return bad_request("tracing disabled (--obs-capacity 0)");
        }
        return [&svc, limit = in.limit, slowest = in.slowest] {
          return tools::tracez_response(*svc.flight_recorder(), limit,
                                        slowest)
              .dump();
        };
      case Command::kSessionOpen: {
        iph::exec::BackendKind want;
        if (!tools::session_open_from_json(in.json, &want, &err)) {
          return bad_request(err);
        }
        iph::session::OpenInfo info;
        const auto st = mgr.open(want, &info);
        if (st == iph::session::SessionStatus::kOk) {
          open_sids.push_back(info.sid);
        }
        return ready(tools::session_open_response(st, info));
      }
      case Command::kSessionAppend: {
        std::vector<iph::geom::Point2> pts;
        if (!tools::session_append_from_envelope(in, &pts, &err)) {
          return bad_request(err);
        }
        iph::session::AppendResult res;
        const auto st = mgr.append(in.sid, pts, &res);
        return ready(tools::session_append_response(in.sid, st, res));
      }
      case Command::kSessionClose: {
        iph::session::CloseSummary sum;
        const auto st = mgr.close(in.sid, &sum);
        if (st == iph::session::SessionStatus::kOk) {
          std::erase(open_sids, in.sid);
        }
        return ready(tools::session_close_response(in.sid, st, sum));
      }
      default: {  // kRequest; with no shards, admin commands never decode
        iph::serve::Request req;
        bool edge_above = false;
        if (!tools::request_from_envelope(in, &req, &edge_above, &err)) {
          return bad_request(err);
        }
        // Client-supplied ids are adopted verbatim (already parsed into
        // req.trace); everything else is stamped here, per connection —
        // unless tracing is off (--obs-capacity 0), in which case
        // responses stay id-free like the recorder-less service itself.
        if (!req.trace.has_id() && svc.flight_recorder() != nullptr) {
          req.trace.trace_id = (conn_id << 32) | ++trace_seq;
        }
        return [fut = svc.submit(std::move(req)).share(), edge_above] {
          return tools::response_to_json(fut.get(), edge_above).dump();
        };
      }
    }
  };

  std::string line;
  while (chan.read_line(&line)) {
    if (line.empty()) continue;
    iph::cluster::Envelope in;
    Answer next =
        iph::cluster::decode_envelope(line, /*admin_shards=*/0,
                                      /*keep_points=*/true, &in)
            ? answer(in)
            : ready(iph::cluster::make_error(in.reject, in.error));
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(std::move(next));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_one();
  responder.join();
  for (const std::uint64_t sid : open_sids) {
    iph::session::CloseSummary sum;
    (void)mgr.close(sid, &sum);
  }
}

void print_stats(const iph::stats::RegistrySnapshot& s) {
  namespace sn = iph::serve::statnames;
  using iph::stats::labeled;
  std::fprintf(
      stderr,
      "hullserved: submitted %llu  ok %llu  rejected_full %llu  "
      "rejected_shutdown %llu  expired %llu  large %llu\n",
      static_cast<unsigned long long>(s.counter_or0(sn::kSubmitted)),
      static_cast<unsigned long long>(s.counter_or0(sn::kCompleted)),
      static_cast<unsigned long long>(
          s.counter_or0(labeled(sn::kRejectedBase, "reason", "full"))),
      static_cast<unsigned long long>(
          s.counter_or0(labeled(sn::kRejectedBase, "reason", "shutdown"))),
      static_cast<unsigned long long>(s.counter_or0(sn::kExpired)),
      static_cast<unsigned long long>(s.counter_or0(sn::kLargeRequests)));
}

/// Background snapshot-diff logger (--stats-every-ms): every period,
/// one stderr line with what changed since the previous tick plus the
/// live occupancy gauges — flight-recorder output for long-running
/// servers, cheap enough to leave on (two snapshots per period, no
/// per-request cost).
class StatsLogger {
 public:
  StatsLogger(HullService& svc, int every_ms)
      : svc_(svc), every_ms_(every_ms), thread_([this] { run(); }) {}

  ~StatsLogger() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void run() {
    namespace sn = iph::serve::statnames;
    iph::stats::RegistrySnapshot prev = svc_.stats_registry().snapshot();
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(every_ms_),
                         [this] { return stop_; })) {
      lk.unlock();
      const iph::stats::RegistrySnapshot now = svc_.stats_registry().snapshot();
      const iph::stats::RegistrySnapshot d = now.diff(prev);
      const std::uint64_t rejected =
          d.counter_or0(iph::stats::labeled(sn::kRejectedBase, "reason",
                                            "full")) +
          d.counter_or0(iph::stats::labeled(sn::kRejectedBase, "reason",
                                            "shutdown"));
      const iph::stats::HistogramSnapshot* e2e = d.histogram(sn::kE2eMs);
      const std::int64_t* small_d = d.gauge(
          iph::stats::labeled(sn::kQueueDepthBase, "queue", "small"));
      const std::int64_t* large_d = d.gauge(
          iph::stats::labeled(sn::kQueueDepthBase, "queue", "large"));
      const std::int64_t* leased = d.gauge(sn::kShardsLeased);
      std::fprintf(
          stderr,
          "hullserved statz: +submitted %llu +completed %llu +rejected "
          "%llu +expired %llu | depth small %lld large %lld leased %lld "
          "| e2e_p99 %.3fms\n",
          static_cast<unsigned long long>(d.counter_or0(sn::kSubmitted)),
          static_cast<unsigned long long>(d.counter_or0(sn::kCompleted)),
          static_cast<unsigned long long>(rejected),
          static_cast<unsigned long long>(d.counter_or0(sn::kExpired)),
          static_cast<long long>(small_d != nullptr ? *small_d : 0),
          static_cast<long long>(large_d != nullptr ? *large_d : 0),
          static_cast<long long>(leased != nullptr ? *leased : 0),
          e2e != nullptr ? e2e->quantile(0.99) : 0.0);
      prev = now;
      lk.lock();
    }
  }

  HullService& svc_;
  const int every_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using iph::cluster::parse_number;
  int port = -1;
  bool quiet = false;
  int stats_every_ms = 0;
  std::string trace_out;
  std::string tracez_out;
  ServiceConfig cfg;
  iph::session::ManagerConfig mgr_cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if (a == "--port" && (v = next())) {
      ok = parse_number(v, 0, 65535, &port);
    } else if (a == "--shards" && (v = next())) {
      ok = parse_number(v, 1, iph::support::kMaxThreads, &cfg.shards);
    } else if (a == "--threads" && (v = next())) {
      ok = parse_number(v, 0, iph::support::kMaxThreads,
                        &cfg.threads_per_shard);
    } else if (a == "--capacity" && (v = next())) {
      ok = parse_number(v, 1, SIZE_MAX, &cfg.queue_capacity);
    } else if (a == "--seed" && (v = next())) {
      ok = parse_number(v, 0, UINT64_MAX, &cfg.master_seed);
    } else if (a == "--backend" && (v = next())) {
      ok = iph::exec::parse_backend(v, &cfg.backend);
    } else if (a == "--stats-every-ms" && (v = next())) {
      ok = parse_number(v, 0, INT_MAX, &stats_every_ms);
    } else if (a == "--max-sessions" && (v = next())) {
      ok = parse_number(v, 0, SIZE_MAX, &mgr_cfg.max_sessions);
    } else if (a == "--max-append-points" && (v = next())) {
      ok = parse_number(v, 0, SIZE_MAX, &mgr_cfg.max_append_points);
    } else if (a == "--trace") {
      cfg.trace = true;
    } else if (a == "--obs-capacity" && (v = next())) {
      ok = parse_number(v, 0, std::size_t{1} << 20, &cfg.obs.capacity);
      cfg.obs.enabled = cfg.obs.capacity != 0;
    } else if (a == "--repro-dir" && (v = next())) {
      cfg.obs.repro_dir = v;
    } else if (a == "--trace-out" && (v = next())) {
      trace_out = v;
    } else if (a == "--tracez-out" && (v = next())) {
      tracez_out = v;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }

  HullService svc(cfg);
  // Sessions register in the service's registry so one statz scrape
  // covers batch and streaming traffic. Session rebuilds default to
  // the same engine batch requests default to (--backend).
  mgr_cfg.default_backend = cfg.backend;
  mgr_cfg.master_seed = cfg.master_seed;
  // Session rebuilds run as wide as a shard: --threads bounds every
  // engine the server owns.
  mgr_cfg.native_threads = cfg.threads_per_shard;
  mgr_cfg.pram_threads = cfg.threads_per_shard;
  // Session traces share the service's flight recorder, so one tracez
  // ring covers batch and streaming traffic alike.
  SessionManager mgr(mgr_cfg, svc.stats_registry(), svc.flight_recorder());
  std::unique_ptr<StatsLogger> logger;
  if (stats_every_ms > 0) {
    logger = std::make_unique<StatsLogger>(svc, stats_every_ms);
  }
  int rc = 0;
  if (port < 0) {
    serve_stream(svc, mgr, STDIN_FILENO, STDOUT_FILENO, /*conn_id=*/1);
  } else {
    rc = iph::cluster::serve_tcp(
        port, "hullserved", quiet,
        [&svc, &mgr](int fd, std::uint64_t conn_id) {
          serve_stream(svc, mgr, fd, fd, conn_id);
        });
  }
  logger.reset();  // final tick joins before the summary prints
  svc.shutdown(/*drain=*/true);
  // Flight-recorder dumps at shutdown (after the drain, so every
  // answered request's trace is eligible): --trace-out gets the Chrome
  // timeline of everything retained, --tracez-out the tracez JSON
  // (same shape as the wire command; benchreport renders its exemplar
  // table from this file, and CI uploads both as artifacts).
  if (const auto* fr = svc.flight_recorder(); fr != nullptr) {
    if (!trace_out.empty()) {
      iph::cluster::write_doc(
          trace_out, iph::obs::chrome_trace_json(fr->snapshot()),
          "hullserved");
    }
    if (!tracez_out.empty()) {
      iph::cluster::write_doc(
          tracez_out,
          iph::obs::tracez_json(*fr, /*limit=*/0, /*slowest=*/true),
          "hullserved");
    }
  }
  if (!quiet) print_stats(svc.stats_registry().snapshot());
  return rc;
}
