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
// still computing, which is what lets the service's batcher coalesce a
// pipelined client's burst. (FIFO also pairs with hullload's open-loop
// reader, which matches responses to send times positionally.)
//
// SIGINT/SIGTERM stop accepting, drain in-flight connections, and
// print the service stats to stderr. Exit codes: 0 clean, 2 usage
// error, 3 socket setup failure.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/request.h"
#include "serve/service.h"
#include "serve_wire.h"
#include "session/manager.h"
#include "trace/json.h"

namespace {

using iph::serve::HullService;
using iph::serve::Response;
using iph::serve::ServiceConfig;
using iph::session::SessionManager;
using iph::tools::LineChannel;
using iph::trace::Json;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port P] [--shards N] [--threads N]\n"
      "          [--capacity N] [--window-us U] [--max-batch N]\n"
      "          [--small-threshold N] [--seed S] [--quiet]\n"
      "          [--stats-every-ms M] [--backend pram|native]\n"
      "          [--max-sessions N] [--max-append-points N]\n"
      "          [--session-pending N] [--session-staleness N]\n"
      "          [--trace] [--obs-capacity N] [--repro-dir D]\n"
      "          [--trace-out FILE] [--tracez-out FILE]\n"
      "Serves NDJSON hull requests (see tools/serve_wire.h) from stdin\n"
      "(default) or TCP connections on 127.0.0.1:P. A {\"cmd\":\"statz\"}\n"
      "line returns the service metrics registry; --stats-every-ms logs\n"
      "a periodic snapshot-diff line to stderr. --backend picks the\n"
      "engine for requests that don't name one (default: pram, the\n"
      "metered simulator; native is the thread-parallel fast path).\n"
      "Streaming sessions (session_open/append/close command lines)\n"
      "share every stream; --max-sessions caps concurrently live ones,\n"
      "--max-append-points caps one append's batch, --session-pending /\n"
      "--session-staleness set the per-session rebuild thresholds.\n"
      "Tracing: the flight recorder is on by default (a {\"cmd\":\n"
      "\"tracez\"} line returns recent/slowest span trees); --obs-capacity\n"
      "sizes its ring (0 disables tracing), --repro-dir overrides\n"
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
  LineChannel chan(in_fd, out_fd);

  // Either a pending future, an immediate parse-error message, a
  // statz/tracez command (answered with a snapshot taken at WRITE time,
  // so such a line's counters/traces include every request answered
  // before it on this stream), or a session answer already rendered at
  // READ time (`ready` — SessionManager calls are synchronous, and
  // rendering before enqueue keeps the one-response-per-line FIFO
  // exact).
  struct Outgoing {
    std::future<Response> fut;
    bool edge_above = false;
    bool statz = false;
    bool statz_prometheus = false;
    bool tracez = false;
    std::size_t tracez_limit = 16;
    bool tracez_slowest = false;
    std::string error;
    std::string error_reject = iph::cluster::reject::kBadRequest;
    std::string ready;
  };
  std::deque<Outgoing> queue;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  std::thread responder([&] {
    for (;;) {
      Outgoing out;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;  // done && drained
        out = std::move(queue.front());
        queue.pop_front();
      }
      if (!out.error.empty()) {
        const Json err =
            iph::cluster::make_error(out.error_reject, out.error);
        if (!chan.write_line(err.dump())) return;
        continue;
      }
      if (!out.ready.empty()) {
        if (!chan.write_line(out.ready)) return;
        continue;
      }
      if (out.statz) {
        const Json line = iph::tools::statz_response(
            svc.stats_registry().snapshot(), out.statz_prometheus);
        if (!chan.write_line(line.dump())) return;
        continue;
      }
      if (out.tracez) {
        const Json line = iph::tools::tracez_response(
            *svc.flight_recorder(), out.tracez_limit, out.tracez_slowest);
        if (!chan.write_line(line.dump())) return;
        continue;
      }
      const Response resp = out.fut.get();
      const Json line = iph::tools::response_to_json(resp, out.edge_above);
      if (!chan.write_line(line.dump())) return;
    }
  });

  // Sessions this connection opened and has not yet closed — closed
  // server-side when the stream ends, so an abandoned connection can't
  // pin live-session slots (or their aux-cell footprint) forever.
  std::vector<std::uint64_t> open_sids;
  const auto forget_sid = [&open_sids](std::uint64_t sid) {
    for (auto it = open_sids.begin(); it != open_sids.end(); ++it) {
      if (*it == sid) {
        open_sids.erase(it);
        return;
      }
    }
  };

  std::string line;
  std::uint64_t trace_seq = 0;  // server-stamped ids on this stream
  while (chan.read_line(&line)) {
    if (line.empty()) continue;
    Outgoing out;
    Json j;
    std::string err;
    std::string cmd;
    iph::serve::Request req;
    if (!Json::parse(line, &j, &err)) {
      out.error = "bad JSON: " + err;
      out.error_reject = iph::cluster::reject::kBadJson;
    } else if (!iph::cluster::version_ok(j)) {
      out.error = "request pins protocol version " +
                  std::to_string(static_cast<long long>(j.get_num("v", 0))) +
                  "; this server speaks " +
                  std::to_string(iph::cluster::kProtocolVersion);
      out.error_reject = iph::cluster::reject::kVersion;
    } else if (iph::tools::wire_command(j, &cmd)) {
      if (cmd == "statz") {
        out.statz = true;
        out.statz_prometheus = j.get_str("format") == "prometheus";
      } else if (cmd == "tracez") {
        if (svc.flight_recorder() == nullptr) {
          out.error = "tracing disabled (--obs-capacity 0)";
        } else if (!iph::tools::tracez_args_from_json(
                       j, &out.tracez_limit, &out.tracez_slowest, &err)) {
          out.error = err;
        } else {
          out.tracez = true;
        }
      } else if (cmd == "session_open") {
        iph::exec::BackendKind want;
        if (!iph::tools::session_open_from_json(j, &want, &err)) {
          out.error = err;
        } else {
          iph::session::OpenInfo info;
          const auto st = mgr.open(want, &info);
          if (st == iph::session::SessionStatus::kOk) {
            open_sids.push_back(info.sid);
          }
          out.ready = iph::tools::session_open_response(st, info).dump();
        }
      } else if (cmd == "session_append") {
        std::uint64_t sid = 0;
        std::vector<iph::geom::Point2> pts;
        if (!iph::tools::session_append_from_json(j, &sid, &pts, &err)) {
          out.error = err;
        } else {
          iph::session::AppendResult res;
          const auto st = mgr.append(sid, pts, &res);
          out.ready =
              iph::tools::session_append_response(sid, st, res).dump();
        }
      } else if (cmd == "session_close") {
        std::uint64_t sid = 0;
        if (!iph::tools::session_sid_from_json(j, &sid, &err)) {
          out.error = err;
        } else {
          iph::session::CloseSummary sum;
          const auto st = mgr.close(sid, &sum);
          if (st == iph::session::SessionStatus::kOk) forget_sid(sid);
          out.ready =
              iph::tools::session_close_response(sid, st, sum).dump();
        }
      } else {
        out.error = "unknown cmd \"" + cmd + "\"";
        out.error_reject = iph::cluster::reject::kUnknownCmd;
      }
    } else if (!iph::tools::request_from_json(j, &req, &out.edge_above,
                                              &err)) {
      out.error = err;
    } else {
      // Client-supplied ids are adopted verbatim (already parsed into
      // req.trace); everything else is stamped here, per connection —
      // unless tracing is off (--obs-capacity 0), in which case
      // responses stay id-free like the recorder-less service itself.
      if (!req.trace.has_id() && svc.flight_recorder() != nullptr) {
        req.trace.trace_id = (conn_id << 32) | ++trace_seq;
      }
      out.fut = svc.submit(std::move(req));
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(std::move(out));
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
      "rejected_shutdown %llu  expired %llu\n"
      "hullserved: batches %llu  mean batch %.2f  large %llu\n",
      static_cast<unsigned long long>(s.counter_or0(sn::kSubmitted)),
      static_cast<unsigned long long>(s.counter_or0(sn::kCompleted)),
      static_cast<unsigned long long>(
          s.counter_or0(labeled(sn::kRejectedBase, "reason", "full"))),
      static_cast<unsigned long long>(
          s.counter_or0(labeled(sn::kRejectedBase, "reason", "shutdown"))),
      static_cast<unsigned long long>(s.counter_or0(sn::kExpired)),
      static_cast<unsigned long long>(s.counter_or0(sn::kBatches)),
      iph::serve::mean_batch(s),
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

// Signal handling: flip a flag and close the listening socket so the
// blocking accept() returns (both are async-signal-safe).
std::atomic<bool> g_stop{false};
int g_listen_fd = -1;

void on_signal(int) {
  g_stop.store(true);
  if (g_listen_fd >= 0) ::close(g_listen_fd);
}

int serve_tcp(HullService& svc, SessionManager& mgr, int port, bool quiet) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("hullserved: socket");
    return 3;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    std::perror("hullserved: bind/listen");
    ::close(fd);
    return 3;
  }
  socklen_t alen = sizeof addr;  // report the real port when P was 0
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
  // Machine-readable (always, even under --quiet): with --port 0 this
  // line is how a launcher learns the kernel-picked port.
  std::printf("listening %d\n", ntohs(addr.sin_port));
  std::fflush(stdout);
  if (!quiet) {
    std::fprintf(stderr, "hullserved: listening on 127.0.0.1:%d\n",
                 ntohs(addr.sin_port));
  }
  g_listen_fd = fd;
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::vector<std::thread> sessions;
  std::mutex sessions_mu;
  // Connection ids start at 2: stdin mode is connection 1, so a TCP
  // connection's stamped trace ids never collide with a stdin run's.
  std::uint64_t next_conn = 2;
  while (!g_stop.load()) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (g_stop.load()) break;
      if (errno == EINTR) continue;
      std::perror("hullserved: accept");
      break;
    }
    const std::uint64_t conn_id = next_conn++;
    std::lock_guard<std::mutex> lk(sessions_mu);
    sessions.emplace_back([&svc, &mgr, conn, conn_id] {
      serve_stream(svc, mgr, conn, conn, conn_id);
      ::close(conn);
    });
  }
  if (!g_stop.load()) ::close(fd);
  for (auto& t : sessions) t.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
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
    if (a == "--port" && (v = next())) {
      port = std::atoi(v);
    } else if (a == "--shards" && (v = next())) {
      cfg.shards = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--threads" && (v = next())) {
      cfg.threads_per_shard = static_cast<unsigned>(std::atoi(v));
    } else if (a == "--capacity" && (v = next())) {
      cfg.queue_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--window-us" && (v = next())) {
      cfg.batch.window = std::chrono::microseconds(std::atoll(v));
    } else if (a == "--max-batch" && (v = next())) {
      cfg.batch.max_batch_requests = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--small-threshold" && (v = next())) {
      cfg.batch.small_threshold = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--seed" && (v = next())) {
      cfg.master_seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--backend" && (v = next())) {
      if (!iph::exec::parse_backend(v, &cfg.backend)) return usage(argv[0]);
    } else if (a == "--stats-every-ms" && (v = next())) {
      stats_every_ms = std::atoi(v);
    } else if (a == "--max-sessions" && (v = next())) {
      mgr_cfg.max_sessions = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--max-append-points" && (v = next())) {
      mgr_cfg.max_append_points = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--session-pending" && (v = next())) {
      mgr_cfg.session.pending_limit = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--session-staleness" && (v = next())) {
      mgr_cfg.session.staleness_limit =
          static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--trace") {
      cfg.trace = true;
    } else if (a == "--obs-capacity" && (v = next())) {
      const long long n = std::atoll(v);
      if (n <= 0) {
        cfg.obs.enabled = false;
      } else {
        cfg.obs.capacity = static_cast<std::size_t>(n);
      }
    } else if (a == "--repro-dir" && (v = next())) {
      cfg.obs.repro_dir = v;
    } else if (a == "--trace-out" && (v = next())) {
      trace_out = v;
    } else if (a == "--tracez-out" && (v = next())) {
      tracez_out = v;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (port > 65535) return usage(argv[0]);

  HullService svc(cfg);
  // Sessions register in the service's registry so one statz scrape
  // covers batch and streaming traffic. Session rebuilds default to
  // the same engine batch requests default to (--backend).
  mgr_cfg.default_backend = cfg.backend;
  mgr_cfg.master_seed = cfg.master_seed;
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
    rc = serve_tcp(svc, mgr, port, quiet);
  }
  logger.reset();  // final tick joins before the summary prints
  svc.shutdown(/*drain=*/true);
  // Flight-recorder dumps at shutdown (after the drain, so every
  // answered request's trace is eligible): --trace-out gets the Chrome
  // timeline of everything retained, --tracez-out the tracez JSON
  // (same shape as the wire command; benchreport renders its exemplar
  // table from this file, and CI uploads both as artifacts).
  if (const auto* fr = svc.flight_recorder();
      fr != nullptr && (!trace_out.empty() || !tracez_out.empty())) {
    const auto write_doc = [&](const std::string& path, const Json& doc) {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "hullserved: cannot write %s\n", path.c_str());
        return;
      }
      const std::string text = doc.dump(1);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    };
    if (!trace_out.empty()) {
      write_doc(trace_out, iph::obs::chrome_trace_json(fr->snapshot()));
    }
    if (!tracez_out.empty()) {
      write_doc(tracez_out,
                iph::obs::tracez_json(*fr, /*limit=*/0, /*slowest=*/true));
    }
  }
  if (!quiet) print_stats(svc.stats_registry().snapshot());
  return rc;
}
