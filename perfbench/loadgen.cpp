// perfbench_loadgen — the benchmark's one seeded load-generator process.
//
//   perfbench_loadgen --workload fleet_mix|bulk_disk|bulk_circle
//                     --seed S --seconds T --trace 0|1
//                     --bin-dir DIR --span-dir DIR
//
// fleet_mix spawns two `hullserved --backend native --threads 1` and a
// `hullrouter` in front of them (from --bin-dir) and drives them over
// the NDJSON/TCP protocol (tools/serve_wire.h) in open loop. The bulk
// workloads drive serve::HullService::submit in-process, closed loop.
// Every answer is checked against the seq:: oracle by vertex
// coordinates. NOTES.md explains the workloads and every metric.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a separate traced
// run (spans recorded around each call this file makes, written to
// --span-dir at the end). Exit code 0 only when every answer was
// correct and the run was valid.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/stats.h"
#include "exec/native_backend.h"
#include "exec/pool.h"
#include "exec/radix.h"
#include "geom/workloads.h"
#include "helpers.h"
#include "seq/upper_hull.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "serve_wire.h"
#include "session/manager.h"
#include "session/stats.h"
#include "stats/stats.h"
#include "trace/json.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using iph::geom::Point2;
using iph::serve::ms_between;
using iph::trace::Json;
using perfbench::Metric;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------
// Process accounting (procfs / getrusage).

/// User + system CPU seconds of process `pid`, dead threads included.
double proc_cpu_s(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// A "Vm...:" field of /proc/<pid>/status in KiB ("self" for this one).
double proc_status_kb(const std::string& pid, const char* key) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::atof(line.c_str() + klen + 1);
    }
  }
  return 0;
}

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------
// Spans: recorded by the benchmark around the calls it makes, kept in
// memory (one lane per thread, so no locking) and written at the end
// as Chrome trace events. Spans of one operation share its op id.

struct Span {
  std::uint64_t op = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  Clock::time_point start, end;
};

class SpanLog {
 public:
  SpanLog(bool on, std::size_t lanes)
      : on_(on), lanes_(lanes), epoch_(Clock::now()) {}

  void add(std::size_t lane, std::uint64_t op, std::uint32_t id,
           std::uint32_t parent, const char* name, Clock::time_point s,
           Clock::time_point e) {
    if (on_) lanes_[lane].push_back(Span{op, id, parent, name, s, e});
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& l : lanes_) n += l.size();
    return n;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      for (const Span& s : lanes_[lane]) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"op\": %llu, \"span\": %u, \"parent\": %u}}",
                     first ? "" : ",\n", s.name, lane,
                     us_between(epoch_, s.start), us_between(s.start, s.end),
                     static_cast<unsigned long long>(s.op), s.id, s.parent);
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<std::vector<Span>> lanes_;
  Clock::time_point epoch_;
};

// Span ids within one operation.
constexpr std::uint32_t kSpanOp = 1, kSpanSend = 2, kSpanWait = 3,
                        kSpanCopy = 2, kSpanSubmit = 3, kSpanGet = 4;

// ---------------------------------------------------------------------
// Geometry: inputs, the oracle, the wire encoding of points.

std::vector<Point2> coords(std::span<const Point2> pts,
                           const std::vector<iph::geom::Index>& idx) {
  std::vector<Point2> out;
  out.reserve(idx.size());
  for (const auto i : idx) out.push_back(pts[i]);
  return out;
}

/// The strict upper hull of `pts` as coordinates, by the seq:: oracle.
std::vector<Point2> oracle_upper(std::span<const Point2> pts) {
  return coords(pts, iph::seq::upper_hull(pts).vertices);
}

/// The strict lower hull (y-negation of the same oracle), unflipped.
std::vector<Point2> oracle_lower(std::span<const Point2> pts) {
  std::vector<Point2> flip(pts.begin(), pts.end());
  for (Point2& p : flip) p.y = -p.y;
  std::vector<Point2> out = oracle_upper(flip);
  for (Point2& p : out) p.y = -p.y;
  return out;
}

iph::geom::Family2D family_of(bool circle) {
  return circle ? iph::geom::Family2D::kCircle : iph::geom::Family2D::kDisk;
}

/// `[[x,y],...]` with every digit, so the server parses exactly the
/// doubles the oracle saw.
void append_points(std::string* out, std::span<const Point2> pts) {
  out->push_back('[');
  char buf[80];
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const int n = std::snprintf(buf, sizeof buf, "%s[%.17g,%.17g]",
                                i == 0 ? "" : ",", pts[i].x, pts[i].y);
    out->append(buf, static_cast<std::size_t>(n));
  }
  out->push_back(']');
}

std::string batch_line(std::uint64_t id, std::span<const Point2> pts) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"points\":";
  append_points(&line, pts);
  line += "}\n";
  return line;
}

std::string append_line(std::uint64_t sid, const std::string& points_json) {
  return "{\"cmd\":\"session_append\",\"sid\":" + std::to_string(sid) +
         ",\"points\":" + points_json + "}\n";
}

/// True when `reply` is an ok batch answer whose hull vertices have
/// exactly the oracle's coordinates. Fills the served metrics.
bool check_batch_reply(const Json& reply, std::span<const Point2> pts,
                       const std::vector<Point2>& expect, bool* ok_status,
                       double* queue_wait_ms, double* batch_size) {
  *ok_status = reply.is_object() && reply.get_str("status") == "ok";
  if (!*ok_status) return false;
  if (const Json* m = reply.find("metrics"); m != nullptr) {
    *queue_wait_ms = m->get_num("queue_wait_ms", 0);
    *batch_size = m->get_num("batch_size", 0);
  }
  const Json* hull = reply.find("hull");
  if (hull == nullptr || !hull->is_array() || hull->size() != expect.size()) {
    return false;
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const double v = hull->at(i).as_double();
    if (!(v >= 0) || v >= static_cast<double>(pts.size()) || v != std::floor(v) ||
        !(pts[static_cast<std::size_t>(v)] == expect[i])) {
      return false;
    }
  }
  return true;
}

/// Client-side replay of one session's deltas plus the log of every
/// point appended, checked against the oracle at close.
struct ShadowSession {
  std::uint64_t sid = 0;
  std::vector<Point2> upper, lower, log;

  bool apply(const Json& reply, std::span<const Point2> pts) {
    std::vector<iph::session::DeltaOp> ops;
    std::string err;
    if (reply.get_str("status") != "ok" ||
        !iph::tools::delta_from_json(reply, &ops, &err)) {
      return false;
    }
    log.insert(log.end(), pts.begin(), pts.end());
    for (const auto& op : ops) {
      auto& c = op.side == iph::session::Side::kUpper ? upper : lower;
      if (std::size_t{op.pos} + op.removed > c.size()) return false;
      c.erase(c.begin() + op.pos, c.begin() + op.pos + op.removed);
      c.insert(c.begin() + op.pos, op.point);
    }
    return true;
  }

  /// The close answer's summary agrees with the replayed chains, and
  /// the chains are the oracle hulls of everything appended.
  bool check_close(const Json& reply) const {
    const Json* s = reply.find("summary");
    if (reply.get_str("status") != "ok" || s == nullptr) return false;
    return s->get_num("mismatches", 1) == 0 &&
           s->get_num("upper", -1) == static_cast<double>(upper.size()) &&
           s->get_num("lower", -1) == static_cast<double>(lower.size()) &&
           upper == oracle_upper(log) && lower == oracle_lower(log);
  }
};

// ---------------------------------------------------------------------
// Child processes (hullserved / hullrouter) and TCP connections.

constexpr int kProgramNice = 5;

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  int port = 0;
};

/// Spawn `exe args...` with IPH_THREADS=1 (so every engine and pool in
/// the child is width 1) and wait for its "listening <port>" line.
bool spawn_listener(const std::string& exe, const std::vector<std::string>& args,
                    Child* c) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  std::vector<std::string> env_s = {"IPH_THREADS=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "IPH_", 4) != 0) env_s.emplace_back(*e);
  }
  std::vector<char*> argv, envp;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  for (auto& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // Below the generator, so its mostly sleeping sender and reader
    // threads wake on time when the fleet keeps every core busy (on
    // separate client machines they would); among themselves the
    // fleet's threads compete as before.
    ::setpriority(PRIO_PROCESS, 0, kProgramNice);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(exe.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  c->pid = pid;
  c->out_fd = fds[0];
  std::string got;
  char ch = 0;
  while (got.size() < 64) {
    pollfd p{fds[0], POLLIN, 0};
    if (::poll(&p, 1, 20000) <= 0 || ::read(fds[0], &ch, 1) != 1) break;
    if (ch == '\n') break;
    got.push_back(ch);
  }
  return std::sscanf(got.c_str(), "listening %d", &c->port) == 1 &&
         c->port > 0;
}

void stop_child(Child* c) {
  if (c->pid <= 0) return;
  ::kill(c->pid, SIGINT);
  int status = 0;
  for (int i = 0; i < 1000; ++i) {  // up to 10 s for a clean drain
    if (::waitpid(c->pid, &status, WNOHANG) == c->pid) {
      c->pid = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (c->pid > 0) {
    ::kill(c->pid, SIGKILL);
    ::waitpid(c->pid, &status, 0);
    c->pid = -1;
  }
  if (c->out_fd >= 0) ::close(c->out_fd);
  c->out_fd = -1;
}

/// Connected loopback socket with TCP_NODELAY on the generator's side
/// only (the servers' sockets are left as the program sets them).
int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool write_all(int fd, std::string_view s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t put = ::write(fd, s.data() + off, s.size() - off);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    off += static_cast<std::size_t>(put);
  }
  return true;
}

/// A generator connection. round_trip sends one line (ending in '\n')
/// and parses the one answer.
struct Conn {
  int fd = -1;
  std::unique_ptr<iph::support::LineChannel> chan;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(int port) {
    fd = connect_local(port);
    if (fd < 0) return false;
    chan = std::make_unique<iph::support::LineChannel>(fd, fd);
    return true;
  }
  bool round_trip(std::string_view line, Json* reply) {
    std::string text, err;
    return write_all(fd, line) && chan->read_line(&text) &&
           Json::parse(text, reply, &err);
  }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    chan.reset();
  }
  ~Conn() { close(); }
};

/// Two width-1 native backends behind one router (fleet_mix's program),
/// optionally plus one standalone backend for direct round trips.
struct Fleet {
  std::vector<Child> backends;
  Child router;
  Child direct;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  bool start(const std::string& bin_dir, bool with_direct) {
    const std::vector<std::string> be = {"--port", "0", "--backend", "native",
                                         "--threads", "1", "--quiet"};
    std::string eps;
    for (int i = 0; i < 2; ++i) {
      backends.emplace_back();
      if (!spawn_listener(bin_dir + "/hullserved", be, &backends.back())) {
        return false;
      }
      eps += (i ? ",127.0.0.1:" : "127.0.0.1:") +
             std::to_string(backends.back().port);
    }
    if (!spawn_listener(bin_dir + "/hullrouter",
                        {"--port", "0", "--endpoints", eps, "--quiet"},
                        &router)) {
      return false;
    }
    return !with_direct || spawn_listener(bin_dir + "/hullserved", be, &direct);
  }
  std::vector<pid_t> program_pids() const {
    return {router.pid, backends[0].pid, backends[1].pid};
  }
  void stop() {
    stop_child(&router);
    for (auto& b : backends) stop_child(&b);
    stop_child(&direct);
    backends.clear();
  }
  ~Fleet() { stop(); }
};

double cpu_of(const std::vector<pid_t>& pids) {
  double s = 0;
  for (const pid_t p : pids) s += proc_cpu_s(p);
  return s;
}

bool scrape(int port, iph::stats::RegistrySnapshot* out) {
  Conn c;
  Json reply;
  std::string err;
  return c.open(port) && c.round_trip("{\"cmd\":\"statz\"}\n", &reply) &&
         iph::tools::statz_from_json(reply, out, &err);
}

// ---------------------------------------------------------------------
// fleet_mix: independent users, open loop, through the router.

constexpr std::size_t kShapeN[] = {64, 256, 1024, 16384};
constexpr int kAppend = 4;               // plan kind of a session_append
constexpr std::size_t kAppendPoints = 32;
// Batch shapes 60/25/14/1 % of the 80 % reads; appends are the other 20 %.
const std::vector<double> kMixWeights = {48.0, 20.0, 11.2, 0.8, 20.0};
constexpr double kFleetRate = 300.0;     // requests/s over both connections
constexpr int kConnections = 2;

struct FleetOp {
  int kind = 0;
  std::uint64_t id = 0;
  std::vector<Point2> pts;
  std::vector<Point2> expect;  // batch: oracle upper hull
  std::string line;            // batch: the line; append: points JSON
  double due_s = 0;
};

/// One connection's operations: a stratified, seeded shuffle of the mix
/// (exact counts, so totals never vary with the seed), families
/// alternating disk/circle over the batch queries.
std::vector<FleetOp> make_fleet_ops(std::uint64_t seed, std::size_t count,
                                    double seconds, std::uint64_t id_base) {
  const std::vector<int> plan = perfbench::shuffled_plan(
      perfbench::derive_seed(seed, 1),
      perfbench::stratified_counts(count, kMixWeights));
  const std::vector<double> due = perfbench::poisson_schedule(
      perfbench::derive_seed(seed, 2), count, seconds);
  std::vector<FleetOp> ops(count);
  std::size_t batches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    FleetOp& op = ops[i];
    op.kind = plan[i];
    op.id = id_base + i;
    op.due_s = due[i];
    const std::uint64_t s = perfbench::derive_seed(seed, 3, i);
    if (op.kind == kAppend) {
      op.pts = iph::geom::in_disk(kAppendPoints, s);
      append_points(&op.line, op.pts);
    } else {
      op.pts = iph::geom::make2d(family_of(batches++ % 2 == 1),
                                 kShapeN[op.kind], s);
      op.expect = oracle_upper(op.pts);
      op.line = batch_line(op.id, op.pts);
    }
  }
  return ops;
}

/// The fixed warm-up pass of one connection: every batch shape in both
/// families, plus appends.
std::vector<FleetOp> make_warmup_ops(std::uint64_t seed, std::uint64_t id_base) {
  std::vector<FleetOp> ops;
  for (int fam = 0; fam < 2; ++fam) {
    for (int k = 0; k < 4; ++k) {
      FleetOp op;
      op.kind = k;
      op.id = id_base + ops.size();
      op.pts = iph::geom::make2d(family_of(fam == 1), kShapeN[k],
                                 perfbench::derive_seed(seed, 4, ops.size()));
      op.expect = oracle_upper(op.pts);
      op.line = batch_line(op.id, op.pts);
      ops.push_back(std::move(op));
      FleetOp ap;
      ap.kind = kAppend;
      ap.pts = iph::geom::in_disk(kAppendPoints,
                                  perfbench::derive_seed(seed, 5, ops.size()));
      append_points(&ap.line, ap.pts);
      ops.push_back(std::move(ap));
    }
  }
  return ops;
}

/// What the generator saw, for exact reconciliation with fleet statz.
struct Tally {
  std::uint64_t batch_answered = 0;  // batch lines that got any answer
  std::uint64_t batch_ok = 0;        // ... with status ok
  std::uint64_t append_ok = 0;
  std::uint64_t wrong = 0;           // oracle / replay mismatches
};

/// Everything one open-loop phase measured.
struct PhaseResult {
  std::uint64_t attempted = 0, ok = 0, points_ok = 0;
  std::vector<double> lat_ms, late_ms, queue_wait_ms, batch_size;
  std::vector<double> cpu_ms;  // per operation; closed loop only
  double wall_s = 0, cpu_s = 0;
  double cpu_router_s = 0, cpu_backends_s = 0;
  iph::stats::RegistrySnapshot statz_diff;  // empty if a scrape failed
};

struct FleetRun {
  Fleet fleet;
  Conn conns[kConnections];
  ShadowSession sessions[kConnections];
  Tally tally;

  /// Close the generator's connections first: the router drains open
  /// client connections before it exits.
  void stop() {
    for (Conn& c : conns) c.close();
    fleet.stop();
  }
  ~FleetRun() { stop(); }
};

/// Validate one batch or append answer and update the tally.
bool settle(FleetRun& run, int c, const FleetOp& op, const std::string& text,
            PhaseResult* res) {
  Json reply;
  std::string err;
  if (!Json::parse(text, &reply, &err)) return false;
  if (op.kind == kAppend) {
    const bool ok = run.sessions[c].apply(reply, op.pts);
    if (reply.get_str("status") == "ok") ++run.tally.append_ok;
    if (!ok) ++run.tally.wrong;
    return ok;
  }
  ++run.tally.batch_answered;
  bool ok_status = false;
  double qw = 0, bs = 0;
  const bool ok = check_batch_reply(reply, op.pts, op.expect, &ok_status,
                                    &qw, &bs);
  if (ok_status) ++run.tally.batch_ok;
  if (ok_status && !ok) ++run.tally.wrong;
  if (ok && res != nullptr) {
    res->queue_wait_ms.push_back(qw);
    res->batch_size.push_back(bs);
  }
  return ok;
}

/// Spawn the fleet, open one session per connection, run and validate
/// the warm-up pass. Returns the elapsed seconds, or -1 on failure.
double fleet_setup(FleetRun& run, const std::string& bin_dir,
                   std::uint64_t seed) {
  std::vector<FleetOp> warm[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    warm[c] = make_warmup_ops(perfbench::derive_seed(seed, 10, c),
                              1000000000ULL * (c + 1));
  }
  const Clock::time_point t0 = Clock::now();
  if (!run.fleet.start(bin_dir, false)) return -1;
  for (int c = 0; c < kConnections; ++c) {
    Json reply;
    if (!run.conns[c].open(run.fleet.router.port) ||
        !run.conns[c].round_trip(
            "{\"cmd\":\"session_open\",\"backend\":\"native\"}\n", &reply) ||
        reply.get_str("status") != "ok") {
      return -1;
    }
    run.sessions[c] = ShadowSession{};
    run.sessions[c].sid = static_cast<std::uint64_t>(reply.get_num("sid", 0));
  }
  for (int c = 0; c < kConnections; ++c) {
    for (const FleetOp& op : warm[c]) {
      const std::string line = op.kind == kAppend
                                   ? append_line(run.sessions[c].sid, op.line)
                                   : op.line;
      std::string text;
      if (!write_all(run.conns[c].fd, line) ||
          !run.conns[c].chan->read_line(&text) ||
          !settle(run, c, op, text, nullptr)) {
        return -1;
      }
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Open-loop phase: per connection one sender (sends each pre-encoded
/// line when due) and one reader (timestamps answers in FIFO order).
/// Answers are validated after the clock stops.
void fleet_phase(FleetRun& run, std::vector<FleetOp> (&ops)[kConnections],
                 SpanLog& spans, PhaseResult* res) {
  // Append lines need the session id, known only after set-up; batch
  // lines were encoded with the operations.
  for (int c = 0; c < kConnections; ++c) {
    for (FleetOp& op : ops[c]) {
      if (op.kind == kAppend) op.line = append_line(run.sessions[c].sid, op.line);
    }
  }
  iph::stats::RegistrySnapshot before;
  const bool scraped = scrape(run.fleet.router.port, &before);
  const std::vector<pid_t> pids = run.fleet.program_pids();
  const double cpu_router0 = proc_cpu_s(pids[0]);
  const double cpu0 = cpu_of(pids);

  std::vector<std::string> replies[kConnections];
  // ready: when op i could go out, i.e. its due time or, if later, the
  // end of the previous write (a long line holds the connection: that
  // wait is the system's flow control and counts in latency, not in the
  // generator's lateness).
  std::vector<Clock::time_point> sent[kConnections], ready[kConnections],
      recv[kConnections];
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](int c, std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ops[c][i].due_s));
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    const std::size_t n = ops[c].size();
    replies[c].resize(n);
    sent[c].assign(n, Clock::time_point{});
    ready[c].assign(n, Clock::time_point{});
    recv[c].assign(n, Clock::time_point{});
    threads.emplace_back([&, c, n] {
      Clock::time_point free_at = start;  // end of the previous write
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due(c, i));
        sent[c][i] = Clock::now();
        ready[c][i] = std::max(due(c, i), free_at);
        if (!write_all(run.conns[c].fd, ops[c][i].line)) return;
        free_at = Clock::now();
        spans.add(1 + 2 * c, ops[c][i].id, kSpanSend, kSpanOp, "send",
                  sent[c][i], free_at);
      }
    });
    threads.emplace_back([&, c, n] {
      for (std::size_t i = 0; i < n; ++i) {
        if (!run.conns[c].chan->read_line(&replies[c][i])) return;
        recv[c][i] = Clock::now();
      }
    });
  }
  for (auto& t : threads) t.join();
  Clock::time_point last = start;
  for (int c = 0; c < kConnections; ++c) {
    for (const auto& t : recv[c]) last = std::max(last, t);
  }
  res->wall_s = std::chrono::duration<double>(last - start).count();
  res->cpu_s = cpu_of(pids) - cpu0;
  res->cpu_router_s = proc_cpu_s(pids[0]) - cpu_router0;
  res->cpu_backends_s = res->cpu_s - res->cpu_router_s;
  iph::stats::RegistrySnapshot after;
  if (scraped && scrape(run.fleet.router.port, &after)) {
    res->statz_diff = after.diff(before);
  }

  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < ops[c].size(); ++i) {
      std::string().swap(ops[c][i].line);  // sent; free it
      ++res->attempted;
      if (sent[c][i] != Clock::time_point{}) {
        res->late_ms.push_back(ms_between(ready[c][i], sent[c][i]));
      }
      if (recv[c][i] == Clock::time_point{}) continue;
      // The reader's spans, recorded here where sent[] is visible to it.
      spans.add(2 + 2 * c, ops[c][i].id, kSpanOp, 0, "op", due(c, i), recv[c][i]);
      spans.add(2 + 2 * c, ops[c][i].id, kSpanWait, kSpanOp, "reply_wait",
                sent[c][i], recv[c][i]);
      const Clock::time_point v0 = Clock::now();
      const bool ok = settle(run, c, ops[c][i], replies[c][i], res);
      spans.add(0, ops[c][i].id, 4, kSpanOp, "validate", v0, Clock::now());
      if (!ok) continue;
      ++res->ok;
      res->points_ok += ops[c][i].pts.size();
      res->lat_ms.push_back(ms_between(due(c, i), recv[c][i]));
    }
  }
}

/// Close both sessions (checking the replayed chains against the
/// oracle), then reconcile fleet statz with the tally exactly.
bool fleet_finish(FleetRun& run, std::string* why) {
  bool ok = true;
  for (int c = 0; c < kConnections; ++c) {
    Json reply;
    if (!run.conns[c].round_trip("{\"cmd\":\"session_close\",\"sid\":" +
                                     std::to_string(run.sessions[c].sid) +
                                     "}\n",
                                 &reply) ||
        !run.sessions[c].check_close(reply)) {
      *why += "session " + std::to_string(c) + " chains differ from the oracle; ";
      ++run.tally.wrong;
      ok = false;
    }
  }
  iph::stats::RegistrySnapshot s;
  if (!scrape(run.fleet.router.port, &s)) {
    *why += "statz scrape failed; ";
    return false;
  }
  namespace sn = iph::serve::statnames;
  namespace ssn = iph::session::statnames;
  namespace rn = iph::cluster::statnames;
  const auto gauge = [&](const std::string& name) {
    const std::int64_t* g = s.gauge(name);
    return g == nullptr ? -1 : *g;
  };
  const auto must = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      *why += std::string(what) + " " + std::to_string(a) + " != " +
              std::to_string(b) + "; ";
      ok = false;
    }
  };
  must("router forwards vs fleet submitted", s.counter_or0(rn::kForwards),
       s.counter_or0(sn::kSubmitted));
  must("fleet submitted vs answered", s.counter_or0(sn::kSubmitted),
       run.tally.batch_answered);
  must("fleet completed vs ok", s.counter_or0(sn::kCompleted),
       run.tally.batch_ok);
  must("session appends vs ok appends", s.counter_or0(ssn::kAppends),
       run.tally.append_ok);
  must("live sessions gauge", static_cast<std::uint64_t>(gauge(ssn::kLiveSessions)), 0);
  must("aux cells gauge", static_cast<std::uint64_t>(gauge(ssn::kAuxCells)), 0);
  must("router sessions gauge", static_cast<std::uint64_t>(gauge(rn::kSessionsOpen)), 0);
  return ok;
}

// ---------------------------------------------------------------------
// Per-layer metrics shared by every traced run.

struct Layers {
  std::vector<Metric> out;
  void add(const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  }
  /// A ladder step: median of paired differences, with its quartiles.
  void add_q(const std::string& name, const std::vector<double>& v,
             const char* unit) {
    const perfbench::Quartiles q = perfbench::quartiles(v);
    add(name, q.median, unit);
    add(name + ".q1", q.q1, unit);
    add(name + ".q3", q.q3, unit);
  }
};

double median(const std::vector<double>& v) {
  return perfbench::percentile(v, 50);
}
double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// cluster.* and serve.{backend_cpu,refused} from one fleet phase.
void cluster_layers(const PhaseResult& r, std::uint64_t ops, Layers* L) {
  namespace sn = iph::serve::statnames;
  namespace rn = iph::cluster::statnames;
  const auto& d = r.statz_diff;
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  L->add("cluster.router_cpu_ms_per_op", 1e3 * r.cpu_router_s / n, "ms");
  const iph::stats::HistogramSnapshot* fwd = d.histogram(rn::kForwardMs);
  L->add("cluster.forward_ms_p50", fwd ? fwd->quantile(0.5) : 0, "ms");
  std::uint64_t retries = 0;
  for (const char* why : {"rejected_full", "rejected_shutdown", "io"}) {
    retries += d.counter_or0(iph::stats::labeled(rn::kRetriesBase, "reason", why));
  }
  L->add("cluster.retries", static_cast<double>(retries), "count");
  double routes[2], sum = 0;
  for (int s = 0; s < 2; ++s) {
    routes[s] = static_cast<double>(d.counter_or0(
        iph::stats::labeled(rn::kRoutesBase, "shard", std::to_string(s))));
    sum += routes[s];
  }
  L->add("cluster.shard_skew", sum > 0 ? std::max(routes[0], routes[1]) / (sum / 2) : 0,
         "ratio");
  L->add("serve.backend_cpu_ms_per_op", 1e3 * r.cpu_backends_s / n, "ms");
  std::uint64_t refused = 0;
  for (const char* why : {"full", "shutdown"}) {
    refused += d.counter_or0(iph::stats::labeled(sn::kRejectedBase, "reason", why));
  }
  for (const char* why : {"no_backend", "shard_down", "retry_budget"}) {
    refused += d.counter_or0(iph::stats::labeled(rn::kRejectedBase, "reason", why));
  }
  refused += d.counter_or0(sn::kExpired);
  L->add("serve.refused", static_cast<double>(refused), "count");
}

/// One probe of the layer replay: a batch query or a session append.
struct Probe {
  bool append = false;
  std::vector<Point2> pts;
  std::string line;  // batch line, or append line (sid 1)
};

/// `count` probes of the fleet's batch shapes (60/25/14/1 %), families
/// alternating (mixed) or all `circle`; plus `appends` session appends.
std::vector<Probe> make_probes(std::uint64_t seed, std::size_t count,
                               bool mixed, bool circle, std::size_t appends) {
  const std::vector<int> plan = perfbench::shuffled_plan(
      perfbench::derive_seed(seed, 20),
      perfbench::stratified_counts(count, {60, 25, 14, 1}));
  std::vector<Probe> out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Probe p;
    p.pts = iph::geom::make2d(family_of(mixed ? i % 2 == 1 : circle),
                              kShapeN[plan[i]],
                              perfbench::derive_seed(seed, 21, i));
    p.line = batch_line(7000000 + i, p.pts);
    out.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < appends; ++i) {
    Probe p;
    p.append = true;
    p.pts = iph::geom::in_disk(kAppendPoints, perfbench::derive_seed(seed, 22, i));
    std::string pts_json;
    append_points(&pts_json, p.pts);
    p.line = append_line(1, pts_json);
    out.push_back(std::move(p));
  }
  return out;
}

iph::serve::Response run_service(iph::serve::HullService& svc,
                                 std::vector<Point2> pts, std::uint64_t id) {
  iph::serve::Request req;
  req.id = id;
  req.points = std::move(pts);
  req.backend = iph::exec::BackendKind::kNative;
  return svc.submit(std::move(req)).get();
}

iph::serve::ServiceConfig service_config(unsigned width, bool window,
                                         bool obs) {
  iph::serve::ServiceConfig cfg;
  cfg.backend = iph::exec::BackendKind::kNative;
  cfg.threads_per_shard = width;
  if (!window) cfg.batch.window = std::chrono::microseconds(0);
  cfg.obs.enabled = obs;
  return cfg;
}

/// The in-process ladder: engine alone, service with window 0, with the
/// default window, and with the flight recorder off — interleaved per
/// request so each difference is paired. `inputs` are the workload's
/// own batch requests (never appends).
void service_ladder(const std::vector<const std::vector<Point2>*>& inputs,
                    unsigned width, int reps, SpanLog& spans, Layers* L,
                    bool* correct) {
  iph::exec::NativeBackend engine(width);
  iph::serve::HullService w0(service_config(width, false, true));
  iph::serve::HullService dflt(service_config(width, true, true));
  iph::serve::HullService off(service_config(width, false, false));
  std::vector<double> over_us, window_us, obs_us;
  std::uint64_t id = 1;
  for (int r = 0; r < reps; ++r) {
    for (const auto* in : inputs) {
      const std::vector<Point2> expect = oracle_upper(*in);
      double t[4];
      const char* names[4] = {"layer.engine", "layer.service_w0",
                              "layer.service_default", "layer.service_obs_off"};
      for (int k = 0; k < 4; ++k) {
        std::vector<Point2> copy = *in;
        const Clock::time_point a = Clock::now();
        std::vector<iph::geom::Index> hull;
        if (k == 0) {
          hull = engine.upper_hull(copy, 0, 8).hull.upper.vertices;
        } else {
          auto& svc = k == 1 ? w0 : k == 2 ? dflt : off;
          const iph::serve::Response resp = run_service(svc, std::move(copy), id);
          hull = resp.hull.upper.vertices;
          *correct &= resp.status == iph::serve::Status::kOk;
        }
        const Clock::time_point b = Clock::now();
        spans.add(0, id, 1 + k, 0, names[k], a, b);
        t[k] = us_between(a, b);
        *correct &= coords(*in, hull) == expect;
      }
      ++id;
      over_us.push_back(t[1] - t[0]);
      window_us.push_back(t[2] - t[1]);
      obs_us.push_back(t[1] - t[3]);
    }
  }
  L->add_q("serve.overhead_us", over_us, "us");
  L->add_q("serve.window_us", window_us, "us");
  L->add_q("obs.overhead_us", obs_us, "us");
}

/// Codec alone, the TCP ladder (in-process service -> one direct
/// hullserved -> through the router), and the session layer, all on
/// the same probes. Fills wire.*, exec.small_us, session.* and
/// cluster.hop_us; returns the router leg's phase for cluster_layers.
PhaseResult wire_ladder(const std::vector<Probe>& probes,
                        const std::string& bin_dir, unsigned width, int reps,
                        SpanLog& spans, Layers* L, bool* correct) {
  // Engine alone and codec alone.
  iph::exec::NativeBackend engine(width);
  iph::session::ManagerConfig mcfg;
  mcfg.native_threads = 1;
  iph::stats::Registry session_registry;
  iph::session::SessionManager mgr(mcfg, session_registry);
  iph::session::OpenInfo info;
  mgr.open(iph::exec::BackendKind::kNative, &info);
  ShadowSession local;
  std::vector<double> small_us, decode_us, encode_us, append_us, delta_ops,
      rebuild_ms;
  double req_bytes = 0, resp_bytes = 0;
  std::uint64_t rebuilds = 0, vertices = 0;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      Json j;
      std::string err;
      const Clock::time_point a = Clock::now();
      bool parsed = Json::parse(std::string_view(p.line).substr(0, p.line.size() - 1), &j, &err);
      iph::serve::Request req;
      std::vector<Point2> app;
      std::uint64_t sid = 0;
      bool want_edge = false;
      parsed = parsed && (p.append
                              ? iph::tools::session_append_from_json(j, &sid, &app, &err)
                              : iph::tools::request_from_json(j, &req, &want_edge, &err));
      const Clock::time_point b = Clock::now();
      *correct &= parsed;
      spans.add(0, i + 1, 1, 0, "layer.wire_decode", a, b);
      decode_us.push_back(us_between(a, b));
      std::string line;
      Clock::time_point c, d;
      if (p.append) {
        iph::session::AppendResult res;
        const Clock::time_point e0 = Clock::now();
        const auto st = mgr.append(info.sid, p.pts, &res);
        const Clock::time_point e1 = Clock::now();
        if (r == 0) {
          append_us.push_back(us_between(e0, e1));
          delta_ops.push_back(static_cast<double>(res.ops.size()));
          if (res.rebuilt) {
            ++rebuilds;
            rebuild_ms.push_back(res.rebuild_ms);
          }
          const Json reply = iph::tools::session_append_response(info.sid, st, res);
          *correct &= local.apply(reply, p.pts);
        }
        c = Clock::now();
        line = iph::tools::session_append_response(info.sid, st, res).dump();
        d = Clock::now();
      } else {
        const Clock::time_point e0 = Clock::now();
        iph::exec::HullRun run = engine.upper_hull(req.points, 0, 8);
        const Clock::time_point e1 = Clock::now();
        spans.add(0, i + 1, 2, 0, "layer.engine_small", e0, e1);
        small_us.push_back(us_between(e0, e1));
        if (r == 0) vertices += run.hull.upper.vertices.size();
        *correct &= coords(p.pts, run.hull.upper.vertices) == oracle_upper(p.pts);
        iph::serve::Response resp;
        resp.id = req.id;
        resp.hull = std::move(run.hull);
        c = Clock::now();
        line = iph::tools::response_to_json(resp, false).dump();
        d = Clock::now();
      }
      spans.add(0, i + 1, 3, 0, "layer.wire_encode", c, d);
      encode_us.push_back(us_between(c, d));
      if (r == 0) {
        req_bytes += static_cast<double>(p.line.size());
        resp_bytes += static_cast<double>(line.size() + 1);
      }
    }
  }
  iph::session::CloseSummary sum;
  mgr.close(info.sid, &sum);
  *correct &= local.upper == oracle_upper(local.log) &&
              local.lower == oracle_lower(local.log) &&
              sum.rebuild_mismatches == 0;

  // LineChannel::read_line of the same lines over a socketpair.
  std::vector<double> read_us;
  {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0) {
      std::thread writer([&] {
        for (const Probe& p : probes) {
          if (!write_all(sv[1], p.line)) break;
        }
      });
      iph::support::LineChannel chan(sv[0], sv[0]);
      std::string got;
      for (const Probe& p : probes) {
        const Clock::time_point a = Clock::now();
        const bool ok = chan.read_line(&got);
        const Clock::time_point b = Clock::now();
        *correct &= ok && got.size() + 1 == p.line.size();
        read_us.push_back(us_between(a, b));
      }
      writer.join();
      ::close(sv[0]);
      ::close(sv[1]);
    }
  }

  // TCP ladder: in-process service (hullserved's configuration) ->
  // direct hullserved -> router, interleaved per probe.
  PhaseResult router_leg;
  std::vector<double> tcp_us, hop_us;
  Fleet fleet;
  Conn direct, via;
  iph::serve::HullService svc(service_config(1, true, true));
  if (!fleet.start(bin_dir, true) || !direct.open(fleet.direct.port) ||
      !via.open(fleet.router.port)) {
    *correct = false;
    return router_leg;
  }
  iph::stats::RegistrySnapshot before, after;
  const bool scraped = scrape(fleet.router.port, &before);
  const std::vector<pid_t> pids = fleet.program_pids();
  const double cpu_router0 = proc_cpu_s(pids[0]);
  const double cpu0 = cpu_of(pids);
  std::uint64_t id = 1;
  for (int r = 0; r < reps; ++r) {
    for (const Probe& p : probes) {
      if (p.append) continue;
      const std::vector<Point2> expect = oracle_upper(p.pts);
      double t[3];
      for (int k = 0; k < 3; ++k) {
        const Clock::time_point a = Clock::now();
        if (k == 0) {
          *correct &= coords(p.pts, run_service(svc, p.pts, id).hull.upper.vertices) == expect;
        } else {
          Json reply;
          bool ok_status = false;
          double qw = 0, bs = 0;
          *correct &= (k == 1 ? direct : via).round_trip(p.line, &reply) &&
                      check_batch_reply(reply, p.pts, expect, &ok_status, &qw, &bs);
        }
        const Clock::time_point b = Clock::now();
        spans.add(0, id, 1 + k, 0,
                  k == 0 ? "layer.service" : k == 1 ? "layer.hullserved" : "layer.router",
                  a, b);
        t[k] = us_between(a, b);
      }
      ++id;
      ++router_leg.attempted;
      tcp_us.push_back(t[1] - t[0]);
      hop_us.push_back(t[2] - t[1]);
    }
  }
  router_leg.cpu_s = cpu_of(pids) - cpu0;
  router_leg.cpu_router_s = proc_cpu_s(pids[0]) - cpu_router0;
  router_leg.cpu_backends_s = router_leg.cpu_s - router_leg.cpu_router_s;
  if (scraped && scrape(fleet.router.port, &after)) {
    router_leg.statz_diff = after.diff(before);
  }
  direct.close();
  via.close();

  const double lines = static_cast<double>(probes.size());
  L->add("wire.decode_us", median(decode_us), "us");
  L->add("wire.encode_us", median(encode_us), "us");
  L->add("wire.read_us", median(read_us), "us");
  L->add("wire.req_kb", req_bytes / lines / 1024.0, "KiB");
  L->add("wire.resp_kb", resp_bytes / lines / 1024.0, "KiB");
  L->add_q("wire.tcp_us", tcp_us, "us");
  L->add_q("cluster.hop_us", hop_us, "us");
  L->add_q("exec.small_us", small_us, "us");
  L->add("exec.hull_vertices", static_cast<double>(vertices), "count");
  L->add("session.append_us", median(append_us), "us");
  L->add("session.delta_ops", mean(delta_ops), "count");
  L->add("session.rebuilds", static_cast<double>(rebuilds), "count");
  L->add("session.rebuild_ms", mean(rebuild_ms), "ms");
  L->add("session.peak_aux_cells", static_cast<double>(sum.peak_aux_cells), "count");
  return router_leg;
}

/// Engine-alone costs at the workload's large size: the width-2 radix
/// presort, the width-2 engine per point on both families, its parallel
/// efficiency, and the presorted path at session-rebuild size.
void engine_layers(std::size_t n, bool circle, std::uint64_t seed, int reps,
                   SpanLog& spans, Layers* L, bool* correct) {
  iph::exec::ThreadPool pool(2);
  iph::exec::NativeBackend engine(2);
  double ns_per_pt[2] = {0, 0};
  double eff = 0;
  for (int fam = 0; fam < 2; ++fam) {
    const std::vector<Point2> pts =
        iph::geom::make2d(family_of(fam == 1), n, perfbench::derive_seed(seed, 30, fam));
    const std::vector<Point2> expect = oracle_upper(pts);
    std::vector<double> per_pt, effs;
    for (int r = 0; r < reps; ++r) {
      const double cpu0 = self_cpu_s();
      const Clock::time_point a = Clock::now();
      const iph::exec::HullRun run = engine.upper_hull(pts, 0, 8);
      const Clock::time_point b = Clock::now();
      const double cpu = self_cpu_s() - cpu0;
      spans.add(0, 0, 1, 0, fam ? "layer.engine_circle" : "layer.engine_disk", a, b);
      per_pt.push_back(1e3 * us_between(a, b) / static_cast<double>(n));
      effs.push_back(cpu / (2.0 * 1e-6 * us_between(a, b)));
      *correct &= coords(pts, run.hull.upper.vertices) == expect;
    }
    ns_per_pt[fam] = median(per_pt);
    if ((fam == 1) == circle) {
      eff = median(effs);
      std::vector<double> sort_ns;
      for (int r = 0; r < reps; ++r) {
        const Clock::time_point a = Clock::now();
        const std::vector<std::uint32_t> order = iph::exec::lex_sort_indices(pts, &pool);
        const Clock::time_point b = Clock::now();
        spans.add(0, 0, 2, 0, "layer.lex_sort", a, b);
        sort_ns.push_back(1e3 * us_between(a, b) / static_cast<double>(n));
        *correct &= order.size() == n;
      }
      L->add("exec.sort_ns_per_pt", median(sort_ns), "ns");
    }
  }
  L->add("exec.disk_ns_per_pt", ns_per_pt[0], "ns");
  L->add("exec.circle_ns_per_pt", ns_per_pt[1], "ns");
  L->add("exec.parallel_eff", eff, "ratio");
  // Session rebuilds merge ~pending_limit (1024) points with the chain.
  std::vector<Point2> sorted = iph::geom::make2d(
      family_of(circle), 1024 + 32, perfbench::derive_seed(seed, 31));
  iph::geom::sort_lex(sorted);
  iph::exec::NativeBackend width1(1);
  std::vector<double> pre_us;
  for (int r = 0; r < 50; ++r) {
    const Clock::time_point a = Clock::now();
    const iph::exec::HullRun run = width1.upper_hull_presorted(sorted, 0, 8);
    pre_us.push_back(us_between(a, Clock::now()));
    if (r == 0) *correct &= coords(sorted, run.hull.upper.vertices) == oracle_upper(sorted);
  }
  L->add("exec.presorted_us", median(pre_us), "us");
}

void load_layers(const PhaseResult& traced, double untraced_p50_ms,
                 Layers* L) {
  L->add("load.late_ms_p99", perfbench::percentile(traced.late_ms, 99), "ms");
  const perfbench::Tail tail = perfbench::tail_percentile(traced.lat_ms);
  L->add("load.tail_ms", tail.value, "ms");
  L->add("load.tail_pct", tail.pct, "pct");
  L->add("load.samples", static_cast<double>(tail.samples), "count");
  L->add("serve.queue_wait_ms", median(traced.queue_wait_ms), "ms");
  L->add("serve.batch_size", mean(traced.batch_size), "count");
  L->add("trace.overhead_frac",
         untraced_p50_ms > 0 ? median(traced.lat_ms) / untraced_p50_ms - 1 : 0,
         "ratio");
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir = ".";
  std::string span_dir = ".";
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

/// The seven end-to-end metrics. Open loop: rates over the timed phase.
/// Closed loop with one caller: capacity is one operation per median
/// operation time, and CPU the median per operation, so one stalled
/// operation cannot move a run's figure (the tail is load.tail_ms).
std::vector<Metric> end_to_end(double setup_s, const PhaseResult& r,
                               double rss_mb, bool closed_loop) {
  const double ok = static_cast<double>(r.ok);
  const double p50 = median(r.lat_ms);
  const double pts_per_op = ok > 0 ? static_cast<double>(r.points_ok) / ok : 0;
  double ok_per_s = r.wall_s > 0 ? ok / r.wall_s : 0;
  double cpu_ms = ok > 0 ? 1e3 * r.cpu_s / ok : 0;
  if (closed_loop) {
    ok_per_s = p50 > 0 ? 1e3 / p50 : 0;
    cpu_ms = median(r.cpu_ms);
  }
  return {
      {"setup_s", setup_s, "s"},
      {"p50_ms", p50, "ms"},
      {"ok_per_s", ok_per_s, "ops/s"},
      {"mpts_per_s", 1e-6 * pts_per_op * ok_per_s, "Mpoints/s"},
      {"cpu_ms_per_op", cpu_ms, "ms"},
      {"ok_frac", r.attempted ? ok / static_cast<double>(r.attempted) : 0, "ratio"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
}

constexpr int kFleetSetups = 5;

bool write_spans(const SpanLog& spans, const Args& a, const char* workload) {
  const std::string path = a.span_dir + "/" + workload + ".spans.json";
  const bool ok = spans.write(path);
  std::fprintf(stderr, "perfbench: %zu spans %s %s\n", spans.size(),
               ok ? "written to" : "could not be written to", path.c_str());
  return ok;
}

Outcome run_fleet(const Args& a) {
  Outcome out;
  // Timed operations are generated before anything is launched. A
  // traced run splits its time into an untraced and a traced phase.
  const double phase_s = a.trace ? a.seconds / 2 : a.seconds;
  const auto per_conn = static_cast<std::size_t>(kFleetRate / kConnections * phase_s);
  std::vector<FleetOp> ops[2][kConnections];
  for (int ph = 0; ph < (a.trace ? 2 : 1); ++ph) {
    for (int c = 0; c < kConnections; ++c) {
      ops[ph][c] = make_fleet_ops(perfbench::derive_seed(a.seed, 100 + ph, c),
                                  per_conn, phase_s,
                                  10000000ULL * (1 + c + 2 * ph));
    }
  }
  std::vector<double> setups;
  std::unique_ptr<FleetRun> run;
  for (int k = 0; k < kFleetSetups; ++k) {
    run.reset();  // an earlier set-up, measured and discarded
    run = std::make_unique<FleetRun>();
    const double s = fleet_setup(*run, a.bin_dir, a.seed);
    if (s < 0) {
      std::fprintf(stderr, "perfbench: fleet set-up failed\n");
      out.correct = false;
      out.attempted = out.failed = 1;
      return out;
    }
    setups.push_back(s);
  }
  SpanLog off(false, 1), spans(a.trace, 1 + 2 * kConnections);
  PhaseResult res[2];
  fleet_phase(*run, ops[0], off, &res[0]);
  double rss_kb = 0;
  for (const pid_t p : run->fleet.program_pids()) {
    rss_kb += proc_status_kb(std::to_string(p), "VmHWM:");
  }
  if (a.trace) fleet_phase(*run, ops[1], spans, &res[1]);
  std::string why;
  const bool reconciled = fleet_finish(*run, &why);
  run->stop();
  if (!reconciled) {
    std::fprintf(stderr, "perfbench: fleet_mix invalid: %s\n", why.c_str());
  }
  const PhaseResult& main = res[a.trace ? 1 : 0];
  const double p50 = median(main.lat_ms);
  const double late99 = perfbench::percentile(main.late_ms, 99);
  // Latency counts from the due time, so lateness only hides queueing
  // once the generator falls behind by as much as the median latency.
  const bool punctual = late99 <= std::max(1.0, p50);
  if (!punctual) {
    std::fprintf(stderr,
                 "perfbench: fleet_mix invalid: generator late p99 %.3f ms "
                 "against p50 %.3f ms\n", late99, p50);
  }
  const perfbench::Tail tail = perfbench::tail_percentile(main.lat_ms);
  std::fprintf(stderr,
               "perfbench: fleet_mix %.0f req/s, %llu ops, late p99 %.3f ms, "
               "p%.1f %.3f ms, reconciled %s\n",
               kFleetRate, static_cast<unsigned long long>(main.attempted),
               late99, tail.pct, tail.value, reconciled ? "yes" : "NO");
  out.correct = reconciled && punctual && run->tally.wrong == 0;
  out.attempted = main.attempted;
  out.failed = main.attempted - main.ok;
  if (!a.trace) {
    out.metrics = end_to_end(median(setups), main, rss_kb / 1024.0, false);
    return out;
  }
  Layers L;
  cluster_layers(res[1], res[1].attempted, &L);
  load_layers(res[1], median(res[0].lat_ms), &L);
  const std::vector<Probe> probes = make_probes(a.seed, 100, true, false, 100);
  std::vector<const std::vector<Point2>*> inputs;
  for (const Probe& p : probes) {
    if (!p.append) inputs.push_back(&p.pts);
  }
  service_ladder(inputs, 1, 3, spans, &L, &out.correct);
  (void)wire_ladder(probes, a.bin_dir, 1, 3, spans, &L, &out.correct);
  engine_layers(kShapeN[3], false, a.seed, 20, spans, &L, &out.correct);
  out.metrics = std::move(L.out);
  if (!write_spans(spans, a, "fleet_mix")) out.correct = false;
  return out;
}

// ---------------------------------------------------------------------
// bulk_disk / bulk_circle: one in-process caller, closed loop.

constexpr std::size_t kBulkN = std::size_t{1} << 20;
constexpr int kBulkInputs = 4;
constexpr int kBulkSetups = 5;
constexpr unsigned kBulkWidth = 2;  // half the cores of the reference VM

struct BulkInputs {
  std::vector<std::vector<Point2>> pts, expect;
};

/// Closed loop over the pre-generated inputs for `seconds`. The input
/// copy each submit consumes is made outside the timed section, and the
/// CPU of the process is read around each timed section.
void bulk_phase(iph::serve::HullService& svc, const BulkInputs& in,
                double seconds, std::uint64_t* next_id, SpanLog& spans,
                PhaseResult* r) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Clock::time_point prev = Clock::now();
  for (std::size_t i = 0; i == 0 || Clock::now() < end; ++i) {
    const std::size_t k = i % in.pts.size();
    const std::uint64_t id = (*next_id)++;
    iph::serve::Request req;
    req.id = id;
    req.backend = iph::exec::BackendKind::kNative;
    const Clock::time_point c0 = Clock::now();
    req.points = in.pts[k];
    const double cpu0 = self_cpu_s();
    const Clock::time_point a = Clock::now();
    std::future<iph::serve::Response> fut = svc.submit(std::move(req));
    const Clock::time_point s = Clock::now();
    const iph::serve::Response resp = fut.get();
    const Clock::time_point b = Clock::now();
    const double cpu_ms = 1e3 * (self_cpu_s() - cpu0);
    spans.add(0, id, kSpanOp, 0, "op", a, b);
    spans.add(0, id, kSpanCopy, 0, "copy", c0, a);
    spans.add(0, id, kSpanSubmit, kSpanOp, "submit", a, s);
    spans.add(0, id, kSpanGet, kSpanOp, "get", s, b);
    ++r->attempted;
    r->late_ms.push_back(ms_between(prev, a));
    const bool ok = resp.status == iph::serve::Status::kOk &&
                    coords(in.pts[k], resp.hull.upper.vertices) == in.expect[k];
    if (ok) {
      ++r->ok;
      r->points_ok += in.pts[k].size();
      r->lat_ms.push_back(ms_between(a, b));
      r->cpu_ms.push_back(cpu_ms);
      r->queue_wait_ms.push_back(resp.metrics.queue_wait_ms);
      r->batch_size.push_back(static_cast<double>(resp.metrics.batch_size));
    }
    prev = Clock::now();
  }
}

/// Construct the service and answer one validated request of the
/// workload's shape (input 0). Seconds elapsed, or -1 on a wrong answer.
double bulk_setup(const BulkInputs& in,
                  std::unique_ptr<iph::serve::HullService>* svc) {
  std::vector<Point2> warm = in.pts[0];
  const Clock::time_point t0 = Clock::now();
  *svc = std::make_unique<iph::serve::HullService>(
      service_config(kBulkWidth, true, true));
  const iph::serve::Response resp = run_service(**svc, std::move(warm), 1);
  const bool ok = resp.status == iph::serve::Status::kOk &&
                  coords(in.pts[0], resp.hull.upper.vertices) == in.expect[0];
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return ok ? s : -1;
}

/// bulk_setup in a forked child of this (still single-threaded) process;
/// the child reports its seconds through a pipe and exits.
double bulk_setup_forked(const BulkInputs& in) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<iph::serve::HullService> svc;
    const double s = bulk_setup(in, &svc);
    ::_exit(::write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
  }
  ::close(fds[1]);
  double s = -1;
  if (pid < 0 || ::read(fds[0], &s, sizeof s) != sizeof s) s = -1;
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  return s;
}

Outcome run_bulk(const Args& a, bool circle) {
  Outcome out;
  BulkInputs in;
  for (int k = 0; k < kBulkInputs; ++k) {
    in.pts.push_back(iph::geom::make2d(family_of(circle), kBulkN,
                                       perfbench::derive_seed(a.seed, 200, k)));
    in.expect.push_back(oracle_upper(in.pts.back()));
  }
  const double base_kb = proc_status_kb("self", "VmRSS:");
  // Set-up, several times: all but the last in forked children, so each
  // starts from the same fresh process and this one's memory sees a
  // single service lifetime; the last instance is timed.
  std::vector<double> setups;
  for (int k = 1; k < kBulkSetups; ++k) setups.push_back(bulk_setup_forked(in));
  std::unique_ptr<iph::serve::HullService> svc;
  setups.push_back(bulk_setup(in, &svc));
  if (*std::min_element(setups.begin(), setups.end()) < 0) {
    out.correct = false;
    out.attempted = out.failed = 1;
    return out;
  }
  std::uint64_t next_id = 2;
  SpanLog off(false, 1), spans(a.trace, 1);
  PhaseResult res[2];
  bulk_phase(*svc, in, a.trace ? a.seconds / 2 : a.seconds, &next_id, off, &res[0]);
  const double rss_mb = (proc_status_kb("self", "VmHWM:") - base_kb) / 1024.0;
  if (a.trace) bulk_phase(*svc, in, a.seconds / 2, &next_id, spans, &res[1]);
  svc.reset();
  const PhaseResult& main = res[a.trace ? 1 : 0];
  out.correct = res[0].ok == res[0].attempted && main.ok == main.attempted;
  out.attempted = main.attempted;
  out.failed = main.attempted - main.ok;
  if (!a.trace) {
    out.metrics = end_to_end(median(setups), main, rss_mb, true);
    return out;
  }
  Layers L;
  load_layers(res[1], median(res[0].lat_ms), &L);
  // The service's large path at a size where its microseconds are not
  // lost in the engine's run-to-run spread at 2^20.
  std::vector<std::vector<Point2>> large;
  for (int i = 0; i < 30; ++i) {
    large.push_back(iph::geom::make2d(family_of(circle), kShapeN[3],
                                      perfbench::derive_seed(a.seed, 40, i)));
  }
  std::vector<const std::vector<Point2>*> large_ptrs;
  for (const auto& v : large) large_ptrs.push_back(&v);
  service_ladder(large_ptrs, kBulkWidth, 2, spans, &L, &out.correct);
  const PhaseResult router_leg = wire_ladder(
      make_probes(a.seed, 100, false, circle, 100), a.bin_dir, kBulkWidth, 3,
      spans, &L, &out.correct);
  cluster_layers(router_leg, router_leg.attempted, &L);
  engine_layers(kBulkN, circle, a.seed, 3, spans, &L, &out.correct);
  out.metrics = std::move(L.out);
  if (!write_spans(spans, a, circle ? "bulk_circle" : "bulk_disk")) {
    out.correct = false;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bin-dir") a.bin_dir = v;
    else if (k == "--span-dir") a.span_dir = v;
    else {
      std::fprintf(stderr, "perfbench_loadgen: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  ::unsetenv("IPH_EXEC_REPRO_DIR");  // tail exemplars stay in memory
  ::signal(SIGPIPE, SIG_IGN);
  Outcome out;
  if (a.workload == "fleet_mix") {
    out = run_fleet(a);
  } else if (a.workload == "bulk_disk" || a.workload == "bulk_circle") {
    out = run_bulk(a, a.workload == "bulk_circle");
  } else {
    std::fprintf(stderr, "perfbench_loadgen: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::printf("%s\n", perfbench::result_line(out.correct, out.attempted,
                                             out.failed, out.metrics).c_str());
  return out.correct ? 0 : 1;
}
