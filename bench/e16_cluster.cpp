// E16 — cluster serving: aggregate small-query throughput scaling
// 1 -> N hullserved backend processes behind the iph::cluster Router,
// p99 behavior under hot-shard skew, and exact fleet-stats
// reconciliation under admin mark-down/mark-up churn.
//
// Each row spawns REAL hullserved subprocesses (--port 0, ports read
// from their "listening <port>" stdout line) and drives them through
// an in-process Router — the very code tools/hullrouter wraps — with
// closed-loop client threads, each owning one Router::Conn.
//
// Scaling claim, normalized for the machine it runs on: with B
// backends the ideal aggregate speedup is min(B, P) where P is the
// host's hardware concurrency (a 1-core machine cannot scale
// 4 CPU-bound processes; CI's multi-core runners can). The gated
// counter is
//     scaling_inefficiency = qps_1 * min(B, P) / qps_B
// i.e. ideal-normalized slowdown: 1.0 is perfect scaling, and the
// claim scaling_inefficiency <= 1.6 demands >= 62.5% parallel
// efficiency at every fleet size — at B = 4 on a >= 4-core box that is
// exactly the ">= 2.5x aggregate throughput vs one backend"
// acceptance bar (4 / 1.6 = 2.5). Raw qps / speedup / p99_ms ride
// along for the report tables (wall-clock counters are never
// baseline-compared; only deterministic ones are).
//
// The skew row routes every request at ONE hot key (all ids equal), so
// the whole load lands on a single shard: hot_shard_share documents
// the concentration and p99_ms prices the hot-shard queueing tax
// against the uniform row at the same fleet size.
//
// The churn row runs three load phases with an admin mark-down of one
// shard between phases 1-2 and its mark-up between 2-3 (deterministic
// phase barriers, not timers), then diffs the router's fleet statz
// roll-up across the run and requires EXACT reconciliation:
//     fleet submitted == client requests + router retries
//     router forwards == fleet submitted
//     fleet completed == client oks
// A drained backend keeps answering its scrape, so the merged
// before/after diff loses nothing — any mismatch fails the bench via
// SkipWithError.
#include <benchmark/benchmark.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "cluster/endpoint.h"
#include "cluster/protocol.h"
#include "cluster/router.h"
#include "cluster/stats.h"
#include "stats/export.h"
#include "stats/stats.h"
#include "support/linechan.h"
#include "trace/json.h"

namespace {

using iph::cluster::Router;
using iph::cluster::RouterConfig;
using iph::trace::Json;

constexpr int kClientThreads = 8;
constexpr int kRequestsPerThread = 32;
constexpr std::size_t kPointsPerRequest = 256;

/// One hullserved subprocess, port learned from its stdout contract.
class Backend {
 public:
  Backend() {
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(IPH_HULLSERVED_BIN, "hullserved", "--port", "0", "--shards",
              "1", "--threads", "4", "--backend", "pram", "--seed", "42",
              "--quiet", static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    iph::support::LineChannel ch(out_fd_, -1);
    std::string line;
    while (ch.read_line(&line)) {
      int p = 0;
      if (std::sscanf(line.c_str(), "listening %d", &p) == 1) {
        port_ = p;
        break;
      }
    }
  }

  ~Backend() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int out_fd_ = -1;
};

RouterConfig router_config(const std::vector<std::unique_ptr<Backend>>& fleet) {
  RouterConfig cfg;
  for (const auto& b : fleet) {
    cfg.endpoints.push_back(iph::cluster::Endpoint{"127.0.0.1", b->port()});
  }
  cfg.retry_limit = 2;
  cfg.probe_period_ms = 0;  // deterministic: request path only
  return cfg;
}

std::string request_line(std::uint64_t id) {
  Json j = Json::object();
  j["id"] = Json(id);
  j["n"] = Json(static_cast<std::uint64_t>(kPointsPerRequest));
  j["workload"] = Json("disk");
  j["seed"] = Json(id);
  return j.dump();
}

struct LoadResult {
  std::uint64_t ok = 0;
  std::uint64_t total = 0;
  std::vector<double> latencies_ms;
};

/// Closed-loop load: kClientThreads threads, each with its own
/// Router::Conn, `per_thread` requests each. `hot_id` != 0 pins every
/// request to one key (skew); otherwise ids are unique per request.
LoadResult run_load(Router& router, int per_thread, std::uint64_t id_base,
                    std::uint64_t hot_id = 0) {
  std::vector<LoadResult> per(kClientThreads);
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&router, &per, per_thread, id_base, hot_id, t] {
      Router::Conn conn(router);
      LoadResult& r = per[t];
      r.latencies_ms.reserve(static_cast<std::size_t>(per_thread));
      for (int i = 0; i < per_thread; ++i) {
        const std::uint64_t id =
            hot_id != 0
                ? hot_id
                : id_base + static_cast<std::uint64_t>(t) * 100000 +
                      static_cast<std::uint64_t>(i);
        const auto t0 = std::chrono::steady_clock::now();
        const std::string reply = conn.handle_line(request_line(id));
        const auto t1 = std::chrono::steady_clock::now();
        ++r.total;
        Json rj;
        std::string err;
        if (Json::parse(reply, &rj, &err) && rj.get_str("status") == "ok") {
          ++r.ok;
        }
        r.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult all;
  for (auto& r : per) {
    all.ok += r.ok;
    all.total += r.total;
    all.latencies_ms.insert(all.latencies_ms.end(), r.latencies_ms.begin(),
                            r.latencies_ms.end());
  }
  return all;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Parse the merged snapshot out of a fleet_statz answer.
bool fleet_snapshot(Router& router, iph::stats::RegistrySnapshot* out,
                    std::string* err) {
  const Json doc = router.fleet_statz(/*prometheus=*/false);
  const Json* s = doc.find("statz");
  if (s == nullptr) {
    *err = "fleet_statz answered without a \"statz\" member";
    return false;
  }
  return iph::stats::from_json(*s, *out, err);
}

double ideal_speedup(int backends) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<double>(
      std::min<unsigned>(static_cast<unsigned>(backends), hw));
}

double g_qps_1 = 0;  ///< B = 1 row's throughput (rows run in order)

void e16_scaling(benchmark::State& state) {
  const int backends = static_cast<int>(state.range(0));
  double qps = 0, p99 = 0;
  std::uint64_t forwards = 0, fleet_submitted = 0, fleet_completed = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<Backend>> fleet;
    for (int b = 0; b < backends; ++b) {
      fleet.push_back(std::make_unique<Backend>());
      if (fleet.back()->port() == 0) {
        state.SkipWithError("backend failed to start");
        return;
      }
    }
    Router router(router_config(fleet));
    run_load(router, /*per_thread=*/2, /*id_base=*/900000);  // warm dials
    const auto t0 = std::chrono::steady_clock::now();
    const LoadResult r = run_load(router, kRequestsPerThread, 1);
    const auto t1 = std::chrono::steady_clock::now();
    if (r.ok != r.total) {
      state.SkipWithError("not every clustered request answered ok");
      return;
    }
    qps = static_cast<double>(r.total) /
          std::chrono::duration<double>(t1 - t0).count();
    p99 = percentile(r.latencies_ms, 0.99);

    iph::stats::RegistrySnapshot snap;
    std::string err;
    if (!fleet_snapshot(router, &snap, &err)) {
      state.SkipWithError(("fleet statz: " + err).c_str());
      return;
    }
    namespace rn = iph::cluster::statnames;
    forwards = snap.counter_or0(rn::kForwards);
    fleet_submitted = snap.counter_or0("iph_serve_submitted_total");
    fleet_completed = snap.counter_or0("iph_serve_completed_total");
    if (forwards != fleet_submitted) {
      state.SkipWithError("router forwards != fleet submitted");
      return;
    }
    iph::bench::attach_stats("scaling/B=" + std::to_string(backends),
                             iph::stats::to_json(snap));
  }
  if (backends == 1) g_qps_1 = qps;
  const double base = g_qps_1 > 0 ? g_qps_1 : qps;
  state.SetLabel("scale");
  state.counters["backends"] = backends;
  state.counters["qps"] = qps;
  state.counters["speedup"] = qps / base;
  state.counters["ideal"] = ideal_speedup(backends);
  state.counters["scaling_inefficiency"] = base * ideal_speedup(backends) / qps;
  state.counters["p99_ms"] = p99;
  state.counters["forwards"] = static_cast<double>(forwards);
  state.counters["fleet_completed"] = static_cast<double>(fleet_completed);
}
BENCHMARK(e16_scaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void e16_skew(benchmark::State& state) {
  const int backends = static_cast<int>(state.range(0));
  double qps = 0, p99 = 0, hot_share = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<Backend>> fleet;
    for (int b = 0; b < backends; ++b) {
      fleet.push_back(std::make_unique<Backend>());
      if (fleet.back()->port() == 0) {
        state.SkipWithError("backend failed to start");
        return;
      }
    }
    Router router(router_config(fleet));
    run_load(router, /*per_thread=*/2, /*id_base=*/900000);
    const auto t0 = std::chrono::steady_clock::now();
    // Every request carries the same id: one hot key, one hot shard.
    const LoadResult r =
        run_load(router, kRequestsPerThread, 1, /*hot_id=*/7);
    const auto t1 = std::chrono::steady_clock::now();
    if (r.ok != r.total) {
      state.SkipWithError("not every skewed request answered ok");
      return;
    }
    qps = static_cast<double>(r.total) /
          std::chrono::duration<double>(t1 - t0).count();
    p99 = percentile(r.latencies_ms, 0.99);

    namespace rn = iph::cluster::statnames;
    const iph::stats::RegistrySnapshot s = router.registry().snapshot();
    std::uint64_t hot = 0, routed = 0;
    for (int k = 0; k < backends; ++k) {
      const std::uint64_t c = s.counter_or0(iph::stats::labeled(
          rn::kRoutesBase, "shard", std::to_string(k)));
      hot = std::max(hot, c);
      routed += c;
    }
    hot_share = routed > 0
                    ? static_cast<double>(hot) / static_cast<double>(routed)
                    : 0;
  }
  state.SetLabel("skew");
  state.counters["backends"] = backends;
  state.counters["qps"] = qps;
  state.counters["p99_ms"] = p99;
  state.counters["hot_shard_share"] = hot_share;
}
BENCHMARK(e16_skew)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);

void e16_churn(benchmark::State& state) {
  const int backends = static_cast<int>(state.range(0));
  double qps = 0;
  std::uint64_t markdowns = 0, markups = 0, rebuilds = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<Backend>> fleet;
    for (int b = 0; b < backends; ++b) {
      fleet.push_back(std::make_unique<Backend>());
      if (fleet.back()->port() == 0) {
        state.SkipWithError("backend failed to start");
        return;
      }
    }
    Router router(router_config(fleet));
    run_load(router, /*per_thread=*/2, /*id_base=*/900000);

    iph::stats::RegistrySnapshot before;
    std::string err;
    if (!fleet_snapshot(router, &before, &err)) {
      state.SkipWithError(("fleet statz: " + err).c_str());
      return;
    }
    // Three phases with deterministic admin churn at the barriers: the
    // drained shard keeps serving its in-flight lines and its scrape,
    // so the roll-up must lose NOTHING.
    const auto t0 = std::chrono::steady_clock::now();
    LoadResult all = run_load(router, kRequestsPerThread / 2, 1);
    router.mark_down_admin(backends - 1);
    const LoadResult mid = run_load(router, kRequestsPerThread / 2, 20000);
    router.mark_up_admin(backends - 1);
    const LoadResult tail = run_load(router, kRequestsPerThread / 2, 40000);
    const auto t1 = std::chrono::steady_clock::now();
    all.ok += mid.ok + tail.ok;
    all.total += mid.total + tail.total;
    if (all.ok != all.total) {
      state.SkipWithError("not every request answered ok under churn");
      return;
    }
    qps = static_cast<double>(all.total) /
          std::chrono::duration<double>(t1 - t0).count();

    iph::stats::RegistrySnapshot after;
    if (!fleet_snapshot(router, &after, &err)) {
      state.SkipWithError(("fleet statz: " + err).c_str());
      return;
    }
    const iph::stats::RegistrySnapshot d = after.diff(before);
    namespace rn = iph::cluster::statnames;
    const std::uint64_t retries =
        d.counter_or0(iph::stats::labeled(rn::kRetriesBase, "reason",
                                          "rejected_full")) +
        d.counter_or0(iph::stats::labeled(rn::kRetriesBase, "reason",
                                          "rejected_shutdown"));
    const std::uint64_t submitted =
        d.counter_or0("iph_serve_submitted_total");
    const std::uint64_t completed =
        d.counter_or0("iph_serve_completed_total");
    // The exactness gate: churn may move traffic, never lose counts.
    if (submitted != all.total + retries) {
      state.SkipWithError("fleet submitted != client requests + retries");
      return;
    }
    if (d.counter_or0(rn::kForwards) != submitted) {
      state.SkipWithError("router forwards != fleet submitted");
      return;
    }
    if (completed != all.ok) {
      state.SkipWithError("fleet completed != client oks");
      return;
    }
    markdowns = d.counter_or0(
        iph::stats::labeled(rn::kMarkdownsBase, "cause", "admin"));
    markups = d.counter_or0(
        iph::stats::labeled(rn::kMarkupsBase, "cause", "admin"));
    rebuilds = d.counter_or0(rn::kRingRebuilds);
    if (markdowns != 1 || markups != 1) {
      state.SkipWithError("admin churn counters did not record the schedule");
      return;
    }
    iph::bench::attach_stats("churn/B=" + std::to_string(backends),
                             iph::stats::to_json(d));
  }
  state.SetLabel("churn");
  state.counters["backends"] = backends;
  state.counters["qps"] = qps;
  state.counters["reconciled"] = 1;
  state.counters["markdowns"] = static_cast<double>(markdowns);
  state.counters["markups"] = static_cast<double>(markups);
  state.counters["ring_rebuilds"] = static_cast<double>(rebuilds);
}
BENCHMARK(e16_churn)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

// The cluster scaling claim (EXPERIMENTS.md E16): ideal-normalized
// inefficiency <= 1.6 at every fleet size — on a >= 4-core host the
// B = 4 row then requires >= 2.5x aggregate throughput vs B = 1
// (4 / 1.6), while a 1-core host is held to the same 62.5% efficiency
// against its ideal of min(B, P) = 1.
IPH_BENCH_MAIN("e16",
               {"cluster-scaling", "scaling_inefficiency", "below_const",
                1.6, "", "scale"})
