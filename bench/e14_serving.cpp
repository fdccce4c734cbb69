// E14 — serving: batched small-query throughput vs one-Machine-per-
// request, at the same thread count. A serving deployment provisions
// its shards wide enough for the largest queries it accepts (here
// 32 threads — the n >= 2048 rows genuinely fan out, grain 2048), so a
// small query served naively pays the full threads-1 thread spawn +
// join per request. That fixed cost dominates small hulls: measured on
// the reference box, Machine(32) construction ~0.7 ms vs ~0.2 ms for
// the n = 64 hull run itself. The service's pre-warmed worker shards +
// adaptive batcher amortize exactly that away — the PRAM execution is
// bit-identical by construction (checked every run below) — so for
// "small"-labelled rows the served configuration must clear at least
// 2x the solo throughput: inv_speedup = qps_solo / qps_served <= 0.5.
// "medium" and "large" rows document the crossover where the hull run
// itself takes over and the two configurations converge.
//
// Counters: the wall-clock serving axis (qps, qps_solo, inv_speedup,
// p50/p95/p99 e2e latency, mean coalesced batch size) plus the
// deterministic PRAM axis (steps/work summed over the request set,
// which the committed baseline pins bit-exactly — per-request PRAM cost
// is a pure function of (points, id, master seed), never of batching).
//
// A third column serves the same requests through the NATIVE execution
// engine (iph::exec, ServiceConfig::backend = kNative): no PRAM
// simulation at all, so it prices what the per-step synchronization tax
// costs the simulator path. Every native response is oracle-validated
// (geom/validate) and the backend-labeled serve counters must show the
// whole run on the native engine. The native claim: on small queries
// the native-served configuration is at least as fast as the
// simulator-served one (native_inv = qps / qps_native <= 1).
//
// A fourth pair of arms prices the tracing tax: the native engine
// behind a deliberately narrow service shape (1 shard, 2 threads —
// nowhere for a per-request recorder cost to hide), run
// recorder-armed (the iph::obs flight recorder, on by default) and
// recorder-off, interleaved, each side's best rep kept: 12 reps of 25
// passes over the request set on the small rows (n < 256), 3 reps of 5
// passes on the others. The gate:
// obs_inv = qps_native_noobs / qps_native_obs <= 1.05 on small rows —
// the always-on recorder may cost at most 5% of small-query
// throughput (EXPERIMENTS.md "Tracing overhead").
//
// Each row also cross-checks the service's own metrics registry
// (src/serve/stats.h) against the client tally — submitted/completed
// counts and the folded PRAM step/work totals must reconcile exactly —
// and attaches the registry snapshot to the run report under
// "stats"["n=<n>"], where benchreport renders it as a serving table.
// server_p99_ms is the server-recorded e2e p99 (histogram estimate)
// alongside the client-sampled p99_ms.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "report.h"
#include "core/api.h"
#include "exec/backend.h"
#include "geom/validate.h"
#include "geom/workloads.h"
#include "obs/flight_recorder.h"
#include "pram/machine.h"
#include "serve/request.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "stats/export.h"
#include "stats/stats.h"

namespace {

constexpr std::uint64_t kMasterSeed = 0x19910722ULL;
constexpr int kRequests = 40;
constexpr unsigned kThreads = 32;  ///< Shard width; see file comment.

std::vector<std::vector<iph::geom::Point2>> request_points(std::size_t n) {
  std::vector<std::vector<iph::geom::Point2>> pts;
  pts.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    pts.push_back(iph::geom::in_disk(n, 1000 + i));
  }
  return pts;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void e14(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = request_points(n);

  iph::serve::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.threads_per_shard = kThreads;
  cfg.queue_capacity = kRequests * 2;
  cfg.master_seed = kMasterSeed;
  cfg.batch.window = std::chrono::microseconds(200);

  double qps = 0, qps_solo = 0, qps_native = 0;
  double qps_native_obs = 0, qps_native_noobs = 0;
  double p50 = 0, p95 = 0, p99 = 0, mean_batch = 0;
  double native_p99 = 0;
  double server_p99 = 0;
  std::uint64_t steps = 0, work = 0, large = 0;
  for (auto _ : state) {
    // Solo: one Machine per request — the per-request spawn/join cost
    // the service exists to amortize — same thread count, same seeds.
    steps = work = 0;
    const auto s0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      iph::Options opts;
      opts.threads = kThreads;
      opts.seed = iph::serve::derive_request_seed(
          kMasterSeed, static_cast<iph::serve::RequestId>(i + 1));
      const iph::Hull2D h = iph::upper_hull_2d(pts[i], opts);
      benchmark::DoNotOptimize(h.result.upper.vertices.data());
      steps += h.metrics.steps;
      work += h.metrics.work;
    }
    const auto s1 = std::chrono::steady_clock::now();
    const double solo_s = std::chrono::duration<double>(s1 - s0).count();
    qps_solo = kRequests / solo_s;

    // Served: same requests (same ids, so bit-identical PRAM runs)
    // through the batching service.
    iph::serve::HullService svc(cfg);
    std::vector<std::future<iph::serve::Response>> futs;
    futs.reserve(kRequests);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      iph::serve::Request r;
      r.id = static_cast<iph::serve::RequestId>(i + 1);
      r.points = pts[i];
      futs.push_back(svc.submit(std::move(r)));
    }
    std::vector<double> e2e;
    e2e.reserve(kRequests);
    std::uint64_t served_steps = 0, served_work = 0;
    for (auto& f : futs) {
      const iph::serve::Response resp = f.get();
      e2e.push_back(resp.metrics.e2e_ms);
      served_steps += resp.metrics.steps;
      served_work += resp.metrics.work;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double served_s = std::chrono::duration<double>(t1 - t0).count();
    qps = kRequests / served_s;
    // The bit-identity acceptance check, enforced on every bench run:
    // batched PRAM cost must equal the solo runs' exactly.
    if (served_steps != steps || served_work != work) {
      state.SkipWithError("served PRAM metrics diverge from solo runs");
      return;
    }
    std::sort(e2e.begin(), e2e.end());
    p50 = percentile(e2e, 0.50);
    p95 = percentile(e2e, 0.95);
    p99 = percentile(e2e, 0.99);
    const iph::stats::RegistrySnapshot served =
        svc.stats_registry().snapshot();
    mean_batch = iph::serve::mean_batch(served);
    large = served.counter_or0(iph::serve::statnames::kLargeRequests);

    // Native: same requests, same service shape, but every request
    // runs on the thread-parallel engine (no simulator). Responses are
    // validated against the independent oracle — this bench is also a
    // differential check — and the backend-labeled counters must show
    // the entire run as native-served.
    {
      iph::serve::ServiceConfig ncfg = cfg;
      ncfg.backend = iph::exec::BackendKind::kNative;
      iph::serve::HullService nsvc(ncfg);
      std::vector<std::future<iph::serve::Response>> nfuts;
      nfuts.reserve(kRequests);
      const auto u0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kRequests; ++i) {
        iph::serve::Request r;
        r.id = static_cast<iph::serve::RequestId>(i + 1);
        r.points = pts[i];
        r.edge_above = true;  // validated below
        nfuts.push_back(nsvc.submit(std::move(r)));
      }
      std::vector<double> native_e2e;
      native_e2e.reserve(kRequests);
      for (int i = 0; i < kRequests; ++i) {
        const iph::serve::Response resp = nfuts[i].get();
        std::string err;
        if (resp.status != iph::serve::Status::kOk ||
            resp.metrics.backend != iph::exec::BackendKind::kNative ||
            !iph::geom::validate_upper_hull(pts[i], resp.hull.upper,
                                            &err) ||
            !iph::geom::validate_edge_above(pts[i], resp.hull, &err)) {
          state.SkipWithError("native-served response invalid");
          return;
        }
        native_e2e.push_back(resp.metrics.e2e_ms);
      }
      const auto u1 = std::chrono::steady_clock::now();
      qps_native =
          kRequests / std::chrono::duration<double>(u1 - u0).count();
      std::sort(native_e2e.begin(), native_e2e.end());
      native_p99 = percentile(native_e2e, 0.99);
      namespace sn = iph::serve::statnames;
      const iph::stats::RegistrySnapshot nsnap =
          nsvc.stats_registry().snapshot();
      if (nsnap.counter_or0(iph::stats::labeled(
              sn::kBackendBase, "backend", "native")) !=
              static_cast<std::uint64_t>(kRequests) ||
          nsnap.counter_or0(iph::stats::labeled(
              sn::kBackendBase, "backend", "pram")) != 0) {
        state.SkipWithError("native run not fully native-served");
        return;
      }
    }

    // Tracing overhead: the native engine again, but behind a
    // minimal-noise service shape — one shard, two threads —
    // recorder-armed (iph::obs, the default) vs recorder-off
    // (ServiceConfig::obs.enabled = false). The narrow shape is the
    // HARSHER configuration for this claim: no thread-spawn storm or
    // batching slack for a per-request recorder cost to hide behind,
    // and far less scheduler noise than the 32-wide serving shape.
    // Each rep times several passes over the request set so the
    // measured section is long enough to resolve a 5% bound; arms
    // interleave and each side keeps its best rep (best-of-best is
    // the standard way to compare two configurations under noise).
    // Small rows — the only ones the claim gates — get the most
    // passes and reps; medium/large rows document the ratio cheaply.
    {
      const bool small_row = n < 256;
      const int obs_reps = small_row ? 12 : 3;
      const int obs_passes = small_row ? 25 : 5;
      const auto obs_total =
          static_cast<std::uint64_t>(obs_passes) * kRequests;
      iph::serve::ServiceConfig ocfg = cfg;
      ocfg.backend = iph::exec::BackendKind::kNative;
      ocfg.shards = 1;
      ocfg.threads_per_shard = 2;
      std::string arm_err;
      const auto overhead_arm = [&](bool obs_on) -> double {
        iph::serve::ServiceConfig acfg = ocfg;
        acfg.obs.enabled = obs_on;
        iph::serve::HullService osvc(acfg);
        const auto u0 = std::chrono::steady_clock::now();
        for (int pass = 0; pass < obs_passes; ++pass) {
          std::vector<std::future<iph::serve::Response>> fs;
          fs.reserve(kRequests);
          for (int i = 0; i < kRequests; ++i) {
            iph::serve::Request r;
            r.id = static_cast<iph::serve::RequestId>(
                pass * kRequests + i + 1);
            r.points = pts[i];
            fs.push_back(osvc.submit(std::move(r)));
          }
          for (auto& f : fs) {
            if (f.get().status != iph::serve::Status::kOk) {
              arm_err = "overhead arm response not ok";
              return -1;
            }
          }
        }
        const auto u1 = std::chrono::steady_clock::now();
        // The armed arm must actually trace — one published request
        // trace per completion — or the overhead claim is vacuous (a
        // recorder that drops everything is trivially cheap).
        namespace on = iph::obs::statnames;
        const std::uint64_t published =
            osvc.stats_registry().snapshot().counter_or0(
                iph::stats::labeled(on::kTracesPublishedBase, "kind",
                                    "request"));
        if (published != (obs_on ? obs_total : 0)) {
          arm_err = obs_on ? "recorder did not publish every request"
                           : "obs-off arm still published traces";
          return -1;
        }
        return static_cast<double>(obs_total) /
               std::chrono::duration<double>(u1 - u0).count();
      };
      qps_native_obs = qps_native_noobs = 0;
      for (int rep = 0; rep < obs_reps; ++rep) {
        const double q_on = overhead_arm(true);
        const double q_off = overhead_arm(false);
        if (q_on < 0 || q_off < 0) {
          state.SkipWithError(arm_err.c_str());
          return;
        }
        qps_native_obs = std::max(qps_native_obs, q_on);
        qps_native_noobs = std::max(qps_native_noobs, q_off);
      }
    }

    // Server-side cross-check: the service's own metrics registry must
    // agree with what the client observed — every request submitted,
    // accepted and completed, nothing rejected or expired, and the
    // server-recorded PRAM step/work totals equal to the client tally.
    namespace sn = iph::serve::statnames;
    const iph::stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
    const auto want = static_cast<std::uint64_t>(kRequests);
    const std::uint64_t rejected =
        snap.counter_or0(iph::stats::labeled(sn::kRejectedBase, "reason",
                                             "full")) +
        snap.counter_or0(iph::stats::labeled(sn::kRejectedBase, "reason",
                                             "shutdown"));
    if (snap.counter_or0(sn::kSubmitted) != want ||
        snap.counter_or0(sn::kCompleted) != want || rejected != 0 ||
        snap.counter_or0(sn::kExpired) != 0) {
      state.SkipWithError("server stats registry does not reconcile");
      return;
    }
    if (snap.counter_or0(std::string(sn::kPramPrefix) + "steps_total") !=
            served_steps ||
        snap.counter_or0(std::string(sn::kPramPrefix) + "work_total") !=
            served_work) {
      state.SkipWithError("server pram counters diverge from responses");
      return;
    }
    if (const iph::stats::HistogramSnapshot* h =
            snap.histogram(sn::kE2eMs)) {
      server_p99 = h->quantile(0.99);
    }
    iph::bench::attach_stats("n=" + std::to_string(n),
                             iph::stats::to_json(snap));
  }

  state.counters["qps"] = qps;
  state.counters["qps_solo"] = qps_solo;
  state.counters["inv_speedup"] = qps_solo / qps;
  state.counters["qps_native"] = qps_native;
  state.counters["native_inv"] = qps / qps_native;
  state.counters["qps_native_obs"] = qps_native_obs;
  state.counters["qps_native_noobs"] = qps_native_noobs;
  state.counters["obs_inv"] = qps_native_noobs / qps_native_obs;
  state.counters["native_p99_ms"] = native_p99;
  state.counters["p50_ms"] = p50;
  state.counters["p95_ms"] = p95;
  state.counters["p99_ms"] = p99;
  state.counters["server_p99_ms"] = server_p99;
  state.counters["mean_batch"] = mean_batch;
  state.counters["large_requests"] = static_cast<double>(large);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["work"] = static_cast<double>(work);
  state.SetLabel(n < 256 ? "small" : (n < 2048 ? "medium" : "large"));
}

}  // namespace

BENCHMARK(e14)
    ->ArgsProduct({iph::bench::n_sweep({64, 128, 256, 1024, 4096})})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The serving claims, on small-query rows:
//  * batch-speedup — batched throughput is at least 2x one-Machine-
//    per-request at the same thread count (inv_speedup <= 0.5). Large
//    rows are excluded — there the hull run itself dominates and the
//    two configurations converge (EXPERIMENTS.md E14).
//  * native-speedup — the native engine serves small queries at least
//    as fast as the simulator path (native_inv = qps/qps_native <= 1):
//    the in-place claim gating would be meaningless if the "fast path"
//    lost to the metered oracle it bypasses.
//  * obs-overhead — the always-on flight recorder (iph::obs) costs at
//    most 5% of small-query native throughput versus the same service
//    with the recorder off (obs_inv = qps_native_noobs /
//    qps_native_obs <= 1.05), measured behind the narrow 1×1×2 shape
//    where a per-request tracing tax is most visible. The armed arm is
//    cross-checked to have published one trace per request, so the
//    claim prices real tracing, not a recorder that drops everything.
IPH_BENCH_MAIN("e14",
               {"batch-speedup", "inv_speedup", "below_const", 0.5, "",
                "small"},
               {"native-speedup", "native_inv", "below_const", 1.0, "",
                "small"},
               {"obs-overhead", "obs_inv", "below_const", 1.05, "",
                "small"})
