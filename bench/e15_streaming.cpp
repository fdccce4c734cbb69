// E15 — streaming: amortized delta-append latency vs rebuilding from
// scratch. A streaming client holds a session open and appends points
// in small batches; the session maintains both hull chains in place
// (binary-search insert + neighborhood prune, src/session/session.h)
// and only rarely runs a full presorted rebuild as an audit. The
// alternative a sessionless deployment offers the same client is a
// batch request over ALL points seen so far on every append — so the
// claim prices exactly that: the mean wall-clock cost of one streaming
// append (delta + its amortized share of rebuild audits) divided by
// the cost of one from-scratch both-chain hull build over the full
// point set. Incremental work per append is O(K log h) amortized
// against O(n log n) for the scratch build, so the ratio must sit
// below 0.5 on every row and fall as n grows (EXPERIMENTS.md E15).
//
// The run goes through a real SessionManager (admission, per-session
// mutex, stats registry) rather than a bare HullSession, so the
// measured path is the one hullserved executes; the manager's registry
// snapshot is attached to the report under "stats"["n=<n>"] and the
// session counters must reconcile with the client tally exactly
// (appends, zero rejects, zero rebuild mismatches, gauges at zero
// after close) — any disagreement fails the row.
//
// Deterministic counters for the committed baseline: peak_aux is the
// per-session workspace watermark in ledger cells (2 cells per live
// chain vertex / pending point, plus the transient merge buffer of the
// largest rebuild audit) straight from the session's SpaceLease-style
// ledger — a pure function of the point sequence and the append
// chunking, pinned bit-exactly by bench/baselines/BENCH_e15.json.
// delta_ops and rebuilds ride along for the streaming table.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "exec/native_backend.h"
#include "geom/workloads.h"
#include "session/manager.h"
#include "session/stats.h"
#include "stats/export.h"
#include "stats/stats.h"

namespace {

constexpr std::uint64_t kMasterSeed = 0x19910722ULL;
constexpr std::size_t kAppendPoints = 64;  ///< client batch per append

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void e15(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<iph::geom::Point2> pts = iph::geom::in_disk(n, 2025);
  const std::size_t appends = (n + kAppendPoints - 1) / kAppendPoints;

  double append_ms = 0, scratch_ms = 0, ratio = 0;
  std::uint64_t delta_ops = 0, rebuilds = 0, peak_aux = 0, hull_vertices = 0;
  for (auto _ : state) {
    // Streaming: one session, the whole point set in kAppendPoints
    // batches, through the manager path hullserved uses.
    iph::stats::Registry registry;
    iph::session::ManagerConfig mc;
    mc.default_backend = iph::exec::BackendKind::kNative;
    mc.master_seed = kMasterSeed;
    iph::session::SessionManager mgr(mc, registry);
    iph::session::OpenInfo info;
    if (mgr.open(iph::exec::BackendKind::kNative, &info) !=
        iph::session::SessionStatus::kOk) {
      state.SkipWithError("session open rejected");
      return;
    }
    delta_ops = rebuilds = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pts.size(); i += kAppendPoints) {
      const std::size_t take = std::min(kAppendPoints, pts.size() - i);
      iph::session::AppendResult res;
      if (mgr.append(info.sid,
                     std::span<const iph::geom::Point2>(pts.data() + i, take),
                     &res) != iph::session::SessionStatus::kOk ||
          res.rebuild_mismatch) {
        state.SkipWithError("append failed or rebuild audit mismatched");
        return;
      }
      delta_ops += res.ops.size();
      if (res.rebuilt) ++rebuilds;
    }
    append_ms = seconds_since(t0) * 1e3 / static_cast<double>(appends);
    iph::session::CloseSummary sum;
    if (mgr.close(info.sid, &sum) != iph::session::SessionStatus::kOk ||
        sum.rebuild_mismatches != 0 || sum.points_seen != pts.size()) {
      state.SkipWithError("close summary does not reconcile");
      return;
    }
    peak_aux = sum.peak_aux_cells;
    hull_vertices = sum.upper_size + sum.lower_size;

    // Scratch: what each append would cost without the session — a
    // full both-chain hull over every point seen. Both chains to match
    // what the session maintains; min over reps to price the
    // comparator favorably (any noise tightens the claim).
    iph::exec::NativeBackend scratch;
    std::vector<iph::geom::Point2> flipped;
    flipped.reserve(pts.size());
    for (const iph::geom::Point2& p : pts) flipped.push_back({p.x, -p.y});
    scratch_ms = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto s0 = std::chrono::steady_clock::now();
      const iph::exec::HullRun up =
          scratch.upper_hull(pts, kMasterSeed, /*alpha=*/8);
      const iph::exec::HullRun lo =
          scratch.upper_hull(flipped, kMasterSeed, /*alpha=*/8);
      benchmark::DoNotOptimize(up.hull.upper.vertices.data());
      benchmark::DoNotOptimize(lo.hull.upper.vertices.data());
      const double ms = seconds_since(s0) * 1e3;
      if (rep == 0 || ms < scratch_ms) scratch_ms = ms;
    }
    ratio = append_ms / scratch_ms;

    // Server-side reconciliation.
    namespace sn = iph::session::statnames;
    const iph::stats::RegistrySnapshot snap = registry.snapshot();
    const std::uint64_t rejects =
        snap.counter_or0(
            iph::stats::labeled(sn::kRejectedBase, "reason", "cap")) +
        snap.counter_or0(
            iph::stats::labeled(sn::kRejectedBase, "reason", "unknown")) +
        snap.counter_or0(
            iph::stats::labeled(sn::kRejectedBase, "reason", "closed")) +
        snap.counter_or0(
            iph::stats::labeled(sn::kRejectedBase, "reason", "oversized"));
    const std::int64_t* live = snap.gauge(sn::kLiveSessions);
    const std::int64_t* aux = snap.gauge(sn::kAuxCells);
    if (snap.counter_or0(sn::kAppends) != appends ||
        snap.counter_or0(sn::kAppendPoints) != pts.size() ||
        snap.counter_or0(sn::kRebuilds) != rebuilds ||
        snap.counter_or0(sn::kRebuildMismatch) != 0 || rejects != 0 ||
        live == nullptr || *live != 0 || aux == nullptr || *aux != 0) {
      state.SkipWithError("session stats registry does not reconcile");
      return;
    }
    iph::bench::attach_stats("n=" + std::to_string(n),
                             iph::stats::to_json(snap));
  }

  state.counters["append_ms"] = append_ms;
  state.counters["scratch_ms"] = scratch_ms;
  state.counters["delta_vs_scratch"] = ratio;
  state.counters["delta_ops"] = static_cast<double>(delta_ops);
  state.counters["rebuilds"] = static_cast<double>(rebuilds);
  state.counters["hull_vertices"] = static_cast<double>(hull_vertices);
  state.counters["peak_aux"] = static_cast<double>(peak_aux);
}

}  // namespace

BENCHMARK(e15)
    ->ArgsProduct({iph::bench::n_sweep({4096, 16384, 65536})})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The streaming claim: the amortized cost of one delta append (chain
// insert + its share of rebuild audits) stays below half the cost of
// the from-scratch both-chain build a sessionless client would rerun
// per append — and the committed baseline pins the session's workspace
// watermark (peak_aux, in ledger cells) bit-exactly.
IPH_BENCH_MAIN("e15",
               {"delta-vs-scratch", "delta_vs_scratch", "below_const", 0.5,
                "", ""})
