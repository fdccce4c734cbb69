// Shared harness for the experiment benches (e01..e13), replacing
// BENCHMARK_MAIN() with IPH_BENCH_MAIN(id, ...claims). On top of plain
// google-benchmark console output every bench now
//
//   * captures each benchmark row (args, label, user counters, wall
//     time) through a reporter shim,
//   * writes a machine-readable run report BENCH_<id>.json — schema
//     "iph-bench-report-v1": provenance (git sha, build type, sanitizer
//     spec, seed, threads, timestamp), the row table, the claim-fit
//     results, and any phase traces captured via instrument(),
//   * regresses each declared CLAIM against its predicted shape
//     (trace/fit.h) and exits nonzero on a misfit,
//   * optionally compares deterministic counters (steps, work,
//     max_active, cw_conflicts, t_ideal, peak_live, peak_aux,
//     peak_input) against a committed baseline report, exiting nonzero
//     on drift.
//
// Knobs (all environment variables; see also support/env.h):
//   IPH_BENCH_OUT_DIR      where BENCH_<id>.json goes (default ".").
//   IPH_BENCH_MAX_N        cap applied by n_sweep(); CI's short sweep
//                          sets e.g. 16384 so every bench finishes in
//                          seconds. Rows keep their full names, so the
//                          subset still matches the committed baseline.
//   IPH_BENCH_BASELINE_DIR directory holding baseline BENCH_<id>.json
//                          files (bench/baselines in the repo); unset =
//                          no comparison.
//   IPH_BENCH_TOL          relative tolerance for the baseline compare
//                          (default 0 = bit-exact; the compared counters
//                          are deterministic given the seed).
//   IPH_BENCH_SKIP_CLAIMS  "1" records claim results without failing.
//   IPH_TRACE_DIR          if set, every instrument()ed machine's phase
//                          table goes into the report and its timeline
//                          is exported there as a Chrome trace-event
//                          file <id>.<tag>.trace.json (load in
//                          chrome://tracing or Perfetto).
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "pram/machine.h"
#include "pram/metrics.h"
#include "trace/json.h"
#include "trace/recorder.h"

namespace iph::bench {

/// One paper claim checked against the measured rows. Rows are grouped
/// into series by (benchmark name minus its first argument, label); the
/// first benchmark argument is the sweep variable x. Each series must
/// fit `shape` within `tol` independently (see trace/fit.h for the
/// band/bound semantics per shape).
struct Claim {
  const char* name;     ///< Short id, e.g. "steps-flat".
  const char* counter;  ///< User counter supplying y.
  const char* shape;    ///< trace::shape_from_name: "flat", "log_n", ...
  double tol;           ///< Band width or bound factor (see fit.h).
  const char* aux_counter = "";  ///< Counter supplying aux (h / bound).
  const char* labels = "";  ///< Comma-separated label filter; "" = all.
  const char* function = "";  ///< Benchmark function filter; "" = all.
};

inline double log2d(double x) { return x > 1 ? std::log2(x) : 1.0; }

/// Attach the core PRAM metrics to a benchmark state. The space-ledger
/// watermarks ride along whenever the bench registered any cells
/// (pram::SpaceLease); an uninstrumented machine reports all-zero space
/// and the counters are omitted to keep its rows unchanged.
inline void report_metrics(benchmark::State& state, const pram::Metrics& m) {
  state.counters["steps"] = static_cast<double>(m.steps);
  state.counters["work"] = static_cast<double>(m.work);
  state.counters["max_procs"] = static_cast<double>(m.max_active);
  state.counters["cw_conflicts"] = static_cast<double>(m.cw_conflicts);
  if (m.space_allocs > 0) {
    state.counters["peak_live"] = static_cast<double>(m.peak_live);
    state.counters["peak_aux"] = static_cast<double>(m.peak_aux);
    state.counters["peak_input"] = static_cast<double>(m.peak_input);
  }
}

/// The bench's n sweep, capped at IPH_BENCH_MAX_N when set. Never
/// returns empty: the smallest value always survives the cap.
std::vector<std::int64_t> n_sweep(std::initializer_list<std::int64_t> full);

/// Attach a fresh trace::Recorder to `m` (enabling phase tracing and
/// conflict counting for this machine) and register it under `tag`.
/// After the benchmarks finish the harness folds the recorder's phase
/// tree into the report's "traces" section and exports its Chrome
/// trace into IPH_TRACE_DIR. One recorder is kept per tag (last wins),
/// so call it with a tag naming the row, e.g. "disk/65536". Recorders
/// outlive the machines they observe.
///
/// Tracing is OPT-IN: unless IPH_TRACE_DIR is set, this is a no-op
/// (returns a detached recorder, the machine runs bare) so default
/// runs — including the committed baselines — stay free of trace
/// sections and their wall-clock noise.
trace::Recorder& instrument(pram::Machine& m, const std::string& tag);

/// Attach a stats-registry snapshot (stats::to_json shape, schema
/// "iph-stats-v1") to the run report under "stats"[tag]; benchreport
/// renders a serving-stats table from it. One snapshot is kept per tag
/// (last wins). The harness itself only stores the Json — producing it
/// (stats::to_json over a RegistrySnapshot) is the bench's job.
void attach_stats(const std::string& tag, trace::Json stats_json);

/// The main() body behind IPH_BENCH_MAIN. Returns the process exit
/// code: 0, or nonzero on claim misfit / baseline drift / no rows.
int run_bench_main(int argc, char** argv, const char* bench_id,
                   std::vector<Claim> claims);

}  // namespace iph::bench

#define IPH_BENCH_MAIN(id, ...)                                        \
  int main(int argc, char** argv) {                                    \
    return iph::bench::run_bench_main(argc, argv, id, {__VA_ARGS__});  \
  }
