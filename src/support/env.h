// Environment-variable configuration knobs shared by tests, benches and
// examples. All knobs have safe defaults so binaries run with no setup:
//   IPH_THREADS    — hardware threads backing the PRAM simulator (default:
//                    std::thread::hardware_concurrency()).
//   IPH_SEED       — master RNG seed (default 0x1991'07'22, the venue date).
//   IPH_PRAM_CHECK — "1"/"true"/"on" turns the step-race discipline
//                    checker (pram/shadow.h) on for every Machine;
//                    "0"/"false"/"off" forces it off even in builds
//                    configured with -DIPH_ENABLE_PRAM_CHECK=ON.
//   IPH_CW_CONFLICTS — "1" turns combining-write conflict counting on
//                    for every Machine (writes beyond the first into the
//                    same combining cell within one step). Attaching a
//                    trace::Recorder enables it regardless of this knob.
//   IPH_PRAM_GRAIN — serial-dispatch cutover of the PRAM simulator
//                    (default 2048): a step body with fewer virtual
//                    processors than this runs inline on the calling
//                    thread instead of through the pool. Scheduling
//                    only — results and PRAM metrics never depend on it.
//                    Clamped to >= 1; Machine::set_grain overrides it
//                    per machine.
//
// The bench/report harness reads further knobs (IPH_BENCH_OUT_DIR,
// IPH_BENCH_MAX_N, IPH_BENCH_BASELINE_DIR, IPH_BENCH_TOL,
// IPH_BENCH_SKIP_CLAIMS, and IPH_TRACE_DIR, the one switch for its
// phase tracing) via env_string/env_u64 below; they are documented in
// bench/report.h and README.md.
#pragma once

#include <cstdint>
#include <string>

namespace iph::support {

/// Most threads one pool or machine may be asked for: IPH_THREADS above
/// it is ignored, and the serving tools' --threads rejects it.
inline constexpr unsigned kMaxThreads = 4096;

/// Number of hardware threads the simulator should use.
unsigned env_threads() noexcept;

/// Master seed for randomized algorithms unless a caller overrides it.
std::uint64_t env_seed() noexcept;

/// Serial-dispatch grain for pram::Machine (IPH_PRAM_GRAIN, default
/// 2048, clamped to >= 1; unparsable values fall back to the default).
std::uint64_t env_pram_grain() noexcept;

/// Boolean knob: unset -> fallback; "1"/"true"/"on"/"yes" -> true;
/// anything else -> false.
bool env_flag(const char* name, bool fallback) noexcept;

/// String knob: unset or empty -> fallback.
std::string env_string(const char* name, std::string fallback);

/// Unsigned knob: unset or unparsable -> fallback. Accepts 0x prefixes.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) noexcept;

/// Double knob: unset or unparsable -> fallback.
double env_double(const char* name, double fallback) noexcept;

}  // namespace iph::support
