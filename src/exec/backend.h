// iph::exec — pluggable hull-execution backends.
//
// The repo has two ways to compute an upper hull: the metered CRCW PRAM
// simulator (the paper's machinery, every step synchronized and
// accounted) and — since this layer exists — a direct thread-parallel
// native engine that pays none of the simulator's per-step tax. Backend
// is the seam between them: the serving stack (src/serve) executes
// every request through a Backend*, selected per service or per
// request, and the differential-test harness (tests/exec_diff_test)
// runs the same inputs through both and holds the native engine to the
// simulator's answers.
//
// Semantics contract: all backends compute THE strict upper hull in the
// paper's output convention (geom/hull_types.h) — vertex x strictly
// increasing, no collinear interior vertices, per-point edge-above
// pointers (guaranteed only when the caller asks for them) — and must
// pass geom/validate's oracle verifiers on any input. Vertex *indices*
// may legitimately differ between backends when the input contains
// duplicate points (either duplicate is a correct hull vertex); vertex
// *coordinates* may not. The edge_above entry of a
// point whose x equals a hull vertex's may cite either incident edge
// (both are valid covers; the validator accepts either, and the
// backends' choices differ there). Each backend is individually
// deterministic: same points + seed -> same result.
//
// In-place contract: upper_hull_in_place may permute the caller's buffer
// and leaves its contents unspecified; it returns upper_hull's answer.
// The serving batcher runs every request through it, on the request's
// own points.
//
// Cost-metric contract: HullRun carries pram::Metrics. The PRAM backend
// fills it with the simulator's real step/work/processor accounting;
// the native engine reports zeros — PRAM counters are properties of the
// simulation, and inventing pseudo-steps for native runs would poison
// the serving stack's exact PRAM reconciliation (serve/stats.h).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "geom/hull_types.h"
#include "geom/point.h"
#include "pram/metrics.h"

namespace iph::exec {

/// Which engine a request runs on. kDefault defers to the service's
/// configured default (requests carry this; a resolved run never does).
enum class BackendKind : std::uint8_t { kDefault, kPram, kNative };

constexpr const char* backend_name(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::kDefault:
      return "default";
    case BackendKind::kPram:
      return "pram";
    case BackendKind::kNative:
      return "native";
  }
  return "?";
}

/// Parse "pram" / "native" / "default". False on anything else.
bool parse_backend(std::string_view name, BackendKind* out) noexcept;

/// One finished hull computation: the result in the paper's output
/// convention plus the engine's cost counters (all-zero for engines
/// that do not simulate a PRAM; see file comment).
struct HullRun {
  geom::HullResult2D hull;
  pram::Metrics metrics;
};

class Backend {
 public:
  virtual ~Backend();

  virtual BackendKind kind() const noexcept = 0;
  const char* name() const noexcept { return backend_name(kind()); }

  /// Compute the upper hull of `pts`. `seed` is the request's derived
  /// randomized-CRCW seed and `alpha` the paper's in-place-bridge round
  /// budget — simulator knobs; deterministic engines may ignore both.
  /// `edge_above` asks for the per-point edge-above array: when set,
  /// HullResult2D::edge_above has one entry per input point; when not,
  /// an engine may leave it empty (the native engine does, and skips the
  /// work) or fill it anyway (the simulator does — its algorithms
  /// produce it). Thread-safety is per-implementation: PramBackend
  /// requires external exclusivity over its machine (a serving worker
  /// owns its own), the native engine accepts concurrent calls.
  virtual HullRun upper_hull(std::span<const geom::Point2> pts,
                             std::uint64_t seed, int alpha,
                             bool edge_above) = 0;

  /// upper_hull with edge_above asked: every entry filled.
  HullRun upper_hull(std::span<const geom::Point2> pts, std::uint64_t seed,
                     int alpha) {
    return upper_hull(pts, seed, alpha, /*edge_above=*/true);
  }

  /// upper_hull over a buffer the caller gives up: the engine may sort
  /// `pts` where it lies, so after the call the buffer's contents are
  /// unspecified (not even the same points need remain). The answer is
  /// upper_hull's, bit for bit: indices refer to the input order as it
  /// was at the call. A caller that reads its points afterwards must
  /// read them first, or call upper_hull. The native engine sorts here
  /// (native_backend.h); the default forwards to upper_hull, so other
  /// engines leave the buffer as it was.
  virtual HullRun upper_hull_in_place(std::span<geom::Point2> pts,
                                      std::uint64_t seed, int alpha,
                                      bool edge_above);

  /// Compute the upper hull of LEXICOGRAPHICALLY SORTED `pts`
  /// (duplicates allowed; geom::lex_less non-decreasing). Engines skip
  /// their sort stage: the native backend scans the span directly
  /// instead of radix-sorting a permutation, the PRAM backend runs the
  /// presorted algorithms (Lemma 2.5 / Theorem 2) instead of Theorem 5.
  /// The session layer's periodic rebuilds call this — a maintained
  /// hull chain is already sorted, so paying a sort to re-derive it
  /// would double the rebuild's work for nothing. Output, edge_above
  /// and determinism contracts are identical to upper_hull. The default
  /// implementation defers to upper_hull (correct, no fast path).
  virtual HullRun upper_hull_presorted(std::span<const geom::Point2> pts,
                                       std::uint64_t seed, int alpha,
                                       bool edge_above);

  /// upper_hull_presorted with edge_above asked: every entry filled.
  HullRun upper_hull_presorted(std::span<const geom::Point2> pts,
                               std::uint64_t seed, int alpha) {
    return upper_hull_presorted(pts, seed, alpha, /*edge_above=*/true);
  }
};

}  // namespace iph::exec
