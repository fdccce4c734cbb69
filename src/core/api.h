// iph — public API.
//
// Parallel convex hulls after Ghouse & Goodrich (SPAA 1991), executed on
// the library's CRCW PRAM simulator. Each call spins up a Machine (or
// uses a caller-provided one), runs the selected algorithm, and returns
// the hull in the paper's output convention — every input point learns
// the hull edge (2-d) / facet (3-d) vertically above it — together with
// the PRAM cost metrics (steps = parallel time, work, processor peak).
//
// Quick start:
//   std::vector<iph::geom::Point2> pts = ...;
//   const iph::Hull2D h = iph::upper_hull_2d(pts);
//   // h.result.upper.vertices, h.result.edge_above, h.metrics.steps ...
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "geom/hull_types.h"
#include "geom/point.h"
#include "pram/metrics.h"

namespace iph::pram {
class Machine;
}  // namespace iph::pram

namespace iph {

enum class Algo2D {
  kAuto,              ///< unsorted Theorem 5; presorted calls pick Lemma 2.5
  kUnsorted,          ///< Theorem 5: O(log n) time, O(n log h) work
  kPresortedConstant, ///< Lemma 2.5: O(1) time, O(n log n) processors
  kPresortedLogstar,  ///< Theorem 2: O(log* n) time, ~n processors
  kFallback,          ///< the O(n log n)-work parallel baseline
};

struct Options {
  std::uint64_t seed = 0x19910722ULL;  ///< randomized-CRCW seed
  unsigned threads = 0;                ///< 0 = IPH_THREADS / hardware
  int alpha = 8;                       ///< in-place-bridge round budget
  Algo2D algo = Algo2D::kAuto;
};

// Machine-lease entry points: every call below also exists in an
// overload taking a caller-provided pram::Machine&. These skip the
// per-call Machine spin-up (threads-1 thread spawns + joins) — the
// serving layer's workers (src/serve) each own a pre-warmed machine
// and call these. With a provided machine, Options::seed and
// Options::threads are ignored (they are machine properties; reseed
// with Machine::reset), and the returned metrics are the machine's
// cumulative metrics — reset() the machine first for per-call numbers.

struct Hull2D {
  geom::HullResult2D result;
  pram::Metrics metrics;
};

struct Hull3D {
  geom::HullResult3D result;
  pram::Metrics metrics;
  bool used_fallback = false;
};

/// Upper hull of arbitrary-order 2-d points (Theorem 5 by default).
Hull2D upper_hull_2d(std::span<const geom::Point2> pts,
                     const Options& opts = {});
Hull2D upper_hull_2d(pram::Machine& m, std::span<const geom::Point2> pts,
                     const Options& opts = {});

/// Upper hull of lexicographically sorted points (Lemma 2.5 by default;
/// select Theorem 2 via Algo2D::kPresortedLogstar).
Hull2D upper_hull_2d_presorted(std::span<const geom::Point2> pts,
                               const Options& opts = {});
Hull2D upper_hull_2d_presorted(pram::Machine& m,
                               std::span<const geom::Point2> pts,
                               const Options& opts = {});

/// Full convex hull, counterclockwise vertex indices, via two upper-hull
/// runs (the standard reduction the paper assumes).
struct FullHull2D {
  std::vector<geom::Index> vertices;  ///< CCW
  pram::Metrics metrics;
};
FullHull2D convex_hull_2d(std::span<const geom::Point2> pts,
                          const Options& opts = {});
FullHull2D convex_hull_2d(pram::Machine& m,
                          std::span<const geom::Point2> pts,
                          const Options& opts = {});

/// Upper hull of arbitrary-order 3-d points (Theorem 6; Las Vegas — the
/// result is always exact, used_fallback reports the repair path).
Hull3D upper_hull_3d(std::span<const geom::Point3> pts,
                     const Options& opts = {});
Hull3D upper_hull_3d(pram::Machine& m, std::span<const geom::Point3> pts,
                     const Options& opts = {});

}  // namespace iph
