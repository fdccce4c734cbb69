// PramBackend — the paper's machinery behind the Backend seam.
//
// A thin adapter: reset the wrapped pram::Machine to the request's
// derived seed, run core/api's upper_hull_2d on it (Theorem 5 /
// Lemma 2.5 selection as usual), and hand back the hull plus the
// simulator's REAL cost metrics. This is byte-for-byte the execution
// path the serving batcher ran before the exec layer existed — the
// "serve/request" trace phase included — so bit-identity guarantees
// (batched == solo, determinism_test) carry over unchanged.
//
// Exclusivity: the backend drives the machine (reset, steps, observer
// callbacks), so the caller must hold exclusive access for the duration
// of every upper_hull call — in the serving layer each worker owns its
// machine and the PramBackend wrapping it for its whole lifetime.
#pragma once

#include "exec/backend.h"

namespace iph::pram {
class Machine;
}  // namespace iph::pram

namespace iph::exec {

class PramBackend final : public Backend {
 public:
  explicit PramBackend(pram::Machine& m) : m_(m) {}

  BackendKind kind() const noexcept override { return BackendKind::kPram; }

  using Backend::upper_hull;
  using Backend::upper_hull_presorted;

  /// Resets the machine to `seed`, runs the simulator, returns hull +
  /// per-request PRAM metrics (the machine's cumulative metrics after
  /// the reset, i.e. this request's alone). edge_above is always filled:
  /// the paper's algorithms produce it, asked or not.
  HullRun upper_hull(std::span<const geom::Point2> pts, std::uint64_t seed,
                     int alpha, bool edge_above) override;

  /// Presorted fast path (backend.h): runs the paper's presorted
  /// algorithms (core/api upper_hull_2d_presorted — Lemma 2.5 by
  /// default) instead of the Theorem 5 unsorted pipeline. Same reset /
  /// metrics / edge_above semantics as upper_hull.
  HullRun upper_hull_presorted(std::span<const geom::Point2> pts,
                               std::uint64_t seed, int alpha,
                               bool edge_above) override;

 private:
  pram::Machine& m_;
};

}  // namespace iph::exec
