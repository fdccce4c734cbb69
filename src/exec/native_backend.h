// NativeBackend — the direct thread-parallel 2-d upper-hull engine.
//
// The fast path behind iph::serve: no PRAM simulation, no per-step
// barrier. After the presort every stage is one linear pass with
// sequential access over a contiguous lex-ordered array —
//
//   1. lex_sort (exec/radix.h): radix-sort (x-key, index) pairs, gather
//      the points once into lex order, order each equal-x run by y —
//      linear, not comparison-bound,
//   2. fork-join chunk scans: each pool slice monotone-scans its
//      contiguous x-range of the sorted array into a chunk chain
//      (pbbsbench-hull style leaf parallelism),
//   3. one merge of the chunk chains into the global strict upper hull —
//      a point on the global hull is on its chunk's hull, so the merge
//      is the same scan over the concatenated chains,
//   4. a sliced walk of the sorted order against the chain fills the
//      paper's edge-above output convention: one binary search seeds
//      each slice, then x only moves right.
//
// upper_hull_presorted runs stages 2–4 over the caller's span itself.
// Outputs are exact at every pool width: vertex indices are those of
// the sequential scan (seq/upper_hull.h) over the (x, y, index) order,
// which fixes the copy of a duplicated point that names a vertex, and
// edge_above is seq::assign_edges_above's.
//
// All turn decisions go through geom/predicates' exact orient2d — the
// native engine and the PRAM simulator brace the same geometry, which
// is what makes the differential harness (tests/exec_diff_test) a
// meaningful oracle check and not a float-noise comparison.
//
// Small inputs (below a cutoff) run fully inline on the calling thread:
// the serving batcher's bread-and-butter queries never touch the pool.
// upper_hull is safe to call concurrently from many threads; results
// are deterministic and independent of thread count and of which calls
// run concurrently.
#pragma once

#include "exec/backend.h"
#include "exec/pool.h"

namespace iph::exec {

class NativeBackend final : public Backend {
 public:
  /// `threads` = total fork-join width (0 = support::env_threads()).
  /// The pool is spawned once here and shared by every upper_hull call.
  explicit NativeBackend(unsigned threads = 0);

  BackendKind kind() const noexcept override { return BackendKind::kNative; }
  unsigned threads() const noexcept { return pool_.threads(); }

  /// Strict upper hull + edge-above pointers (backend.h contract).
  /// `seed` and `alpha` are simulator knobs the deterministic native
  /// engine ignores; its cost metrics report zero (see backend.h).
  HullRun upper_hull(std::span<const geom::Point2> pts, std::uint64_t seed,
                     int alpha) override;

  /// Presorted fast path (backend.h): no sort and no gather — the
  /// chunked scan and the edge walk run over `pts` itself. Same
  /// concurrency and determinism contracts as upper_hull.
  HullRun upper_hull_presorted(std::span<const geom::Point2> pts,
                               std::uint64_t seed, int alpha) override;

 private:
  /// Stages 2–4 over the lex-sorted p[0, n); order[i] is the input index
  /// of p[i] (null: the identity).
  HullRun finish(const geom::Point2* p, const std::uint32_t* order,
                 std::size_t n, ThreadPool* pool);

  ThreadPool pool_;
};

}  // namespace iph::exec
