// NativeBackend — the direct thread-parallel 2-d upper-hull engine.
//
// The fast path behind iph::serve: no PRAM simulation, no per-step
// barrier. The engine only computes the upper hull, so it drops every
// point that provably cannot reach it as it sorts, then runs linear
// passes with sequential access over a contiguous lex-ordered array —
//
//   1. extremes (filter_chain, below): one parallel pass picks five
//      extreme finite input points (lex-min, lex-max, max y, max x+y,
//      max y-x) and builds their strict upper chain, the filter of the
//      Akl–Toussaint stage of arXiv:2209.12310,
//   2. the presort (exec/radix.h) with the prune inside it: its count
//      pass drops each point that orient2d's static filter certifies
//      strictly below the chain (radix.h FilterChain: no vertex index
//      can change) and each non-finite point (see below), and packs the
//      survivors; the top pass distributes them into x buckets in place,
//      then each bucket finishes in cache — no survivor list, no key
//      arrays, no gather,
//   3. fork-join chunk scans: each pool slice monotone-scans its
//      contiguous x-range of the sorted survivors (pbbsbench-hull style
//      leaf parallelism), keeping its stack in its own part of one chain
//      buffer of one entry per survivor,
//   4. one merge of the chunk chains into the global strict upper hull —
//      a point on the global hull is on its chunk's hull, so the merge
//      is the same scan over the concatenated chains; it fills the front
//      of that buffer in place, and the buffer, mapped through the
//      sort's permutation, is the answer's vertex list,
//   5. edge_above, only when asked: a sliced walk of the sorted survivors
//      against the chain (one binary search seeds each slice, then x
//      only moves right), and for each dropped point an exact bucketed
//      lookup over the hull's vertex x's (a monotone map of x to a
//      bucket, then upper_bound inside it: O(1) expected, O(log h) at
//      worst). Not asked, edge_above stays empty.
//
// Two entries run stages 1–5. upper_hull_in_place sorts the caller's own
// buffer where it lies and carries only the u32 permutation back to
// input indices: besides that buffer and the answer, its workspace is
// the permutation (one entry per survivor; per input point when
// edge_above is asked, so that the dropped points stay behind the
// survivors with their indices), the chain buffer, one bit per input
// point and at most 384 KiB of bucket scratch per pool slice. The const
// upper_hull packs the survivors into a fresh buffer instead (16 B more
// per survivor) and reads the dropped points from its input; up to
// kSortScratchPoints points (2^14) upper_hull_in_place runs it, as its
// pack goes straight into the top-level buckets, one pass fewer.
// upper_hull_presorted runs stages 3–5 over the caller's span itself.
// Outputs are exact at every pool width and the same from every entry:
// vertex indices are those of the sequential scan (seq/upper_hull.h)
// over the (x, y, index) order of the whole input, which fixes the copy
// of a duplicated point that names a vertex, and edge_above, when asked,
// is seq::assign_edges_above's.
//
// A point with a NaN or infinite coordinate is not a point of the
// plane: the engine never takes it as an extreme, never keeps it in the
// sort, and leaves its edge_above entry at kNone, so the answer is the
// hull of the finite points, with input indices. Finite inputs pay one
// branch-free test per point for it (geom::non_finite_bits, ORed over
// the extremes pass); only when that pass saw a non-finite point are the
// extremes taken again and each point tested in the sort. The wire
// refuses such points before they get here.
// upper_hull_presorted's caller vouches for lex order, which only
// finite points have.
//
// All turn decisions go through geom/predicates' exact orient2d — the
// native engine and the PRAM simulator brace the same geometry, which
// is what makes the differential harness (tests/exec_diff_test) a
// meaningful oracle check and not a float-noise comparison. The prune's
// certified test is orient2d's own static filter
// (geom::orient2d_certified_negative).
//
// Small inputs (below a cutoff) run fully inline on the calling thread:
// the serving batcher's bread-and-butter queries never touch the pool.
// Every entry is safe to call concurrently from many threads (each call
// owns its buffers; upper_hull_in_place's callers must not share one
// buffer); results are deterministic and independent of thread count and
// of which calls run concurrently.
#pragma once

#include "exec/backend.h"
#include "exec/pool.h"
#include "exec/radix.h"

namespace iph::exec {

/// The engine's first pass: the filter chain (exec/radix.h) of `pts`,
/// from one parallel pass over the input for its five extremes, taken
/// again over the finite points alone when the input has a non-finite
/// one; a chain that does not prune when no point is finite.
FilterChain filter_chain(std::span<const geom::Point2> pts, ThreadPool* pool);

class NativeBackend final : public Backend {
 public:
  /// `threads` = total fork-join width (0 = support::env_threads()).
  /// The pool is spawned once here and shared by every upper_hull call.
  explicit NativeBackend(unsigned threads = 0);

  BackendKind kind() const noexcept override { return BackendKind::kNative; }
  unsigned threads() const noexcept { return pool_.threads(); }

  using Backend::upper_hull;
  using Backend::upper_hull_presorted;

  /// Strict upper hull, plus edge-above pointers when `edge_above` is
  /// set; otherwise HullResult2D::edge_above is left empty (backend.h
  /// contract). `seed` and `alpha` are simulator knobs the deterministic
  /// native engine ignores; its cost metrics report zero (see backend.h).
  HullRun upper_hull(std::span<const geom::Point2> pts, std::uint64_t seed,
                     int alpha, bool edge_above) override;

  /// upper_hull, sorting `pts` where it lies (backend.h: its contents
  /// are unspecified afterwards) past kSortScratchPoints points; up to
  /// there, upper_hull itself. Same answer, bit for bit.
  HullRun upper_hull_in_place(std::span<geom::Point2> pts,
                              std::uint64_t seed, int alpha,
                              bool edge_above) override;

  /// Presorted fast path (backend.h): no extremes and no sort —
  /// the chunked scan and the edge walk run over `pts` itself. Same
  /// edge_above, concurrency and determinism contracts as upper_hull.
  HullRun upper_hull_presorted(std::span<const geom::Point2> pts,
                               std::uint64_t seed, int alpha,
                               bool edge_above) override;

 private:
  /// Stages 3–4, and the survivors' half of stage 5, over p[0, m), the
  /// lex-sorted survivors of an n-point input; order[i] is the input
  /// index of p[i] (null: the identity). The vertices it returns are
  /// positions in p. With `edge_above`, one entry per input point: the
  /// walk fills the survivors', the rest stay kNone for fill_dropped.
  HullRun finish(const geom::Point2* p, const std::uint32_t* order,
                 std::size_t m, std::size_t n, bool edge_above);

  ThreadPool pool_;
};

}  // namespace iph::exec
