// Radix presort of floating-point coordinates, with the native engine's
// prune inside it, run where the points lie.
//
// The native engine's front end. It builds the lexicographic (x, then
// y, then input index) order that the hull scan and all "presorted"
// machinery assume, under an order-preserving u64 key of each
// coordinate (double_key: unsigned key order is numeric order, -0.0 and
// +0.0 share a key; SNIPPETS.md Snippet 2's "radix sort the floats"
// trick), of the finite points a FilterChain keeps. It is one most-
// significant-digit-first sort that moves the points it keeps inside
// one buffer, with their input indices beside them:
//
//   1. a count pass tests each point against the chain, keeps one
//      survivor bit per point, and counts the survivors by their slice
//      of the survivors' finite x range (up to 2^kSortFanBits equal
//      slices, a map monotone in key order that, unlike a key digit,
//      does not lump a binade together). lex_sort_in_place packs each
//      pool slice's survivors to that slice's front as it counts, and
//      the runs then close up at the front of the caller's buffer;
//      lex_sort packs them from the bits into a fresh buffer. Without
//      such a range (one x, or one whose width overflows) there is one
//      bucket;
//   2. the top pass distributes the packed survivors into those buckets.
//      Up to 2^14 survivors it is one more bucket, distributed through
//      the scratch (below); lex_sort, which has a fresh buffer to fill,
//      packs each survivor straight into its bucket there instead, so
//      its pack is the pass. Past 2^14 it runs in place: on the pool it
//      first splits the survivors into one group of adjacent buckets
//      per slice, halving the groups each time by a parallel partition
//      (each slice partitions its chunk without a branch, then the
//      points on the wrong side of the cut trade places pairwise); then
//      each slice fills its group's buckets with distribute_in_place,
//      which keeps four swap chains in flight from the head of the
//      bucket being filled and prefetches the slots it writes, so a pass
//      over 2^11 buckets is not bound by one cache miss at a time;
//   3. every bucket then finishes on its own, in cache: one above
//      kSortLeaf points is distributed again by its own top differing
//      digit (of the x-key, of the y-key once its x-keys are all equal,
//      of the index once its points are all copies), through the
//      slice's bounded scratch or, past it, in place by the same
//      routine; a leaf is insertion-sorted. The fan-out follows the
//      bucket's size (about one bucket per two points, at most
//      2^kSortFanBits). Each slice finishes the buckets of its group.
//
// The two entries share every pass; they differ only in where the pack
// writes. Workspace beyond the caller's buffer and the u32 permutation:
// one bit per input point, per-slice top-level counts, and at most one
// scratch buffer of 2^14 entries (384 KiB) per slice, sized once per
// call and reused at every level. No key arrays (keys are recomputed
// from the points) and no list of the survivors. lex_sort's fresh
// buffer adds 16 B per survivor.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/pool.h"
#include "geom/point.h"

namespace iph::exec {

/// lex_sort's fixed shape. A bucket of at most kSortLeaf points is one
/// insertion sort; a distribution pass splits at most 2^kSortFanBits
/// ways; a bucket of at most kSortScratchPoints points is distributed
/// through its slice's scratch (copy out, scatter back), a larger one in
/// place; from kSortParCutoff input points the count pass, the top pass
/// and the buckets run on the pool.
inline constexpr std::size_t kSortLeaf = 32;
inline constexpr unsigned kSortFanBits = 11;
inline constexpr std::size_t kSortScratchPoints = std::size_t{1} << 14;
inline constexpr std::size_t kSortParCutoff = std::size_t{1} << 15;

/// Order-preserving u64 key of a double: double_key(a) < double_key(b)
/// iff a < b, with -0.0 collapsed onto +0.0 (lex_less treats them as
/// equal, so the sort must too).
std::uint64_t double_key(double d) noexcept;

/// A point span in lexicographic order: points[i] == pts[order[i]].
struct LexSorted {
  std::vector<std::uint32_t> order;
  std::vector<geom::Point2> points;
};

/// The native engine's prune: the strict upper chain (x strictly
/// increasing) of five extreme input points, from filter_chain
/// (native_backend.h). A point strictly below a segment between two
/// input points is strictly below the upper hull at its x: not a vertex,
/// not a copy of one and not the top of a vertex's column.
struct FilterChain {
  std::array<geom::Point2, 5> v;
  std::size_t size = 0;
  /// x of the interior vertices v[1], v[2], v[3], padded with +inf: the
  /// edge over x is the number of them strictly left of x.
  std::array<double, 3> split{};
  /// True when every input point is known to be finite (filter_chain
  /// tested each), so the sort need not test them again; a chain built
  /// any other way leaves it false.
  bool all_finite = false;

  /// False for a chain with nothing to prune against (one column, or
  /// no finite point), which keeps every finite point.
  bool prunes() const noexcept { return size >= 2; }
  /// For a chain that prunes: true when orient2d's static filter
  /// certifies p strictly below the chain edge over p.x. The chain's
  /// ends are the lex-min and lex-max finite points, so every finite x
  /// lies in its range. Uncertain points are kept, so the test never
  /// runs the exact fallback. Branch-free: on a circle it is a coin flip.
  bool drops(const geom::Point2& p) const noexcept;
};

/// The lexicographic (x, then y, then original index) order of `pts`
/// and the points in it. `pool` may be null (or the input small):
/// everything runs on the calling thread with the same result.
LexSorted lex_sort(std::span<const geom::Point2> pts, ThreadPool* pool);

/// lex_sort of the points of `pts` that are finite (geom::is_finite)
/// and that `chain` does not drop (a chain that does not prune drops
/// none): order[i] is an input index and points[i] == pts[order[i]].
LexSorted lex_sort(std::span<const geom::Point2> pts,
                   const FilterChain& chain, ThreadPool* pool);

/// lex_sort's permutation alone.
std::vector<std::uint32_t> lex_sort_indices(
    std::span<const geom::Point2> pts, ThreadPool* pool);

/// What lex_sort_in_place did to the caller's buffer.
struct InPlaceSort {
  /// order[i] is the input index of the point now at pts[i]: one entry
  /// per survivor, or one per input point when the dropped points were
  /// kept.
  std::vector<std::uint32_t> order;
  /// m: pts[0, m) holds the survivors, in lexicographic order.
  std::size_t survivors = 0;
};

/// lex_sort(pts, chain, pool), done in `pts` itself: afterwards pts[0, m)
/// are the points that lex_sort would return, in the same order, and
/// order[i] their input indices. With `keep_dropped`, pts[m, n) holds
/// the other points (dropped or not finite) in no particular order, with
/// their input indices in order[m, n); without it, pts[m, n) is
/// unspecified and order has m entries.
InPlaceSort lex_sort_in_place(std::span<geom::Point2> pts,
                              const FilterChain& chain, bool keep_dropped,
                              ThreadPool* pool);

}  // namespace iph::exec
