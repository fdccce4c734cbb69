// Radix presort of floating-point coordinates, with the native engine's
// prune inside it.
//
// The native engine's front end. It builds the lexicographic (x, then
// y, then input index) order that the hull scan and all "presorted"
// machinery assume, under an order-preserving u64 key of each
// coordinate (double_key: unsigned key order is numeric order, -0.0 and
// +0.0 share a key; SNIPPETS.md Snippet 2's "radix sort the floats"
// trick), of the finite points a FilterChain keeps. It is one most-
// significant-digit-first sort, cache-local after its first pass:
//
//   1. a count pass tests each point against the chain, keeps one
//      survivor bit per point, and counts the survivors by their slice
//      of the survivors' finite x range (up to 2^kSortFanBits equal
//      slices, a map monotone in key order that, unlike a key digit,
//      does not lump a binade together). A scatter then reads only the
//      survivors, through those bits, and writes each point and its
//      input index straight into LexSorted::points and LexSorted::order
//      — per-slice counts, a (slice, pool slice)-order prefix and a
//      stable per-slice scatter, so the result does not depend on the
//      pool. Without such a range (one x, or one whose width overflows)
//      the pass is a plain copy;
//   2. every bucket then finishes on its own, in cache: one above
//      kSortLeaf points is distributed again by its own top differing
//      digit (of the x-key, of the y-key once its x-keys are all equal,
//      of the index once its points are all copies), through the
//      slice's bounded scratch or, past it, in place ("American flag");
//      a leaf is insertion-sorted. The fan-out follows the bucket's size
//      (about one bucket per two points, at most 2^kSortFanBits).
//      Pool slices own the top-level buckets that start in them.
//
// Workspace beyond the 20-byte-per-survivor output: one bit per input
// point, no key arrays — keys are recomputed from the points — and at
// most one scratch buffer of 2^14 entries (384 KiB) per slice, sized
// once per call and reused at every level. No list of the survivors is
// built.
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
/// ways; from kSortParCutoff input points the count and scatter passes
/// and the buckets run on the pool.
inline constexpr std::size_t kSortLeaf = 32;
inline constexpr unsigned kSortFanBits = 11;
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

}  // namespace iph::exec
