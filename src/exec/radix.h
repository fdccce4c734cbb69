// Radix presort of floating-point coordinates.
//
// The native engine's front end. It builds the lexicographic (x, then
// y, then input index) order that the hull scan and all "presorted"
// machinery assume, under an order-preserving u64 key of each
// coordinate (double_key: unsigned key order is numeric order, -0.0 and
// +0.0 share a key; SNIPPETS.md Snippet 2's "radix sort the floats"
// trick). It is one most-significant-digit-first sort, cache-local
// after its first pass:
//
//   1. one parallel pass finds the finite range of x, one counts the
//      points by their slice of it (up to 2^kSortFanBits equal slices,
//      a map monotone in key order that, unlike a key digit, does not
//      lump a binade together), and one scatters each point and its
//      input index from the caller's span straight into
//      LexSorted::points and LexSorted::order — per-slice counts, a
//      (slice, pool slice)-order prefix and a stable per-slice scatter,
//      so the result does not depend on the pool. Without such a range
//      (one x, or one whose width overflows) the pass is a plain copy;
//   2. every bucket then finishes on its own, in cache: one above
//      kSortLeaf points is distributed again by its own top differing
//      digit (of the x-key, of the y-key once its x-keys are all equal,
//      of the index once its points are all copies), through the
//      slice's bounded scratch or, past it, in place ("American flag");
//      a leaf is insertion-sorted. The fan-out follows the bucket's size
//      (about one bucket per two points, at most 2^kSortFanBits).
//      Pool slices own the top-level buckets that start in them.
//
// Workspace beyond the 20-byte-per-point output: no key arrays — keys
// are recomputed from the points — and at most one scratch buffer of
// 2^14 entries (384 KiB) per slice, sized once per call and reused at
// every level. The LSD sort this replaced held 16 B of keys and 8 B of
// indices per point besides its output.
//
// A second overload sorts a subset given by its input indices (the
// native engine's prune survivors): the first pass reads the subset
// through its index list, so nothing outside it is keyed or copied.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/pool.h"
#include "geom/point.h"

namespace iph::exec {

/// lex_sort's fixed shape. At most kSortLeaf points are one comparison
/// sort (whole inputs that small, and every leaf bucket); a distribution
/// pass splits at most 2^kSortFanBits ways; from kSortParCutoff points
/// the top-level passes and the buckets run on the pool.
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

/// The lexicographic (x, then y, then original index) order of `pts`
/// and the points in it. `pool` may be null (or the input small):
/// everything runs on the calling thread with the same result.
LexSorted lex_sort(std::span<const geom::Point2> pts, ThreadPool* pool);

/// lex_sort of the subset pts[sel[0]], pts[sel[1]], ... for strictly
/// increasing input indices `sel` (the native engine's prune
/// survivors). The first pass carries the input indices, so order[i]
/// is an index into `pts` and points[i] == pts[order[i]]; only the
/// subset is read and sorted.
LexSorted lex_sort(std::span<const geom::Point2> pts,
                   std::span<const std::uint32_t> sel, ThreadPool* pool);

/// lex_sort's permutation alone.
std::vector<std::uint32_t> lex_sort_indices(
    std::span<const geom::Point2> pts, ThreadPool* pool);

}  // namespace iph::exec
