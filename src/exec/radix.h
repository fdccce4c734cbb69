// Radix presort of floating-point coordinates.
//
// The native engine's front end. Every coordinate maps through an
// order-preserving u64 key, so unsigned digit order equals numeric
// order (the "radix sort the floats" trick of SNIPPETS.md Snippet 2 —
// that is what makes the presort linear-time instead of comparison-
// bound). lex_sort builds the lexicographic (x, then y, then original
// index) order that the hull scan and all "presorted" machinery assume
// in three linear steps:
//
//   1. a stable LSD radix sort of (x-key, index) pairs, 8 bits a pass.
//      The key travels with its index, so no pass reads keys[order[i]];
//      a digit that is the same in every key costs no pass, which drops
//      most of them for coordinates from a common range;
//   2. one gather of the points into that order;
//   3. each run of equal x put into (y-key, index) order. Runs already
//      in y order (every run of an all-distinct-x input, and copies of
//      one point) are left alone, short runs are insertion-sorted and
//      long ones radix-sorted by y-key, so even a single vertical column
//      stays linear.
//
// A second overload sorts a subset given by its input indices (the
// native engine's prune survivors): the first radix pass carries those
// indices, so nothing maps positions back and nothing outside the
// subset is keyed or gathered.
//
// Large inputs sort in parallel on the caller's ThreadPool: per-slice
// digit counts, one (digit, slice)-order prefix, per-slice stable
// scatter; the gather and the run ordering split [0, n) at run
// boundaries. Each step yields exactly the sequential result, so the
// order never depends on the pool shape.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/pool.h"
#include "geom/point.h"

namespace iph::exec {

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
/// and the points gathered into it. `pool` may be null (or the input
/// small): everything runs on the calling thread with the same result.
LexSorted lex_sort(std::span<const geom::Point2> pts, ThreadPool* pool);

/// lex_sort of the subset pts[sel[0]], pts[sel[1]], ... for strictly
/// increasing input indices `sel` (the native engine's prune
/// survivors). The first radix pass carries the input indices, so
/// order[i] is an index into `pts` and points[i] == pts[order[i]];
/// only the subset is keyed, sorted and gathered.
LexSorted lex_sort(std::span<const geom::Point2> pts,
                   std::span<const std::uint32_t> sel, ThreadPool* pool);

/// lex_sort's permutation alone.
std::vector<std::uint32_t> lex_sort_indices(
    std::span<const geom::Point2> pts, ThreadPool* pool);

}  // namespace iph::exec
