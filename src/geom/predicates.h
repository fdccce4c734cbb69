// Orientation predicates with static floating-point filters.
//
// All branching in the hull algorithms reduces to the sign of a small
// determinant. We evaluate in double with a forward error bound; if the
// result is not certain we re-evaluate in long double (64-bit mantissa on
// x86); for orient2d an exact fallback via error-free transformations
// (two-product / two-sum expansions, Shewchuk-style) settles every case.
// orient3d falls back to __float128 (113-bit mantissa), which is exact for
// the integer-valued coordinate ranges our degenerate-geometry tests use
// (|coord| < 2^26) and far below the noise floor for the random workloads.
//
// Sign conventions:
//   orient2d(a,b,c)  > 0  iff c lies to the LEFT of the directed line a->b
//                          (counterclockwise turn).
//   orient3d(a,b,c,d) > 0 iff d lies BELOW the plane through a,b,c when
//                          a,b,c appear counterclockwise seen from above
//                          (i.e. the signed volume of the tetrahedron
//                          (a,b,c,d) is positive).
#pragma once

#include <cmath>

#include "geom/point.h"

namespace iph::geom {

namespace detail {
/// Shewchuk's static filter bound: the double evaluation of the 2x2
/// determinant of differences errs by less than kO2Err * (|detleft| +
/// |detright|), so a larger magnitude certifies the sign.
constexpr double kEps = 1.1102230246251565e-16;  // 2^-53
constexpr double kO2Err = (3.0 + 16.0 * kEps) * kEps;
/// The bound assumes no product underflowed; below this sum of product
/// magnitudes the filter certifies nothing.
constexpr double kO2Min = 0x1p-900;

/// (b.x-a.x)(d.y-c.y) - (b.y-a.y)(d.x-c.x) in double, and the bound its
/// magnitude must exceed for its sign to be certain: +inf (nothing is
/// certain) at underflow scale; overflow and NaN certify nothing either.
/// Computed without branches.
struct FilteredDet {
  double det;
  double bound;
};
inline FilteredDet filtered_det(const Point2& a, const Point2& b,
                                const Point2& c, const Point2& d) noexcept {
  const double detleft = (b.x - a.x) * (d.y - c.y);
  const double detright = (b.y - a.y) * (d.x - c.x);
  const double detsum = std::fabs(detleft) + std::fabs(detright);
  return {detleft - detright,
          detsum >= kO2Min ? kO2Err * detsum : HUGE_VAL};
}
}  // namespace detail

/// Sign of the 2x2 orientation determinant. Returns -1, 0 or +1.
int orient2d(const Point2& a, const Point2& b, const Point2& c) noexcept;

/// True when orient2d's static filter alone certifies orient2d(a, b, c)
/// < 0 — c strictly right of the directed line a->b; false when the sign
/// is not negative or not certain. No branch and no exact fallback: for
/// per-point passes where only a certified answer may act.
inline bool orient2d_certified_negative(const Point2& a, const Point2& b,
                                        const Point2& c) noexcept {
  const detail::FilteredDet f = detail::filtered_det(a, b, a, c);
  return f.det < -f.bound;
}

/// Exact sign of (b.x-a.x)(d.y-c.y) - (b.y-a.y)(d.x-c.x), i.e. the cross
/// product of vectors (a->b) and (c->d). orient2d(a,b,c) equals
/// cross_diff_sign(a,b,a,c). Used for exact slope comparisons in
/// Kirkpatrick-Seidel: sign(slope(ab) - slope(cd)) =
/// -cross_diff_sign(a,b,c,d) when b.x > a.x and d.x > c.x.
int cross_diff_sign(const Point2& a, const Point2& b, const Point2& c,
                    const Point2& d) noexcept;

/// Sign of the 3x3 orientation determinant. Returns -1, 0 or +1.
int orient3d(const Point3& a, const Point3& b, const Point3& c,
             const Point3& d) noexcept;

/// True iff p lies strictly below the line through a and b (a.x != b.x
/// is required; the line is interpreted as a graph over x).
/// For an upper-hull edge a->b with a.x < b.x, "below" is the inside.
inline bool strictly_below(const Point2& a, const Point2& b,
                           const Point2& p) noexcept {
  // With a.x < b.x, p below line ab <=> clockwise turn a->b->p.
  return orient2d(a, b, p) < 0;
}

/// True iff p lies on or below the line through a and b (a.x < b.x).
inline bool on_or_below(const Point2& a, const Point2& b,
                        const Point2& p) noexcept {
  return orient2d(a, b, p) <= 0;
}

/// True iff d lies strictly below the (non-vertical) plane through a,b,c.
/// Orientation-insensitive: works for either winding of (a,b,c).
bool strictly_below_plane(const Point3& a, const Point3& b, const Point3& c,
                          const Point3& d) noexcept;

/// True iff d lies on or below the (non-vertical) plane through a,b,c.
bool on_or_below_plane(const Point3& a, const Point3& b, const Point3& c,
                       const Point3& d) noexcept;

/// Sign of the xy-projected orientation of (a,b,c) — used for "does the
/// vertical line through q pierce triangle abc" tests in 3-d bridge
/// finding. Returns -1, 0, +1.
int orient2d_xy(const Point3& a, const Point3& b, const Point3& c) noexcept;

/// True iff the vertical line through q (its xy-projection) lies inside or
/// on the boundary of the xy-projection of triangle (a,b,c).
bool xy_in_triangle(const Point3& a, const Point3& b, const Point3& c,
                    const Point3& q) noexcept;

}  // namespace iph::geom
