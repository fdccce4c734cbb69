#include "geom/predicates.h"

#include <cmath>

namespace iph::geom {
namespace {

// --- Error-free transformations (Dekker/Knuth/Shewchuk) ---------------

struct TwoDouble {
  double hi;  // leading component
  double lo;  // roundoff
};

inline TwoDouble two_sum(double a, double b) noexcept {
  const double s = a + b;
  const double bb = s - a;
  const double err = (a - (s - bb)) + (b - bb);
  return {s, err};
}

inline TwoDouble two_diff(double a, double b) noexcept {
  const double s = a - b;
  const double bb = s - a;
  const double err = (a - (s - bb)) - (b + bb);
  return {s, err};
}

inline TwoDouble two_product(double a, double b) noexcept {
  const double p = a * b;
  const double err = std::fma(a, b, -p);
  return {p, err};
}

// A small floating-point expansion: components in increasing order of
// magnitude, pairwise nonoverlapping (Shewchuk's invariant). Built only
// via grow() so the invariant holds; sign() is then the sign of the
// largest-magnitude (last nonzero) component.
struct Expansion {
  double c[24];
  int n = 0;

  void grow(double b) noexcept {
    // grow_expansion with zero elimination: adding zero changes no
    // expansion, and a zero roundoff component carries nothing.
    if (b == 0.0) return;
    double q = b;
    int out = 0;
    for (int i = 0; i < n; ++i) {
      const TwoDouble s = two_sum(q, c[i]);
      q = s.hi;
      if (s.lo != 0.0) c[out++] = s.lo;
    }
    c[out++] = q;
    n = out;
  }

  int sign() const noexcept {
    for (int i = n - 1; i >= 0; --i) {
      if (c[i] > 0.0) return 1;
      if (c[i] < 0.0) return -1;
    }
    return 0;
  }
};

// Exact sign of (b.x-a.x)(d.y-c.y) - (b.y-a.y)(d.x-c.x). The coordinate
// differences are computed exactly as 2-expansions, the two products of
// 2-expansions contribute 8 exact partial products each, and the final
// expansion sum is exact; hence the sign is exact for all double inputs.
// A partial product with a zero factor is skipped: when every
// difference is exact (integer inputs, the collinear family) only the
// two leading products remain.
int cross_diff_exact(const Point2& a, const Point2& b, const Point2& c,
                     const Point2& d) noexcept {
  const TwoDouble l1 = two_diff(b.x, a.x);
  const TwoDouble l2 = two_diff(d.y, c.y);
  const TwoDouble r1 = two_diff(b.y, a.y);
  const TwoDouble r2 = two_diff(d.x, c.x);

  Expansion e;
  const auto add = [&e](TwoDouble s, TwoDouble t, double sign) {
    const double ss[2] = {s.lo, s.hi};
    const double ts[2] = {t.lo, t.hi};
    for (const double u : ss) {
      for (const double v : ts) {
        if (u == 0.0 || v == 0.0) continue;
        const TwoDouble p = two_product(u, v);
        e.grow(sign * p.lo);
        e.grow(sign * p.hi);
      }
    }
  };
  add(l1, l2, 1.0);
  add(r1, r2, -1.0);
  return e.sign();
}

}  // namespace

int cross_diff_sign(const Point2& a, const Point2& b, const Point2& c,
                    const Point2& d) noexcept {
  const detail::FilteredDet f = detail::filtered_det(a, b, c, d);
  if (f.det > f.bound) return 1;
  if (f.det < -f.bound) return -1;
  return cross_diff_exact(a, b, c, d);
}

int orient2d(const Point2& a, const Point2& b, const Point2& c) noexcept {
  return cross_diff_sign(a, b, a, c);
}

namespace {

// Long-double then __float128 evaluation of the 3x3 determinant. The
// double filter certifies almost every call; the __float128 fallback has
// 113-bit mantissa, exact for determinants of integer coordinates below
// ~2^37 per difference product chain, which covers the degenerate
// (integer-lattice) inputs the test suite uses.
int orient3d_slow(const Point3& a, const Point3& b, const Point3& c,
                  const Point3& d) noexcept {
  using Q = __float128;
  const Q adx = Q(a.x) - Q(d.x), ady = Q(a.y) - Q(d.y), adz = Q(a.z) - Q(d.z);
  const Q bdx = Q(b.x) - Q(d.x), bdy = Q(b.y) - Q(d.y), bdz = Q(b.z) - Q(d.z);
  const Q cdx = Q(c.x) - Q(d.x), cdy = Q(c.y) - Q(d.y), cdz = Q(c.z) - Q(d.z);
  const Q det = adx * (bdy * cdz - bdz * cdy) -
                ady * (bdx * cdz - bdz * cdx) +
                adz * (bdx * cdy - bdy * cdx);
  if (det > Q(0)) return 1;
  if (det < Q(0)) return -1;
  return 0;
}

constexpr double kO3Err = (7.0 + 56.0 * detail::kEps) * detail::kEps;

}  // namespace

int orient3d(const Point3& a, const Point3& b, const Point3& c,
             const Point3& d) noexcept {
  const double adx = a.x - d.x, ady = a.y - d.y, adz = a.z - d.z;
  const double bdx = b.x - d.x, bdy = b.y - d.y, bdz = b.z - d.z;
  const double cdx = c.x - d.x, cdy = c.y - d.y, cdz = c.z - d.z;

  const double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady, adxcdy = adx * cdy;
  const double adxbdy = adx * bdy, bdxady = bdx * ady;

  const double det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) +
                     cdz * (adxbdy - bdxady);
  const double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * std::fabs(adz) +
                           (std::fabs(cdxady) + std::fabs(adxcdy)) * std::fabs(bdz) +
                           (std::fabs(adxbdy) + std::fabs(bdxady)) * std::fabs(cdz);
  if (std::fabs(det) > kO3Err * permanent) {
    return det > 0.0 ? 1 : -1;
  }
  return orient3d_slow(a, b, c, d);
}

bool strictly_below_plane(const Point3& a, const Point3& b, const Point3& c,
                          const Point3& d) noexcept {
  // Make (a,b,c) counterclockwise in xy-projection, then "below" is
  // orient3d > 0 under our sign convention.
  const int ccw = orient2d_xy(a, b, c);
  if (ccw == 0) return false;  // vertical plane: nothing is below it
  const int s = orient3d(a, b, c, d);
  return ccw > 0 ? s > 0 : s < 0;
}

bool on_or_below_plane(const Point3& a, const Point3& b, const Point3& c,
                       const Point3& d) noexcept {
  const int ccw = orient2d_xy(a, b, c);
  if (ccw == 0) return false;
  const int s = orient3d(a, b, c, d);
  return ccw > 0 ? s >= 0 : s <= 0;
}

int orient2d_xy(const Point3& a, const Point3& b, const Point3& c) noexcept {
  return orient2d(Point2{a.x, a.y}, Point2{b.x, b.y}, Point2{c.x, c.y});
}

bool xy_in_triangle(const Point3& a, const Point3& b, const Point3& c,
                    const Point3& q) noexcept {
  const int ccw = orient2d_xy(a, b, c);
  if (ccw == 0) return false;  // degenerate projection
  const Point2 pa{a.x, a.y}, pb{b.x, b.y}, pc{c.x, c.y}, pq{q.x, q.y};
  if (ccw > 0) {
    return orient2d(pa, pb, pq) >= 0 && orient2d(pb, pc, pq) >= 0 &&
           orient2d(pc, pa, pq) >= 0;
  }
  return orient2d(pa, pb, pq) <= 0 && orient2d(pb, pc, pq) <= 0 &&
         orient2d(pc, pa, pq) <= 0;
}

}  // namespace iph::geom
