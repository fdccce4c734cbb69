#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "geom/point.h"
#include "geom/predicates.h"
#include "support/rng.h"

namespace iph::geom {
namespace {

TEST(Orient2D, BasicTurns) {
  const Point2 a{0, 0}, b{1, 0};
  EXPECT_EQ(orient2d(a, b, {0.5, 1}), 1);    // left / ccw
  EXPECT_EQ(orient2d(a, b, {0.5, -1}), -1);  // right / cw
  EXPECT_EQ(orient2d(a, b, {2, 0}), 0);      // collinear
}

TEST(Orient2D, ExactOnTinyPerturbations) {
  // Points nearly collinear: c on the line then nudged by one ulp.
  const Point2 a{0, 0}, b{1e6, 1e6};
  const double y = 5e5;
  EXPECT_EQ(orient2d(a, b, {5e5, y}), 0);
  EXPECT_EQ(orient2d(a, b, {5e5, std::nextafter(y, 1e9)}), 1);
  EXPECT_EQ(orient2d(a, b, {5e5, std::nextafter(y, -1e9)}), -1);
}

TEST(Orient2D, AntiSymmetry) {
  support::Rng rng(2024, 1);
  for (int i = 0; i < 2000; ++i) {
    const Point2 a{rng.next_double() * 1e6, rng.next_double() * 1e6};
    const Point2 b{rng.next_double() * 1e6, rng.next_double() * 1e6};
    const Point2 c{rng.next_double() * 1e6, rng.next_double() * 1e6};
    EXPECT_EQ(orient2d(a, b, c), -orient2d(b, a, c));
    EXPECT_EQ(orient2d(a, b, c), orient2d(b, c, a));
    EXPECT_EQ(orient2d(a, b, c), -orient2d(a, c, b));
  }
}

TEST(Orient2D, DegenerateIntegerGrid) {
  // Every triple from a small integer grid: filtered result must equal a
  // straightforward exact integer evaluation.
  for (int ax = -3; ax <= 3; ++ax)
    for (int ay = -3; ay <= 3; ++ay)
      for (int bx = -3; bx <= 3; ++bx)
        for (int by = -3; by <= 3; ++by) {
          const long long det = static_cast<long long>(bx - ax) * (2 - ay) -
                                static_cast<long long>(by - ay) * (1 - ax);
          const int want = det > 0 ? 1 : det < 0 ? -1 : 0;
          EXPECT_EQ(orient2d({double(ax), double(ay)}, {double(bx), double(by)},
                             {1.0, 2.0}),
                    want);
        }
}

TEST(CrossDiffSign, MatchesOrient2D) {
  support::Rng rng(7, 2);
  for (int i = 0; i < 1000; ++i) {
    const Point2 a{rng.next_double(), rng.next_double()};
    const Point2 b{rng.next_double(), rng.next_double()};
    const Point2 c{rng.next_double(), rng.next_double()};
    EXPECT_EQ(cross_diff_sign(a, b, a, c), orient2d(a, b, c));
  }
}

TEST(CrossDiffSign, SlopeComparison) {
  // slope((0,0)->(2,1)) = 0.5 vs slope((0,0)->(3,2)) = 0.666:
  // sign(slope1 - slope2) = -cross_diff_sign(a1,b1,a2,b2).
  const Point2 a1{0, 0}, b1{2, 1}, a2{0, 0}, b2{3, 2};
  EXPECT_EQ(-cross_diff_sign(a1, b1, a2, b2), -1);
  // Equal slopes.
  EXPECT_EQ(cross_diff_sign({0, 0}, {2, 1}, {10, 7}, {14, 9}), 0);
}

TEST(CrossDiffSign, ExactBelowTheFilterScale) {
  // Coordinates k * 2^-537 with integer k, |k| < 2^40 (about 1e-150 and
  // down to 1e-161): every |detleft| + |detright| is below 2^-900, where
  // the static filter certifies nothing, and every partial product of
  // the exact expansion is a multiple of 2^-1074, so it stays exact.
  // Half the draws keep |k| < 2^8, where the products are subnormal.
  // Each sign must be the integer determinant's, and the same integers
  // at unit scale (the filter's ordinary range) must agree.
  using K = std::array<std::int64_t, 2>;
  const auto tiny = [](const K& v) {
    return Point2{std::ldexp(static_cast<double>(v[0]), -537),
                  std::ldexp(static_cast<double>(v[1]), -537)};
  };
  const auto unit = [](const K& v) {
    return Point2{static_cast<double>(v[0]), static_cast<double>(v[1])};
  };
  const auto sign = [](const K& a, const K& b, const K& c, const K& d) {
    const __int128 det =
        static_cast<__int128>(b[0] - a[0]) * (d[1] - c[1]) -
        static_cast<__int128>(b[1] - a[1]) * (d[0] - c[0]);
    return det > 0 ? 1 : det < 0 ? -1 : 0;
  };
  support::Rng rng(13, 4);
  int signs[3] = {0, 0, 0};
  for (int i = 0; i < 6000; ++i) {
    const int bits = i % 2 == 0 ? 40 : 8;
    const auto k = [&] {
      return static_cast<std::int64_t>(rng.next_u64() >> (63 - bits)) -
             (std::int64_t{1} << bits);
    };
    const K a{k(), k()}, b{k(), k()};
    // c on the line a->b, or 1 unit above or below it, or anywhere.
    const std::int64_t m = static_cast<std::int64_t>(rng.next_u64() % 5) - 2;
    const std::int64_t nudge = static_cast<std::int64_t>(i / 2 % 4) - 1;
    const K c = nudge == 2 ? K{k(), k()}
                           : K{a[0] + m * (b[0] - a[0]),
                               a[1] + m * (b[1] - a[1]) + nudge};
    // d - c parallel to b - a, or 1 unit off parallel, or anywhere.
    const K d = nudge == 2 ? K{k(), k()}
                           : K{c[0] + m * (b[0] - a[0]),
                               c[1] + m * (b[1] - a[1]) + nudge};
    const int want3 = sign(a, b, a, c);
    const int want4 = sign(a, b, c, d);
    ++signs[want3 + 1];
    EXPECT_TRUE(std::isinf(detail::filtered_det(tiny(a), tiny(b), tiny(c),
                                                tiny(d)).bound))
        << "draw " << i << " is not below the filter's scale";
    EXPECT_EQ(orient2d(tiny(a), tiny(b), tiny(c)), want3) << "draw " << i;
    EXPECT_EQ(orient2d(unit(a), unit(b), unit(c)), want3) << "draw " << i;
    EXPECT_EQ(cross_diff_sign(tiny(a), tiny(b), tiny(c), tiny(d)), want4)
        << "draw " << i;
    EXPECT_EQ(cross_diff_sign(unit(a), unit(b), unit(c), unit(d)), want4)
        << "draw " << i;
    EXPECT_FALSE(orient2d_certified_negative(tiny(a), tiny(b), tiny(c)))
        << "draw " << i;
  }
  for (const int count : signs) EXPECT_GT(count, 0);
}

TEST(CrossDiffSign, ExactDifferencesOnCollinearIntegers) {
  // Integer coordinates below 2^40, so every coordinate difference is
  // exact and the exact path skips the zero low parts. Two draws in
  // three put c on the line a->b and d - c parallel to it: the
  // determinant is 0, which the static filter never certifies. The
  // third has b - a = (p, q) and c - a = (r, s) with p*s - q*r = +-1
  // and p, q near 2^30: the products near 2^60 round to the same
  // double, so only their own low parts decide the sign. Each sign must
  // be the __int128 determinant's.
  using K = std::array<std::int64_t, 2>;
  const auto pt = [](const K& v) {
    return Point2{static_cast<double>(v[0]), static_cast<double>(v[1])};
  };
  const auto sign = [](const K& a, const K& b, const K& c, const K& d) {
    const __int128 det =
        static_cast<__int128>(b[0] - a[0]) * (d[1] - c[1]) -
        static_cast<__int128>(b[1] - a[1]) * (d[0] - c[0]);
    return det > 0 ? 1 : det < 0 ? -1 : 0;
  };
  /// (r, s) with p*s - q*r = 1 for coprime p, q > 0 (extended Euclid).
  const auto bezout = [](std::int64_t p, std::int64_t q) {
    std::int64_t r0 = p, r1 = q, s0 = 1, s1 = 0, t0 = 0, t1 = 1;
    while (r1 != 0) {
      const std::int64_t k = r0 / r1;
      r0 -= k * r1;
      std::swap(r0, r1);
      s0 -= k * s1;
      std::swap(s0, s1);
      t0 -= k * t1;
      std::swap(t0, t1);
    }
    return r0 == 1 ? K{-t0, s0} : K{0, 0};  // p*s0 + q*t0 = 1
  };
  support::Rng rng(17, 5);
  const auto k = [&](int b) {
    return static_cast<std::int64_t>(rng.next_u64() >> (63 - b)) -
           (std::int64_t{1} << b);
  };
  int signs[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    const K a{k(39), k(39)};
    K b, c, d;
    if (i % 3 == 0) {
      const std::int64_t p = (std::int64_t{1} << 30) + k(20);
      const std::int64_t q = (std::int64_t{1} << 30) + k(20);
      const K rs = bezout(p, q);
      if (rs == K{0, 0}) continue;  // not coprime
      const std::int64_t flip = i % 2 == 0 ? 1 : -1;
      b = {a[0] + p, a[1] + q};
      c = {a[0] + flip * rs[0], a[1] + flip * rs[1]};
      d = {c[0] + p, c[1] + q + flip};
    } else {
      const int bits = 8 + i % 32;  // direction magnitudes 2^7 .. 2^38
      const K dir{k(bits) >> 1, k(bits) >> 1};
      const std::int64_t m = static_cast<std::int64_t>(rng.next_u64() % 3) - 1;
      b = {a[0] + dir[0], a[1] + dir[1]};
      c = {a[0] + m * dir[0], a[1] + m * dir[1]};
      d = {c[0] + 2 * dir[0], c[1] + 2 * dir[1]};
    }
    const int want3 = sign(a, b, a, c);
    const int want4 = sign(a, b, c, d);
    ++signs[want3 + 1];
    EXPECT_EQ(orient2d(pt(a), pt(b), pt(c)), want3) << "draw " << i;
    EXPECT_EQ(cross_diff_sign(pt(a), pt(b), pt(c), pt(d)), want4)
        << "draw " << i;
  }
  for (const int count : signs) EXPECT_GT(count, 1000);
}

TEST(BelowLine, Basics) {
  const Point2 a{0, 0}, b{10, 0};
  EXPECT_TRUE(strictly_below(a, b, {5, -1}));
  EXPECT_FALSE(strictly_below(a, b, {5, 0}));
  EXPECT_TRUE(on_or_below(a, b, {5, 0}));
  EXPECT_FALSE(on_or_below(a, b, {5, 0.0001}));
}

TEST(Orient3D, SignConvention) {
  // (a,b,c) counterclockwise seen from above; d below the plane.
  const Point3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0};
  EXPECT_EQ(orient3d(a, b, c, {0.2, 0.2, -1}), 1);
  EXPECT_EQ(orient3d(a, b, c, {0.2, 0.2, 1}), -1);
  EXPECT_EQ(orient3d(a, b, c, {0.2, 0.2, 0}), 0);
}

TEST(Orient3D, ExactOnDegenerateLattice) {
  // Coplanar lattice points must give exactly zero.
  const Point3 a{0, 0, 0}, b{4, 0, 2}, c{0, 4, 2};
  EXPECT_EQ(orient3d(a, b, c, {4, 4, 4}), 0);  // d = b + c - a, coplanar
  EXPECT_EQ(orient3d(a, b, c, {4, 4, 3}), 1);
  EXPECT_EQ(orient3d(a, b, c, {4, 4, 5}), -1);
}

TEST(Orient3D, AntiSymmetryRandom) {
  support::Rng rng(11, 3);
  for (int i = 0; i < 500; ++i) {
    auto rp = [&] {
      return Point3{rng.next_double() * 1e5, rng.next_double() * 1e5,
                    rng.next_double() * 1e5};
    };
    const Point3 a = rp(), b = rp(), c = rp(), d = rp();
    EXPECT_EQ(orient3d(a, b, c, d), -orient3d(b, a, c, d));
    EXPECT_EQ(orient3d(a, b, c, d), orient3d(b, c, a, d));
  }
}

TEST(PlaneSidedness, WindingInsensitive) {
  const Point3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0};
  const Point3 below{0.2, 0.2, -3}, above{0.2, 0.2, 3};
  EXPECT_TRUE(strictly_below_plane(a, b, c, below));
  EXPECT_TRUE(strictly_below_plane(a, c, b, below));  // reversed winding
  EXPECT_FALSE(strictly_below_plane(a, b, c, above));
  EXPECT_FALSE(strictly_below_plane(a, c, b, above));
  EXPECT_TRUE(on_or_below_plane(a, b, c, {0.1, 0.1, 0}));
  EXPECT_FALSE(strictly_below_plane(a, b, c, {0.1, 0.1, 0}));
}

TEST(PlaneSidedness, VerticalPlaneRejects) {
  // a,b,c collinear in xy-projection => vertical plane; nothing below.
  const Point3 a{0, 0, 0}, b{1, 0, 5}, c{2, 0, -7};
  EXPECT_FALSE(strictly_below_plane(a, b, c, {0.5, 1, -100}));
  EXPECT_FALSE(on_or_below_plane(a, b, c, {0.5, 1, -100}));
}

TEST(XYInTriangle, ContainsAndExcludes) {
  const Point3 a{0, 0, 9}, b{4, 0, 9}, c{0, 4, 9};
  EXPECT_TRUE(xy_in_triangle(a, b, c, {1, 1, 0}));
  EXPECT_TRUE(xy_in_triangle(a, b, c, {0, 0, -5}));   // vertex
  EXPECT_TRUE(xy_in_triangle(a, b, c, {2, 0, 0}));    // edge
  EXPECT_FALSE(xy_in_triangle(a, b, c, {3, 3, 0}));   // outside
  EXPECT_FALSE(xy_in_triangle(a, b, c, {-0.1, 0, 0}));
  // Winding-insensitive.
  EXPECT_TRUE(xy_in_triangle(a, c, b, {1, 1, 0}));
  EXPECT_FALSE(xy_in_triangle(a, c, b, {3, 3, 0}));
}

TEST(Orient2DXY, ProjectsZAway) {
  EXPECT_EQ(orient2d_xy({0, 0, 1}, {1, 0, -2}, {0.5, 1, 42}), 1);
  EXPECT_EQ(orient2d_xy({0, 0, 3}, {1, 0, 4}, {2, 0, -1}), 0);
}

}  // namespace
}  // namespace iph::geom
