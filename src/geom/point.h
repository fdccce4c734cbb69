// Plain value types for 2-d and 3-d points.
//
// Coordinates are doubles. The workload generators (workloads.h) emit
// coordinates in ranges for which the filtered predicates (predicates.h)
// decide orientation signs correctly; degenerate-geometry tests use
// integer-valued doubles so that zero determinants are exact.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>

namespace iph::geom {

struct Point2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point2&, const Point2&) = default;
};

/// Lexicographic (x, then y) order — the sort order assumed by all
/// "presorted" algorithms and by the upper-hull representation.
constexpr bool lex_less(const Point2& a, const Point2& b) noexcept {
  return a.x < b.x || (a.x == b.x && a.y < b.y);
}

/// Bit 63 set when p has a NaN or infinite coordinate (an exponent of
/// all ones carries into it), clear when both are finite. Integer
/// operations without a branch: OR it over many points and test once.
constexpr std::uint64_t non_finite_bits(const Point2& p) noexcept {
  constexpr std::uint64_t kExp = 0x7ff0000000000000ULL;
  constexpr std::uint64_t kCarry = 0x0010000000000000ULL;
  return ((std::bit_cast<std::uint64_t>(p.x) & kExp) + kCarry) |
         ((std::bit_cast<std::uint64_t>(p.y) & kExp) + kCarry);
}

/// True when both coordinates are finite.
constexpr bool is_finite(const Point2& p) noexcept {
  return (non_finite_bits(p) >> 63) == 0;
}

struct Point3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend constexpr bool operator==(const Point3&, const Point3&) = default;
};

constexpr bool lex_less(const Point3& a, const Point3& b) noexcept {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

}  // namespace iph::geom
