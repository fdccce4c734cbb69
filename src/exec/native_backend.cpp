#include "exec/native_backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "exec/radix.h"
#include "geom/predicates.h"

namespace iph::exec {

namespace {

using geom::Index;
using geom::Point2;

/// Below this many points everything runs inline on the calling thread
/// (extremes, sort, scan, edge walk) — the pool only pays off past it.
constexpr std::size_t kParCutoff = std::size_t{1} << 14;
/// Minimum points per fork-join slice for the extremes pass, the chunk
/// scans and the edge passes.
constexpr std::size_t kChainGrain = std::size_t{1} << 13;

/// One monotone-chain step over lex-sorted `p`: add position i to chain
/// v — the same strict-hull rules as seq/upper_hull.cpp (an exact
/// duplicate is skipped, strict right turns only, a same-x successor is
/// lex-greater hence higher and replaces the top).
void push(const Point2* p, std::vector<Index>& v, std::size_t i) {
  const Point2& q = p[i];
  if (q == p[v.back()]) return;  // exact duplicate
  while (v.size() >= 2 &&
         geom::orient2d(p[v[v.size() - 2]], p[v.back()], q) >= 0) {
    v.pop_back();
  }
  if (p[v.back()].x == q.x) {
    v.back() = static_cast<Index>(i);
  } else {
    v.push_back(static_cast<Index>(i));
  }
}

/// Chain of positions [b, e) of `p`, pushed one by one after b.
std::vector<Index> scan(const Point2* p, std::size_t b, std::size_t e) {
  std::vector<Index> v;
  if (b >= e) return v;
  v.push_back(static_cast<Index>(b));
  for (std::size_t i = b + 1; i < e; ++i) push(p, v, i);
  return v;
}

/// The global chain from the slices' chains, in x order: the same push
/// steps over their concatenation, cut short where they stop popping.
/// Once pushing a chain's vertex j >= 1 pops nothing, the top two are
/// c[j-1]'s point and c[j]; c is a strict upper chain (x strictly
/// increasing, strict right turns), so every later vertex of c would be
/// appended unchanged, and is, in one insert. The merge then costs its
/// pops plus one copy, not a push per vertex.
std::vector<Index> merge(const Point2* p,
                         std::vector<std::vector<Index>>& chains) {
  std::vector<Index> v;
  for (std::vector<Index>& c : chains) {
    if (c.empty()) continue;
    if (v.empty()) {
      v = std::move(c);
      continue;
    }
    for (std::size_t j = 0; j < c.size(); ++j) {
      const std::size_t before = v.size();
      push(p, v, c[j]);
      if (j >= 1 && v.size() == before + 1) {
        v.insert(v.end(), c.begin() + static_cast<std::ptrdiff_t>(j) + 1,
                 c.end());
        break;
      }
    }
  }
  return v;
}

/// edge_above for sorted positions [b, e) against chain v (>= 2
/// vertices): the last edge whose left end is at or left of the point,
/// the right endpoint column taking the last edge — the paper's output
/// convention, same answer as seq::assign_edges_above. One binary search
/// finds the first vertex right of p[b]; from there the walk only moves
/// right. Writes out[order[i]], or out[i] when order is null.
void walk(const Point2* p, const std::uint32_t* order,
          const std::vector<Index>& v, std::size_t b, std::size_t e,
          Index* out) {
  const std::size_t h = v.size();
  std::size_t j = static_cast<std::size_t>(
      std::upper_bound(v.begin() + 1, v.end(), p[b].x,
                       [&](double x, Index k) { return x < p[k].x; }) -
      v.begin());
  for (std::size_t i = b; i < e; ++i) {
    const double x = p[i].x;
    while (j < h && p[v[j]].x <= x) ++j;
    out[order != nullptr ? order[i] : i] =
        static_cast<Index>(std::min(j, h - 1) - 1);
  }
}

/// The pool for an n-point run, or null to run it inline.
ThreadPool* pool_for(ThreadPool& pool, std::size_t n) noexcept {
  return n >= kParCutoff && pool.threads() > 1 ? &pool : nullptr;
}

// --- the extremes pass ------------------------------------------------

/// Running extremes of a range of points: lex-min, lex-max, max y,
/// max x+y and max y-x. Strict comparisons: on a tie the point taken
/// first stays. Only finite points give the chain meaning; filter_chain
/// sees to it.
struct Extremes {
  std::array<Point2, 5> pt;

  explicit Extremes(const Point2& q) { pt.fill(q); }

  void take(const Point2& q) noexcept {
    if (geom::lex_less(q, pt[0])) pt[0] = q;
    if (geom::lex_less(pt[1], q)) pt[1] = q;
    if (q.y > pt[2].y) pt[2] = q;
    if (q.x + q.y > pt[3].x + pt[3].y) pt[3] = q;
    if (q.y - q.x > pt[4].y - pt[4].x) pt[4] = q;
  }
};

/// Exact x -> hull-edge lookup for points off the sorted order: x maps
/// monotonically onto one of h buckets spanning the vertex x's, and
/// upper_bound runs inside its bucket's vertex range only. Because the
/// map is monotone, every vertex of a lower bucket lies left of x and
/// every vertex of a higher one right of it, so the answer is
/// upper_bound over all vertices — O(1) expected, O(log h) at worst.
class EdgeLocator {
 public:
  /// The hull p[chain[0]], p[chain[1]], ...: >= 2 vertices, x strictly
  /// increasing.
  EdgeLocator(const Point2* p, const std::vector<Index>& chain)
      : h_(chain.size()), vx_(h_) {
    for (std::size_t j = 0; j < h_; ++j) vx_[j] = p[chain[j]].x;
    x0_ = vx_[0];
    const double scale = static_cast<double>(h_) / (vx_[h_ - 1] - x0_);
    if (std::isfinite(scale)) {
      buckets_ = h_;
      scale_ = scale;
    }
    // Count each bucket's vertices one slot up, then prefix-sum.
    first_.assign(buckets_ + 1, 0);
    for (std::size_t j = 0; j < h_; ++j) ++first_[bucket(vx_[j]) + 1];
    for (std::size_t k = 1; k <= buckets_; ++k) first_[k] += first_[k - 1];
  }

  /// seq::assign_edges_above's answer for x >= the first vertex's x.
  Index locate(double x) const noexcept {
    const std::size_t k = bucket(x);
    const std::size_t j = static_cast<std::size_t>(
        std::upper_bound(vx_.begin() + first_[k], vx_.begin() + first_[k + 1],
                         x) -
        vx_.begin());
    return static_cast<Index>(std::min(j, h_ - 1) - 1);
  }

 private:
  std::size_t bucket(double x) const noexcept {
    const double t = (x - x0_) * scale_;
    if (!(t >= 1.0)) return 0;
    return t < static_cast<double>(buckets_) ? static_cast<std::size_t>(t)
                                             : buckets_ - 1;
  }

  std::size_t h_;
  std::vector<double> vx_;
  double x0_ = 0;
  double scale_ = 0;
  std::size_t buckets_ = 1;
  /// first_[k]: the first vertex whose bucket is >= k (the number of
  /// vertices in lower buckets).
  std::vector<std::uint32_t> first_;
};

/// edge_above of the finite input points not in the sorted p: the
/// entries the walk left at kNone (a non-finite point's stays kNone).
/// `chain` holds positions in p (>= 2 of them), so the vertex x's are
/// read in order from the sorted copy.
void fill_dropped(std::span<const Point2> pts, const Point2* p,
                  const std::vector<Index>& chain, Index* out,
                  ThreadPool* pool) {
  const EdgeLocator locator(p, chain);
  for_slices(pool, pts.size(), kChainGrain,
             [&](std::size_t b, std::size_t e, std::size_t) {
               for (std::size_t i = b; i < e; ++i) {
                 if (out[i] == geom::kNone && geom::is_finite(pts[i])) {
                   out[i] = locator.locate(pts[i].x);
                 }
               }
             });
}

}  // namespace

FilterChain filter_chain(std::span<const Point2> pts, ThreadPool* pool) {
  const std::size_t n = pts.size();
  FilterChain c;
  if (n == 0) return c;
  std::vector<Extremes> part(slice_count(pool, n, kChainGrain),
                             Extremes(pts[0]));
  std::vector<std::uint64_t> nonfinite(part.size());
  for_slices(pool, n, kChainGrain,
             [&](std::size_t b, std::size_t e, std::size_t s) {
               Extremes x(pts[b]);
               std::uint64_t bits = geom::non_finite_bits(pts[b]);
               for (std::size_t i = b + 1; i < e; ++i) {
                 bits |= geom::non_finite_bits(pts[i]);
                 x.take(pts[i]);
               }
               part[s] = x;
               nonfinite[s] = bits;
             });
  // A point extreme overall is extreme in its own slice.
  Extremes ext = part[0];
  for (const Extremes& x : part) {
    for (const Point2& q : x.pt) ext.take(q);
  }
  c.all_finite = true;
  for (const std::uint64_t bits : nonfinite) c.all_finite &= (bits >> 63) == 0;
  if (!c.all_finite) {
    // A non-finite point may have won an extreme or, first in its slice,
    // frozen them all (no comparison with a NaN holds): take them again,
    // in one pass over the finite points alone.
    std::size_t f = 0;
    while (f < n && !geom::is_finite(pts[f])) ++f;
    if (f == n) return c;
    ext = Extremes(pts[f]);
    for (std::size_t i = f + 1; i < n; ++i) {
      if (geom::is_finite(pts[i])) ext.take(pts[i]);
    }
  }
  std::array<Point2, 5> q = ext.pt;
  std::sort(q.begin(), q.end(), [](const Point2& a, const Point2& b) {
    return geom::lex_less(a, b);
  });
  const std::vector<Index> chain = scan(q.data(), 0, q.size());
  c.size = chain.size();
  for (std::size_t j = 0; j < c.size; ++j) c.v[j] = q[chain[j]];
  c.split.fill(std::numeric_limits<double>::infinity());
  for (std::size_t j = 1; j + 1 < c.size; ++j) c.split[j - 1] = c.v[j].x;
  return c;
}

NativeBackend::NativeBackend(unsigned threads) : pool_(threads) {}

HullRun NativeBackend::upper_hull(std::span<const Point2> pts,
                                  std::uint64_t /*seed*/, int /*alpha*/,
                                  bool edge_above) {
  ThreadPool* pool = pool_for(pool_, pts.size());
  const LexSorted sorted = lex_sort(pts, filter_chain(pts, pool), pool);
  return finish(pts, sorted.points.data(), sorted.order.data(),
                sorted.order.size(), edge_above);
}

HullRun NativeBackend::upper_hull_presorted(std::span<const Point2> pts,
                                            std::uint64_t /*seed*/,
                                            int /*alpha*/, bool edge_above) {
  // The caller vouches for lex order: positions are the indices.
  return finish(pts, pts.data(), nullptr, pts.size(), edge_above);
}

HullRun NativeBackend::finish(std::span<const Point2> pts, const Point2* p,
                              const std::uint32_t* order, std::size_t m,
                              bool edge_above) {
  HullRun out;
  if (edge_above) out.hull.edge_above.assign(pts.size(), geom::kNone);
  if (m == 0) return out;
  ThreadPool* pool = pool_for(pool_, m);

  // Chunk scans. As in the sequential scan, the first x column enters
  // only through its last (topmost) point; every other chunk pushes from
  // its own first point, so which copy of a duplicated point names a
  // vertex does not depend on where the chunks split.
  std::size_t lead = 0;
  while (lead + 1 < m && p[lead + 1].x == p[0].x) ++lead;
  std::vector<std::vector<Index>> chains(slice_count(pool, m, kChainGrain));
  for_slices(pool, m, kChainGrain,
             [&](std::size_t b, std::size_t e, std::size_t s) {
               chains[s] = scan(p, std::max(b, lead), e);
             });
  std::vector<Index>& chain = out.hull.upper.vertices;
  chain = merge(p, chains);

  if (edge_above && chain.size() >= 2) {
    Index* above = out.hull.edge_above.data();
    for_slices(pool, m, kChainGrain,
               [&](std::size_t b, std::size_t e, std::size_t) {
                 walk(p, order, chain, b, e, above);
               });
    if (m < pts.size()) {
      fill_dropped(pts, p, chain, above, pool_for(pool_, pts.size()));
    }
  }
  if (order != nullptr) {
    for (Index& v : chain) v = order[v];
  }
  return out;
}

}  // namespace iph::exec
