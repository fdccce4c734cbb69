#include "exec/native_backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
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

/// One monotone-chain step over lex-sorted `p`: add position i to the
/// chain v[0, h), h >= 1, and return its new size — the same strict-hull
/// rules as seq/upper_hull.cpp (an exact duplicate is skipped, strict
/// right turns only, a same-x successor is lex-greater hence higher and
/// replaces the top). Writes v[h] at most.
std::size_t push(const Point2* p, Index* v, std::size_t h, std::size_t i) {
  const Point2& q = p[i];
  if (q == p[v[h - 1]]) return h;  // exact duplicate
  while (h >= 2 && geom::orient2d(p[v[h - 2]], p[v[h - 1]], q) >= 0) --h;
  if (p[v[h - 1]].x == q.x) {
    v[h - 1] = static_cast<Index>(i);
    return h;
  }
  v[h] = static_cast<Index>(i);
  return h + 1;
}

/// Chain of positions [b, e) of `p`, pushed one by one after b, into
/// v[0, size); returns its size (at most e - b).
std::size_t scan(const Point2* p, std::size_t b, std::size_t e, Index* v) {
  if (b >= e) return 0;
  v[0] = static_cast<Index>(b);
  std::size_t h = 1;
  for (std::size_t i = b + 1; i < e; ++i) h = push(p, v, h, i);
  return h;
}

/// The global chain from the slices' chains, in x order, in place: slice
/// s's chain is v[begin[s], begin[s] + size[s]), and the merge builds
/// the global one at v's front, whose size it returns. It pushes the
/// chains' vertices in turn, so the global chain never reaches past the
/// vertex being pushed. Once pushing a chain's vertex j >= 1 pops
/// nothing, the top two are c[j-1]'s point and c[j]; c is a strict upper
/// chain (x strictly increasing, strict right turns), so every later
/// vertex of c would be appended unchanged, and is, in one move. The
/// merge then costs its pops plus one copy, not a push per vertex.
std::size_t merge(const Point2* p, Index* v,
                  const std::vector<std::size_t>& begin,
                  const std::vector<std::size_t>& size) {
  std::size_t h = 0;
  for (std::size_t s = 0; s < begin.size(); ++s) {
    const Index* c = v + begin[s];
    const std::size_t len = size[s];
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t before = h;
      h = h == 0 ? (v[0] = c[j], 1) : push(p, v, h, c[j]);
      if (j >= 1 && h == before + 1) {
        std::memmove(v + h, c + j + 1, (len - j - 1) * sizeof(Index));
        h += len - j - 1;
        break;
      }
    }
  }
  return h;
}

/// edge_above for sorted positions [b, e) against the chain v[0, h),
/// h >= 2: the last edge whose left end is at or left of the point, the
/// right endpoint column taking the last edge — the paper's output
/// convention, same answer as seq::assign_edges_above. One binary
/// search finds the first vertex right of p[b]; from there the walk only
/// moves right. Writes out[order[i]], or out[i] when order is null.
void walk(const Point2* p, const std::uint32_t* order, const Index* v,
          std::size_t h, std::size_t b, std::size_t e, Index* out) {
  std::size_t j = static_cast<std::size_t>(
      std::upper_bound(v + 1, v + h, p[b].x,
                       [&](double x, Index k) { return x < p[k].x; }) -
      v);
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
  /// The hull's vertex x's, vx[j].x for j < h (gather_vertex_x): h >= 2,
  /// strictly increasing.
  EdgeLocator(const Point2* vx, std::size_t h)
      : vx_(vx), h_(h), x0_(vx[0].x) {
    const double scale = static_cast<double>(h_) / (vx_[h_ - 1].x - x0_);
    if (std::isfinite(scale)) {
      buckets_ = h_;
      scale_ = scale;
    }
    // Count each bucket's vertices one slot up, then prefix-sum.
    first_.assign(buckets_ + 1, 0);
    for (std::size_t j = 0; j < h_; ++j) ++first_[bucket(vx_[j].x) + 1];
    for (std::size_t k = 1; k <= buckets_; ++k) first_[k] += first_[k - 1];
  }

  /// seq::assign_edges_above's answer for x >= the first vertex's x.
  Index locate(double x) const noexcept {
    const std::size_t k = bucket(x);
    const std::size_t j = static_cast<std::size_t>(
        std::upper_bound(vx_ + first_[k], vx_ + first_[k + 1], x,
                         [](double a, const Point2& q) { return a < q.x; }) -
        vx_);
    return static_cast<Index>(std::min(j, h_ - 1) - 1);
  }

 private:
  std::size_t bucket(double x) const noexcept {
    const double t = (x - x0_) * scale_;
    if (!(t >= 1.0)) return 0;
    return t < static_cast<double>(buckets_) ? static_cast<std::size_t>(t)
                                             : buckets_ - 1;
  }

  const Point2* vx_;
  std::size_t h_;
  double x0_;
  double scale_ = 0;
  std::size_t buckets_ = 1;
  /// first_[k]: the first vertex whose bucket is >= k (the number of
  /// vertices in lower buckets).
  std::vector<std::uint32_t> first_;
};

/// Moves the x of vertex j, p[chain[j]].x, to p[j].x for each j < h: the
/// chain's positions increase, so no vertex's x is overwritten before it
/// is read. Once the walk is done the sorted survivors are spent, and the
/// front of their buffer becomes the edge lookup's table, with no copy.
void gather_vertex_x(Point2* p, const Index* chain, std::size_t h) {
  for (std::size_t j = 0; j < h; ++j) p[j].x = p[chain[j]].x;
}

/// edge_above of the finite points q[0, count) off the sorted order, whose
/// input indices are index[i] (i when null): the entries the walk left at
/// kNone (a non-finite point's stays kNone), against the h >= 2 vertex
/// x's vx[j].x.
void fill_dropped(const Point2* q, const std::uint32_t* index,
                  std::size_t count, const Point2* vx, std::size_t h,
                  Index* out, ThreadPool* pool) {
  const EdgeLocator locator(vx, h);
  for_slices(pool, count, kChainGrain,
             [&](std::size_t b, std::size_t e, std::size_t) {
               for (std::size_t i = b; i < e; ++i) {
                 Index& a = out[index != nullptr ? index[i] : i];
                 if (a == geom::kNone && geom::is_finite(q[i])) {
                   a = locator.locate(q[i].x);
                 }
               }
             });
}

/// Maps vertex positions in the sorted survivors to input indices.
void to_input(std::vector<Index>& v, const std::uint32_t* order) {
  for (Index& i : v) i = order[i];
}

/// Drops a returned vertex list's spare capacity once the sort's buffers
/// are gone: the chain buffer has one slot per survivor, and a disk's
/// hull is a few hundred of some 50,000.
void fit(std::vector<Index>& v) {
  if (2 * v.size() < v.capacity()) v.shrink_to_fit();
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
  std::array<Index, 5> chain;
  c.size = scan(q.data(), 0, q.size(), chain.data());
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
  HullRun run;
  {
    LexSorted sorted = lex_sort(pts, filter_chain(pts, pool), pool);
    const std::size_t m = sorted.order.size();
    run = finish(sorted.points.data(), sorted.order.data(), m, pts.size(),
                 edge_above);
    std::vector<Index>& v = run.hull.upper.vertices;
    const bool dropped = edge_above && v.size() >= 2 && m < pts.size();
    if (dropped) gather_vertex_x(sorted.points.data(), v.data(), v.size());
    to_input(v, sorted.order.data());
    // The dropped points' entries, still kNone, are filled from the
    // input, which holds them all; the permutation goes first.
    std::vector<std::uint32_t>().swap(sorted.order);
    if (dropped) {
      fill_dropped(pts.data(), nullptr, pts.size(), sorted.points.data(),
                   v.size(), run.hull.edge_above.data(), pool);
    }
  }
  fit(run.hull.upper.vertices);
  return run;
}

HullRun NativeBackend::upper_hull_in_place(std::span<Point2> pts,
                                           std::uint64_t seed, int alpha,
                                           bool edge_above) {
  // Up to one scratch's worth of points the copying entry is the faster:
  // it packs the survivors straight into their top-level buckets, where
  // the in-place pack would pass through the scratch and back. Its fresh
  // buffer costs at most 256 KiB there.
  if (pts.size() <= kSortScratchPoints) {
    return upper_hull(pts, seed, alpha, edge_above);
  }
  ThreadPool* pool = pool_for(pool_, pts.size());
  HullRun run;
  {
    const FilterChain chain = filter_chain(pts, pool);
    const InPlaceSort sorted =
        lex_sort_in_place(pts, chain, /*keep_dropped=*/edge_above, pool);
    const std::size_t m = sorted.survivors;
    const Point2* p = pts.data();
    const std::uint32_t* order = sorted.order.data();
    run = finish(p, order, m, pts.size(), edge_above);
    // The dropped points sit behind the survivors, with their indices.
    std::vector<Index>& v = run.hull.upper.vertices;
    if (edge_above && v.size() >= 2 && m < pts.size()) {
      gather_vertex_x(pts.data(), v.data(), v.size());
      fill_dropped(p + m, order + m, pts.size() - m, p, v.size(),
                   run.hull.edge_above.data(), pool);
    }
    to_input(v, order);
  }
  fit(run.hull.upper.vertices);
  return run;
}

HullRun NativeBackend::upper_hull_presorted(std::span<const Point2> pts,
                                            std::uint64_t /*seed*/,
                                            int /*alpha*/, bool edge_above) {
  // The caller vouches for lex order: positions are the indices.
  HullRun run = finish(pts.data(), nullptr, pts.size(), pts.size(),
                       edge_above);
  fit(run.hull.upper.vertices);
  return run;
}

HullRun NativeBackend::finish(const Point2* p, const std::uint32_t* order,
                              std::size_t m, std::size_t n,
                              bool edge_above) {
  HullRun out;
  if (edge_above) out.hull.edge_above.assign(n, geom::kNone);
  if (m == 0) return out;
  ThreadPool* pool = pool_for(pool_, m);

  // Chunk scans, each into its own part of the one chain buffer. As in
  // the sequential scan, the first x column enters only through its last
  // (topmost) point; every other chunk pushes from its own first point,
  // so which copy of a duplicated point names a vertex does not depend on
  // where the chunks split.
  std::size_t lead = 0;
  while (lead + 1 < m && p[lead + 1].x == p[0].x) ++lead;
  std::vector<Index>& chain = out.hull.upper.vertices;
  chain.resize(m);
  const std::size_t slices = slice_count(pool, m, kChainGrain);
  std::vector<std::size_t> begin(slices), size(slices);
  for_slices(pool, m, kChainGrain,
             [&](std::size_t b, std::size_t e, std::size_t s) {
               begin[s] = b;
               size[s] = scan(p, std::max(b, lead), e, chain.data() + b);
             });
  const std::size_t h = merge(p, chain.data(), begin, size);
  chain.resize(h);

  if (edge_above && h >= 2) {
    Index* above = out.hull.edge_above.data();
    for_slices(pool, m, kChainGrain,
               [&](std::size_t b, std::size_t e, std::size_t) {
                 walk(p, order, chain.data(), h, b, e, above);
               });
  }
  return out;
}

}  // namespace iph::exec
