#include "exec/native_backend.h"

#include <algorithm>

#include "exec/radix.h"
#include "geom/predicates.h"

namespace iph::exec {

namespace {

using geom::Index;
using geom::Point2;

/// Below this many points everything runs inline on the calling thread
/// (sort, scan, edge walk) — the pool only pays off past it.
constexpr std::size_t kParCutoff = std::size_t{1} << 14;
/// Minimum points per fork-join slice for the chunk scans / edge walk.
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
/// steps over their concatenation.
std::vector<Index> merge(const Point2* p,
                         std::vector<std::vector<Index>>& chains) {
  std::vector<Index> v;
  for (std::vector<Index>& c : chains) {
    if (c.empty()) continue;
    if (v.empty()) {
      v = std::move(c);
      continue;
    }
    for (const Index k : c) push(p, v, k);
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

}  // namespace

NativeBackend::NativeBackend(unsigned threads) : pool_(threads) {}

HullRun NativeBackend::upper_hull(std::span<const Point2> pts,
                                  std::uint64_t /*seed*/, int /*alpha*/) {
  ThreadPool* pool = pool_for(pool_, pts.size());
  const LexSorted sorted = lex_sort(pts, pool);
  return finish(sorted.points.data(), sorted.order.data(), pts.size(), pool);
}

HullRun NativeBackend::upper_hull_presorted(std::span<const Point2> pts,
                                            std::uint64_t /*seed*/,
                                            int /*alpha*/) {
  // The caller vouches for lex order: positions are the indices.
  return finish(pts.data(), nullptr, pts.size(), pool_for(pool_, pts.size()));
}

HullRun NativeBackend::finish(const Point2* p, const std::uint32_t* order,
                              std::size_t n, ThreadPool* pool) {
  HullRun out;
  out.hull.edge_above.assign(n, geom::kNone);
  if (n == 0) return out;

  // Chunk scans. As in the sequential scan, the first x column enters
  // only through its last (topmost) point; every other chunk pushes from
  // its own first point, so which copy of a duplicated point names a
  // vertex does not depend on where the chunks split.
  std::size_t lead = 0;
  while (lead + 1 < n && p[lead + 1].x == p[0].x) ++lead;
  std::vector<std::vector<Index>> chains(slice_count(pool, n, kChainGrain));
  for_slices(pool, n, kChainGrain,
             [&](std::size_t b, std::size_t e, std::size_t s) {
               chains[s] = scan(p, std::max(b, lead), e);
             });
  std::vector<Index>& chain = out.hull.upper.vertices;
  chain = merge(p, chains);

  if (chain.size() >= 2) {
    for_slices(pool, n, kChainGrain,
               [&](std::size_t b, std::size_t e, std::size_t) {
                 walk(p, order, chain, b, e, out.hull.edge_above.data());
               });
  }
  if (order != nullptr) {
    for (Index& v : chain) v = order[v];
  }
  return out;
}

}  // namespace iph::exec
