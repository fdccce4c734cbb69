#include "exec/radix.h"

#include <array>
#include <cstring>
#include <numeric>
#include <utility>

namespace iph::exec {

namespace {

using geom::Point2;

constexpr std::size_t kBuckets = 256;
constexpr std::size_t kDigits = 8;  // 8-bit digits of a u64 key
/// Below this, parallel counting/scatter costs more than it saves.
constexpr std::size_t kParCutoff = std::size_t{1} << 15;
/// Slice grain for the parallel passes.
constexpr std::size_t kGrain = std::size_t{1} << 13;
/// Equal-x runs up to this long are insertion-sorted by y.
constexpr std::size_t kShortRun = 32;

using Hist = std::array<std::uint32_t, kBuckets>;

std::size_t digit(std::uint64_t key, std::size_t d) noexcept {
  return static_cast<std::size_t>((key >> (8 * d)) & 0xff);
}

/// Stable LSD radix sort of the keys key_of(0 .. n-1) carrying their
/// positions: returns perm with key_of(perm[0]) <= key_of(perm[1]) <=
/// ..., equal keys in position order. A digit that is the same in every
/// key costs no pass (the AND and the OR of all keys agree there). With
/// `carry`, position i is reported as carry[i] instead (the first pass
/// writes it, so no later step maps positions back).
template <class KeyOf>
std::vector<std::uint32_t> sort_by_key(std::size_t n, const KeyOf& key_of,
                                       const std::uint32_t* carry,
                                       ThreadPool* pool) {
  // Both key buffers in one block: once it is freed, the gather's point
  // array (the same 16 bytes per point) fits exactly where it was.
  std::vector<std::uint64_t> keys(2 * n);
  std::uint64_t* key = keys.data();
  std::uint64_t* key2 = key + n;
  std::vector<std::array<std::uint64_t, 2>> and_or(
      slice_count(pool, n, kGrain));
  for_slices(pool, n, kGrain,
             [&](std::size_t b, std::size_t e, std::size_t s) {
               std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
               for (std::size_t i = b; i < e; ++i) {
                 key[i] = key_of(i);
                 lo &= key[i];
                 hi |= key[i];
               }
               and_or[s] = {lo, hi};
             });
  std::uint64_t all = ~std::uint64_t{0}, any = 0;
  for (const auto& [lo, hi] : and_or) {
    all &= lo;
    any |= hi;
  }
  std::vector<std::size_t> passes;
  for (std::size_t d = 0; d < kDigits; ++d) {
    if (digit(all ^ any, d) != 0) passes.push_back(d);
  }
  std::vector<std::uint32_t> idx(n);
  if (passes.empty()) {
    if (carry != nullptr) {
      std::copy(carry, carry + n, idx.begin());
    } else {
      std::iota(idx.begin(), idx.end(), 0u);
    }
    return idx;
  }
  std::vector<std::uint32_t> idx2(n);
  std::vector<Hist> ofs(and_or.size());
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const std::size_t d = passes[p];
    const bool first = p == 0;
    const bool last = p + 1 == passes.size();
    for_slices(pool, n, kGrain,
               [&](std::size_t b, std::size_t e, std::size_t s) {
                 Hist h{};
                 for (std::size_t i = b; i < e; ++i) ++h[digit(key[i], d)];
                 ofs[s] = h;
               });
    // (digit, slice)-order prefix: each slice's stable scatter lands
    // exactly where the sequential pass would put it.
    std::uint32_t run = 0;
    for (std::size_t c = 0; c < kBuckets; ++c) {
      for (Hist& h : ofs) {
        const std::uint32_t cnt = h[c];
        h[c] = run;
        run += cnt;
      }
    }
    for_slices(pool, n, kGrain,
               [&](std::size_t b, std::size_t e, std::size_t s) {
                 Hist o = ofs[s];
                 for (std::size_t i = b; i < e; ++i) {
                   const std::uint64_t k = key[i];
                   const std::uint32_t at = o[digit(k, d)]++;
                   if (!last) key2[at] = k;
                   idx2[at] = !first            ? idx[i]
                              : carry != nullptr ? carry[i]
                                                 : static_cast<std::uint32_t>(i);
                 }
               });
    std::swap(key, key2);
    idx.swap(idx2);
  }
  return idx;
}

/// Put one equal-x run p[0, len) / order[0, len), which arrives in index
/// order, into (y-key, index) order.
void order_run(Point2* p, std::uint32_t* order, std::size_t len) {
  std::size_t i = 1;
  while (i < len && double_key(p[i - 1].y) <= double_key(p[i].y)) ++i;
  if (i >= len) return;  // already in y order: distinct x, or copies
  if (len <= kShortRun) {
    for (; i < len; ++i) {
      const Point2 q = p[i];
      const std::uint32_t o = order[i];
      const std::uint64_t k = double_key(q.y);
      std::size_t j = i;
      for (; j > 0 && double_key(p[j - 1].y) > k; --j) {
        p[j] = p[j - 1];
        order[j] = order[j - 1];
      }
      p[j] = q;
      order[j] = o;
    }
    return;
  }
  const std::vector<std::uint32_t> perm = sort_by_key(
      len, [&](std::size_t k) { return double_key(p[k].y); }, nullptr,
      nullptr);
  const std::vector<Point2> pts(p, p + len);
  const std::vector<std::uint32_t> ord(order, order + len);
  for (std::size_t k = 0; k < len; ++k) {
    p[k] = pts[perm[k]];
    order[k] = ord[perm[k]];
  }
}

}  // namespace

std::uint64_t double_key(double d) noexcept {
  // The magnitude taken up or down from the middle of the key range: a
  // negative's key keeps its trailing zero bits (flipping every bit would
  // set them), so those digits still cost no pass when signs are mixed.
  // -0.0 and +0.0 both land on the middle.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  const std::uint64_t mag = b & ~kSign;
  return (b & kSign) ? kSign - mag : kSign + mag;
}

namespace {

/// lex_sort of pts[sel[0 .. n)], or of all of pts when sel is null.
LexSorted lex_sort_of(std::span<const Point2> pts, const std::uint32_t* sel,
                      std::size_t n, ThreadPool* pool) {
  if (pool != nullptr && n < kParCutoff) pool = nullptr;
  const std::size_t slices = slice_count(pool, n, kGrain);
  LexSorted out;
  out.order = sel != nullptr
                  ? sort_by_key(
                        n,
                        [&](std::size_t i) { return double_key(pts[sel[i]].x); },
                        sel, pool)
                  : sort_by_key(
                        n, [&](std::size_t i) { return double_key(pts[i].x); },
                        nullptr, pool);
  // Steps 2 and 3. A slice owns the runs that start in it, however far
  // they reach, so no two slices touch one run; where each slice's first
  // run starts is found read-only before anything moves.
  std::uint32_t* order = out.order.data();
  auto xkey = [&](std::size_t i) { return double_key(pts[order[i]].x); };
  std::vector<std::size_t> start(slices + 1, n);
  for_slices(pool, n, kGrain, [&](std::size_t b, std::size_t, std::size_t s) {
    while (b > 0 && b < n && xkey(b) == xkey(b - 1)) ++b;
    start[s] = b;
  });
  out.points.resize(n);
  Point2* p = out.points.data();
  for_slices(pool, n, kGrain, [&](std::size_t, std::size_t, std::size_t s) {
    const std::size_t end = start[s + 1];
    for (std::size_t i = start[s]; i < end;) {
      p[i] = pts[order[i]];
      const std::uint64_t k = double_key(p[i].x);
      std::size_t j = i + 1;
      for (; j < end; ++j) {
        const Point2 q = pts[order[j]];
        if (double_key(q.x) != k) break;
        p[j] = q;
      }
      if (j - i > 1) order_run(p + i, order + i, j - i);
      i = j;
    }
  });
  return out;
}

}  // namespace

LexSorted lex_sort(std::span<const Point2> pts, ThreadPool* pool) {
  return lex_sort_of(pts, nullptr, pts.size(), pool);
}

LexSorted lex_sort(std::span<const Point2> pts,
                   std::span<const std::uint32_t> sel, ThreadPool* pool) {
  return lex_sort_of(pts, sel.data(), sel.size(), pool);
}

std::vector<std::uint32_t> lex_sort_indices(std::span<const Point2> pts,
                                            ThreadPool* pool) {
  return lex_sort(pts, pool).order;
}

}  // namespace iph::exec
