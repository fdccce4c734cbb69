#include "exec/radix.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "geom/predicates.h"

namespace iph::exec {

namespace {

using geom::Point2;

/// Slice grain of the parallel top-level passes and of the bucket split.
constexpr std::size_t kGrain = std::size_t{1} << 13;
/// A distribution aims at buckets of about this many points: its fan-out
/// is the bucket's size over this, rounded up to a power of two.
constexpr std::size_t kAim = 2;
/// Buckets up to this many points are distributed through the slice's
/// scratch (copy out, scatter back); larger ones are permuted in place.
constexpr std::size_t kScratchPoints = std::size_t{1} << 14;
constexpr std::size_t kMaxFan = std::size_t{1} << kSortFanBits;

std::uint64_t key(double d) noexcept {
  // The magnitude taken up or down from the middle of the key range, so
  // -0.0 and +0.0 both land on the middle. Branch-free: on mixed signs
  // the sign is a coin flip.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  const std::uint64_t neg = 0 - (b >> 63);  // all ones for a negative
  return kSign + (((b & ~kSign) ^ neg) - neg);
}

/// The three parts of the sort key, most significant first: x-key,
/// y-key, input index.
enum Part { kX, kY, kIndex };

std::uint64_t part_key(int part, const Point2& p,
                       std::uint32_t index) noexcept {
  switch (part) {
    case kX:
      return key(p.x);
    case kY:
      return key(p.y);
    default:
      return index;
  }
}

/// log2 of the fan-out for a bucket of m points: about m / kAim buckets,
/// at least 2, at most kMaxFan.
unsigned fan_bits(std::size_t m) noexcept {
  unsigned bits = 1;
  while (bits < kSortFanBits && (m >> bits) > kAim) ++bits;
  return bits;
}

/// AND and OR of one part's keys over a range: they differ exactly in the
/// bits where some two keys differ.
struct Spread {
  std::uint64_t all = ~std::uint64_t{0};
  std::uint64_t any = 0;

  void take(std::uint64_t k) noexcept {
    all &= k;
    any |= k;
  }
  bool differs() const noexcept { return all != any; }
};

/// One distribution pass: fan buckets by bits [shift, shift + log2 fan)
/// of one key part — the top bits in which the bucket's keys differ. A
/// fan of 1 marks a bucket that is in order already.
struct Digit {
  int part = kX;
  unsigned shift = 0;
  std::size_t fan = 1;

  std::size_t of(const Point2& p, std::uint32_t index) const noexcept {
    return static_cast<std::size_t>(part_key(part, p, index) >> shift) &
           (fan - 1);
  }
};

/// The digit just below the top differing bit of `s`, for m points, no
/// wider than the bits that differ.
Digit top_digit(int part, const Spread& s, std::size_t m) {
  const auto top =
      static_cast<unsigned>(64 - std::countl_zero(s.all ^ s.any));
  const unsigned bits = std::min(fan_bits(m), top);
  return {part, top - bits, std::size_t{1} << bits};
}

/// The top pass's bucket of a point by its x value: the finite range
/// [lo, hi] of the input's x's cut into `fan` equal slices. It is
/// monotone in double_key order, so it never splits a tie: a finite x
/// maps through rounded (hence monotone) arithmetic, -0.0 like +0.0;
/// -inf and negative NaNs go first, +inf and positive NaNs last. Unlike
/// a digit of the key, it splits a range spanning many binades evenly.
struct Linear {
  double lo = 0;
  double scale = 0;
  std::size_t fan = 1;

  std::size_t of(double x) const noexcept {
    const double t = (x - lo) * scale;
    if (t >= 0) {
      return t < static_cast<double>(fan) ? static_cast<std::size_t>(t)
                                          : fan - 1;
    }
    return std::isnan(x) && !std::signbit(x) ? fan - 1 : 0;
  }
};

/// The first part whose keys differ over p/o[0, m), m >= 2, and its top
/// digit. The input indices are distinct, so some part differs; when it
/// is the index, the copies of one point may be in index order already.
Digit pick(const Point2* p, const std::uint32_t* o, std::size_t m) {
  Spread s;
  for (std::size_t i = 0; i < m; ++i) s.take(key(p[i].x));
  if (s.differs()) return top_digit(kX, s, m);
  s = Spread{};
  for (std::size_t i = 0; i < m; ++i) s.take(key(p[i].y));
  if (s.differs()) return top_digit(kY, s, m);
  s = Spread{};
  bool sorted = true;
  for (std::size_t i = 0; i < m; ++i) {
    s.take(o[i]);
    sorted &= i == 0 || o[i - 1] < o[i];
  }
  return sorted || !s.differs() ? Digit{kIndex, 0, 1}
                                 : top_digit(kIndex, s, m);
}

/// (x-key, y-key, index) order of (a, ai) before (b, bi).
bool key_less(const Point2& a, std::uint32_t ai, const Point2& b,
              std::uint32_t bi) noexcept {
  const std::uint64_t ax = key(a.x);
  const std::uint64_t bx = key(b.x);
  if (ax != bx) return ax < bx;
  const std::uint64_t ay = key(a.y);
  const std::uint64_t by = key(b.y);
  if (ay != by) return ay < by;
  return ai < bi;
}

/// Insertion sort of the leaf p/o[0, m), m <= kSortLeaf.
void leaf_sort(Point2* p, std::uint32_t* o, std::size_t m) {
  for (std::size_t i = 1; i < m; ++i) {
    const Point2 v = p[i];
    const std::uint32_t vi = o[i];
    std::size_t j = i;
    for (; j > 0 && key_less(v, vi, p[j - 1], o[j - 1]); --j) {
      p[j] = p[j - 1];
      o[j] = o[j - 1];
    }
    p[j] = v;
    o[j] = vi;
  }
}

/// A slice's reused scratch: one entry per point of a bucket being
/// distributed out of place, with its digit.
struct Item {
  Point2 p;
  std::uint32_t index;
  std::uint32_t digit;
};

/// Bucket starts of a distribution pass; entry fan is the bucket's size.
using Starts = std::array<std::uint32_t, kMaxFan + 1>;

/// Counts at[0, fan) to starts at[0, fan], in place; returns a copy of
/// the starts to advance as write heads.
Starts counts_to_starts(Starts& at, std::size_t fan) {
  std::uint32_t run = 0;
  for (std::size_t k = 0; k < fan; ++k) {
    const std::uint32_t c = at[k];
    at[k] = run;
    run += c;
  }
  at[fan] = run;
  Starts head;
  std::copy_n(at.begin(), fan, head.begin());
  return head;
}

/// Distributes p/o[0, m) by digit d through `scratch` (m entries): copy
/// out with each digit, scatter back.
void distribute_copy(Point2* p, std::uint32_t* o, std::size_t m,
                     const Digit& d, Item* scratch, Starts& at) {
  std::fill_n(at.begin(), d.fan, 0u);
  for (std::size_t i = 0; i < m; ++i) {
    const auto k = static_cast<std::uint32_t>(d.of(p[i], o[i]));
    scratch[i] = {p[i], o[i], k};
    ++at[k];
  }
  Starts head = counts_to_starts(at, d.fan);
  for (std::size_t i = 0; i < m; ++i) {
    const Item& it = scratch[i];
    const std::uint32_t to = head[it.digit]++;
    p[to] = it.p;
    o[to] = it.index;
  }
}

/// Distributes p/o[0, m) by digit d in place ("American flag"): each
/// point is swapped straight into the next free slot of its bucket.
void distribute_in_place(Point2* p, std::uint32_t* o, std::size_t m,
                         const Digit& d, Starts& at) {
  std::fill_n(at.begin(), d.fan, 0u);
  for (std::size_t i = 0; i < m; ++i) ++at[d.of(p[i], o[i])];
  Starts head = counts_to_starts(at, d.fan);
  for (std::size_t k = 0; k < d.fan; ++k) {
    while (head[k] < at[k + 1]) {
      Point2 v = p[head[k]];
      std::uint32_t vi = o[head[k]];
      for (std::size_t dk = d.of(v, vi); dk != k; dk = d.of(v, vi)) {
        const std::uint32_t to = head[dk]++;
        std::swap(v, p[to]);
        std::swap(vi, o[to]);
      }
      p[head[k]] = v;
      o[head[k]] = vi;
      ++head[k];
    }
  }
}

/// Sorts bucket p/o[0, m) by (x-key, y-key, index) in cache: a leaf is
/// insertion-sorted, a larger bucket distributed by its own top
/// differing digit, then each part sorted in turn.
void sort_bucket(Point2* p, std::uint32_t* o, std::size_t m, Item* scratch) {
  if (m <= kSortLeaf) {
    leaf_sort(p, o, m);
    return;
  }
  const Digit d = pick(p, o, m);
  if (d.fan == 1) return;
  Starts at;
  if (m <= kScratchPoints) {
    distribute_copy(p, o, m, d, scratch, at);
  } else {
    distribute_in_place(p, o, m, d, at);
  }
  for (std::size_t k = 0; k < d.fan; ++k) {
    const std::size_t len = at[k + 1] - at[k];
    if (len > 1) sort_bucket(p + at[k], o + at[k], len, scratch);
  }
}

/// Bit j set when p[j] survives, for j < m, 1 <= m <= 64: every p[j]
/// when `chain` is null, else each finite p[j] the chain does not drop.
std::uint64_t survivors(const FilterChain* chain, const Point2* p,
                        std::size_t m) noexcept {
  std::uint64_t w = ~std::uint64_t{0} >> (64 - m);
  if (chain == nullptr) return w;
  if (chain->prunes()) {
    w = 0;
    for (std::size_t j = 0; j < m; ++j) {
      w |= std::uint64_t{!chain->drops(p[j])} << j;
    }
  }
  if (!chain->all_finite) {
    for (std::size_t j = 0; j < m; ++j) {
      w &= ~(std::uint64_t{!geom::is_finite(p[j])} << j);
    }
  }
  return w;
}

/// fn(b + j) for each set bit j of w, lowest first.
template <class Fn>
void each_bit(std::uint64_t w, std::size_t b, const Fn& fn) {
  for (; w != 0; w &= w - 1) {
    fn(b + static_cast<std::size_t>(std::countr_zero(w)));
  }
}

/// lex_sort of the points of `pts` that survive `chain` (survivors());
/// of all of them when it is null.
LexSorted sort_survivors(std::span<const Point2> pts,
                         const FilterChain* chain, ThreadPool* pool) {
  const std::size_t n = pts.size();
  if (n < kSortParCutoff) pool = nullptr;
  const std::size_t slices = slice_count(pool, n, kGrain);

  // The survivors' finite range of x: a pruning chain's two ends, the
  // lex-min and lex-max finite input points, which both survive; else a
  // pass of its own.
  const bool ends = chain != nullptr && chain->prunes();
  double lo = ends ? chain->v[0].x : std::numeric_limits<double>::infinity();
  double hi = ends ? chain->v[chain->size - 1].x : -lo;
  if (!ends) {
    std::vector<std::array<double, 2>> ranges(slices);
    for_slices(pool, n, kGrain,
               [&](std::size_t b, std::size_t e, std::size_t s) {
                 double l = lo;
                 double h = hi;
                 for (std::size_t i = b; i < e; ++i) {
                   if (std::isfinite(pts[i].x)) {
                     l = std::min(l, pts[i].x);
                     h = std::max(h, pts[i].x);
                   }
                 }
                 ranges[s] = {l, h};
               });
    for (const auto& [l, h] : ranges) {
      lo = std::min(lo, l);
      hi = std::max(hi, h);
    }
  }

  // One distribution pass from the input straight into the output, by
  // x's slice of that range: a count pass that keeps one survivor bit
  // per point and counts the survivors per (bucket, pool slice), a
  // (bucket, slice)-order prefix, and a stable per-slice scatter of each
  // survivor and its input index. Without a range (one x, or a width
  // that overflows) the pass is a plain copy and the copy one bucket.
  Linear lin{lo, 0, std::size_t{1} << fan_bits(n)};
  lin.scale = static_cast<double>(lin.fan) / (hi - lo);
  if (!(lo < hi && lin.scale > 0 && std::isfinite(lin.scale))) {
    lin = Linear{0, 0, 1};
  }
  const std::size_t fan = lin.fan;
  std::vector<std::vector<std::uint64_t>> kept(slices);
  std::vector<std::uint32_t> cnt(slices * fan, 0);
  for_slices(pool, n, kGrain, [&](std::size_t b, std::size_t e, std::size_t s) {
    std::vector<std::uint64_t>& bits = kept[s];
    bits.resize((e - b + 63) / 64);
    std::uint32_t* c = cnt.data() + s * fan;
    for (std::size_t w = 0, i = b; i < e; ++w, i += 64) {
      bits[w] =
          survivors(chain, pts.data() + i, std::min<std::size_t>(64, e - i));
      each_bit(bits[w], i, [&](std::size_t k) { ++c[lin.of(pts[k].x)]; });
    }
  });
  std::vector<std::uint32_t> at(fan + 1);
  std::uint32_t run = 0;
  for (std::size_t k = 0; k < fan; ++k) {
    at[k] = run;
    for (std::size_t s = 0; s < slices; ++s) {
      const std::uint32_t c = cnt[s * fan + k];
      cnt[s * fan + k] = run;
      run += c;
    }
  }
  at[fan] = run;
  const std::size_t m = run;
  LexSorted out;
  out.order.resize(m);
  out.points.resize(m);
  Point2* p = out.points.data();
  std::uint32_t* o = out.order.data();
  for_slices(pool, n, kGrain, [&](std::size_t b, std::size_t, std::size_t s) {
    std::uint32_t* head = cnt.data() + s * fan;
    const std::vector<std::uint64_t>& bits = kept[s];
    for (std::size_t w = 0; w < bits.size(); ++w) {
      each_bit(bits[w], b + 64 * w, [&](std::size_t i) {
        const std::uint32_t to = head[lin.of(pts[i].x)]++;
        p[to] = pts[i];
        o[to] = static_cast<std::uint32_t>(i);
      });
    }
  });

  // Each bucket finishes on its own, `step` adjacent ones as one so that
  // their number follows the survivors' count, not the input's. A slice
  // owns the buckets that start in it, however far they reach, and sizes
  // its scratch once for the largest of them.
  const std::size_t step = std::max<std::size_t>(1, fan >> fan_bits(m));
  for_slices(pool, m, kGrain, [&](std::size_t b, std::size_t e, std::size_t) {
    auto owned = [&](std::size_t k) { return at[k] >= b && at[k] < e; };
    std::size_t need = 0;
    for (std::size_t k = 0; k < fan; k += step) {
      const std::size_t len = at[k + step] - at[k];
      if (owned(k) && len > kSortLeaf) {
        need = std::max(need, std::min(len, kScratchPoints));
      }
    }
    std::vector<Item> scratch(need);
    for (std::size_t k = 0; k < fan; k += step) {
      const std::size_t len = at[k + step] - at[k];
      if (owned(k) && len > 1) {
        sort_bucket(p + at[k], o + at[k], len, scratch.data());
      }
    }
  });
  return out;
}

}  // namespace

std::uint64_t double_key(double d) noexcept { return key(d); }

bool FilterChain::drops(const Point2& p) const noexcept {
  const std::size_t k = static_cast<std::size_t>(p.x > split[0]) +
                        static_cast<std::size_t>(p.x > split[1]) +
                        static_cast<std::size_t>(p.x > split[2]);
  return geom::orient2d_certified_negative(v[k], v[k + 1], p);
}

LexSorted lex_sort(std::span<const Point2> pts, ThreadPool* pool) {
  return sort_survivors(pts, nullptr, pool);
}

LexSorted lex_sort(std::span<const Point2> pts, const FilterChain& chain,
                   ThreadPool* pool) {
  return sort_survivors(pts, &chain, pool);
}

std::vector<std::uint32_t> lex_sort_indices(std::span<const Point2> pts,
                                            ThreadPool* pool) {
  return lex_sort(pts, pool).order;
}

}  // namespace iph::exec
