#include "exec/radix.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "geom/predicates.h"

namespace iph::exec {

namespace {

using geom::Point2;

/// Slice grain of the parallel top-level passes and of the bucket split.
constexpr std::size_t kGrain = std::size_t{1} << 13;
/// A distribution aims at buckets of about this many points: its fan-out
/// is the bucket's size over this, rounded up to a power of two.
constexpr std::size_t kAim = 2;
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

/// Distributes p/o[0, m) into `fan` buckets by of(point, index) through
/// `scratch` (m entries): copy out with each bucket, counting them, then
/// scatter back; the buckets' starts end up in at[0, fan].
template <class Of>
void distribute_copy(Point2* p, std::uint32_t* o, std::size_t m,
                     std::size_t fan, const Of& of, Item* scratch,
                     Starts& at) {
  std::fill_n(at.begin(), fan, 0u);
  for (std::size_t i = 0; i < m; ++i) {
    const auto k = static_cast<std::uint32_t>(of(p[i], o[i]));
    scratch[i] = {p[i], o[i], k};
    ++at[k];
  }
  Starts head = counts_to_starts(at, fan);
  for (std::size_t i = 0; i < m; ++i) {
    const Item& it = scratch[i];
    const std::uint32_t to = head[it.digit]++;
    p[to] = it.p;
    o[to] = it.index;
  }
}

/// Distributes in place ("American flag") the points p/o at positions
/// [head[k], end[k]) of buckets k < fan into those buckets, by bucket
/// of(point, index) < fan; each bucket's range holds as many slots as it
/// has points. Bucket k is filled from its head by four swap chains at
/// once: a chain lifts the point at the head, leaving a hole, swaps it
/// into the next free slot of its own bucket, carries on with the point
/// it displaced, and ends when it carries a point of bucket k, which
/// fills the hole. The four chains' loads are independent, and the slot
/// after each one written is prefetched, so the pass is not bound by one
/// cache miss at a time.
template <class Of>
void distribute_in_place(Point2* p, std::uint32_t* o, std::uint32_t* head,
                         const std::uint32_t* end, std::size_t fan,
                         const Of& of) {
  constexpr std::size_t kLanes = 4;
  for (std::size_t k = 0; k < fan; ++k) {
    std::uint32_t hole[kLanes];
    Point2 v[kLanes];
    std::uint32_t vi[kLanes];
    std::size_t lanes = 0;
    for (; lanes < kLanes && head[k] < end[k]; ++lanes) {
      hole[lanes] = head[k]++;
      v[lanes] = p[hole[lanes]];
      vi[lanes] = o[hole[lanes]];
    }
    while (lanes > 0) {
      for (std::size_t j = 0; j < lanes;) {
        const std::size_t d = of(v[j], vi[j]);
        if (d != k) {
          const std::uint32_t to = head[d]++;
          __builtin_prefetch(p + to + 1, 1);
          __builtin_prefetch(o + to + 1, 1);
          std::swap(v[j], p[to]);
          std::swap(vi[j], o[to]);
          ++j;
          continue;
        }
        p[hole[j]] = v[j];
        o[hole[j]] = vi[j];
        if (head[k] < end[k]) {
          hole[j] = head[k]++;
          v[j] = p[hole[j]];
          vi[j] = o[hole[j]];
          ++j;
        } else {
          --lanes;
          hole[j] = hole[lanes];
          v[j] = v[lanes];
          vi[j] = vi[lanes];
        }
      }
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
  auto of = [&](const Point2& q, std::uint32_t qi) { return d.of(q, qi); };
  Starts at;
  if (m <= kSortScratchPoints) {
    distribute_copy(p, o, m, d.fan, of, scratch, at);
  } else {
    std::fill_n(at.begin(), d.fan, 0u);
    for (std::size_t i = 0; i < m; ++i) ++at[d.of(p[i], o[i])];
    Starts head = counts_to_starts(at, d.fan);
    distribute_in_place(p, o, head.data(), at.data() + 1, d.fan, of);
  }
  for (std::size_t k = 0; k < d.fan; ++k) {
    const std::size_t len = at[k + 1] - at[k];
    if (len > 1) sort_bucket(p + at[k], o + at[k], len, scratch);
  }
}

/// A cursor over runs [first, second) of positions, in order.
struct RunCursor {
  const std::vector<std::array<std::size_t, 2>>* runs;
  std::size_t run = 0;
  std::size_t at = 0;

  /// Moves to the rank-th position of the runs.
  void seek(std::size_t rank) {
    for (run = 0;; ++run) {
      const auto& [b, e] = (*runs)[run];
      if (rank < e - b) {
        at = b + rank;
        return;
      }
      rank -= e - b;
    }
  }
  std::size_t next() {
    while (at == (*runs)[run][1]) at = (*runs)[++run][0];
    return at++;
  }
};

/// Moves the points of p/o[0, m) for which `front` holds ahead of the
/// others, on the pool, and returns how many they are. Each slice
/// partitions its own chunk without a branch (Lomuto); then the points on
/// the wrong side of the boundary, as many on each side, trade places
/// pairwise, the pairs split between the slices.
template <class Front>
std::size_t split_two(Point2* p, std::uint32_t* o, std::size_t m,
                      const Front& front, ThreadPool* pool) {
  const std::size_t slices = slice_count(pool, m, kGrain);
  std::vector<std::array<std::size_t, 3>> chunk(slices);  // begin, cut, end
  for_slices(pool, m, kGrain, [&](std::size_t b, std::size_t e,
                                  std::size_t s) {
    std::size_t w = b;
    for (std::size_t i = b; i < e; ++i) {
      const Point2 v = p[i];
      const std::uint32_t vi = o[i];
      p[i] = p[w];
      o[i] = o[w];
      p[w] = v;
      o[w] = vi;
      w += static_cast<std::size_t>(front(v));
    }
    chunk[s] = {b, w, e};
  });
  std::size_t cut = 0;
  for (const auto& [b, w, e] : chunk) cut += w - b;
  std::vector<std::array<std::size_t, 2>> back_runs, front_runs;
  std::size_t wrong = 0;
  for (const auto& [b, w, e] : chunk) {
    if (w < std::min(e, cut)) {
      back_runs.push_back({w, std::min(e, cut)});
      wrong += std::min(e, cut) - w;
    }
    if (std::max(b, cut) < w) front_runs.push_back({std::max(b, cut), w});
  }
  for_slices(pool, wrong, kGrain,
             [&](std::size_t xb, std::size_t xe, std::size_t) {
               RunCursor a{&back_runs};
               RunCursor f{&front_runs};
               a.seek(xb);
               f.seek(xb);
               for (std::size_t x = xb; x < xe; ++x) {
                 const std::size_t i = a.next();
                 const std::size_t j = f.next();
                 std::swap(p[i], p[j]);
                 std::swap(o[i], o[j]);
               }
             });
  return cut;
}

/// Splits p/o[bounds[g0], bounds[g1]) in place into groups g0..g1-1,
/// group g at [bounds[g], bounds[g+1]), by group(point), on the pool:
/// split_two halves the groups, then each half is split in turn.
template <class Group>
void split_groups(Point2* p, std::uint32_t* o,
                  const std::vector<std::uint32_t>& bounds, std::size_t g0,
                  std::size_t g1, const Group& group, ThreadPool* pool) {
  if (g1 - g0 < 2) return;
  const std::size_t gm = (g0 + g1) / 2;
  const std::size_t lo = bounds[g0];
  split_two(p + lo, o + lo, bounds[g1] - lo,
            [&](const Point2& q) { return group(q) < gm; }, pool);
  split_groups(p, o, bounds, g0, gm, group, pool);
  split_groups(p, o, bounds, gm, g1, group, pool);
}

/// Bit j set when p[j] survives, for j < m, 1 <= m <= 64: every p[j]
/// when `chain` is null, else each finite p[j] the chain does not drop.
std::uint64_t survivor_bits(const FilterChain* chain, const Point2* p,
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

/// The count pass's result: the top pass's map, the top-level bucket
/// starts over the survivors, and each pool slice's survivor bits, first
/// input point and survivor count.
struct Counted {
  Linear lin;
  std::vector<std::uint32_t> at;
  std::vector<std::vector<std::uint64_t>> kept;
  std::vector<std::size_t> begin, size;

  std::size_t survivors() const noexcept { return at.back(); }
};

/// What the count pass does with each slice's survivors: nothing, copy
/// them to the slice's front, or swap them there with their input
/// indices (the dropped points then stay behind them).
enum class Pack { kNone, kFront, kSwap };

/// The count pass over `pts`, the points of `chain` (all, when null).
/// kFront and kSwap pack into `packed`, which is pts.data(); kSwap also
/// fills `order`, one entry per point.
template <Pack kPack>
Counted count_pass(std::span<const Point2> pts, Point2* packed,
                   std::uint32_t* order, const FilterChain* chain,
                   ThreadPool* pool) {
  const std::size_t n = pts.size();
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

  // The top pass's buckets are x's slices of that range. Without a range
  // (one x, or a width that overflows) there is one bucket.
  Counted c;
  c.lin = Linear{lo, 0, std::size_t{1} << fan_bits(n)};
  c.lin.scale = static_cast<double>(c.lin.fan) / (hi - lo);
  if (!(lo < hi && c.lin.scale > 0 && std::isfinite(c.lin.scale))) {
    c.lin = Linear{0, 0, 1};
  }
  const Linear lin = c.lin;
  const std::size_t fan = lin.fan;
  c.kept.resize(slices);
  c.begin.resize(slices);
  c.size.resize(slices);
  std::vector<std::uint32_t> cnt(slices * fan, 0);
  for_slices(pool, n, kGrain, [&](std::size_t b, std::size_t e, std::size_t s) {
    std::vector<std::uint64_t>& bits = c.kept[s];
    bits.resize((e - b + 63) / 64);
    std::uint32_t* h = cnt.data() + s * fan;
    if constexpr (kPack == Pack::kSwap) {
      std::iota(order + b, order + e, static_cast<std::uint32_t>(b));
    }
    std::size_t to = b;
    for (std::size_t w = 0, i = b; i < e; ++w, i += 64) {
      bits[w] = survivor_bits(chain, pts.data() + i,
                              std::min<std::size_t>(64, e - i));
      each_bit(bits[w], i, [&](std::size_t k) {
        ++h[lin.of(pts[k].x)];
        if constexpr (kPack == Pack::kFront) packed[to] = pts[k];
        if constexpr (kPack == Pack::kSwap) {
          std::swap(packed[to], packed[k]);
          std::swap(order[to], order[k]);
        }
        ++to;
      });
    }
    c.begin[s] = b;
    c.size[s] = to - b;
  });
  c.at.assign(fan + 1, 0);
  for (std::size_t k = 0; k < fan; ++k) {
    std::uint32_t sum = c.at[k];
    for (std::size_t s = 0; s < slices; ++s) sum += cnt[s * fan + k];
    c.at[k + 1] = sum;
  }
  return c;
}

/// Where each slice's survivors start in the packed run: the number of
/// survivors in the slices before it.
std::vector<std::size_t> run_offsets(const Counted& c) {
  std::vector<std::size_t> off(c.size.size());
  std::size_t run = 0;
  for (std::size_t s = 0; s < off.size(); ++s) {
    off[s] = run;
    run += c.size[s];
  }
  return off;
}

/// The top pass's buckets: the count pass's x slices, `step` adjacent
/// ones taken as one, so that their number follows the survivors'
/// count, not the input's.
struct TopBuckets {
  Linear lin;
  unsigned step_bits = 0;
  std::size_t fan = 1;

  explicit TopBuckets(const Counted& c)
      : lin(c.lin),
        step_bits(static_cast<unsigned>(std::countr_zero(std::max<std::size_t>(
            1, c.lin.fan >> fan_bits(c.survivors()))))),
        fan(c.lin.fan >> step_bits) {}

  std::size_t of(const Point2& q) const noexcept {
    return lin.of(q.x) >> step_bits;
  }
  /// The buckets' starts over the survivors, from the count pass's.
  std::vector<std::uint32_t> starts(const Counted& c) const {
    std::vector<std::uint32_t> at(fan + 1);
    for (std::size_t k = 0; k <= fan; ++k) at[k] = c.at[k << step_bits];
    return at;
  }
};

/// Sorts buckets k0..k1-1, bucket k at p/o[at[k], at[k+1]), in
/// `scratch`, or, when it is null, in one sized for the largest of them.
void sort_buckets(Point2* p, std::uint32_t* o, const std::uint32_t* at,
                  std::size_t k0, std::size_t k1, Item* scratch = nullptr) {
  std::vector<Item> own;
  if (scratch == nullptr) {
    std::size_t need = 0;
    for (std::size_t k = k0; k < k1; ++k) {
      const std::size_t len = at[k + 1] - at[k];
      if (len > kSortLeaf) {
        need = std::max(need, std::min(len, kSortScratchPoints));
      }
    }
    own.resize(need);
    scratch = own.data();
  }
  for (std::size_t k = k0; k < k1; ++k) {
    const std::size_t len = at[k + 1] - at[k];
    if (len > 1) sort_bucket(p + at[k], o + at[k], len, scratch);
  }
}

/// fn(point, input index) for each survivor the count pass marked in
/// `pts`, in input order.
template <class Fn>
void each_survivor(std::span<const Point2> pts, const Counted& c,
                   const Fn& fn) {
  for (std::size_t s = 0; s < c.kept.size(); ++s) {
    const std::vector<std::uint64_t>& bits = c.kept[s];
    for (std::size_t w = 0; w < bits.size(); ++w) {
      each_bit(bits[w], c.begin[s] + 64 * w, [&](std::size_t i) {
        fn(pts[i], static_cast<std::uint32_t>(i));
      });
    }
  }
}

/// The top pass and the buckets over the m packed survivors p/o[0, m)
/// that `c` counted.
void sort_packed(Point2* p, std::uint32_t* o, const Counted& c,
                 ThreadPool* pool) {
  const std::size_t m = c.survivors();
  const TopBuckets top(c);
  if (m <= kSortScratchPoints) {
    // The top pass is one more bucket, through a scratch of m entries
    // that the buckets then reuse.
    std::vector<Item> scratch(m);
    Starts at;
    distribute_copy(
        p, o, m, top.fan,
        [&](const Point2& q, std::uint32_t) { return top.of(q); },
        scratch.data(), at);
    sort_buckets(p, o, at.data(), 0, top.fan, scratch.data());
    return;
  }
  const std::size_t fan = top.fan;
  const std::vector<std::uint32_t> at = top.starts(c);
  // One group of adjacent buckets per slice, of about m / slices points.
  const std::size_t slices = slice_count(pool, m, kGrain);
  std::vector<std::size_t> first(slices + 1, fan);
  first[0] = 0;
  for (std::size_t t = 1; t < slices; ++t) {
    first[t] = static_cast<std::size_t>(
        std::lower_bound(at.begin() + first[t - 1], at.begin() + fan,
                         m * t / slices) -
        at.begin());
  }
  if (slices > 1) {
    std::vector<std::uint32_t> bounds(slices + 1);
    std::vector<std::uint16_t> group(fan);
    for (std::size_t t = 0; t < slices; ++t) {
      bounds[t] = at[first[t]];
      std::fill(group.begin() + first[t], group.begin() + first[t + 1],
                static_cast<std::uint16_t>(t));
    }
    bounds[slices] = at[fan];
    split_groups(p, o, bounds, 0, slices,
                 [&](const Point2& q) { return group[top.of(q)]; }, pool);
  }
  // Each slice fills its group's buckets, then finishes them.
  for_slices(pool, slices, 1, [&](std::size_t tb, std::size_t te,
                                  std::size_t) {
    for (std::size_t t = tb; t < te; ++t) {
      const std::size_t k0 = first[t];
      const std::size_t k1 = first[t + 1];
      if (k1 - k0 > 1) {
        std::vector<std::uint32_t> head(at.begin() + k0, at.begin() + k1);
        distribute_in_place(
            p, o, head.data(), at.data() + k0 + 1, k1 - k0,
            [&](const Point2& q, std::uint32_t) { return top.of(q) - k0; });
      }
      sort_buckets(p, o, at.data(), k0, k1);
    }
  });
}

/// lex_sort of the points of `pts` that survive `chain` (survivor_bits());
/// of all of them when it is null: the survivors are packed from their
/// bits into a fresh buffer, then sorted there.
LexSorted sort_copy(std::span<const Point2> pts, const FilterChain* chain,
                    ThreadPool* pool) {
  const std::size_t n = pts.size();
  if (n < kSortParCutoff) pool = nullptr;
  const Counted c = count_pass<Pack::kNone>(pts, nullptr, nullptr, chain, pool);
  const std::size_t m = c.survivors();
  LexSorted out;
  out.points.resize(m);
  out.order.resize(m);
  if (m <= kSortScratchPoints) {
    // Few survivors: the pack writes each at its top-level bucket's next
    // slot, which is the top pass.
    const TopBuckets top(c);
    const std::vector<std::uint32_t> at = top.starts(c);
    std::vector<std::uint32_t> head(at.begin(), at.end() - 1);
    Point2* p = out.points.data();
    std::uint32_t* o = out.order.data();
    each_survivor(pts, c, [&](const Point2& q, std::uint32_t i) {
      const std::uint32_t to = head[top.of(q)]++;
      p[to] = q;
      o[to] = i;
    });
    sort_buckets(p, o, at.data(), 0, top.fan);
    return out;
  }
  const std::vector<std::size_t> off = run_offsets(c);
  for_slices(pool, n, kGrain, [&](std::size_t b, std::size_t, std::size_t s) {
    Point2* p = out.points.data() + off[s];
    std::uint32_t* o = out.order.data() + off[s];
    const std::vector<std::uint64_t>& bits = c.kept[s];
    for (std::size_t w = 0; w < bits.size(); ++w) {
      each_bit(bits[w], b + 64 * w, [&](std::size_t i) {
        *p++ = pts[i];
        *o++ = static_cast<std::uint32_t>(i);
      });
    }
  });
  sort_packed(out.points.data(), out.order.data(), c, pool);
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
  return sort_copy(pts, nullptr, pool);
}

LexSorted lex_sort(std::span<const Point2> pts, const FilterChain& chain,
                   ThreadPool* pool) {
  return sort_copy(pts, &chain, pool);
}

std::vector<std::uint32_t> lex_sort_indices(std::span<const Point2> pts,
                                            ThreadPool* pool) {
  return lex_sort(pts, pool).order;
}

InPlaceSort lex_sort_in_place(std::span<Point2> pts, const FilterChain& chain,
                              bool keep_dropped, ThreadPool* pool) {
  const std::size_t n = pts.size();
  if (n < kSortParCutoff) pool = nullptr;
  Point2* p = pts.data();
  InPlaceSort out;
  Counted c;
  if (keep_dropped) {
    out.order.resize(n);
    c = count_pass<Pack::kSwap>(pts, p, out.order.data(), &chain, pool);
  } else {
    c = count_pass<Pack::kFront>(pts, p, nullptr, &chain, pool);
  }
  out.survivors = c.survivors();

  // The runs close up. Slice s's survivors sit at [begin, begin + size);
  // their place is [off, off + size). Their order does not matter (the
  // sort orders them all), so only the last min(gap, size) of them move,
  // to the front of the gap; kept dropped points trade places with them.
  const std::vector<std::size_t> off = run_offsets(c);
  std::vector<std::size_t> moved(off.size());
  for (std::size_t s = 0; s < off.size(); ++s) {
    moved[s] = std::min(c.begin[s] - off[s], c.size[s]);
  }
  if (!keep_dropped) {
    // Survivor r of slice s ends at off + (r + moved) mod size.
    out.order.resize(out.survivors);
    for_slices(pool, n, kGrain,
               [&](std::size_t b, std::size_t, std::size_t s) {
                 std::uint32_t* o = out.order.data() + off[s];
                 std::size_t r = moved[s];
                 const std::vector<std::uint64_t>& bits = c.kept[s];
                 for (std::size_t w = 0; w < bits.size(); ++w) {
                   each_bit(bits[w], b + 64 * w, [&](std::size_t i) {
                     if (r == c.size[s]) r = 0;
                     o[r++] = static_cast<std::uint32_t>(i);
                   });
                 }
               });
  }
  // Slice by slice: a slice's target is the gap its predecessors left.
  // Within a slice, source and target do not overlap, so its move runs
  // on the pool.
  std::uint32_t* o = out.order.data();
  for (std::size_t s = 1; s < off.size(); ++s) {
    Point2* from = p + c.begin[s] + c.size[s] - moved[s];
    std::uint32_t* from_o = o + (from - p);
    for_slices(pool, moved[s], kGrain,
               [&](std::size_t b, std::size_t e, std::size_t) {
                 if (keep_dropped) {
                   std::swap_ranges(from + b, from + e, p + off[s] + b);
                   std::swap_ranges(from_o + b, from_o + e, o + off[s] + b);
                 } else {
                   std::copy(from + b, from + e, p + off[s] + b);
                 }
               });
  }
  sort_packed(p, o, c, pool);
  return out;
}

}  // namespace iph::exec
