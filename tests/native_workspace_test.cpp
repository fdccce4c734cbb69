// The native engine's in-place entry: its answers and its workspace.
//
// NativeBackend::upper_hull_in_place sorts the caller's buffer where it
// lies (exec/native_backend.h). Two things are held here:
//
//   * Same answers. upper_hull_in_place must return upper_hull's answer
//     bit for bit (vertex indices and, asked, every edge_above entry) at
//     pool widths 1–4, and lex_sort_in_place must leave lex_sort's points
//     and indices at the buffer's front, on every workload family and on
//     the inputs aimed at the sort's and the prune's shape: columns,
//     copies, signed zeros, subnormals, infinities and NaNs, and sizes at
//     the engine's cutoffs.
//   * A workspace watermark. This binary replaces the global operator
//     new and delete with counting ones that track the peak of live heap
//     bytes, and bounds each entry's peak above what was live before it:
//       in place:  8 B per point + 1 bit per point
//                  + width × 400 KiB + 64 KiB,
//       copying:   24 B per survivor + the same terms,
//     plus 4 B per point when edge_above is asked (its output). The
//     caller's buffer is not counted; the answer is.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/native_backend.h"
#include "exec/radix.h"
#include "geom/workloads.h"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

/// Every block carries a header as wide as its alignment, at least 16
/// bytes: its first word holds the block's size, its last the header's
/// width.
void* counted_alloc(std::size_t size, std::size_t align) {
  const std::size_t head = std::max<std::size_t>(align, 16);
  void* raw = nullptr;
  if (posix_memalign(&raw, head, size + head) != 0) return nullptr;
  auto* base = static_cast<unsigned char*>(raw);
  std::memcpy(base, &size, sizeof size);
  std::memcpy(base + head - sizeof head, &head, sizeof head);
  const std::size_t live = g_live.fetch_add(size) + size;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return base + head;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* user = static_cast<unsigned char*>(p);
  std::size_t head = 0;
  std::memcpy(&head, user - sizeof head, sizeof head);
  unsigned char* base = user - head;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof size);
  g_live.fetch_sub(size);
  std::free(base);
}

void* must_alloc(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return must_alloc(n, 16); }
void* operator new[](std::size_t n) { return must_alloc(n, 16); }
void* operator new(std::size_t n, std::align_val_t a) {
  return must_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return must_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 16);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 16);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace iph {
namespace {

using exec::HullRun;
using exec::NativeBackend;
using geom::Point2;

/// The peak of live heap bytes while fn runs, above those live before.
template <class Fn>
std::size_t peak_of(const Fn& fn) {
  const std::size_t before = g_live.load();
  g_peak.store(before);
  fn();
  return g_peak.load() - before;
}

TEST(CountingAllocator, TracksThePeakOfLiveBytes) {
  const std::size_t peak = peak_of([] {
    std::vector<char> a(1 << 20);
    { std::vector<char> b(1 << 19); }
    std::vector<char> c(1 << 18);
  });
  EXPECT_GE(peak, (std::size_t{1} << 20) + (std::size_t{1} << 19));
  EXPECT_LT(peak, (std::size_t{1} << 20) + (std::size_t{1} << 19) + 4096);
}

// --- same answers -----------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Inputs aimed at the sort's and the prune's shape, at size n.
std::vector<std::vector<Point2>> shaped_inputs(std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::vector<Point2>> out;
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    out.push_back(geom::make2d(f, n, seed));
  }
  std::vector<Point2> v(n);
  // Two columns with copies, signed zeros in both coordinates.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {i % 2 == 0 ? -0.0 : 0.0 + static_cast<double>(i % 3 == 0),
            static_cast<double>(i % 7) * (i % 2 == 0 ? -0.0 : 1.0)};
  }
  out.push_back(v);
  // x-keys 1 ulp apart, down into the subnormals.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {std::nextafter(1.0, 2.0) * (i % 5 == 0 ? 1.0 : 0.0) +
                std::ldexp(1.0, -1070 + static_cast<int>(i % 40)),
            static_cast<double>((i * 2654435761u) % 1000)};
  }
  out.push_back(v);
  // All but one point in one top-level bucket.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<double>(i % 97) * 1e-9, std::sin(static_cast<double>(i))};
  }
  if (n > 0) v[n / 2] = {1e6, 0};
  out.push_back(v);
  // All-equal points.
  std::fill(v.begin(), v.end(), Point2{3, 4});
  out.push_back(v);
  // Non-finite points among a circle: the hull of the finite ones.
  v = geom::make2d(geom::Family2D::kCircle, n, seed + 1);
  for (std::size_t i = 0; i < n; i += 11) {
    const double bad[] = {kInf, -kInf, kNaN, -kNaN};
    v[i] = i % 2 == 0 ? Point2{bad[i % 4], v[i].y} : Point2{v[i].x, bad[i % 4]};
  }
  out.push_back(v);
  // An x range whose width overflows.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {(i % 2 == 0 ? -1.0 : 1.0) * 1.5e308 * std::ldexp(1.0, -static_cast<int>(i % 30)),
            static_cast<double>(i % 13)};
  }
  out.push_back(v);
  return out;
}

bool same_bits(const std::vector<Point2>& a, const std::vector<Point2>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Point2)) == 0);
}

TEST(InPlace, SameAnswersAsTheCopyingEntryAtEveryWidth) {
  std::vector<std::unique_ptr<NativeBackend>> engines;
  for (unsigned w = 1; w <= 4; ++w) {
    engines.push_back(std::make_unique<NativeBackend>(w));
  }
  const std::size_t sizes[] = {0,    1,    2,    3,    5,     31,
                               32,   33,   64,   1000, 8191,  8192,
                               8193, 16384, 32767, 32768, 32769, 100000};
  for (const std::size_t n : sizes) {
    const auto inputs = shaped_inputs(n, 17 + n);
    for (std::size_t f = 0; f < inputs.size(); ++f) {
      const std::vector<Point2>& pts = inputs[f];
      for (const bool asked : {false, true}) {
        const HullRun want = engines[0]->upper_hull(pts, 0, 8, asked);
        for (const auto& engine : engines) {
          NativeBackend& e = *engine;
          std::vector<Point2> buf = pts;
          const HullRun got = e.upper_hull_in_place(buf, 0, 8, asked);
          ASSERT_EQ(got.hull.upper.vertices, want.hull.upper.vertices)
              << "n " << n << " input " << f << " width " << e.threads()
              << " asked " << asked;
          ASSERT_EQ(got.hull.edge_above, want.hull.edge_above)
              << "n " << n << " input " << f << " width " << e.threads();
          ASSERT_EQ(e.upper_hull(pts, 0, 8, asked).hull.upper.vertices,
                    want.hull.upper.vertices);
        }
      }
    }
  }
}

TEST(InPlace, SortLeavesTheCopyingSortAtTheFront) {
  exec::ThreadPool pool(4);
  const std::size_t sizes[] = {0, 1, 33, 8193, 32768, 70001};
  for (const std::size_t n : sizes) {
    const auto inputs = shaped_inputs(n, 5 + n);
    for (std::size_t f = 0; f < inputs.size(); ++f) {
      const std::vector<Point2>& pts = inputs[f];
      for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
        const exec::FilterChain chain = exec::filter_chain(pts, p);
        const exec::LexSorted want = exec::lex_sort(pts, chain, p);
        for (const bool keep : {false, true}) {
          std::vector<Point2> buf = pts;
          const exec::InPlaceSort got =
              exec::lex_sort_in_place(buf, chain, keep, p);
          const std::size_t m = got.survivors;
          ASSERT_EQ(m, want.order.size()) << "n " << n << " input " << f;
          ASSERT_EQ(got.order.size(), keep ? n : m);
          ASSERT_TRUE(std::equal(want.order.begin(), want.order.end(),
                                 got.order.begin()))
              << "n " << n << " input " << f << " keep " << keep;
          ASSERT_TRUE(same_bits(want.points,
                                std::vector<Point2>(buf.begin(), buf.begin() + m)));
          if (!keep) continue;
          // The rest of the buffer is the other input points, each with
          // its own index: together a permutation of the input.
          std::vector<char> seen(n, 0);
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t k = got.order[i];
            ASSERT_LT(k, n);
            ASSERT_FALSE(seen[k]);
            seen[k] = 1;
            ASSERT_EQ(std::memcmp(&buf[i], &pts[k], sizeof(Point2)), 0);
          }
        }
      }
    }
  }
}

// --- the workspace watermark -----------------------------------------

constexpr std::size_t kWatermarkN = std::size_t{1} << 18;

struct Bound {
  std::size_t in_place;
  std::size_t copying;
};

/// The bounds for an n-point input with m survivors on a pool of width w.
Bound bounds(std::size_t n, std::size_t m, unsigned w, bool asked) {
  const std::size_t common =
      n / 8 + w * (std::size_t{400} << 10) + (std::size_t{64} << 10) +
      (asked ? 4 * n : 0);
  return {8 * n + common, 24 * m + common};
}

TEST(Watermark, BothEntriesStayWithinTheirWorkspace) {
  const std::pair<const char*, geom::Family2D> families[] = {
      {"circle", geom::Family2D::kCircle},
      {"disk", geom::Family2D::kDisk},
      {"collinear", geom::Family2D::kCollinear},
      {"duplicates", geom::Family2D::kDuplicates},
  };
  for (const unsigned w : {1u, 4u}) {
    NativeBackend engine(w);
    for (const auto& [name, family] : families) {
      const std::vector<Point2> pts = geom::make2d(family, kWatermarkN, 3);
      const std::size_t m =
          exec::lex_sort(pts, exec::filter_chain(pts, nullptr), nullptr)
              .order.size();
      for (const bool asked : {false, true}) {
        const Bound b = bounds(pts.size(), m, w, asked);
        // Warm the pool and the allocator once, uncounted.
        {
          std::vector<Point2> buf = pts;
          engine.upper_hull_in_place(buf, 0, 8, asked);
        }
        std::vector<Point2> buf = pts;
        HullRun in_place;
        const std::size_t in_place_peak = peak_of(
            [&] { in_place = engine.upper_hull_in_place(buf, 0, 8, asked); });
        HullRun copying;
        const std::size_t copying_peak =
            peak_of([&] { copying = engine.upper_hull(pts, 0, 8, asked); });
        EXPECT_LE(in_place_peak, b.in_place)
            << name << " width " << w << " asked " << asked << ": "
            << static_cast<double>(in_place_peak) / pts.size()
            << " B per point";
        EXPECT_LE(copying_peak, b.copying)
            << name << " width " << w << " asked " << asked << ": "
            << static_cast<double>(copying_peak) / m << " B per survivor";
        EXPECT_EQ(in_place.hull.upper.vertices, copying.hull.upper.vertices);
        EXPECT_EQ(in_place.hull.edge_above, copying.hull.edge_above);
        // A small hull does not keep the chain buffer's capacity.
        EXPECT_LE(in_place.hull.upper.vertices.capacity(),
                  2 * in_place.hull.upper.vertices.size() + 1);
      }
    }
  }
}

}  // namespace
}  // namespace iph
