// Differential harness for the execution backends (ISSUE: iph::exec).
//
// Every case runs the SAME input through the native thread-parallel
// engine and through the PRAM-simulator oracle (exec/pram_backend over
// a fresh metered machine), then holds both to the backend.h semantics
// contract:
//   * each backend's hull passes the independent geom/validate oracles
//     (validate_upper_hull + validate_edge_above — no code shared with
//     either engine's construction),
//   * the two chains are COORDINATE-identical vertex by vertex
//     (indices may differ only where the input has duplicate points:
//     both engines then name the same location through different
//     copies),
//   * each backend is individually deterministic: a rerun reproduces
//     the exact index sequence.
// The sequential scan (seq/upper_hull.h) rides along as a third,
// pure-serial oracle for the coordinate comparison.
//
// The native engine is also held to EXACT outputs, which the validators
// alone cannot pin (validate_edge_above accepts either incident edge at
// a vertex x, and any copy of a duplicated vertex): its vertex indices
// must be the sequential scan's over the (x, y, index) order, its
// edge_above must equal seq::assign_edges_above against its chain
// element for element, and both must be bit-identical at pool widths
// 1 through 4 — for the general and the presorted entry, across the
// engine's cutoffs. Its presort, lex_sort, must return exactly the
// stable (x, y, index) order, pooled or inline.
//
// Families: every geom/workloads 2-d family (circle, disk, square,
// gaussian, convex-k, collinear, duplicates, lattice), a near-collinear
// torture family built from 1-ulp perturbations of a line (exact-
// predicate stress), and a set of adversarial seeds, over n from the
// empty/degenerate sizes {0,1,2,3} through the parallel-path sizes
// (the native engine's radix sort and chunked scan only engage above
// its internal cutoffs, so the sweep crosses them deliberately).
//
// A time-bounded fuzz loop (IPH_EXEC_FUZZ_MS, default 200 ms; CI's
// nightly job raises it) draws random (family, n, seed) triples and
// diffs the backends — one draw in eight at 2^14..2^17 points, where the
// native engine runs its parallel paths and the sequential oracle
// stands in for the simulator; on mismatch it writes a standalone repro JSON
// under IPH_EXEC_REPRO_DIR (when set) before failing, and the CI
// workflow uploads those files as artifacts. ReproDirReplaysStandalone
// replays every file there through the fuzz loop's own check.
//
// Thread-sanitizer runs shrink the large sizes but still cross the
// native engine's parallel cutoffs — the fork-join pool and the
// concurrent-upper_hull case below are exactly what TSan is here for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/native_backend.h"
#include "exec/pram_backend.h"
#include "exec/radix.h"
#include "geom/point.h"
#include "geom/predicates.h"
#include "geom/validate.h"
#include "geom/workloads.h"
#include "pram/machine.h"
#include "seq/upper_hull.h"
#include "support/env.h"
#include "support/rng.h"
#include "trace/json.h"

namespace iph::exec {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Sizes that cross the native engine's internal cutoffs (radix
/// parallelism at 2^15, chunked scan at 2^14) without melting the PRAM
/// simulator under sanitizers.
std::size_t large_n() { return kSanitized ? 20000 : 50000; }
std::size_t huge_n() { return kSanitized ? 40000 : 100000; }

/// One shared native engine — upper_hull is documented safe for
/// concurrent callers, and sharing exercises that claim across the
/// whole suite.
NativeBackend& native() {
  static NativeBackend backend;
  return backend;
}

HullRun run_native(std::span<const geom::Point2> pts, std::uint64_t seed) {
  return native().upper_hull(pts, seed, /*alpha=*/8);
}

HullRun run_pram(std::span<const geom::Point2> pts, std::uint64_t seed) {
  pram::Machine m;
  PramBackend oracle(m);
  return oracle.upper_hull(pts, seed, /*alpha=*/8);
}

/// The chain's coordinates, resolved through the indices — the unit of
/// cross-backend comparison (indices may differ under duplicates).
std::vector<geom::Point2> chain_coords(std::span<const geom::Point2> pts,
                                       const geom::UpperHull2D& hull) {
  std::vector<geom::Point2> out;
  out.reserve(hull.vertices.size());
  for (const geom::Index v : hull.vertices) {
    out.push_back(pts[static_cast<std::size_t>(v)]);
  }
  return out;
}

void expect_coords_equal(const std::vector<geom::Point2>& a,
                         const std::vector<geom::Point2>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label << ": hull sizes differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << label << ": vertex " << i << " x";
    EXPECT_EQ(a[i].y, b[i].y) << label << ": vertex " << i << " y";
  }
}

/// The full differential check for one input (see file comment).
void expect_equivalent(std::span<const geom::Point2> pts, std::uint64_t seed,
                       const std::string& label) {
  const HullRun nat = run_native(pts, seed);
  const HullRun ora = run_pram(pts, seed);

  std::string err;
  EXPECT_TRUE(geom::validate_upper_hull(pts, nat.hull.upper, &err))
      << label << " (native): " << err;
  EXPECT_TRUE(geom::validate_edge_above(pts, nat.hull, &err))
      << label << " (native edge_above): " << err;
  EXPECT_TRUE(geom::validate_upper_hull(pts, ora.hull.upper, &err))
      << label << " (pram oracle): " << err;

  expect_coords_equal(chain_coords(pts, nat.hull.upper),
                      chain_coords(pts, ora.hull.upper),
                      label + " (native vs pram)");
  const geom::UpperHull2D seq_hull = seq::upper_hull(pts);
  expect_coords_equal(chain_coords(pts, nat.hull.upper),
                      chain_coords(pts, seq_hull),
                      label + " (native vs seq)");

  // Native cost metrics are all zero (backend.h cost-metric contract) —
  // anything else would poison the serving layer's exact PRAM
  // reconciliation.
  EXPECT_EQ(nat.metrics.steps, 0u) << label;
  EXPECT_EQ(nat.metrics.work, 0u) << label;
  EXPECT_EQ(nat.metrics.max_active, 0u) << label;

  // Each backend individually deterministic, down to the indices.
  const HullRun nat2 = run_native(pts, seed);
  EXPECT_EQ(nat.hull.upper.vertices, nat2.hull.upper.vertices) << label;
  EXPECT_EQ(nat.hull.edge_above, nat2.hull.edge_above) << label;
}

/// ~n points hugging the line y = x/3 with 1-ulp vertical nudges: the
/// orientation of almost every triple is decided at the last bit, so a
/// backend that strayed from the exact predicates would disagree here
/// first.
std::vector<geom::Point2> near_collinear(std::size_t n, std::uint64_t seed) {
  std::vector<geom::Point2> pts;
  pts.reserve(n);
  support::Rng rng(seed, /*stream=*/0x6e636f6cULL);  // "ncol"
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % (n / 2 + 1));
    double y = x / 3.0;
    const std::uint64_t r = rng.next_u64();
    if (r & 1) y = std::nextafter(y, (r & 2) ? 1e9 : -1e9);
    pts.push_back({x, y});
  }
  return pts;
}

// --- family sweep ------------------------------------------------------

TEST(ExecDiff, DegenerateSizesAllFamilies) {
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{3},
                                std::size_t{4}}) {
      if (f == geom::Family2D::kConvexK && n < 2) continue;  // needs k>=2
      for (const std::uint64_t seed : {1ull, 42ull}) {
        const std::vector<geom::Point2> pts = geom::make2d(f, n, seed);
        expect_equivalent(pts, seed,
                          geom::family_name(f) + " n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(ExecDiff, SmallSizesAllFamilies) {
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    for (const std::size_t n : {std::size_t{17}, std::size_t{64},
                                std::size_t{500}, std::size_t{2048}}) {
      for (const std::uint64_t seed : {7ull, 0xdeadbeefull}) {
        const std::vector<geom::Point2> pts = geom::make2d(f, n, seed);
        expect_equivalent(pts, seed,
                          geom::family_name(f) + " n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(ExecDiff, LargeCrossesParallelCutoffs) {
  // Past both native cutoffs: the radix sort runs its sliced scatter
  // and the scan runs chunked + merge. One family per hull shape class.
  const std::size_t n = large_n();
  for (const geom::Family2D f :
       {geom::Family2D::kCircle, geom::Family2D::kDisk,
        geom::Family2D::kDuplicates, geom::Family2D::kLattice}) {
    const std::vector<geom::Point2> pts = geom::make2d(f, n, 3);
    expect_equivalent(pts, 3,
                      geom::family_name(f) + " n=" + std::to_string(n));
  }
}

TEST(ExecDiff, HugeAgainstSequentialOracle) {
  // The PRAM simulator is too slow as an oracle at 1e5 under
  // sanitizers; the sequential scan and the independent validators
  // carry the check at this size.
  const std::size_t n = huge_n();
  for (const geom::Family2D f :
       {geom::Family2D::kDisk, geom::Family2D::kCollinear}) {
    const std::vector<geom::Point2> pts = geom::make2d(f, n, 11);
    const HullRun nat = run_native(pts, 11);
    std::string err;
    ASSERT_TRUE(geom::validate_upper_hull(pts, nat.hull.upper, &err))
        << geom::family_name(f) << ": " << err;
    ASSERT_TRUE(geom::validate_edge_above(pts, nat.hull, &err))
        << geom::family_name(f) << ": " << err;
    expect_coords_equal(chain_coords(pts, nat.hull.upper),
                        chain_coords(pts, seq::upper_hull(pts)),
                        geom::family_name(f) + " n=" + std::to_string(n));
  }
}

// --- degeneracy torture ------------------------------------------------

TEST(ExecDiff, NearCollinearExactPredicates) {
  for (const std::size_t n : {std::size_t{3}, std::size_t{64},
                              std::size_t{1000}, std::size_t{20000}}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      expect_equivalent(near_collinear(n, seed), seed,
                        "near_collinear n=" + std::to_string(n) +
                            " seed=" + std::to_string(seed));
    }
  }
}

TEST(ExecDiff, AllPointsEqual) {
  const std::vector<geom::Point2> pts(100, geom::Point2{2.0, -3.0});
  expect_equivalent(pts, 1, "all-equal");
}

TEST(ExecDiff, VerticalColumnsAndSignedZero) {
  // Columns of equal x (topmost wins) and a -0.0/+0.0 x pair that the
  // radix key must NOT order apart (lex_less treats them equal, so the
  // sort's tie-break must too).
  const std::vector<geom::Point2> pts = {
      {0.0, 1.0},  {0.0, 5.0},  {0.0, -2.0}, {-0.0, 7.0}, {1.0, 0.0},
      {1.0, 4.0},  {2.0, -1.0}, {2.0, 6.0},  {2.0, 6.0},  {-1.0, 0.5},
      {-1.0, 0.5}, {-0.0, 7.0},
  };
  expect_equivalent(pts, 9, "vertical-columns");
}

TEST(ExecDiff, AdversarialSeeds) {
  // Seeds chosen to cover convex-k's exact-k arcs and duplicate-heavy
  // draws at awkward sizes (one below, one at, one above the native
  // chunk grain).
  const std::uint64_t seeds[] = {0x1ull, 0xffffffffffffffffull,
                                 0x8000000000000000ull, 0x123456789abcdefull};
  for (const std::uint64_t s : seeds) {
    for (const std::size_t n : {std::size_t{8191}, std::size_t{8192},
                                std::size_t{8193}}) {
      expect_equivalent(geom::make2d(geom::Family2D::kConvexK, n, s), s,
                        "convex_k n=" + std::to_string(n));
      expect_equivalent(geom::make2d(geom::Family2D::kDuplicates, n, s), s,
                        "duplicates n=" + std::to_string(n));
    }
  }
}

// --- concurrency -------------------------------------------------------

TEST(ExecDiff, ConcurrentCallersShareOneEngine) {
  // Many threads drive the SAME NativeBackend at once (the serving
  // workers do exactly this); every caller must get the deterministic
  // answer. Sizes straddle the parallel cutoff so inline and pooled
  // runs interleave. This is the case the TSan CI job exists for.
  const std::vector<geom::Point2> small = geom::in_disk(500, 21);
  const std::vector<geom::Point2> big =
      geom::in_disk(kSanitized ? 20000 : 40000, 22);
  const std::vector<geom::Index> want_small =
      run_native(small, 0).hull.upper.vertices;
  const std::vector<geom::Index> want_big =
      run_native(big, 0).hull.upper.vertices;
  std::vector<std::thread> threads;
  std::vector<int> bad(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const auto& pts = (i + t) % 2 == 0 ? small : big;
        const auto& want = (i + t) % 2 == 0 ? want_small : want_big;
        if (run_native(pts, 0).hull.upper.vertices != want) bad[t] = 1;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
}

// --- exact outputs -----------------------------------------------------

/// One engine per pool width, shared by the exact-output cases.
NativeBackend& native_at(unsigned width) {
  static std::unique_ptr<NativeBackend> engines[4];
  std::unique_ptr<NativeBackend>& e = engines[width - 1];
  if (!e) e = std::make_unique<NativeBackend>(width);
  return *e;
}

/// A single vertical column: the whole input is one equal-x run, with
/// repeated y values.
std::vector<geom::Point2> vertical_column(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x636f6cULL);  // "col"
  std::vector<geom::Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({3.0, static_cast<double>(rng.next_u64() % 4096) - 2048.0});
  }
  return pts;
}

/// Two interleaved columns with y from a small set, so each column's top
/// has many copies — which copy names the vertex must not depend on
/// where the engine's chunk boundaries fall.
std::vector<geom::Point2> two_columns(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x327363ULL);  // "2sc"
  std::vector<geom::Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({(i & 1) ? -1.0 : 2.0,
                   static_cast<double>(rng.next_u64() % 64) * 0.5});
  }
  return pts;
}

/// The sequential scan's vertex indices over the (x, y, index) order.
std::vector<geom::Index> seq_vertex_indices(std::span<const geom::Point2> pts) {
  std::vector<geom::Index> perm(pts.size());
  std::iota(perm.begin(), perm.end(), geom::Index{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](geom::Index a, geom::Index b) {
                     return geom::lex_less(pts[a], pts[b]);
                   });
  std::vector<geom::Point2> sorted;
  sorted.reserve(pts.size());
  for (const geom::Index i : perm) sorted.push_back(pts[i]);
  std::vector<geom::Index> v = seq::upper_hull_presorted(sorted).vertices;
  for (geom::Index& i : v) i = perm[i];
  return v;
}

/// Element-wise equality, reporting the first difference only.
void expect_same(const std::vector<geom::Index>& got,
                 const std::vector<geom::Index>& want,
                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": sizes differ";
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
  EXPECT_TRUE(g == got.end())
      << label << ": first difference at " << (g - got.begin()) << " (got "
      << *g << ", want " << *w << ")";
}

/// Exact outputs of one input at widths 1-4 (see file comment). With
/// `presorted` the input is lex-sorted and runs through
/// upper_hull_presorted.
void expect_exact(std::span<const geom::Point2> pts, bool presorted,
                  const std::string& label) {
  auto run = [&](unsigned width) {
    NativeBackend& e = native_at(width);
    return presorted ? e.upper_hull_presorted(pts, 0, /*alpha=*/8)
                     : e.upper_hull(pts, 0, /*alpha=*/8);
  };
  const HullRun one = run(1);
  expect_same(one.hull.upper.vertices, seq_vertex_indices(pts),
              label + " vertices vs seq scan");
  expect_same(one.hull.edge_above,
              seq::assign_edges_above(pts, one.hull.upper),
              label + " edge_above vs seq::assign_edges_above");
  for (unsigned width = 2; width <= 4; ++width) {
    const HullRun w = run(width);
    const std::string at = label + " width " + std::to_string(width);
    expect_same(w.hull.upper.vertices, one.hull.upper.vertices,
                at + " vertices vs width 1");
    expect_same(w.hull.edge_above, one.hull.edge_above,
                at + " edge_above vs width 1");
  }
}

/// The exact-output inputs at size n: every family, a vertical column
/// and two duplicate-topped columns.
std::vector<std::pair<std::string, std::vector<geom::Point2>>> exact_inputs(
    std::size_t n, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::vector<geom::Point2>>> out;
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    out.emplace_back(geom::family_name(f), geom::make2d(f, n, seed));
  }
  out.emplace_back("vertical_column", vertical_column(n, seed));
  out.emplace_back("two_columns", two_columns(n, seed));
  return out;
}

constexpr std::size_t kExactSizes[] = {8191,    8192, 8193, std::size_t{1} << 14,
                                       (std::size_t{1} << 15) + 1, 100000};

TEST(ExecDiff, ExactOutputsAtEveryWidth) {
  for (const std::size_t n : kExactSizes) {
    for (const auto& [name, pts] : exact_inputs(n, 17)) {
      expect_exact(pts, /*presorted=*/false,
                   name + " n=" + std::to_string(n));
    }
  }
}

TEST(ExecDiff, ExactPresortedOutputsWithDuplicatesAtEveryWidth) {
  // Sorted copies keep their duplicates next to each other: the
  // presorted entry must name the same copy as the sequential scan.
  for (const std::size_t n : kExactSizes) {
    for (auto& [name, pts] : exact_inputs(n, 23)) {
      geom::sort_lex(pts);
      expect_exact(pts, /*presorted=*/true,
                   name + " presorted n=" + std::to_string(n));
    }
  }
}

// The chunk merge stops pushing a chunk's chain once a vertex past its
// first pops nothing (native_backend.cpp merge). Just above the
// parallel scan cutoff (2^14 points, 2^13 per chunk), each chunk's
// chain on a disk or convex_k starts at its slab's leftmost point,
// usually under the hull, so later vertices pop it: a merge that
// stopped after the first vertex would keep it.
TEST(ExecDiff, MergePopsChunkPrefixesAtEveryWidth) {
  for (const std::size_t n : {std::size_t{16385}, std::size_t{24577},
                              std::size_t{32769}}) {
    for (const geom::Family2D f :
         {geom::Family2D::kDisk, geom::Family2D::kConvexK}) {
      for (const std::uint64_t seed : {3u, 4u}) {
        std::vector<geom::Point2> pts = geom::make2d(f, n, seed);
        geom::sort_lex(pts);
        expect_exact(pts, /*presorted=*/true,
                     std::string(geom::family_name(f)) + " merge n=" +
                         std::to_string(n) + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(ExecDiff, LexSortIsTheXYIndexOrder) {
  // Mixed signs, both zeros, subnormals, infinities and integers — every
  // way the radix keys could order apart from lex_less, ties by index.
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,  -0.0,   1.0,     -1.0,  2.5,    -2.5, 3.0,
                           -3.0, 1e-310, -1e-310, 1e300, -1e300, inf,  -inf};
  support::Rng rng(3, /*stream=*/0x6c6578ULL);  // "lex"
  auto pick = [&] { return values[rng.next_u64() % std::size(values)]; };
  std::vector<geom::Point2> mixed;
  for (std::size_t i = 0; i < 40000; ++i) mixed.push_back({pick(), pick()});
  auto inputs = exact_inputs((std::size_t{1} << 15) + 1, 29);
  inputs.emplace_back("mixed", mixed);
  inputs.emplace_back("mixed small", std::vector<geom::Point2>(
                                         mixed.begin(), mixed.begin() + 1000));
  ThreadPool pool(4);
  for (const auto& [name, pts] : inputs) {
    std::vector<std::uint32_t> want(pts.size());
    std::iota(want.begin(), want.end(), 0u);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return geom::lex_less(pts[a], pts[b]);
                     });
    for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
      const LexSorted got = lex_sort(pts, p);
      const std::string label = name + (p ? " pooled" : " inline");
      ASSERT_EQ(got.order, want) << label;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        ASSERT_TRUE(got.points[i] == pts[want[i]]) << label << " point " << i;
      }
    }
  }
}

/// Input indices of the finite points `chain` keeps, in input order.
std::vector<std::uint32_t> kept_by(const FilterChain& chain,
                                   std::span<const geom::Point2> pts) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (geom::is_finite(pts[i]) && (!chain.prunes() || !chain.drops(pts[i]))) {
      out.push_back(i);
    }
  }
  return out;
}

/// `pts` with a non-finite point at each of `at`, cycling through NaN
/// and infinite coordinates of either sign.
std::vector<geom::Point2> with_non_finite(std::vector<geom::Point2> pts,
                                          const std::vector<std::size_t>& at) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const geom::Point2 odd[] = {{nan, nan}, {0.5, inf}, {nan, 0.25},
                              {-inf, 1.0}, {0.5, nan}, {inf, -inf}};
  for (std::size_t k = 0; k < at.size(); ++k) pts[at[k]] = odd[k % 6];
  return pts;
}

TEST(ExecDiff, LexSortOfSubsetCarriesInputIndices) {
  // The engine's overload: only the points the filter chain keeps are
  // sorted, and order names input indices — the stable (x, y, index)
  // order of the survivors, pooled or inline. The chains: the input's
  // own, whose ends span every x; that of its first third, past whose
  // ends points meet its end edges and the sort's end buckets; and one
  // that does not prune.
  auto inputs = exact_inputs((std::size_t{1} << 15) + 1, 31);
  inputs.emplace_back("tiny", geom::in_disk(5, 31));
  inputs.emplace_back("non-finite points",
                      with_non_finite(geom::in_disk((std::size_t{1} << 15) + 1, 31),
                                      {0, 5, 8192, 16385, 32768}));
  ThreadPool pool(4);
  for (const auto& [name, pts] : inputs) {
    const std::span<const geom::Point2> all(pts);
    const std::pair<const char*, FilterChain> chains[] = {
        {"own chain", filter_chain(all, &pool)},
        {"first third's chain", filter_chain(all.first(pts.size() / 3), &pool)},
        {"no chain", FilterChain{}}};
    for (const auto& [which, chain] : chains) {
      std::vector<std::uint32_t> want = kept_by(chain, pts);
      std::stable_sort(want.begin(), want.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return geom::lex_less(pts[a], pts[b]);
                       });
      for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
        const LexSorted got = lex_sort(pts, chain, p);
        const std::string label =
            name + " " + which + (p ? " pooled" : " inline");
        ASSERT_EQ(got.order, want) << label;
        ASSERT_EQ(got.points.size(), want.size()) << label;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_TRUE(got.points[i] == pts[want[i]]) << label << " point " << i;
        }
      }
    }
  }
}

/// The inputs that stress the presort's shape at size n: its leaf and
/// fan-out rules, its top-level bucket map, and every way double_key
/// orders apart from plain comparison.
std::vector<std::pair<std::string, std::vector<geom::Point2>>> presort_inputs(
    std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x707273ULL);  // "prs"
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto below = [&](std::uint64_t k) { return rng.next_u64() % k; };
  // y from a small set, so equal x come with equal y too.
  auto y_tie = [&] { return static_cast<double>(below(16)) * 0.5 - 4.0; };
  auto make = [&](auto&& point) {
    std::vector<geom::Point2> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) pts.push_back(point(i));
    return pts;
  };
  std::vector<std::pair<std::string, std::vector<geom::Point2>>> out;
  out.emplace_back("x = 1 + k ulp", make([&](std::size_t) {
                     return geom::Point2{1.0 + static_cast<double>(below(64)) *
                                                   0x1p-52,
                                         y_tie()};
                   }));
  out.emplace_back("x = +-2^-k into the subnormals", make([&](std::size_t) {
                     const int k = static_cast<int>(below(1075));
                     const double m = std::ldexp(1.0, -k);
                     return geom::Point2{below(2) ? -m : m, y_tie()};
                   }));
  // All but one point in the lowest of the top level's x slices.
  std::vector<geom::Point2> one_bucket = make([&](std::size_t) {
    return geom::Point2{std::ldexp(rng.next_double(), -40), y_tie()};
  });
  if (n > 0) one_bucket[below(n)].x = 1.0;
  out.emplace_back("one top-level bucket", one_bucket);
  out.emplace_back("one column", make([&](std::size_t) {
                     return geom::Point2{3.0, 100.0 * rng.next_double() - 50.0};
                   }));
  out.emplace_back("two columns", make([&](std::size_t) {
                     return geom::Point2{below(2) ? -1.0 : 2.0,
                                         below(2) ? y_tie()
                                                  : rng.next_double()};
                   }));
  out.emplace_back("all equal", make([&](std::size_t) {
                     return geom::Point2{1.5, -2.0};
                   }));
  const double zeros[] = {0.0, -0.0, 0.0, -0.0, 1.0, -1.0};
  out.emplace_back("+-0 in x and y", make([&](std::size_t) {
                     return geom::Point2{zeros[below(6)], zeros[below(6)]};
                   }));
  const double odd[] = {inf, -inf, nan, std::copysign(nan, -1.0), 0.0, -0.0};
  out.emplace_back("+-inf and nan", make([&](std::size_t) {
                     auto pick = [&] {
                       return below(2) ? odd[below(6)]
                                       : rng.next_double() - 0.5;
                     };
                     return geom::Point2{pick(), pick()};
                   }));
  out.emplace_back("x range overflows", make([&](std::size_t) {
                     const double x = below(4) == 0   ? -1e308
                                      : below(3) == 0 ? 1e308
                                                      : rng.next_double();
                     return geom::Point2{x, y_tie()};
                   }));
  return out;
}

/// Bitwise equality: tells -0.0 from +0.0 and compares NaNs.
bool same_bits(const geom::Point2& a, const geom::Point2& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A chain that drops the points certified strictly below y = 0: the
/// one edge (-1, 0)-(1, 0), extended both ways. Its range [-1, 1] holds
/// few of an adversarial input's x's, so the sort's end buckets take
/// the rest.
FilterChain below_axis() {
  FilterChain c;
  c.v[0] = {-1.0, 0.0};
  c.v[1] = {1.0, 0.0};
  c.size = 2;
  c.split.fill(std::numeric_limits<double>::infinity());
  return c;
}

TEST(ExecDiff, PresortAdversarialInputs) {
  // Each input at the leaf size -1, at it and +1, and at the parallel
  // cutoff -1, at it and +1, at pool widths 1-4 and inline: whole
  // through the plain lex_sort, infinities and NaNs included, and
  // through the engine's overload with three chains (one that does not
  // prune, its own, and below_axis), which keeps the finite points the
  // chain keeps. Each against a stable sort of the points it keeps by
  // lex_less — or, where NaNs make lex_less no order, by the (x-key,
  // y-key) order double_key defines. Points must come back bit for bit.
  const std::size_t sizes[] = {kSortLeaf - 1,      kSortLeaf,
                               kSortLeaf + 1,      kSortParCutoff - 1,
                               kSortParCutoff,     kSortParCutoff + 1};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (unsigned w = 1; w <= 4; ++w) {
    pools.push_back(std::make_unique<ThreadPool>(w));
  }
  for (const std::size_t n : sizes) {
    for (const auto& [name, pts] : presort_inputs(n, n)) {
      const bool nan = std::any_of(pts.begin(), pts.end(), [](const auto& q) {
        return std::isnan(q.x) || std::isnan(q.y);
      });
      auto before = [&](std::uint32_t a, std::uint32_t b) {
        if (!nan) return geom::lex_less(pts[a], pts[b]);
        const auto ka = std::pair(double_key(pts[a].x), double_key(pts[a].y));
        const auto kb = std::pair(double_key(pts[b].x), double_key(pts[b].y));
        return ka < kb;
      };
      std::vector<ThreadPool*> widths = {nullptr};
      for (const auto& pool : pools) widths.push_back(pool.get());
      auto expect_sorted = [&](std::vector<std::uint32_t> want,
                               const auto& sort, const std::string& which) {
        std::stable_sort(want.begin(), want.end(), before);
        for (ThreadPool* p : widths) {
          const std::string label =
              name + " n=" + std::to_string(n) + " " + which + " width " +
              std::to_string(p != nullptr ? p->threads() : 0);
          const LexSorted g = sort(p);
          ASSERT_EQ(g.order, want) << label;
          ASSERT_EQ(g.points.size(), want.size()) << label;
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_TRUE(same_bits(g.points[i], pts[want[i]]))
                << label << " point " << i;
          }
        }
      };
      std::vector<std::uint32_t> every(pts.size());
      std::iota(every.begin(), every.end(), 0u);
      expect_sorted(every, [&](ThreadPool* p) { return lex_sort(pts, p); },
                    "plain");
      const std::pair<const char*, FilterChain> chains[] = {
          {"no prune", FilterChain{}},
          {"own chain", filter_chain(pts, nullptr)},
          {"below y = 0", below_axis()}};
      for (const auto& [which, chain] : chains) {
        expect_sorted(kept_by(chain, pts),
                      [&](ThreadPool* p) { return lex_sort(pts, chain, p); },
                      which);
      }
    }
  }
}

// --- the prune ---------------------------------------------------------

/// expect_exact (edge_above asked), then the same input with edge_above
/// skipped: at widths 1-4 an empty array and the sequential scan's
/// vertex indices.
void expect_exact_both(std::span<const geom::Point2> pts,
                       const std::string& label) {
  expect_exact(pts, /*presorted=*/false, label);
  const std::vector<geom::Index> want = seq_vertex_indices(pts);
  for (unsigned width = 1; width <= 4; ++width) {
    const HullRun skip =
        native_at(width).upper_hull(pts, 0, /*alpha=*/8, /*edge_above=*/false);
    const std::string at = label + " skipped, width " + std::to_string(width);
    expect_same(skip.hull.upper.vertices, want, at + " vertices vs seq scan");
    EXPECT_TRUE(skip.hull.edge_above.empty()) << at;
  }
}

/// `pts` padded with random points strictly inside the triangle
/// (-4s, 0), (0, 4s), (4s, 0) to n points, shuffled: the prune drops the
/// padding, and the special points land anywhere in the order, on both
/// sides of the engine's parallel cutoffs.
std::vector<geom::Point2> padded(std::vector<geom::Point2> pts, std::size_t n,
                                 double s, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x706164ULL);  // "pad"
  while (pts.size() < n) {
    const double x = -3.0 + 6.0 * rng.next_double();
    const double y = 0.5 + (3.0 - std::fabs(x)) * rng.next_double();
    pts.push_back({s * x, s * y});
  }
  for (std::size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[rng.next_u64() % i]);
  }
  return pts;
}

/// Points exactly on the filter chain's edges and 1 ulp either side. The
/// extremes are A = (-4, 0) (lex-min), B = (4, 0) (lex-max) and
/// T = (0, 4) (max y, and first to reach the max of x+y and of y-x), so
/// the chain is A-T-B. Dyadic points sit exactly on an edge; points at
/// fractional positions of an edge round off it either way, which puts
/// their filter test in its uncertain band.
std::vector<geom::Point2> on_chain_edges() {
  const auto down = [](double v) { return std::nextafter(v, -1e9); };
  const auto up = [](double v) { return std::nextafter(v, 1e9); };
  std::vector<geom::Point2> pts = {{0.0, 4.0}, {-4.0, 0.0}, {4.0, 0.0}};
  for (const double x : {-3.5, -2.0, -1.0, -0.25}) {
    pts.push_back({x, x + 4.0});            // on A-T
    pts.push_back({x, down(x + 4.0)});      // 1 ulp below
    pts.push_back({up(x), x + 4.0});        // 1 ulp right: below A-T
    pts.push_back({-x, x + 4.0});           // on T-B
    pts.push_back({-x, down(x + 4.0)});     // 1 ulp below
    pts.push_back({down(-x), x + 4.0});     // 1 ulp left: below T-B
  }
  for (const double t : {0.1, 0.3, 0.7, 0.9}) {
    const double x = -4.0 + 4.0 * t;
    const double y = 4.0 * t;
    pts.push_back({x, y});
    pts.push_back({x, down(y)});
    pts.push_back({-x, y});
    pts.push_back({-x, down(y)});
  }
  // One point 1 ulp above A-T: it becomes a hull vertex.
  pts.push_back({down(-2.0), 2.0});
  return pts;
}

/// The chord from A = (-3.3, 1.1) to B = (7.7, 2.9): A and B are the
/// only extremes of near_chord's points, so the filter chain is that
/// chord.
constexpr geom::Point2 kChordA{-3.3, 1.1};
constexpr geom::Point2 kChordB{7.7, 2.9};

/// A, B and n - 2 points within an ulp of the chord at x in [3, 6]. The
/// coordinates are not dyadic and the points sit far from A, so the
/// plain double determinant against the chord sometimes has the wrong
/// sign; only the filter's bound tells. With n = 3 the middle point is a
/// hull vertex exactly when it lies above the chord.
std::vector<geom::Point2> near_chord(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x63726dULL);  // "crd"
  std::vector<geom::Point2> pts = {kChordA, kChordB};
  while (pts.size() < n) {
    const double x = 3.0 + 3.0 * rng.next_double();
    double y = kChordA.y + (x - kChordA.x) / (kChordB.x - kChordA.x) *
                               (kChordB.y - kChordA.y);
    const std::uint64_t nudge = rng.next_u64() % 3;  // none, up, down
    if (nudge != 0) y = std::nextafter(y, nudge == 1 ? 1e9 : -1e9);
    pts.push_back({x, y});
  }
  return pts;
}

/// Every point on the diamond |x| + |y| = 1 with signed zeros at its
/// tips, and copies of the tips with the zero's sign flipped.
std::vector<geom::Point2> signed_zero_diamond() {
  return {{-0.0, 1.0},  {0.0, 1.0},   {1.0, -0.0},  {1.0, 0.0},
          {-1.0, 0.0},  {-1.0, -0.0}, {0.0, -1.0},  {-0.0, -1.0},
          {0.5, 0.5},   {-0.5, 0.5},  {0.5, -0.5},  {-0.5, -0.5},
          {0.0, 0.0},   {-0.0, -0.0}, {0.0, -0.0},  {-0.0, 0.25},
          {0.25, -0.0}, {-0.25, 0.0}, {-0.0, 1.0},  {0.0, 1.0}};
}

/// n random points with x in [x0, x1] and y in [y0, y1].
std::vector<geom::Point2> box(std::size_t n, double x0, double x1, double y0,
                              double y1, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x626f78ULL);  // "box"
  std::vector<geom::Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({x0 + (x1 - x0) * rng.next_double(),
                   y0 + (y1 - y0) * rng.next_double()});
  }
  return pts;
}

/// n random points of the integer grid inside the disk of radius 2^20,
/// scaled by 2^-537 (coordinates about 1e-156 and below): every
/// determinant is below the static filter's scale, and orient2d's exact
/// expansion stays exact on this grid.
std::vector<geom::Point2> tiny_grid_disk(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x746764ULL);  // "tgd"
  const double r = 0x1p20;
  std::vector<geom::Point2> pts;
  pts.reserve(n);
  while (pts.size() < n) {
    const double x = std::round(r * (2.0 * rng.next_double() - 1.0));
    const double y = std::round(r * (2.0 * rng.next_double() - 1.0));
    if (x * x + y * y > r * r) continue;
    pts.push_back({std::ldexp(x, -537), std::ldexp(y, -537)});
  }
  return pts;
}

TEST(ExecDiff, PruneAdversarialInputsAreExact) {
  // n <= 5 with coinciding extremes: coordinates from a tiny set, so
  // ties, copies and shared columns are the rule.
  const double small[] = {-1.0, -0.0, 0.0, 1.0, 2.0};
  support::Rng rng(7, /*stream=*/0x70726eULL);  // "prn"
  for (std::size_t n = 1; n <= 5; ++n) {
    for (int draw = 0; draw < 40; ++draw) {
      std::vector<geom::Point2> pts;
      for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({small[rng.next_u64() % 5], small[rng.next_u64() % 5]});
      }
      expect_exact_both(pts, "tiny n=" + std::to_string(n) + " draw " +
                                 std::to_string(draw));
    }
  }
  // Coinciding extremes: one column, two columns, all on one line, all
  // equal.
  const std::size_t big = (std::size_t{1} << 15) + 1;
  for (const std::size_t n : {std::size_t{5}, std::size_t{300}, big}) {
    const std::string at = " n=" + std::to_string(n);
    expect_exact_both(vertical_column(n, 3), "one column" + at);
    expect_exact_both(two_columns(n, 3), "two columns" + at);
    std::vector<geom::Point2> line;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>((i * 7919) % n);
      line.push_back({x, 2.0 * x - 3.0});
    }
    expect_exact_both(line, "one line" + at);
    expect_exact_both(std::vector<geom::Point2>(n, geom::Point2{1.5, -2.0}),
                      "all equal" + at);
  }
  // On a chain edge and 1 ulp off it, alone and padded past the cutoffs.
  expect_exact_both(on_chain_edges(), "on chain edges");
  for (const std::size_t n : {std::size_t{5000}, big}) {
    expect_exact_both(padded(on_chain_edges(), n, 1.0, 11),
                      "on chain edges padded n=" + std::to_string(n));
  }
  // Within an ulp of the chain edge, where only a certified sign may
  // drop: alone (the point is a vertex iff it is above the chord) and
  // in crowds. The draws must include vertices whose plain double
  // determinant says "below", or they would not test the bound.
  std::size_t misleading = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    const std::vector<geom::Point2> pts = near_chord(3, seed);
    const geom::Point2& q = pts[2];
    misleading += geom::orient2d(kChordA, kChordB, q) > 0 &&
                  geom::detail::filtered_det(kChordA, kChordB, kChordA, q).det < 0;
    expect_exact_both(pts, "near chord n=3 seed=" + std::to_string(seed));
  }
  EXPECT_GT(misleading, 0u);
  for (const std::size_t n : {std::size_t{3000}, big}) {
    expect_exact_both(near_chord(n, 17), "near chord n=" + std::to_string(n));
  }
  // Signed zeros as extremes.
  expect_exact_both(signed_zero_diamond(), "signed-zero diamond");
  expect_exact_both(padded(signed_zero_diamond(), 3000, 0.25, 13),
                    "signed-zero diamond padded");
  // Determinants below the static filter's scale, where it certifies
  // nothing: the prune keeps every point.
  for (const std::size_t n : {std::size_t{3000}, big}) {
    expect_exact_both(tiny_grid_disk(n, 23),
                      "2^-537 grid disk n=" + std::to_string(n));
  }
  // Coordinates near +-1e308, in ranges where orient2d stays exact (no
  // product or difference overflows), so the sequential scan is still
  // the oracle.
  for (const std::size_t n : {std::size_t{1000}, big}) {
    const std::string at = " n=" + std::to_string(n);
    expect_exact_both(box(n, 0.5e308, 1e308, -0.5, 0.5, 1), "x near 1e308" + at);
    expect_exact_both(box(n, -1e308, -0.5e308, -0.5, 0.5, 2),
                      "x near -1e308" + at);
    expect_exact_both(box(n, -0.5, 0.5, 0.5e308, 1e308, 3), "y near 1e308" + at);
    expect_exact_both(box(n, -0.5, 0.5, -1e308, -0.5e308, 4),
                      "y near -1e308" + at);
  }
}

TEST(ExecDiff, OverflowAndInfinityReturnWithoutCrashing) {
  // Differences that overflow, and an infinite coordinate: the exact
  // predicates cannot hold here, so only the shape of the answer is
  // checked — and that the engine returns at all.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, std::vector<geom::Point2>>> inputs;
  // Finite coordinates out to +-1e308 (box() would compute x1 - x0 =
  // 2e308, an infinity, and make every point non-finite).
  std::vector<geom::Point2> wide = box(5000, -1.0, 1.0, -1.0, 1.0, 5);
  for (geom::Point2& p : wide) p = {p.x * 1e308, p.y * 1e308};
  inputs.emplace_back("overflowing differences", std::move(wide));
  for (const geom::Point2 odd : {geom::Point2{inf, 0.0}, geom::Point2{0.0, -inf},
                                 geom::Point2{-inf, 1.0}, geom::Point2{0.5, inf}}) {
    std::vector<geom::Point2> pts = geom::in_disk(20000, 9);
    pts[7777] = odd;
    inputs.emplace_back("infinity at (" + std::to_string(odd.x) + ", " +
                            std::to_string(odd.y) + ")",
                        std::move(pts));
  }
  for (const auto& [name, pts] : inputs) {
    for (const bool ask : {true, false}) {
      const HullRun run = native_at(2).upper_hull(pts, 0, /*alpha=*/8, ask);
      EXPECT_FALSE(run.hull.upper.vertices.empty()) << name;
      for (const geom::Index v : run.hull.upper.vertices) {
        ASSERT_LT(v, pts.size()) << name;
      }
      EXPECT_EQ(run.hull.edge_above.size(), ask ? pts.size() : 0u) << name;
    }
  }
}

/// 20,000 points: 10,000 in the triangle (9, 0), (10, 1), (11, 0), then
/// 10,000 on the upper half of the unit circle at the origin.
std::vector<geom::Point2> triangle_then_arc(std::uint64_t seed) {
  support::Rng rng(seed, /*stream=*/0x747261ULL);  // "tra"
  std::vector<geom::Point2> pts;
  pts.reserve(20000);
  for (int i = 0; i < 10000; ++i) {
    const double x = 9.0 + 2.0 * rng.next_double();
    pts.push_back({x, (1.0 - std::fabs(x - 10.0)) * rng.next_double()});
  }
  const double pi = std::acos(-1.0);
  for (int i = 0; i < 10000; ++i) {
    const double t = pi * i / 9999.0;
    pts.push_back({std::cos(t), std::sin(t)});
  }
  return pts;
}

/// Every pool-slice start of the engine's passes over its n input
/// points (slice grain 2^13) at widths 1-4.
std::vector<std::size_t> input_slice_starts(std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t width = 1; width <= 4; ++width) {
    const std::size_t slices = std::min(width, (n + 8191) / 8192);
    const std::size_t chunk = (n + slices - 1) / slices;
    for (std::size_t s = 0; s < slices; ++s) out.push_back(s * chunk);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(ExecDiff, NonFinitePointsAreNotPointsOfThePlane) {
  // A point with a NaN or infinite coordinate is never an extreme and
  // never a survivor, and its edge_above entry is kNone: at every
  // width, asked or not, the answer is the sequential scan's hull of
  // the finite points, in input indices. A NaN first in a pool slice
  // once froze that slice's extremes, a NaN first in the input once
  // broke the chunk scans and the merge, and an infinite extreme once
  // let its point into the sort: each gave a different hull per width.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto with = [](std::vector<geom::Point2> pts, std::size_t i,
                 geom::Point2 odd) {
    pts[i] = odd;
    return pts;
  };
  std::vector<std::pair<std::string, std::vector<geom::Point2>>> inputs;
  inputs.reserve(16);
  inputs.emplace_back("triangle then arc, NaN at 10000",
                      with(triangle_then_arc(3), 10000, {nan, nan}));
  inputs.emplace_back("triangle then arc, NaN at 0",
                      with(triangle_then_arc(3), 0, {nan, nan}));
  inputs.emplace_back("disk, (0.5, inf) at 7777",
                      with(geom::in_disk(20000, 9), 7777, {0.5, inf}));
  inputs.emplace_back("disk, (0.5, NaN) at 0",
                      with(geom::in_disk(20000, 9), 0, {0.5, nan}));
  for (const std::size_t n : {std::size_t{20000}, (std::size_t{1} << 15) + 1}) {
    const std::string at = " n=" + std::to_string(n);
    inputs.emplace_back("disk, non-finite at every slice start" + at,
                        with_non_finite(geom::in_disk(n, 9),
                                        input_slice_starts(n)));
    inputs.emplace_back("circle, non-finite at every slice start" + at,
                        with_non_finite(geom::on_circle(n, 9),
                                        input_slice_starts(n)));
  }
  inputs.emplace_back("tiny, NaN first", std::vector<geom::Point2>{
                                             {nan, 1.0}, {0, 0}, {1, 1}, {2, 0}});
  inputs.emplace_back("one finite point",
                      std::vector<geom::Point2>{{inf, 1.0}, {3, 4}, {nan, nan}});
  inputs.emplace_back("no finite point",
                      with_non_finite(std::vector<geom::Point2>(3), {0, 1, 2}));

  for (const auto& [name, pts] : inputs) {
    std::vector<geom::Point2> finite;
    std::vector<geom::Index> index;  // input index of finite[k]
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (!geom::is_finite(pts[i])) continue;
      finite.push_back(pts[i]);
      index.push_back(static_cast<geom::Index>(i));
    }
    geom::UpperHull2D hull;
    hull.vertices = seq_vertex_indices(finite);
    const std::vector<geom::Index> edges =
        seq::assign_edges_above(finite, hull);
    std::vector<geom::Index> want_above(pts.size(), geom::kNone);
    for (std::size_t k = 0; k < finite.size(); ++k) {
      want_above[index[k]] = edges[k];
    }
    for (geom::Index& v : hull.vertices) v = index[v];
    for (unsigned width = 1; width <= 4; ++width) {
      for (const bool ask : {true, false}) {
        const HullRun run =
            native_at(width).upper_hull(pts, 0, /*alpha=*/8, ask);
        const std::string at = name + " width " + std::to_string(width) +
                               (ask ? " asked" : " skipped");
        expect_same(run.hull.upper.vertices, hull.vertices,
                    at + " vertices vs seq scan of the finite points");
        if (ask) {
          expect_same(run.hull.edge_above, want_above, at + " edge_above");
        } else {
          EXPECT_TRUE(run.hull.edge_above.empty()) << at;
        }
      }
    }
  }
}

// --- the presorted seam ------------------------------------------------

/// Differential check for Backend::upper_hull_presorted — the entry the
/// session rebuild audit rides. Input must already be lex-sorted; the
/// chains from both backends must match each other and the sequential
/// presorted scan, coordinate for coordinate.
void expect_presorted_equivalent(std::vector<geom::Point2> pts,
                                 std::uint64_t seed,
                                 const std::string& label) {
  std::sort(pts.begin(), pts.end(),
            [](const geom::Point2& a, const geom::Point2& b) {
              return geom::lex_less(a, b);
            });
  const HullRun nat = native().upper_hull_presorted(pts, seed, /*alpha=*/8);
  pram::Machine m;
  PramBackend oracle(m);
  const HullRun ora = oracle.upper_hull_presorted(pts, seed, /*alpha=*/8);

  std::string err;
  EXPECT_TRUE(geom::validate_upper_hull(pts, nat.hull.upper, &err))
      << label << " (native presorted): " << err;
  EXPECT_TRUE(geom::validate_upper_hull(pts, ora.hull.upper, &err))
      << label << " (pram presorted): " << err;
  expect_coords_equal(chain_coords(pts, nat.hull.upper),
                      chain_coords(pts, ora.hull.upper),
                      label + " (native vs pram presorted)");
  expect_coords_equal(chain_coords(pts, nat.hull.upper),
                      chain_coords(pts, seq::upper_hull_presorted(pts)),
                      label + " (presorted vs seq presorted)");
  // And the presorted path must agree with the general entry on the
  // same (sorted) input — sorting twice is allowed, diverging is not.
  expect_coords_equal(chain_coords(pts, nat.hull.upper),
                      chain_coords(pts, run_native(pts, seed).hull.upper),
                      label + " (presorted vs unsorted entry)");
}

TEST(ExecDiff, PresortedSeamMatchesAllOracles) {
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{17},
                                std::size_t{500}, std::size_t{4096}}) {
      if (f == geom::Family2D::kConvexK && n < 2) continue;
      expect_presorted_equivalent(
          geom::make2d(f, n, 29), 29,
          geom::family_name(f) + " presorted n=" + std::to_string(n));
    }
  }
  // Duplicate-heavy and column-heavy inputs stress the sorted-ties path.
  expect_presorted_equivalent(
      std::vector<geom::Point2>(64, geom::Point2{1.0, 1.0}), 5,
      "presorted all-equal");
  expect_presorted_equivalent(near_collinear(2000, 7), 7,
                              "presorted near-collinear");
}

// --- fuzz check ----------------------------------------------------------

/// Draws from here on run the native engine's parallel paths; the
/// simulator is too slow at these sizes, so the sequential scan is the
/// oracle instead.
constexpr std::size_t kFuzzLargeMin = std::size_t{1} << 14;

/// The check one fuzz draw must pass, shared with the repro replay so a
/// saved failure fails again the same way: the native hull passes the
/// validators, its chain matches the oracle's coordinates (the PRAM
/// simulator below kFuzzLargeMin points, the sequential scan from
/// there), and its edge_above equals seq::assign_edges_above element-
/// wise — which the validators alone would not pin. A draw that skips
/// edge_above must also get an empty array and the asked run's vertex
/// indices. Returns what failed, or "" when the draw passes.
std::string fuzz_mismatch(std::span<const geom::Point2> pts,
                          std::uint64_t seed, bool edge_above) {
  const HullRun nat = run_native(pts, seed);
  if (!edge_above) {
    const HullRun skip =
        native().upper_hull(pts, seed, /*alpha=*/8, /*edge_above=*/false);
    if (!skip.hull.edge_above.empty()) return "skipped edge_above not empty";
    if (skip.hull.upper.vertices != nat.hull.upper.vertices) {
      return "skipped draw's vertices differ from the asked draw's";
    }
  }
  std::string err;
  if (!geom::validate_upper_hull(pts, nat.hull.upper, &err) ||
      !geom::validate_edge_above(pts, nat.hull, &err)) {
    return "invalid: " + err;
  }
  const geom::UpperHull2D want = pts.size() >= kFuzzLargeMin
                                     ? seq::upper_hull(pts)
                                     : run_pram(pts, seed).hull.upper;
  if (chain_coords(pts, nat.hull.upper) != chain_coords(pts, want)) {
    return "chain differs from the oracle's";
  }
  if (nat.hull.edge_above != seq::assign_edges_above(pts, nat.hull.upper)) {
    return "edge_above differs from seq::assign_edges_above";
  }
  return "";
}

// --- repro files -------------------------------------------------------

void write_repro(const std::string& dir, std::uint64_t fuzz_seed,
                 geom::Family2D f, std::size_t n, std::uint64_t seed,
                 std::span<const geom::Point2> pts);

/// Load a repro JSON written by write_repro (or session_test's
/// equivalent) back into a point set. Returns false with a message on
/// any malformed shape — the loader is itself under test below.
bool load_repro(const std::string& path, std::vector<geom::Point2>* pts,
                std::uint64_t* seed, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  trace::Json j;
  if (!trace::Json::parse(buf.str(), &j, err)) return false;
  const trace::Json* points = j.find("points");
  if (points == nullptr || !points->is_array()) {
    *err = "missing points array";
    return false;
  }
  pts->clear();
  pts->reserve(points->size());
  for (const trace::Json& p : points->items()) {
    if (!p.is_array() || p.size() != 2 || !p.at(0).is_number() ||
        !p.at(1).is_number()) {
      *err = "malformed point entry";
      return false;
    }
    pts->push_back({p.at(0).as_double(), p.at(1).as_double()});
  }
  *seed = static_cast<std::uint64_t>(j.get_num("seed", 0));
  return true;
}

// Round-trip: write_repro -> load_repro must reproduce the exact
// doubles (%.17g is bit-faithful), and the replay must pass the full
// differential check — proving a CI-uploaded artifact is sufficient to
// rerun a failure standalone.
TEST(ExecDiff, ReproWriteLoadReplayRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::uint64_t fz = 0xfeedULL;
  const std::vector<geom::Point2> pts = near_collinear(257, 13);
  write_repro(dir, fz, geom::Family2D::kDisk, pts.size(), 13, pts);

  std::vector<geom::Point2> loaded;
  std::uint64_t seed = 0;
  std::string err;
  ASSERT_TRUE(load_repro(dir + "/exec_diff_repro_" + std::to_string(fz) +
                             ".json",
                         &loaded, &seed, &err))
      << err;
  EXPECT_EQ(seed, 13u);
  ASSERT_EQ(loaded.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(loaded[i].x, pts[i].x) << "point " << i << " x not bit-exact";
    EXPECT_EQ(loaded[i].y, pts[i].y) << "point " << i << " y not bit-exact";
  }
  expect_equivalent(loaded, seed, "repro round-trip replay");
}

// Replay every repro file found under IPH_EXEC_REPRO_DIR through the
// fuzz loop's own check. Past fuzz failures (exec_diff's and
// session_test's — same file shape) become standing regressions just by
// leaving the artifact in the directory.
TEST(ExecDiff, ReproDirReplaysStandalone) {
  const std::string dir = support::env_string("IPH_EXEC_REPRO_DIR", "");
  if (dir.empty() || !std::filesystem::is_directory(dir)) {
    GTEST_SKIP() << "IPH_EXEC_REPRO_DIR not set";
  }
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::vector<geom::Point2> pts;
    std::uint64_t seed = 0;
    std::string err;
    ASSERT_TRUE(load_repro(entry.path().string(), &pts, &seed, &err))
        << entry.path() << ": " << err;
    EXPECT_EQ(fuzz_mismatch(pts, seed, /*edge_above=*/true), "")
        << entry.path();
    EXPECT_EQ(fuzz_mismatch(pts, seed, /*edge_above=*/false), "")
        << entry.path();
    ++replayed;
  }
  std::printf("exec_diff repro: replayed %zu file(s) from %s\n", replayed,
              dir.c_str());
}

// --- time-bounded fuzz -------------------------------------------------

void write_repro(const std::string& dir, std::uint64_t fuzz_seed,
                 const geom::Family2D f, std::size_t n, std::uint64_t seed,
                 std::span<const geom::Point2> pts) {
  const std::string path =
      dir + "/exec_diff_repro_" + std::to_string(fuzz_seed) + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\"family\": \"%s\", \"n\": %zu, \"seed\": %llu,\n"
               " \"points\": [",
               geom::family_name(f).c_str(), n,
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::fprintf(out, "%s[%.17g, %.17g]", i == 0 ? "" : ", ", pts[i].x,
                 pts[i].y);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

TEST(ExecDiff, FuzzTimeBounded) {
  const std::uint64_t budget_ms =
      support::env_u64("IPH_EXEC_FUZZ_MS", kSanitized ? 100 : 200);
  const std::string repro_dir =
      support::env_string("IPH_EXEC_REPRO_DIR", "");
  const std::uint64_t master = support::env_seed();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  std::uint64_t iters = 0;
  std::uint64_t large_iters = 0;
  constexpr std::size_t kNumFamilies =
      sizeof(geom::kAllFamilies2D) / sizeof(geom::kAllFamilies2D[0]);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t fz = support::mix3(master, 0xf0220, iters++);
    const geom::Family2D f =
        geom::kAllFamilies2D[fz % kNumFamilies];
    // One draw in eight is large enough for the native engine's
    // parallel radix, chunked scan and sliced walk.
    const bool large = support::splitmix64(fz ^ 0x1a46e) % 8 == 0;
    constexpr std::size_t kLargeMax = std::size_t{1} << 17;
    const std::size_t n =
        large ? kFuzzLargeMin +
                    static_cast<std::size_t>(support::splitmix64(fz) %
                                             (kLargeMax - kFuzzLargeMin + 1))
              : 2 + static_cast<std::size_t>(support::splitmix64(fz) % 3000);
    const std::uint64_t seed = support::splitmix64(fz ^ 0xabcd);
    large_iters += large ? 1 : 0;
    const std::vector<geom::Point2> pts = geom::make2d(f, n, seed);
    // Draws alternate between asking for edge_above and skipping it.
    const bool edge_above = iters % 2 == 1;
    const std::string why = fuzz_mismatch(pts, seed, edge_above);
    if (!why.empty()) {
      if (!repro_dir.empty()) write_repro(repro_dir, fz, f, n, seed, pts);
      FAIL() << "fuzz mismatch: family=" << geom::family_name(f)
             << " n=" << n << " seed=" << seed << " master=" << master
             << " edge_above=" << edge_above << ": " << why;
    }
  }
  // Visible in --output-on-failure logs and the nightly job's output.
  std::printf("exec_diff fuzz: %llu iterations (%llu large) in %llu ms budget\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(large_iters),
              static_cast<unsigned long long>(budget_ms));
}

}  // namespace
}  // namespace iph::exec
