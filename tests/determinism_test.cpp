// Bit-reproducibility across hardware thread counts: the simulator's
// contract is that a run is a pure function of (input, seed), never of
// the pool scheduling. Every randomized algorithm is swept over 1, 2, 4,
// 8 and hardware_concurrency threads and must produce identical outputs
// AND identical PRAM metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <tuple>
#include <vector>

#include "core/api.h"
#include "core/fallback2d.h"
#include "core/presorted_constant.h"
#include "core/presorted_logstar.h"
#include "core/unsorted2d.h"
#include "core/unsorted3d.h"
#include "exec/pram_backend.h"
#include "geom/workloads.h"
#include "pram/machine.h"
#include "serve/batcher.h"
#include "serve/request.h"

namespace iph {
namespace {

using geom::Point2;

struct Fingerprint {
  std::vector<geom::Index> vertices;
  std::vector<geom::Index> pointers;
  std::uint64_t steps = 0;
  std::uint64_t work = 0;

  bool operator==(const Fingerprint&) const = default;
};

class ThreadDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ThreadDeterminism, AllAlgorithmsBitIdentical) {
  const int algo = GetParam();
  auto run = [&](unsigned threads) {
    Fingerprint f;
    switch (algo) {
      case 0: {
        const auto pts = geom::in_disk(3000, 5);
        pram::Machine m(threads, 99);
        const auto r = core::unsorted_hull_2d(m, pts);
        f = {r.upper.vertices, r.edge_above, m.metrics().steps,
             m.metrics().work};
        break;
      }
      case 1: {
        auto pts = geom::gaussian2(4000, 5);
        geom::sort_lex(pts);
        pram::Machine m(threads, 99);
        const auto r = core::presorted_constant_hull(m, pts);
        f = {r.upper.vertices, r.edge_above, m.metrics().steps,
             m.metrics().work};
        break;
      }
      case 2: {
        auto pts = geom::in_square(8000, 5);
        geom::sort_lex(pts);
        pram::Machine m(threads, 99);
        const auto r = core::presorted_logstar_hull(m, pts);
        f = {r.upper.vertices, r.edge_above, m.metrics().steps,
             m.metrics().work};
        break;
      }
      case 3: {
        const auto pts = geom::with_duplicates(2500, 5);
        pram::Machine m(threads, 99);
        const auto r = core::fallback_hull_2d(m, pts);
        f = {r.upper.vertices, r.edge_above, m.metrics().steps,
             m.metrics().work};
        break;
      }
      default: {
        const auto pts = geom::in_cube(900, 5);
        pram::Machine m(threads, 99);
        const auto r = core::unsorted_hull_3d(m, pts);
        std::vector<geom::Index> verts;
        for (const auto& t : r.facets) {
          verts.push_back(t.a);
          verts.push_back(t.b);
          verts.push_back(t.c);
        }
        f = {verts, r.facet_above, m.metrics().steps, m.metrics().work};
        break;
      }
    }
    return f;
  };
  const Fingerprint base = run(1);
  std::vector<unsigned> sweep{2u, 4u, 8u};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end() && hw != 1) {
    sweep.push_back(hw);
  }
  for (unsigned threads : sweep) {
    EXPECT_EQ(run(threads), base) << "threads=" << threads;
  }
}

std::string algo_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"unsorted2d", "presorted_constant",
                                      "presorted_logstar", "fallback2d",
                                      "unsorted3d"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, ThreadDeterminism,
                         ::testing::Values(0, 1, 2, 3, 4), algo_name);

// --- serving layer: batched == solo -----------------------------------
//
// The serve determinism contract (serve/request.h): a request executes
// under derive_request_seed(master, id), so its result is a pure
// function of (points, id, alpha, master seed) — NOT of which other
// requests were coalesced into the same batch, of arrival order, or of
// the shard's thread count. Batched runs must be bit-identical to solo
// runs of each request.

/// One batch on a PRAM engine over `m` alone, of copies of `reqs` (a
/// batch consumes its requests; the callers reuse theirs).
std::vector<serve::Response> pram_batch(pram::Machine& m,
                                        std::vector<serve::Request> reqs,
                                        std::uint64_t master_seed) {
  exec::PramBackend pram(m);
  serve::BackendSet backends;
  backends.pram = &pram;
  return serve::execute_batch(backends, reqs, master_seed);
}

TEST(ServeDeterminism, BatchedEqualsSoloBitIdentical) {
  constexpr std::uint64_t kMaster = 0xfeedULL;
  std::vector<serve::Request> reqs;
  for (serve::RequestId id = 1; id <= 6; ++id) {
    serve::Request r;
    r.id = id;
    r.points = geom::in_disk(200 + 37 * id, id);
    reqs.push_back(std::move(r));
  }

  pram::Machine batch_machine(2, kMaster);
  const auto batched = pram_batch(batch_machine, reqs, kMaster);
  ASSERT_EQ(batched.size(), reqs.size());

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Solo reference: own machine, different thread count on purpose.
    pram::Machine solo(4,
                       serve::derive_request_seed(kMaster, reqs[i].id));
    Options opts;
    opts.alpha = reqs[i].alpha;
    const Hull2D h = upper_hull_2d(solo, reqs[i].points, opts);
    EXPECT_EQ(batched[i].hull.upper.vertices, h.result.upper.vertices)
        << "request " << reqs[i].id;
    EXPECT_EQ(batched[i].hull.edge_above, h.result.edge_above);
    EXPECT_EQ(batched[i].metrics.steps, h.metrics.steps);
    EXPECT_EQ(batched[i].metrics.work, h.metrics.work);
    EXPECT_EQ(batched[i].metrics.max_active, h.metrics.max_active);
  }

  // Batch composition must not matter: reversed order, one machine.
  std::vector<serve::Request> reversed(reqs.rbegin(), reqs.rend());
  pram::Machine other(1, 0xdeadULL);  // pool seed is irrelevant too
  const auto rebatched = pram_batch(other, reversed, kMaster);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& fwd = batched[i];
    const auto& rev = rebatched[reqs.size() - 1 - i];
    ASSERT_EQ(fwd.id, rev.id);
    EXPECT_EQ(fwd.hull.upper.vertices, rev.hull.upper.vertices);
    EXPECT_EQ(fwd.hull.edge_above, rev.hull.edge_above);
    EXPECT_EQ(fwd.metrics.steps, rev.metrics.steps);
    EXPECT_EQ(fwd.metrics.work, rev.metrics.work);
    EXPECT_EQ(fwd.metrics.seed, rev.metrics.seed);
  }
}

}  // namespace
}  // namespace iph
