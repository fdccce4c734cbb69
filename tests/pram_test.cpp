#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <tuple>
#include <vector>

#include "pram/allocation.h"
#include "pram/cells.h"
#include "pram/machine.h"

namespace iph::pram {
namespace {

TEST(Machine, StepRunsEveryPid) {
  Machine m(2);
  constexpr std::uint64_t n = 10000;
  std::vector<std::uint64_t> hit(n, 0);
  m.step(n, [&](std::uint64_t pid) { hit[pid] += 1; });
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(hit[i], 1u) << i;
}

TEST(Machine, MetricsCountStepsAndWork) {
  Machine m(1);
  m.step(100, [](std::uint64_t) {});
  m.step(50, [](std::uint64_t) {});
  EXPECT_EQ(m.metrics().steps, 2u);
  EXPECT_EQ(m.metrics().work, 150u);
  EXPECT_EQ(m.metrics().max_active, 100u);
}

TEST(Machine, StepActiveChargesActiveOnly) {
  Machine m(1);
  m.step_active(1000, 10, [](std::uint64_t) {});
  EXPECT_EQ(m.metrics().steps, 1u);
  EXPECT_EQ(m.metrics().work, 10u);
}

TEST(Machine, ZeroProcessorStepStillTicksTime) {
  Machine m(1);
  m.step(0, [](std::uint64_t) { FAIL() << "no pid should run"; });
  EXPECT_EQ(m.metrics().steps, 1u);
  EXPECT_EQ(m.metrics().work, 0u);
}

TEST(Machine, ChargeAccountsAbstractCost) {
  Machine m(1);
  m.charge(3, 7);
  EXPECT_EQ(m.metrics().steps, 3u);
  EXPECT_EQ(m.metrics().work, 21u);
  EXPECT_EQ(m.step_index(), 3u);
}

TEST(Machine, ChargeIsConstantTimeAndExactlyEqualsPerStepAccounting) {
  // charge(count, w) batches the per-step ceil terms in O(1); the result
  // must be indistinguishable — across every metric field AND the step
  // index (which seeds the per-step RNG) — from `count` individual
  // steps of `w` active processors.
  constexpr std::uint64_t kCount = 1u << 20;  // far beyond any loop budget
  constexpr std::uint64_t kWork = 12345;
  Machine charged(1);
  charged.charge(kCount, kWork);
  Metrics expect;
  for (std::uint64_t s = 0; s < 1000; ++s) expect.record_step(kWork);
  // Compare against the closed form on a smaller count first...
  Metrics batched;
  batched.record_steps(1000, kWork);
  EXPECT_EQ(batched.steps, expect.steps);
  EXPECT_EQ(batched.work, expect.work);
  EXPECT_EQ(batched.max_active, expect.max_active);
  for (std::size_t i = 0; i < kTrackedProcCounts.size(); ++i) {
    EXPECT_EQ(batched.time_at_p[i], expect.time_at_p[i]) << "p index " << i;
  }
  // ...then sanity-check the huge charge's closed form directly.
  EXPECT_EQ(charged.metrics().steps, kCount);
  EXPECT_EQ(charged.metrics().work, kCount * kWork);
  EXPECT_EQ(charged.step_index(), kCount);
  for (std::size_t i = 0; i < kTrackedProcCounts.size(); ++i) {
    const std::uint64_t p = kTrackedProcCounts[i];
    EXPECT_EQ(charged.metrics().time_at_p[i],
              kCount * ((kWork + p - 1) / p));
  }
}

TEST(Machine, TimeAtPMatchesCeilSum) {
  Machine m(1);
  m.step(100, [](std::uint64_t) {});
  m.step(5, [](std::uint64_t) {});
  const auto& tm = m.metrics();
  // p=1: 100+5; p=4: 25+2; p=4096: 1+1.
  EXPECT_EQ(tm.time_at_p[0], 105u);
  EXPECT_EQ(tm.time_at_p[2], 27u);
  EXPECT_EQ(tm.time_at_p[11], 2u);
}

TEST(Machine, RngDeterministicAcrossThreadCounts) {
  constexpr std::uint64_t n = 4096;
  std::vector<std::uint64_t> a(n), b(n);
  {
    Machine m(1, 77);
    m.step(n, [&](std::uint64_t pid) { a[pid] = m.rng(pid).next_u64(); });
  }
  {
    Machine m(4, 77);
    m.step(n, [&](std::uint64_t pid) { b[pid] = m.rng(pid).next_u64(); });
  }
  EXPECT_EQ(a, b);
}

TEST(Machine, RngChangesPerStep) {
  Machine m(1, 5);
  std::uint64_t v1 = 0, v2 = 0;
  m.step(1, [&](std::uint64_t pid) { v1 = m.rng(pid).next_u64(); });
  m.step(1, [&](std::uint64_t pid) { v2 = m.rng(pid).next_u64(); });
  EXPECT_NE(v1, v2);
}

TEST(Machine, ParallelSumViaOwnedSlots) {
  Machine m(4);
  constexpr std::uint64_t n = 100000;
  std::vector<std::uint64_t> slot(n);
  m.step(n, [&](std::uint64_t pid) { slot[pid] = pid; });
  const std::uint64_t total =
      std::accumulate(slot.begin(), slot.end(), std::uint64_t{0});
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(Machine, PhaseRollup) {
  Machine m(1);
  {
    Machine::Phase p(m, "alpha");
    m.step(10, [](std::uint64_t) {});
  }
  {
    Machine::Phase p(m, "beta");
    m.step(20, [](std::uint64_t) {});
    m.step(20, [](std::uint64_t) {});
  }
  EXPECT_EQ(m.phases()["alpha"].steps, 1u);
  EXPECT_EQ(m.phases()["alpha"].work, 10u);
  EXPECT_EQ(m.phases()["beta"].steps, 2u);
  EXPECT_EQ(m.phases()["beta"].work, 40u);
}

TEST(Cells, OrCell) {
  Machine m(4);
  OrCell c;
  EXPECT_FALSE(c.read());
  m.step(10000, [&](std::uint64_t pid) {
    if (pid == 7777) c.write_true();
  });
  EXPECT_TRUE(c.read());
  c.reset();
  EXPECT_FALSE(c.read());
}

TEST(Cells, TallyCountsAllWriters) {
  Machine m(4);
  TallyCell c;
  m.step(50000, [&](std::uint64_t pid) {
    if (pid % 10 == 3) c.write();
  });
  EXPECT_EQ(c.read(), 5000u);
}

TEST(Cells, MinCellFindsMinimumConcurrently) {
  Machine m(4);
  MinCell c;
  EXPECT_TRUE(c.empty());
  m.step(100000, [&](std::uint64_t pid) {
    if (pid >= 123) c.write(pid);
  });
  EXPECT_EQ(c.read(), 123u);
}

TEST(Cells, MaxCell) {
  Machine m(4);
  MaxCell c;
  m.step(100000, [&](std::uint64_t pid) { c.write(pid); });
  EXPECT_EQ(c.read(), 99999u);
}

TEST(Cells, ClaimSlotExactlyOneWinner) {
  Machine m(4);
  ClaimSlot<std::uint64_t> slot;
  TallyCell winners;
  m.step(10000, [&](std::uint64_t pid) {
    if (slot.claim()) {
      slot.value() = pid;
      winners.write();
    }
  });
  EXPECT_EQ(winners.read(), 1u);
  EXPECT_TRUE(slot.is_claimed());
  EXPECT_EQ(slot.attempts(), 10000u);
  EXPECT_LT(slot.value(), 10000u);
}

TEST(Cells, ClaimSlotResetsCleanly) {
  ClaimSlot<int> slot;
  EXPECT_TRUE(slot.claim());
  EXPECT_FALSE(slot.claim());
  slot.reset();
  EXPECT_FALSE(slot.is_claimed());
  EXPECT_TRUE(slot.claim());
}

TEST(Allocation, ReportMatchesMetrics) {
  Machine m(1);
  m.step(64, [](std::uint64_t) {});
  const AllocationReport r = allocation_report(m.metrics());
  EXPECT_EQ(r.ideal_time, 1u);
  EXPECT_EQ(r.work, 64u);
  EXPECT_EQ(r.realized.size(), kTrackedProcCounts.size());
  EXPECT_EQ(r.realized[0].second, 64u);   // p=1
  EXPECT_EQ(r.realized[3].second, 8u);    // p=8
}

TEST(Allocation, MatiasVishkinBounds) {
  // T = t + w/p + tc*log t.
  EXPECT_DOUBLE_EQ(matias_vishkin_time(1, 100, 10, 1.0), 1.0 + 10.0);
  EXPECT_NEAR(matias_vishkin_time(8, 80, 8, 2.0), 8 + 10 + 2 * 3, 1e-12);
  EXPECT_NEAR(matias_vishkin_work(8, 80, 8, 2.0), 64 + 80 + 8 * 2 * 3, 1e-12);
  // Realized T(p) from the simulator must respect the bound shape:
  Machine m(1);
  for (int s = 0; s < 8; ++s) m.step(80, [](std::uint64_t) {});
  const auto& tm = m.metrics();
  for (std::size_t i = 0; i < kTrackedProcCounts.size(); ++i) {
    const auto p = kTrackedProcCounts[i];
    EXPECT_LE(static_cast<double>(tm.time_at_p[i]),
              matias_vishkin_time(tm.steps, tm.work, p) + 1e-9);
  }
}

TEST(Machine, ManySmallStepsAreCheap) {
  Machine m(2);
  for (int i = 0; i < 1000; ++i) {
    m.step(8, [](std::uint64_t) {});
  }
  EXPECT_EQ(m.metrics().steps, 1000u);
  EXPECT_EQ(m.metrics().work, 8000u);
}

TEST(Machine, LargeStepParallelConsistency) {
  // The same computation on 1 and 4 threads must agree bit-for-bit.
  constexpr std::uint64_t n = 300000;
  auto run = [&](unsigned threads) {
    Machine m(threads, 11);
    std::vector<std::uint32_t> out(n);
    m.step(n, [&](std::uint64_t pid) {
      out[pid] = static_cast<std::uint32_t>(m.rng(pid).next_below(1000));
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// --- serial-dispatch grain (IPH_PRAM_GRAIN) ---------------------------

TEST(Machine, GrainEnvKnobParsing) {
  ::unsetenv("IPH_PRAM_GRAIN");
  {
    Machine m(1);
    EXPECT_EQ(m.grain(), 2048u);  // documented default
  }
  ::setenv("IPH_PRAM_GRAIN", "64", 1);
  {
    Machine m(1);
    EXPECT_EQ(m.grain(), 64u);
  }
  ::setenv("IPH_PRAM_GRAIN", "0", 1);  // clamped: a zero grain would
  {                                    // never dispatch serially
    Machine m(1);
    EXPECT_EQ(m.grain(), 1u);
  }
  ::setenv("IPH_PRAM_GRAIN", "not-a-number", 1);
  {
    Machine m(1);
    EXPECT_EQ(m.grain(), 2048u);  // unparsable falls back to default
  }
  ::unsetenv("IPH_PRAM_GRAIN");
  Machine m(1);
  m.set_grain(0);  // setter applies the same clamp
  EXPECT_EQ(m.grain(), 1u);
}

TEST(Machine, GrainDoesNotChangeResultsOrMetrics) {
  // The grain decides serial-vs-pool dispatch only; outputs and PRAM
  // metrics are pure functions of (input, seed) regardless.
  auto run = [](std::uint64_t grain) {
    Machine m(4, 2026);
    m.set_grain(grain);
    std::vector<std::uint64_t> out(5000);
    m.step(out.size(),
           [&](std::uint64_t pid) { out[pid] = m.rng(pid).next_u64(); });
    m.step(out.size() / 2, [&](std::uint64_t pid) {
      out[pid] ^= m.rng(pid).next_u64();
    });
    return std::tuple(out, m.metrics().steps, m.metrics().work,
                      m.metrics().max_active);
  };
  const auto base = run(1);  // everything through the pool
  EXPECT_EQ(run(64), base);
  EXPECT_EQ(run(1u << 20), base);  // everything serial
}

// --- reset (the serve workers' machine-reuse hook) --------------------

TEST(Machine, ResetReplaysAFreshMachine) {
  auto fingerprint = [](Machine& m) {
    std::vector<std::uint64_t> out(512);
    m.step(out.size(),
           [&](std::uint64_t pid) { out[pid] = m.rng(pid).next_u64(); });
    m.step(out.size(), [&](std::uint64_t pid) {
      out[pid] ^= m.rng(pid).next_u64() << 1;
    });
    return std::tuple(out, m.metrics().steps, m.metrics().work,
                      m.metrics().max_active);
  };
  Machine fresh(2, 111);
  const auto expected = fingerprint(fresh);

  Machine reused(2, 222);
  for (int i = 0; i < 100; ++i) {  // arbitrary prior program
    reused.step(64, [&](std::uint64_t pid) { (void)reused.rng(pid); });
  }
  reused.reset(111);
  EXPECT_EQ(reused.metrics().steps, 0u);
  EXPECT_EQ(fingerprint(reused), expected);
}

}  // namespace
}  // namespace iph::pram
