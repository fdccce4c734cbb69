// Tests of the load generator's helpers (helpers.h): percentiles and
// quartiles, the seeded schedule and plan, and a round trip of the
// result line through the repository's JSON parser.
//
//   cmake --build .bench_build/perfbench --target perfbench_helpers_test
//   .bench_build/perfbench/perfbench_helpers_test
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "helpers.h"
#include "trace/json.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void test_percentile() {
  CHECK(perfbench::percentile({}, 50) == 0);
  CHECK(perfbench::percentile({7}, 99) == 7);
  CHECK(perfbench::percentile({4, 1, 3, 2}, 50) == 2.5);
  CHECK(perfbench::percentile({4, 1, 3, 2}, 0) == 1);
  CHECK(perfbench::percentile({4, 1, 3, 2}, 100) == 4);
  CHECK(perfbench::percentile({10, 20}, 25) == 12.5);
}

void test_quartiles_match_python() {
  // Expected values from Python's statistics.quantiles(v, n=4).
  struct Case {
    std::vector<double> v;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{0.25, 10, 3.5, 7, 7, 1, 2}, 1.0, 3.5, 7.0},
      {{2, 9}, 0.25, 5.5, 10.75},
  };
  for (const Case& c : cases) {
    const perfbench::Quartiles q = perfbench::quartiles(c.v);
    CHECK(q.q1 == c.q1 && q.median == c.q2 && q.q3 == c.q3);
  }
  const perfbench::Quartiles one = perfbench::quartiles({3});
  CHECK(one.q1 == 3 && one.median == 3 && one.q3 == 3);
}

void test_tail_needs_ten_beyond() {
  std::vector<double> v;
  for (int i = 0; i < 3000; ++i) v.push_back(i);
  CHECK(perfbench::tail_percentile(v).pct == 99.0);
  v.resize(200);
  CHECK(perfbench::tail_percentile(v).pct == 95.0);
  v.resize(28);
  const perfbench::Tail t = perfbench::tail_percentile(v);
  CHECK(t.pct == 50.0 && t.samples == 28 && t.value == 13.5);
  v.resize(10000);
  CHECK(perfbench::tail_percentile(v).pct == 99.9);
}

void test_schedule_is_seeded() {
  const auto a = perfbench::poisson_schedule(42, 1500, 5.0);
  const auto b = perfbench::poisson_schedule(42, 1500, 5.0);
  const auto c = perfbench::poisson_schedule(43, 1500, 5.0);
  CHECK(a.size() == 1500);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(std::is_sorted(a.begin(), a.end()));
  CHECK(a.front() >= 0 && a.back() < 5.0);
  // Exponential gaps: the mean gap is close to duration / count.
  const double mean_gap = (a.back() - a.front()) / 1499.0;
  CHECK(mean_gap > 0.9 * 5.0 / 1500 && mean_gap < 1.1 * 5.0 / 1500);

  const auto counts = perfbench::stratified_counts(1800, {48, 20, 11.2, 0.8, 20});
  CHECK((counts == std::vector<std::size_t>{864, 360, 202, 14, 360}));
  const auto p1 = perfbench::shuffled_plan(7, counts);
  const auto p2 = perfbench::shuffled_plan(7, counts);
  CHECK(p1 == p2);
  CHECK(p1 != perfbench::shuffled_plan(8, counts));
  std::vector<std::size_t> seen(counts.size());
  for (const int k : p1) ++seen[static_cast<std::size_t>(k)];
  CHECK(seen == counts);
}

void test_result_line_round_trip() {
  const std::vector<perfbench::Metric> in = {
      {"setup_s", 0.1 + 0.2, "s"},
      {"p50_ms", 1.0 / 3.0, "ms"},
      {"ok_frac", 1.0, "ratio"},
      {"mpts_per_s", 2.9876543210987654, "Mpoints/s"},
  };
  const std::string line = perfbench::result_line(true, 1234, 5, in);
  iph::trace::Json j;
  std::string err;
  CHECK(iph::trace::Json::parse(line, &j, &err));
  CHECK(j.members().size() == 4);
  CHECK(j.find("correct") != nullptr && j.find("correct")->as_bool());
  CHECK(j.get_num("attempted") == 1234 && j.get_num("failed") == 5);
  const iph::trace::Json* m = j.find("metrics");
  CHECK(m != nullptr && m->members().size() == in.size());
  for (const perfbench::Metric& x : in) {
    const iph::trace::Json* e = m ? m->find(x.name) : nullptr;
    CHECK(e != nullptr && e->members().size() == 2);
    CHECK(e && same_bits(e->get_num("value"), x.value));
    CHECK(e && e->get_str("unit") == x.unit);
  }
  const std::string bad = perfbench::result_line(false, 1, 1, {{"x", 0.0 / 0.0, "s"}});
  CHECK(iph::trace::Json::parse(bad, &j, &err));
}

}  // namespace

int main() {
  test_percentile();
  test_quartiles_match_python();
  test_tail_needs_ten_beyond();
  test_schedule_is_seeded();
  test_result_line_round_trip();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
