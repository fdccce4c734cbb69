// The iph::trace observability layer:
//   * claim-fit shapes and band semantics (trace/fit.h),
//   * JSON round-tripping, strict number parsing, and number writing
//     byte-identical to the printf forms it replaced (trace/json.h),
//   * recorder phase-tree aggregation and its determinism contract —
//     everything but wall-clock is a pure function of (input, seed),
//     bit-identical across hardware thread counts,
//   * combining-write conflict counts (writers - 1 per cell per step),
//   * attaching an observer never perturbs the PRAM metrics,
//   * the recorder's span list (cap, take) and its chrome-trace export,
//   * baseline row comparison (trace/report.h),
//   * phase coverage: no core algorithm issues anonymous steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fallback2d.h"
#include "core/presorted_constant.h"
#include "core/presorted_logstar.h"
#include "core/unsorted2d.h"
#include "core/unsorted3d.h"
#include "geom/workloads.h"
#include "obs/chrome_export.h"
#include "pram/cells.h"
#include "pram/machine.h"
#include "support/rng.h"
#include "trace/fit.h"
#include "trace/json.h"
#include "trace/recorder.h"
#include "trace/report.h"

namespace iph {
namespace {

using trace::FitResult;
using trace::Json;
using trace::PhaseStats;
using trace::Recorder;
using trace::SeriesPoint;
using trace::Shape;

// --- claim-fit ---------------------------------------------------------

std::vector<SeriesPoint> series(std::initializer_list<double> xs,
                                std::initializer_list<double> ys) {
  std::vector<SeriesPoint> out;
  auto y = ys.begin();
  for (double x : xs) out.push_back({x, *y++, 0});
  return out;
}

TEST(Fit, ShapeNamesRoundTrip) {
  for (Shape s : {Shape::kFlat, Shape::kLogStar, Shape::kLogN, Shape::kLog2N,
                  Shape::kLinear, Shape::kNLogN, Shape::kNLogH,
                  Shape::kThetaAux, Shape::kBelowAux, Shape::kBelowConst,
                  Shape::kM4EpsDelta}) {
    Shape back{};
    ASSERT_TRUE(trace::shape_from_name(trace::shape_name(s), &back));
    EXPECT_EQ(back, s);
  }
  Shape ignored{};
  EXPECT_FALSE(trace::shape_from_name("quadratic", &ignored));
}

TEST(Fit, FlatBandPassesAndFails) {
  const auto ok = trace::fit_series(
      Shape::kFlat, series({1e3, 1e4, 1e5}, {20, 25, 30}), 2.0);
  EXPECT_TRUE(ok.ok) << ok.detail;
  EXPECT_NEAR(ok.stat, 1.5, 1e-9);
  // A linear counter sold as flat blows any sane band.
  const auto bad = trace::fit_series(
      Shape::kFlat, series({1e3, 1e4, 1e5}, {1e3, 1e4, 1e5}), 3.0);
  EXPECT_FALSE(bad.ok);
  EXPECT_NEAR(bad.stat, 100.0, 1e-9);
}

TEST(Fit, LogBandDistinguishesLogFromLinear) {
  // y = 7 log2 x: ratio band is exactly 1.
  std::vector<SeriesPoint> pts;
  for (double x : {1024.0, 16384.0, 262144.0}) {
    pts.push_back({x, 7 * std::log2(x), 0});
  }
  EXPECT_TRUE(trace::fit_series(Shape::kLogN, pts, 1.5).ok);
  // y = x against log n: band ~ x/log x range, far outside tol.
  EXPECT_FALSE(trace::fit_series(
                   Shape::kLogN, series({1024, 262144}, {1024, 262144}), 3.0)
                   .ok);
}

TEST(Fit, NLogHUsesAux) {
  // work ~ 60 * n log2 h with h in aux.
  std::vector<SeriesPoint> pts;
  for (double n : {4096.0, 65536.0}) {
    const double h = 2 * std::sqrt(n);
    pts.push_back({n, 60 * n * std::log2(h), h});
  }
  const auto f = trace::fit_series(Shape::kNLogH, pts, 1.5);
  EXPECT_TRUE(f.ok) << f.detail;
}

TEST(Fit, BelowShapesAreOneSided) {
  // kBelowAux: y <= tol * aux.
  std::vector<SeriesPoint> pts{{64, 50, 100}, {4096, 120, 100}};
  EXPECT_TRUE(trace::fit_series(Shape::kBelowAux, pts, 1.25).ok);
  EXPECT_FALSE(trace::fit_series(Shape::kBelowAux, pts, 1.1).ok);
  // kBelowConst: y <= tol.
  EXPECT_TRUE(
      trace::fit_series(Shape::kBelowConst, series({1, 2}, {3, 4}), 4.0).ok);
  EXPECT_FALSE(
      trace::fit_series(Shape::kBelowConst, series({1, 2}, {3, 5}), 4.0).ok);
}

TEST(Fit, EmptySeriesFails) {
  EXPECT_FALSE(trace::fit_series(Shape::kFlat, {}, 10.0).ok);
}

// --- JSON --------------------------------------------------------------

TEST(Json, RoundTrip) {
  Json doc = Json::object();
  doc["name"] = "e03";
  doc["count"] = std::uint64_t{123456789};
  doc["ratio"] = 2.5;
  doc["flag"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two\n\"quoted\"");
  doc["list"] = std::move(arr);

  const std::string text = doc.dump(2);
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(text, &back, &err)) << err;
  EXPECT_EQ(back.get_str("name"), "e03");
  EXPECT_EQ(back.find("count")->as_u64(), 123456789u);
  EXPECT_DOUBLE_EQ(back.get_num("ratio"), 2.5);
  EXPECT_TRUE(back.find("flag")->as_bool());
  ASSERT_EQ(back.find("list")->size(), 2u);
  EXPECT_EQ(back.find("list")->at(1).as_string(), "two\n\"quoted\"");
  // Integral numbers survive as integers (no 1.23457e+08 in reports).
  EXPECT_NE(text.find("123456789"), std::string::npos);
}

TEST(Json, ParseRejectsGarbage) {
  Json out;
  std::string err;
  EXPECT_FALSE(Json::parse("{\"a\": }", &out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("[1, 2", &out, &err));
  EXPECT_FALSE(Json::parse("", &out, &err));
}

TEST(Json, NumbersAreStrictJson) {
  Json out;
  std::string err;
  for (const char* bad : {"0x10", "+7", "01", "1.", ".5", "-", "1e", "1e+",
                          "nan", "-infinity", "Infinity", "[1,-.5]"}) {
    EXPECT_FALSE(Json::parse(bad, &out, &err)) << bad;
  }
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},         {"-0", -0.0},      {"12.5e-1", 1.25},
      {"1E2", 100.0},     {"2e+2", 200.0},   {"0.1", 0.1},
      {"4.9e-324", 4.9e-324}, {"1e-400", 0.0},
      {"-1.7976931348623157e308", -1.7976931348623157e308}};
  for (const auto& [text, want] : good) {
    ASSERT_TRUE(Json::parse(text, &out, &err)) << text << ": " << err;
    const double got = out.as_double();
    EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0) << text;
  }
  // Beyond the double range reads as strtod reads it, for range checks
  // to refuse.
  ASSERT_TRUE(Json::parse("-1e400", &out, &err));
  EXPECT_EQ(out.as_double(), -HUGE_VAL);

  // from_chars converts every token to strtod's double, bit for bit:
  // round-trip forms of any finite double, and long digit strings with
  // exponents that round.
  support::Rng rng(31, 2);
  for (int i = 0; i < 20000; ++i) {
    char tok[80];
    const std::uint64_t bits = rng.next_u64();
    if (i % 2 == 0) {
      double d;
      std::memcpy(&d, &bits, sizeof d);
      if (!std::isfinite(d)) continue;
      std::snprintf(tok, sizeof tok, "%.17g", d);
    } else {
      std::snprintf(tok, sizeof tok, "%s%llu%llu.%llue%d",
                    bits % 3 == 0 ? "-" : "",
                    static_cast<unsigned long long>(1 + bits % 9),
                    static_cast<unsigned long long>(rng.next_u64()),
                    static_cast<unsigned long long>(rng.next_u64()),
                    static_cast<int>(bits >> 40) % 700 - 350);
    }
    trace::JsonReader r(tok);
    double got = 0;
    ASSERT_TRUE(r.number(&got) && r.pos() == std::strlen(tok)) << tok;
    const double want = std::strtod(tok, nullptr);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << tok;
  }
}

TEST(Json, DumpMatchesPrintf) {
  // Numbers are written with std::to_chars; every byte must equal the
  // printf form it replaced: %.0f for integers below 2^53, else %.17g.
  const auto printf_form = [](double d) -> std::string {
    if (!std::isfinite(d)) return "null";
    char buf[64];
    if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
      std::snprintf(buf, sizeof buf, "%.0f", d);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", d);
    }
    return buf;
  };
  const double p53 = 9007199254740992.0;
  std::vector<double> v = {0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e21, 1e-7,
                           p53 - 2, p53 - 1, p53, p53 + 2, -(p53 - 1), -p53,
                           9.007199254740991e15, 1e15 + 0.5, 4.9e-324,
                           -4.9e-324, 2.2250738585072014e-308,
                           2.2250738585072009e-308, 1e308, -1e308,
                           1.7976931348623157e308, HUGE_VAL, std::nan("")};
  support::Rng rng(29, 3);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d;
    if (i % 2 == 0) {
      std::memcpy(&d, &bits, sizeof d);  // any bit pattern
    } else {
      d = std::ldexp(rng.next_double(), static_cast<int>(bits % 140) - 70);
      if (i % 4 == 1) d = std::round(d * 1e6);
    }
    v.push_back(d);
  }
  for (const double d : v) EXPECT_EQ(Json(d).dump(), printf_form(d)) << d;
}

// --- recorder ----------------------------------------------------------

TEST(Recorder, AggregatesPhaseTree) {
  pram::Machine m(2, 7);
  Recorder rec;
  rec.attach(m);
  for (int round = 0; round < 3; ++round) {
    pram::Machine::Phase outer(m, "outer");
    m.step(100, [](std::uint64_t) {});
    {
      pram::Machine::Phase inner(m, "inner");
      m.step(10, [](std::uint64_t) {});
      m.step(10, [](std::uint64_t) {});
    }
  }
  m.step(5, [](std::uint64_t) {});  // anonymous
  m.set_observer(nullptr);

  EXPECT_TRUE(rec.quiescent());
  EXPECT_EQ(rec.max_depth(), 2u);
  EXPECT_EQ(rec.anonymous_steps(), 1u);
  const PhaseStats& root = rec.root();
  EXPECT_EQ(root.steps, 10u);  // 3 * (1 + 2) + 1
  EXPECT_EQ(root.work, 3 * (100 + 20) + 5u);

  const PhaseStats* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->invocations, 3u);
  EXPECT_EQ(outer->steps, 9u);
  EXPECT_EQ(outer->direct_steps, 3u);
  EXPECT_EQ(outer->work, 3 * (100 + 20u));
  EXPECT_EQ(outer->max_active, 100u);

  const PhaseStats* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->invocations, 3u);
  EXPECT_EQ(inner->steps, 6u);
  EXPECT_EQ(inner->direct_steps, 6u);
  EXPECT_EQ(inner->work, 60u);
  // Sibling re-entries merged: exactly one child either level.
  EXPECT_EQ(root.children.size(), 1u);
  EXPECT_EQ(outer->children.size(), 1u);
}

TEST(Recorder, ChargeCountsLikeSteps) {
  pram::Machine m(1, 7);
  Recorder rec;
  rec.attach(m);
  {
    pram::Machine::Phase p(m, "analytic");
    m.charge(12, 1000);
  }
  m.set_observer(nullptr);
  const PhaseStats* node = rec.root().child("analytic");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->steps, 12u);
  EXPECT_EQ(node->work, 12000u);
}

TEST(Recorder, ConflictsAreWritersMinusOne) {
  pram::Machine m(4, 7);
  Recorder rec;
  rec.attach(m);  // turns conflict counting on
  pram::TallyCell tally;
  pram::MinCell mins[2];
  {
    pram::Machine::Phase p(m, "conflicts");
    // 8 writers on one tally cell: 7 conflicts.
    m.step(8, [&](std::uint64_t) { tally.write(); });
    // 6 writers split 3+3 over two min cells: 2+2 conflicts.
    m.step(6, [&](std::uint64_t pid) { mins[pid % 2].write(pid); });
    // Reads and owned writes: no conflicts.
    std::vector<std::uint64_t> own(16);
    m.step(16, [&](std::uint64_t pid) { own[pid] = tally.read(); });
  }
  m.set_observer(nullptr);
  const PhaseStats* node = rec.root().child("conflicts");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->cw_conflicts, 7u + 4u);
  EXPECT_EQ(m.metrics().cw_conflicts, 7u + 4u);
}

TEST(Recorder, ObserverDoesNotPerturbMetrics) {
  const auto pts = geom::in_disk(2000, 11);
  auto run = [&](bool observed) {
    pram::Machine m(4, 42);
    Recorder rec;
    if (observed) rec.attach(m);
    (void)core::unsorted_hull_2d(m, pts);
    m.set_observer(nullptr);
    return m.metrics();
  };
  const auto bare = run(false);
  const auto traced = run(true);
  EXPECT_EQ(bare.steps, traced.steps);
  EXPECT_EQ(bare.work, traced.work);
  EXPECT_EQ(bare.max_active, traced.max_active);
  EXPECT_EQ(bare.time_at_p, traced.time_at_p);
  // Only cw_conflicts may differ (counting is off in the bare run).
  EXPECT_EQ(bare.cw_conflicts, 0u);
}

/// Deterministic flattening of a phase tree: every field except wall
/// clock, in depth-first order.
void fingerprint(const PhaseStats& node, const std::string& path,
                 std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s inv=%llu steps=%llu work=%llu "
                "max=%llu cw=%llu direct=%llu\n",
                path.c_str(),
                static_cast<unsigned long long>(node.invocations),
                static_cast<unsigned long long>(node.steps),
                static_cast<unsigned long long>(node.work),
                static_cast<unsigned long long>(node.max_active),
                static_cast<unsigned long long>(node.cw_conflicts),
                static_cast<unsigned long long>(node.direct_steps));
  *out += buf;
  for (const auto& c : node.children) {
    fingerprint(*c, path + "/" + c->name, out);
  }
}

TEST(Recorder, TreeBitIdenticalAcrossThreadCounts) {
  const auto pts = geom::in_disk(3000, 5);
  auto run = [&](unsigned threads) {
    pram::Machine m(threads, 99);
    Recorder rec;
    rec.attach(m);
    (void)core::unsorted_hull_2d(m, pts);
    m.set_observer(nullptr);
    std::string fp;
    fingerprint(rec.root(), "", &fp);
    return fp;
  };
  const std::string base = run(1);
  std::vector<unsigned> sweep{2u, 4u, 8u};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end() && hw != 1) {
    sweep.push_back(hw);
  }
  for (unsigned threads : sweep) {
    EXPECT_EQ(run(threads), base) << "threads=" << threads;
  }
}

// --- phase coverage: no anonymous steps in the core algorithms ----------

TEST(PhaseCoverage, CoreAlgorithmsNameEveryStep) {
  struct Case {
    const char* name;
    void (*run)(pram::Machine&);
  };
  const Case cases[] = {
      {"unsorted2d",
       [](pram::Machine& m) {
         const auto pts = geom::in_disk(1500, 3);
         (void)core::unsorted_hull_2d(m, pts);
       }},
      {"presorted_constant",
       [](pram::Machine& m) {
         auto pts = geom::gaussian2(2000, 3);
         geom::sort_lex(pts);
         (void)core::presorted_constant_hull(m, pts);
       }},
      {"presorted_logstar",
       [](pram::Machine& m) {
         auto pts = geom::in_square(6000, 3);
         geom::sort_lex(pts);
         (void)core::presorted_logstar_hull(m, pts);
       }},
      {"fallback2d",
       [](pram::Machine& m) {
         const auto pts = geom::with_duplicates(1200, 3);
         (void)core::fallback_hull_2d(m, pts);
       }},
      {"unsorted3d",
       [](pram::Machine& m) {
         const auto pts = geom::in_cube(700, 3);
         (void)core::unsorted_hull_3d(m, pts);
       }},
  };
  for (const Case& c : cases) {
    pram::Machine m(4, 17);
    Recorder rec;
    rec.attach(m);
    c.run(m);
    m.set_observer(nullptr);
    EXPECT_EQ(rec.anonymous_steps(), 0u)
        << c.name << " issued steps outside any named Machine::Phase";
    EXPECT_TRUE(rec.quiescent()) << c.name;
    EXPECT_GT(rec.root().steps, 0u) << c.name;
  }
}

// --- phase spans + chrome trace export ----------------------------------

// The span list keeps the first kMaxSpans phases to OPEN, so a parent
// that closes after the cap is still stored; the phase tree is never
// truncated, and a take restarts ids and the drop count.
TEST(Recorder, SpanListCapsByOpenOrderAndTakeRestarts) {
  Recorder rec;
  rec.on_phase_open("outer", 0);
  for (std::uint64_t i = 0; i < Recorder::kMaxSpans; ++i) {
    rec.on_phase_open("inner", i);
    rec.on_phase_close(i + 1);
  }
  rec.on_phase_close(Recorder::kMaxSpans);
  ASSERT_EQ(rec.spans().size(), Recorder::kMaxSpans);
  EXPECT_EQ(rec.dropped_spans(), 1u);
  EXPECT_STREQ(rec.spans().back().name, "outer");
  EXPECT_EQ(rec.spans().back().id, 1u);
  EXPECT_EQ(rec.spans().back().parent, 0u);
  EXPECT_EQ(rec.spans().back().close_step, Recorder::kMaxSpans);
  EXPECT_EQ(rec.spans().front().parent, 1u);
  EXPECT_EQ(rec.root().child("outer")->child("inner")->invocations,
            Recorder::kMaxSpans);
  // The Chrome export notes the phases the cap left out.
  EXPECT_EQ(obs::chrome_trace_json(rec).get_num("dropped_spans"), 1.0);

  EXPECT_EQ(rec.take_spans().size(), Recorder::kMaxSpans);
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.dropped_spans(), 0u);
  rec.on_phase_open("again", 7);
  rec.on_phase_close(9);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].id, 1u);
  EXPECT_EQ(rec.spans()[0].open_step, 7u);
  EXPECT_EQ(rec.spans()[0].close_step, 9u);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[0].end_ns);
}


TEST(ChromeTrace, ExportIsWellFormed) {
  pram::Machine m(2, 7);
  Recorder rec;
  rec.attach(m);
  {
    pram::Machine::Phase a(m, "alpha");
    m.step(10, [](std::uint64_t) {});
    pram::Machine::Phase b(m, "beta");
    m.step(20, [](std::uint64_t) {});
  }
  m.set_observer(nullptr);

  const Json doc = obs::chrome_trace_json(rec);
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t spans = 0, pram_spans = 0, active = 0, workspace = 0;
  for (const Json& e : events->items()) {
    const std::string ph = e.get_str("ph");
    if (ph == "C" && e.get_str("name") == "active processors") ++active;
    if (ph == "C" && e.get_str("name") == "workspace cells") ++workspace;
    if (ph != "X") continue;
    ++spans;
    EXPECT_GE(e.get_num("dur"), 0.0);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (e.get_num("tid") == 2) {
      ++pram_spans;
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GE(args->get_num("pram_step_close"),
                args->get_num("pram_step_open"));
    }
  }
  // Two phases => two wall spans + two PRAM-virtual-time spans.
  EXPECT_EQ(spans, 4u);
  EXPECT_EQ(pram_spans, 2u);
  // Both counter tracks carry the step timeline.
  EXPECT_GT(active, 0u);
  EXPECT_EQ(active, workspace);
  EXPECT_EQ(doc.find("dropped_spans"), nullptr);
  // Round-trips through the parser.
  Json back;
  std::string err;
  EXPECT_TRUE(Json::parse(doc.dump(1), &back, &err)) << err;
}

// --- report / baseline compare ------------------------------------------

Json make_report(double steps, double wall) {
  Json row = Json::object();
  row["name"] = "e03/4096";
  Json counters = Json::object();
  counters["steps"] = steps;
  counters["wall_ms"] = wall;
  row["counters"] = std::move(counters);
  Json rows = Json::array();
  rows.push_back(std::move(row));
  Json doc = Json::object();
  doc["rows"] = std::move(rows);
  return doc;
}

TEST(Report, CompareCountersIgnoresWallClock) {
  const Json a = make_report(150, 10.0);
  const Json b = make_report(150, 99.0);  // wall differs wildly: fine
  const auto same = trace::compare_counter_rows(a, b, 0.0);
  EXPECT_TRUE(same.ok);
  EXPECT_EQ(same.rows_compared, 1u);

  const Json c = make_report(151, 10.0);  // deterministic counter drifted
  const auto diff = trace::compare_counter_rows(a, c, 0.0);
  EXPECT_FALSE(diff.ok);
  ASSERT_EQ(diff.diffs.size(), 1u);
  // Within tolerance passes.
  EXPECT_TRUE(trace::compare_counter_rows(a, c, 0.05).ok);
}

TEST(Report, ProvenanceIsSelfDescribing) {
  const Json p = trace::collect_provenance();
  EXPECT_FALSE(p.get_str("git_sha").empty());
  EXPECT_FALSE(p.get_str("build_type").empty());
  EXPECT_GE(p.get_num("threads"), 1.0);
}

TEST(Report, PhaseTableListsEveryNode) {
  pram::Machine m(1, 7);
  Recorder rec;
  rec.attach(m);
  {
    pram::Machine::Phase a(m, "a");
    m.step(4, [](std::uint64_t) {});
    pram::Machine::Phase b(m, "b");
    m.step(2, [](std::uint64_t) {});
  }
  m.set_observer(nullptr);
  const Json rows = trace::phase_table_json(rec.root());
  ASSERT_EQ(rows.size(), 3u);  // <root>, a, a/b
  EXPECT_EQ(rows.at(0).get_str("phase"), "<root>");
  EXPECT_EQ(rows.at(1).get_str("phase"), "a");
  EXPECT_EQ(rows.at(2).get_str("phase"), "a/b");
  EXPECT_EQ(rows.at(2).find("steps")->as_u64(), 1u);
}

}  // namespace
}  // namespace iph
