// iph::obs unit + concurrency tests: trace-context hex codec, name
// interning, flight-recorder retention/eviction/exemplars, the exact
// counter identities the scrape reconciliation relies on, phase-span
// linkage, and the hot-path contract (publish never blocks and never
// allocates once the payload is built) — the latter armed both by a
// global operator new counter here and by TSan in the race-check build.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/chrome_export.h"
#include "obs/context.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "stats/stats.h"
#include "trace/recorder.h"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps
// the thread-local count while that thread is armed. The no-alloc test
// below arms only around publish() calls whose payloads were built in
// advance, so gtest/other-thread allocations never pollute the count.
namespace {
thread_local bool g_alloc_armed = false;
thread_local std::uint64_t g_alloc_count = 0;

void* counted_alloc(std::size_t n) {
  if (g_alloc_armed) ++g_alloc_count;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_alloc_armed) ++g_alloc_count;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  if (g_alloc_armed) ++g_alloc_count;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using iph::obs::CompletedTrace;
using iph::obs::FlightRecorder;
using iph::obs::ObsConfig;
using iph::obs::Span;

// ----------------------------- context -------------------------------

TEST(TraceContext, HexRoundTrip) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{0xabc123},
                          std::uint64_t{0xdeadbeefcafe1234ULL},
                          ~std::uint64_t{0}}) {
    std::uint64_t back = 1234;
    ASSERT_TRUE(iph::obs::from_hex(iph::obs::to_hex(v), &back));
    EXPECT_EQ(back, v);
  }
  EXPECT_EQ(iph::obs::to_hex(0), "0");
  EXPECT_EQ(iph::obs::to_hex(255), "ff");
}

TEST(TraceContext, FromHexRejectsMalformed) {
  for (const char* bad : {"", "zzz", "12g4", "0x12", " 1", "1 ",
                          "11112222333344445" /* 17 digits */}) {
    std::uint64_t out = 42;
    EXPECT_FALSE(iph::obs::from_hex(bad, &out)) << bad;
    EXPECT_EQ(out, 42u) << "rejected parse must leave *out untouched";
  }
  std::uint64_t out = 0;
  ASSERT_TRUE(iph::obs::from_hex("ffffffffffffffff", &out));
  EXPECT_EQ(out, ~std::uint64_t{0});
}

TEST(TraceContext, InternNameIsStableAndDeduplicated) {
  const std::string a = "phase/alpha";
  const char* p1 = iph::obs::intern_name(a);
  const char* p2 = iph::obs::intern_name(std::string("phase/alpha"));
  EXPECT_EQ(p1, p2) << "same content must intern to one pointer";
  EXPECT_STREQ(p1, "phase/alpha");
  EXPECT_NE(p1, iph::obs::intern_name("phase/beta"));
}

// -------------------------- flight recorder --------------------------

CompletedTrace make_request_trace(std::uint64_t id, double e2e_ms) {
  CompletedTrace t;
  t.trace_id = id;
  t.request_id = id;
  t.status = "ok";
  t.backend = "native";
  t.batch_size = 1;
  t.e2e_ms = e2e_ms;
  const std::uint64_t base = 1'000'000 * id;
  t.spans.push_back({"request", iph::obs::kRootSpanId, 0, base, base + 400});
  t.spans.push_back({"queue_wait", iph::obs::kQueueWaitSpanId,
                     iph::obs::kRootSpanId, base, base + 100});
  t.spans.push_back({"lease", iph::obs::kLeaseSpanId, iph::obs::kRootSpanId,
                     base + 100, base + 150});
  t.spans.push_back({"exec", iph::obs::kExecSpanId, iph::obs::kRootSpanId,
                     base + 150, base + 400});
  return t;
}

TEST(FlightRecorder, RetainsMostRecentCapacityTraces) {
  iph::stats::Registry reg;
  ObsConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg, reg);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    EXPECT_TRUE(rec.publish(make_request_trace(id, 0.1)));
  }
  const std::vector<CompletedTrace> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Most recent first; older traces were overwritten (retention, not
  // drops).
  EXPECT_EQ(snap[0].trace_id, 10u);
  EXPECT_EQ(snap[1].trace_id, 9u);
  EXPECT_EQ(snap[2].trace_id, 8u);
  EXPECT_EQ(snap[3].trace_id, 7u);
  EXPECT_EQ(rec.retained(), 4);
  EXPECT_EQ(rec.published_total(), 10u);
  EXPECT_EQ(rec.spans_dropped_total(), 0u);
}

TEST(FlightRecorder, CounterIdentitiesAreExact) {
  iph::stats::Registry reg;
  ObsConfig cfg;
  cfg.capacity = 8;
  FlightRecorder rec(cfg, reg);
  // 5 request traces of 4 spans + 2 phase spans each; 3 session traces
  // of 2 spans each.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    CompletedTrace t = make_request_trace(id, 0.1);
    t.phase_spans.push_back({"u2/sweep", iph::obs::kFirstPhaseSpanId,
                             iph::obs::kExecSpanId, 0, 10});
    t.phase_spans.push_back({"u2/classify",
                             iph::obs::kFirstPhaseSpanId + 1,
                             iph::obs::kExecSpanId, 10, 20});
    ASSERT_TRUE(rec.publish(std::move(t)));
  }
  for (std::uint64_t id = 6; id <= 8; ++id) {
    CompletedTrace t;
    t.trace_id = id;
    t.kind = "session";
    t.e2e_ms = 0.1;
    t.spans.push_back({"session_append", iph::obs::kRootSpanId, 0, 0, 50});
    t.spans.push_back(
        {"rebuild", iph::obs::kRootSpanId + 1, iph::obs::kRootSpanId, 25,
         50});
    ASSERT_TRUE(rec.publish(std::move(t)));
  }
  const iph::stats::RegistrySnapshot s = reg.snapshot();
  namespace on = iph::obs::statnames;
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kTracesPublishedBase,
                                              "kind", "request")),
            5u);
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kTracesPublishedBase,
                                              "kind", "session")),
            3u);
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kSpansRecordedBase,
                                              "kind", "request")),
            5u * iph::obs::kSpansPerRequest);
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kSpansRecordedBase,
                                              "kind", "session")),
            3u * 2u);
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kSpansRecordedBase,
                                              "kind", "phase")),
            5u * 2u);
  EXPECT_EQ(s.counter_or0(on::kSpansDropped), 0u);
  const std::int64_t* retained = s.gauge(on::kTracesRetained);
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(*retained, 8);
}

TEST(FlightRecorder, StampedTraceIdsAreUniqueAndMonotonic) {
  iph::stats::Registry reg;
  FlightRecorder rec(ObsConfig{}, reg);
  const std::uint64_t a = rec.stamp_trace_id();
  const std::uint64_t b = rec.stamp_trace_id();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(b, a + 1);
}

TEST(FlightRecorder, ExemplarsPinSlowestPerBucket) {
  iph::stats::Registry reg;
  ObsConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg, reg);
  // 0.2 ms lands in the (0.1, 0.25] bucket and pins it (first record).
  EXPECT_GE(rec.exemplar_bucket(0.2), 0);
  rec.publish(make_request_trace(1, 0.2));
  // Same bucket, faster: no longer a record.
  EXPECT_EQ(rec.exemplar_bucket(0.15), -1);
  rec.publish(make_request_trace(2, 0.15));
  // Same bucket, slower: beats the pin.
  EXPECT_GE(rec.exemplar_bucket(0.24), 0);
  rec.publish(make_request_trace(3, 0.24));
  // Way past the last bound: the +inf overflow bucket.
  EXPECT_GE(rec.exemplar_bucket(1e9), 0);
  rec.publish(make_request_trace(4, 1e9));
  // NaN / negative never pin.
  EXPECT_EQ(rec.exemplar_bucket(-1.0), -1);
  EXPECT_EQ(rec.exemplar_bucket(std::nan("")), -1);

  const auto ex = rec.exemplars();
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_DOUBLE_EQ(ex[0].bucket_le_ms, 0.25);
  EXPECT_EQ(ex[0].trace.trace_id, 3u);  // 0.24 displaced 0.2
  EXPECT_DOUBLE_EQ(ex[0].trace.e2e_ms, 0.24);
  EXPECT_EQ(ex[1].bucket_le_ms, std::numeric_limits<double>::infinity());
  EXPECT_EQ(ex[1].trace.trace_id, 4u);
  EXPECT_EQ(reg.snapshot().counter_or0(
                iph::obs::statnames::kExemplarsPinned),
            3u);  // pins: trace 1, trace 3, trace 4
}

// ------------------------------ phase link ---------------------------

TEST(PhaseLink, BuildsNestedTreeUnderParent) {
  iph::trace::Recorder rec;
  rec.on_phase_open("a", 0);
  rec.on_phase_open("b", 1);
  rec.on_phase_close(2);
  rec.on_phase_open("c", 3);
  rec.on_phase_close(4);
  rec.on_phase_close(5);
  bool truncated = false;
  const std::vector<Span> spans =
      iph::obs::exec_phase_spans(rec.take_spans(), &truncated);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_FALSE(truncated);
  EXPECT_STREQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].span_id, iph::obs::kFirstPhaseSpanId);
  EXPECT_EQ(spans[0].parent_id, iph::obs::kExecSpanId);
  EXPECT_STREQ(spans[1].name, "b");
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_STREQ(spans[2].name, "c");
  EXPECT_EQ(spans[2].parent_id, spans[0].span_id);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(PhaseLink, EmptyRunsAreEmpty) {
  bool truncated = false;
  EXPECT_TRUE(iph::obs::exec_phase_spans({}, &truncated).empty());
  // A take leaves nothing behind for the next run.
  iph::trace::Recorder rec;
  rec.on_phase_open("a", 0);
  rec.on_phase_close(1);
  EXPECT_EQ(rec.take_spans().size(), 1u);
  EXPECT_TRUE(
      iph::obs::exec_phase_spans(rec.take_spans(), &truncated).empty());
  EXPECT_FALSE(truncated);
}

TEST(PhaseLink, CapsSpansAndFlagsTruncation) {
  iph::trace::Recorder rec;
  for (std::uint64_t i = 0; i < iph::obs::kMaxPhaseSpans + 10; ++i) {
    rec.on_phase_open("p", 2 * i);
    rec.on_phase_close(2 * i + 1);
  }
  bool truncated = false;
  const std::vector<Span> spans =
      iph::obs::exec_phase_spans(rec.take_spans(), &truncated);
  EXPECT_EQ(spans.size(), iph::obs::kMaxPhaseSpans);
  EXPECT_TRUE(truncated);
  // The first phases to open are the ones kept.
  EXPECT_EQ(spans.back().span_id,
            iph::obs::kFirstPhaseSpanId + iph::obs::kMaxPhaseSpans - 1);
}

// ------------------------- hot-path contract -------------------------

// Once a payload is built, publish() must not allocate: the payload is
// moved into the ring slot, counters are pre-bound atomics, and
// exemplar pinning only copies on a bucket record (pre-pinned away
// here). This is the "near-zero hot-path cost" half of the recorder's
// contract; the never-blocks half is the TSan hammer below.
TEST(FlightRecorder, PublishDoesNotAllocateInSteadyState) {
  iph::stats::Registry reg;
  ObsConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg, reg);
  // Pin the bucket our steady-state e2e (0.01 ms) falls into with an
  // equal-or-better record so no publish below copies an exemplar.
  rec.publish(make_request_trace(999, 0.04));
  ASSERT_EQ(rec.exemplar_bucket(0.01), -1);

  constexpr int kN = 64;
  std::vector<CompletedTrace> prepared;
  prepared.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    prepared.push_back(
        make_request_trace(static_cast<std::uint64_t>(i + 1), 0.01));
  }

  g_alloc_count = 0;
  g_alloc_armed = true;
  for (int i = 0; i < kN; ++i) {
    rec.publish(std::move(prepared[i]));
  }
  g_alloc_armed = false;
  EXPECT_EQ(g_alloc_count, 0u)
      << "publish() allocated on the hot path; the ring must only move";
  EXPECT_EQ(rec.published_total(), static_cast<std::uint64_t>(kN) + 1);
}

// Writers and snapshot/exemplar readers hammer one small ring. Under
// TSan (the race-check build compiles this test too) any non-atomic
// slot handoff shows up as a data race; in any build the counter
// identities must survive the contention: publishes are all counted,
// drops are counted (never silent), and every snapshotted trace is
// internally consistent (a torn copy would break the span-count/ids).
TEST(FlightRecorder, ConcurrentPublishSnapshotHammer) {
  iph::stats::Registry reg;
  ObsConfig cfg;
  cfg.capacity = 8;
  FlightRecorder rec(cfg, reg);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const CompletedTrace& t : rec.snapshot()) {
        // A torn slot copy would violate the fixed 4-span shape.
        ASSERT_EQ(t.spans.size(),
                  static_cast<std::size_t>(iph::obs::kSpansPerRequest));
        ASSERT_EQ(t.spans[0].span_id, iph::obs::kRootSpanId);
        ASSERT_GT(t.trace_id, 0u);
      }
    }
  });
  std::thread exemplar_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& e : rec.exemplars()) {
        ASSERT_GE(e.trace.e2e_ms, 0.0);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const auto id = static_cast<std::uint64_t>(w) * kPerWriter + i + 1;
        rec.publish(make_request_trace(id, 0.01 * (w + 1)));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  snapshotter.join();
  exemplar_reader.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWriters) * kPerWriter;
  EXPECT_EQ(rec.published_total(), kTotal);
  const iph::stats::RegistrySnapshot s = reg.snapshot();
  namespace on = iph::obs::statnames;
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kTracesPublishedBase,
                                              "kind", "request")),
            kTotal);
  EXPECT_EQ(s.counter_or0(iph::stats::labeled(on::kSpansRecordedBase,
                                              "kind", "request")),
            kTotal * iph::obs::kSpansPerRequest);
  // Contention losses are counted in whole-trace units of 4 spans.
  const std::uint64_t dropped = s.counter_or0(on::kSpansDropped);
  EXPECT_EQ(dropped % iph::obs::kSpansPerRequest, 0u);
  EXPECT_LE(dropped, kTotal * iph::obs::kSpansPerRequest);
  const std::int64_t* retained = s.gauge(on::kTracesRetained);
  ASSERT_NE(retained, nullptr);
  EXPECT_GE(*retained, 0);
  EXPECT_LE(*retained, static_cast<std::int64_t>(cfg.capacity));
  // With the ring quiescent, a snapshot must surface the retained
  // traces (a recorder that dropped everything would pass the counter
  // checks but retain nothing). The concurrent snapshotter's count is
  // scheduling-dependent, so the deterministic check happens here.
  EXPECT_FALSE(rec.snapshot().empty());
}

// ------------------------------ exporters ----------------------------

TEST(ChromeExport, TracezJsonShape) {
  iph::stats::Registry reg;
  ObsConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg, reg);
  CompletedTrace t = make_request_trace(7, 0.2);
  t.parent_span = 0x99;
  t.repro = "/tmp/serve_exemplar_7.json";
  rec.publish(std::move(t));

  const iph::trace::Json doc = iph::obs::tracez_json(rec, 0, false);
  EXPECT_EQ(doc.get_num("retained", -1), 1);
  EXPECT_EQ(doc.get_num("published", -1), 1);
  const iph::trace::Json* traces = doc.find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->size(), 1u);
  const iph::trace::Json& tj = traces->at(0);
  EXPECT_EQ(tj.get_str("trace"), "7");
  EXPECT_EQ(tj.get_str("client_span"), "99");
  EXPECT_EQ(tj.get_str("kind"), "request");
  EXPECT_EQ(tj.get_str("repro"), "/tmp/serve_exemplar_7.json");
  const iph::trace::Json* spans = tj.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(),
            static_cast<std::size_t>(iph::obs::kSpansPerRequest));
  EXPECT_EQ(spans->at(0).get_str("name"), "request");
  EXPECT_EQ(spans->at(0).get_num("parent", -1), 0);
  // Exemplars section mirrors the published trace (it set the first
  // record in its bucket).
  const iph::trace::Json* ex = doc.find("exemplars");
  ASSERT_NE(ex, nullptr);
  ASSERT_EQ(ex->size(), 1u);
  EXPECT_DOUBLE_EQ(ex->at(0).get_num("bucket_le_ms", 0), 0.25);
}

TEST(ChromeExport, ChromeTraceJsonEmitsCompleteEvents) {
  std::vector<CompletedTrace> traces;
  traces.push_back(make_request_trace(1, 0.1));
  traces.push_back(make_request_trace(2, 0.2));
  const iph::trace::Json doc = iph::obs::chrome_trace_json(traces);
  const iph::trace::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // process_name meta + per trace: thread_name meta + 4 X events.
  ASSERT_EQ(events->size(), 1u + 2u * (1u + iph::obs::kSpansPerRequest));
  std::size_t xcount = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const iph::trace::Json& e = events->at(i);
    if (e.get_str("ph") == "X") {
      ++xcount;
      EXPECT_GE(e.get_num("ts", -1), 0.0);
      EXPECT_GE(e.get_num("dur", -1), 0.0);
    }
  }
  EXPECT_EQ(xcount, 2u * iph::obs::kSpansPerRequest);
}

}  // namespace
