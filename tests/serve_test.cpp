// iph::serve — queue admission, deadline expiry, lane routing,
// one-request execution and shutdown-drain semantics. The concurrency tests here are the ones
// CI runs under TSan with the step-race checker armed (IPH_PRAM_CHECK=1)
// — they hammer submit/shutdown races on purpose.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <thread>
#include <vector>

#include "core/api.h"
#include "exec/backend.h"
#include "exec/native_backend.h"
#include "exec/pram_backend.h"
#include "geom/validate.h"
#include "geom/workloads.h"
#include "pram/machine.h"
#include "serve/batcher.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "seq/upper_hull.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "stats/stats.h"
#include "../tools/serve_wire.h"

namespace iph::serve {
namespace {

using namespace std::chrono_literals;

Request make_request(RequestId id, std::size_t n, std::uint64_t seed) {
  Request r;
  r.id = id;
  r.points = geom::in_disk(n, seed);
  return r;
}

// --- Timestamp arithmetic ---------------------------------------------

TEST(MsBetween, IsTheOneTimestampDiffHelper) {
  const Clock::time_point t0 = Clock::now();
  EXPECT_DOUBLE_EQ(ms_between(t0, t0), 0.0);
  EXPECT_DOUBLE_EQ(ms_between(t0, t0 + 1500us), 1.5);
  EXPECT_DOUBLE_EQ(ms_between(t0, t0 + 2s), 2000.0);
  // Signed: an earlier `to` reads negative, never wraps.
  EXPECT_DOUBLE_EQ(ms_between(t0 + 1ms, t0), -1.0);
}

// --- BoundedQueue admission control -----------------------------------

TEST(BoundedQueue, RejectsWhenFullAndAfterClose) {
  BoundedQueue q(2);
  Pending a, b, c;
  EXPECT_EQ(q.push(a), BoundedQueue::Admit::kOk);
  EXPECT_EQ(q.push(b), BoundedQueue::Admit::kOk);
  EXPECT_EQ(q.push(c), BoundedQueue::Admit::kFull);
  // The rejected Pending is untouched: the caller still owns its promise.
  c.promise.set_value(Response{});
  q.close();
  Pending d;
  EXPECT_EQ(q.push(d), BoundedQueue::Admit::kClosed);
  // close() drains: both admitted items still come out, then none.
  Pending out;
  EXPECT_TRUE(q.pop(&out));
  EXPECT_TRUE(q.pop(&out));
  EXPECT_FALSE(q.pop(&out));
}

// pop() hands out one item at a time, oldest first, whatever its size,
// and the bound depth gauge follows every push and pop.
TEST(BoundedQueue, PopsOneAtATimeInOrderAndTracksDepth) {
  BoundedQueue q(16);
  stats::Gauge depth;
  q.bind_depth_gauge(&depth);
  for (const std::size_t n : {1000u, 100u, 10u}) {
    Pending p;
    p.request.points.resize(n);
    ASSERT_EQ(q.push(p), BoundedQueue::Admit::kOk);
  }
  EXPECT_EQ(depth.value(), 3);
  Pending out;
  for (const std::size_t n : {1000u, 100u}) {
    ASSERT_TRUE(q.pop(&out));
    EXPECT_EQ(out.request.points.size(), n);
  }
  EXPECT_EQ(depth.value(), 1);
  // A closed queue still hands out its backlog, then reports the end.
  q.close();
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.request.points.size(), 10u);
  EXPECT_EQ(depth.value(), 0);
  EXPECT_FALSE(q.pop(&out));
}

// A consumer blocked in pop() wakes for the next push, and for close().
TEST(BoundedQueue, PopBlocksUntilPushOrClose) {
  BoundedQueue q(4);
  std::atomic<int> popped{0};
  std::atomic<bool> ended{false};
  std::thread consumer([&] {
    Pending out;
    while (q.pop(&out)) popped.fetch_add(1);
    ended.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(popped.load(), 0);
  Pending p;
  ASSERT_EQ(q.push(p), BoundedQueue::Admit::kOk);
  for (int i = 0; i < 2000 && popped.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(popped.load(), 1);
  EXPECT_FALSE(ended.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(ended.load());
}

// --- HullService ------------------------------------------------------

/// The registry name of the rejected counter for `reason`.
std::string rejected(const char* reason) {
  return stats::labeled(statnames::kRejectedBase, "reason", reason);
}

/// One registry counter, read live (0 when absent).
std::uint64_t counter(const HullService& svc, const std::string& name) {
  return svc.stats_registry().snapshot().counter_or0(name);
}

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.threads_per_shard = 2;
  cfg.queue_capacity = 256;
  return cfg;
}

TEST(HullService, ServedHullMatchesDirectApiCall) {
  ServiceConfig cfg = small_config();
  HullService svc(cfg);
  const auto pts = geom::in_disk(600, 42);
  Request r;
  r.id = 17;
  r.points = pts;
  Response resp = svc.submit(std::move(r)).get();
  ASSERT_EQ(resp.status, Status::kOk);

  // Solo reference run under the request's derived seed.
  Options opts;
  opts.seed = derive_request_seed(cfg.master_seed, 17);
  opts.threads = cfg.threads_per_shard;
  const Hull2D solo = upper_hull_2d(pts, opts);
  EXPECT_EQ(resp.hull.upper.vertices, solo.result.upper.vertices);
  EXPECT_EQ(resp.hull.edge_above, solo.result.edge_above);
  EXPECT_EQ(resp.metrics.steps, solo.metrics.steps);
  EXPECT_EQ(resp.metrics.work, solo.metrics.work);
  EXPECT_EQ(resp.metrics.seed, opts.seed);
  EXPECT_EQ(resp.metrics.batch_size, 1u);
  // e2e covers at least the request's own execution.
  EXPECT_GE(resp.metrics.e2e_ms, resp.metrics.exec_ms);
}

TEST(HullService, DeadlineExpiryMidQueueAnswersExpired) {
  HullService svc(small_config());
  Request r = make_request(5, 200, 1);
  r.deadline = Clock::now() - 1ms;  // already past when dequeued
  Response resp = svc.submit(std::move(r)).get();
  EXPECT_EQ(resp.status, Status::kExpired);
  EXPECT_EQ(counter(svc, statnames::kExpired), 1u);
  // A generous deadline is met normally.
  Request ok = make_request(6, 200, 1);
  ok.deadline = Clock::now() + 10min;
  EXPECT_EQ(svc.submit(std::move(ok)).get().status, Status::kOk);
}

TEST(HullService, QueueFullRejectsWithReason) {
  // One worker, capacity-1 queue: submitting is orders of magnitude
  // cheaper than executing a 512-point hull, so a tight burst must
  // overflow the queue and the overflow must come back as an immediate
  // kRejectedFull answer.
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.queue_capacity = 1;
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  futs.reserve(64);
  for (int i = 0; i < 64; ++i) {
    futs.push_back(svc.submit(make_request(0, 512, 3)));
  }
  std::uint64_t ok = 0, full = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    (r.status == Status::kOk ? ok : full) += 1;
    if (r.status != Status::kOk) {
      EXPECT_EQ(r.status, Status::kRejectedFull);
    }
  }
  EXPECT_GT(full, 0u) << "capacity-1 queue never overflowed";
  EXPECT_GT(ok, 0u);
  const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
  EXPECT_EQ(s.counter_or0(rejected("full")), full);
  EXPECT_EQ(s.counter_or0(statnames::kSubmitted), futs.size());
}

TEST(HullService, LargeRequestsRouteToTheDedicatedShard) {
  ServiceConfig cfg = small_config();
  cfg.batch.small_threshold = 256;
  HullService svc(cfg);
  Response big = svc.submit(make_request(0, 1000, 9)).get();
  Response small = svc.submit(make_request(0, 100, 9)).get();
  ASSERT_EQ(big.status, Status::kOk);
  ASSERT_EQ(small.status, Status::kOk);
  EXPECT_EQ(big.metrics.shard, svc.shard_count());  // large shard index
  EXPECT_LT(small.metrics.shard, svc.shard_count());
  EXPECT_EQ(big.metrics.batch_size, 1u);
  EXPECT_EQ(counter(svc, statnames::kLargeRequests), 1u);
  // Each trace is tagged with its lane.
  int tagged = 0;
  for (const obs::CompletedTrace& t : svc.flight_recorder()->snapshot()) {
    if (t.trace_id == big.trace.trace_id) {
      ++tagged;
      EXPECT_STREQ(t.tag, "large");
    } else if (t.trace_id == small.trace.trace_id) {
      ++tagged;
      EXPECT_STREQ(t.tag, "small");
    }
  }
  EXPECT_EQ(tagged, 2);
}

TEST(HullService, SubmitAfterShutdownIsRejected) {
  HullService svc(small_config());
  svc.shutdown();
  Response r = svc.submit(make_request(0, 100, 2)).get();
  EXPECT_EQ(r.status, Status::kRejectedShutdown);
  svc.shutdown();  // idempotent
}

TEST(HullService, ConcurrentSubmitAndShutdownDrainAnswersEverything) {
  ServiceConfig cfg = small_config();
  cfg.queue_capacity = 64;
  HullService svc(cfg);
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::vector<std::vector<std::future<Response>>> futs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futs[c].push_back(svc.submit(make_request(0, 128, c + 1)));
      }
    });
  }
  std::this_thread::sleep_for(2ms);
  svc.shutdown(/*drain=*/true);  // races the submitting clients
  for (auto& t : clients) t.join();

  std::uint64_t ok = 0, shut = 0, full = 0;
  for (auto& per_client : futs) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kPerClient));
    for (auto& f : per_client) {
      ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
          << "a submitted request was never answered";
      switch (f.get().status) {
        case Status::kOk:
          ++ok;
          break;
        case Status::kRejectedShutdown:
          ++shut;
          break;
        case Status::kRejectedFull:
          ++full;
          break;
        default:
          FAIL() << "unexpected status";
      }
    }
  }
  const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
  EXPECT_EQ(s.counter_or0(statnames::kSubmitted), kClients * kPerClient);
  EXPECT_EQ(ok + shut + full, kClients * kPerClient);
  // Drain semantics: everything admitted before close executed.
  EXPECT_EQ(s.counter_or0(statnames::kCompleted), ok);
  EXPECT_EQ(s.counter_or0(rejected("shutdown")), shut);
  EXPECT_EQ(s.counter_or0(rejected("full")), full);
}

/// A one-shard service whose traffic all rides one lane: the small lane
/// (whose threshold is raised above every request here) or the large
/// lane (whose threshold is lowered below every request here).
ServiceConfig lane_config(bool large) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.small_threshold = large ? 32 : std::size_t{1} << 30;
  return cfg;
}

/// Queues `backlog` behind a slow first request on a lane_config
/// service, whose traffic has one worker: submits a 2^14-point PRAM
/// request (about 60 ms in Release), waits until the worker runs it
/// (iph_serve_shards_leased reads 1), then submits the requests built
/// beforehand, so they all wait in the queue. Returns every future, the
/// slow request's first.
std::vector<std::future<Response>> submit_behind_a_slow_request(
    HullService& svc, std::vector<Request> backlog) {
  std::vector<std::future<Response>> futs;
  futs.push_back(svc.submit(make_request(0, std::size_t{1} << 14, 4)));
  for (;;) {
    const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
    const std::int64_t* leased = s.gauge(statnames::kShardsLeased);
    if (leased != nullptr && *leased == 1) break;
    std::this_thread::sleep_for(100us);
  }
  for (Request& r : backlog) futs.push_back(svc.submit(std::move(r)));
  return futs;
}

std::vector<Request> small_requests(int count) {
  std::vector<Request> out;
  for (int i = 0; i < count; ++i) out.push_back(make_request(0, 64, 4));
  return out;
}

TEST(HullService, ShutdownWithoutDrainAbandonsTheBacklog) {
  ServiceConfig cfg = lane_config(/*large=*/false);
  HullService svc(cfg);
  std::vector<std::future<Response>> futs =
      submit_behind_a_slow_request(svc, small_requests(16));
  svc.shutdown(/*drain=*/false);
  // The running request finishes; the queued ones are answered, never
  // silently dropped, as abandoned.
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready) << i;
    EXPECT_EQ(futs[i].get().status,
              i == 0 ? Status::kOk : Status::kRejectedShutdown)
        << i;
  }
}

// The serve/stats.h identities, on a snapshot taken after shutdown().
// `turned_away` counts the shutdown rejects answered at admission; the
// rest were admitted, then abandoned.
void expect_serve_identities(const stats::RegistrySnapshot& s,
                             std::uint64_t turned_away) {
  namespace sn = statnames;
  const std::uint64_t completed = s.counter_or0(sn::kCompleted);
  const std::uint64_t expired = s.counter_or0(sn::kExpired);
  const std::uint64_t shutdown = s.counter_or0(rejected("shutdown"));
  ASSERT_GE(shutdown, turned_away);
  // Terminal states: every submit is admitted or rejected, every
  // admitted request completes, expires or is abandoned, and every
  // completed one ran on exactly one engine.
  EXPECT_EQ(s.counter_or0(sn::kSubmitted),
            s.counter_or0(sn::kAccepted) + s.counter_or0(rejected("full")) +
                turned_away);
  EXPECT_EQ(s.counter_or0(sn::kAccepted),
            completed + expired + (shutdown - turned_away));
  EXPECT_EQ(s.counter_or0(
                stats::labeled(sn::kBackendBase, "backend", "pram")) +
                s.counter_or0(
                    stats::labeled(sn::kBackendBase, "backend", "native")),
            completed);
  EXPECT_EQ(s.counter_or0(stats::labeled(obs::statnames::kSpansRecordedBase,
                                         "kind", "request")),
            completed * obs::kSpansPerRequest);
  // No queue slot or running shard stays occupied.
  for (const std::string& g :
       {stats::labeled(sn::kQueueDepthBase, "queue", "small"),
        stats::labeled(sn::kQueueDepthBase, "queue", "large"),
        std::string(sn::kShardsLeased)}) {
    const std::int64_t* v = s.gauge(g);
    ASSERT_NE(v, nullptr) << g;
    EXPECT_EQ(*v, 0) << g;
  }
}

// Regression: shutdown must settle the occupancy gauges no matter how
// it exits, on either lane. Drain executes the backlog; abandon answers
// it without executing — either way no queue slot or running shard may
// stay "occupied" in the registry once shutdown() returns (hullload
// --scrape and the session smoke both assert the gauges at zero
// afterwards), and the terminal-state identities still hold.
TEST(HullService, ShutdownSettlesGaugesAfterDrainAndAbandon) {
  for (const bool large : {false, true}) {
    for (const bool drain : {true, false}) {
      SCOPED_TRACE(testing::Message() << "large=" << large
                                      << " drain=" << drain);
      HullService svc(lane_config(large));
      std::vector<std::future<Response>> futs =
          submit_behind_a_slow_request(svc, small_requests(24));
      svc.shutdown(drain);
      for (auto& f : futs) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        f.get();
      }
      const stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
      expect_serve_identities(snap, /*turned_away=*/0);
      // Drain ran the whole backlog; abandon ran only the slow request.
      EXPECT_EQ(snap.counter_or0(statnames::kCompleted),
                drain ? futs.size() : 1u);
      EXPECT_EQ(snap.counter_or0(rejected("shutdown")),
                drain ? 0u : futs.size() - 1);
      EXPECT_EQ(snap.counter_or0(statnames::kLargeRequests),
                large ? futs.size() : 0u);
    }
  }
}

// execute() runs one request and reports its own stamps and the run's
// full PRAM counters, which agree with the response's.
TEST(Execute, ReportsStampsAndPramCounters) {
  pram::Machine m(2, 99);
  exec::PramBackend pram_backend(m);
  BackendSet backends;
  backends.pram = &pram_backend;
  Request req = make_request(1, 128, 11);
  const Execution ex = execute(backends, req, /*master_seed=*/7);
  EXPECT_LT(ex.started_at.time_since_epoch().count(),
            ex.completed_at.time_since_epoch().count());
  EXPECT_DOUBLE_EQ(ex.response.metrics.exec_ms,
                   ms_between(ex.started_at, ex.completed_at));
  EXPECT_EQ(ex.response.metrics.batch_size, 1u);
  EXPECT_EQ(ex.response.metrics.seed, derive_request_seed(7, 1));
  EXPECT_GT(ex.pram.steps, 0u);
  EXPECT_EQ(ex.pram.steps, ex.response.metrics.steps);
  EXPECT_EQ(ex.pram.work, ex.response.metrics.work);
  EXPECT_EQ(ex.pram.max_active, ex.response.metrics.max_active);
}

// Both lanes share one finish path, so each reconciles the same way.
// The traffic mixes ok, full, expired and shutdown-rejected requests.
TEST(HullService, StatsRegistryReconcilesAfterMixedTraffic) {
  namespace sn = statnames;
  for (const bool large : {false, true}) {
    SCOPED_TRACE(testing::Message() << "large=" << large);
    ServiceConfig cfg = lane_config(large);
    cfg.queue_capacity = 1;
    HullService svc(cfg);
    std::vector<std::future<Response>> futs;
    futs.reserve(34);
    for (int i = 0; i < 32; ++i) {
      futs.push_back(svc.submit(make_request(0, 512, 3)));  // some overflow
    }
    for (auto& f : futs) f.wait();  // drained: the next one is admitted
    Request late = make_request(0, 128, 3);
    late.deadline = Clock::now() - 1ms;  // expires in queue
    futs.push_back(svc.submit(std::move(late)));
    futs.back().wait();
    svc.shutdown();
    futs.push_back(svc.submit(make_request(0, 128, 3)));  // rejected: shutdown

    std::uint64_t ok = 0, full = 0, expired = 0, shutdown = 0;
    for (auto& f : futs) {
      switch (f.get().status) {
        case Status::kOk: ++ok; break;
        case Status::kRejectedFull: ++full; break;
        case Status::kExpired: ++expired; break;
        case Status::kRejectedShutdown: ++shutdown; break;
      }
    }
    EXPECT_GT(full, 0u) << "capacity-1 queue never overflowed";
    ASSERT_EQ(expired, 1u);
    ASSERT_EQ(shutdown, 1u);

    // The registry must agree with the per-future tally — the
    // invariants hullload --scrape asserts live.
    const stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
    expect_serve_identities(snap, /*turned_away=*/1);
    EXPECT_EQ(snap.counter_or0(sn::kCompleted), ok);
    EXPECT_EQ(snap.counter_or0(sn::kExpired), expired);
    EXPECT_EQ(snap.counter_or0(rejected("full")), full);
    EXPECT_EQ(snap.counter_or0(rejected("shutdown")), shutdown);
    EXPECT_EQ(snap.counter_or0(sn::kSubmitted), futs.size());
    EXPECT_EQ(snap.counter_or0(sn::kSubmitted),
              ok + full + expired + shutdown);
    EXPECT_EQ(snap.counter_or0(sn::kLargeRequests),
              large ? ok + expired : 0u);
    // Latency histograms record kOk requests only.
    const stats::HistogramSnapshot* e2e = snap.histogram(sn::kE2eMs);
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->count, ok);
    const stats::HistogramSnapshot* qw = snap.histogram(sn::kQueueWaitMs);
    ASSERT_NE(qw, nullptr);
    EXPECT_EQ(qw->count, ok);
    // The lane's shard metered its busy time.
    const std::uint64_t busy = snap.counter_or0(stats::labeled(
        sn::kShardBusyBase, "shard", large ? "large" : "0"));
    EXPECT_GT(busy, 0u);
  }
}

TEST(HullService, TracingRecordsServePhases) {
  ServiceConfig cfg = small_config();
  cfg.trace = true;
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(svc.submit(make_request(0, 128, 5)));
  }
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  svc.shutdown();
  std::uint64_t invocations = 0;
  for (std::size_t i = 0; i <= svc.shard_count(); ++i) {
    const trace::Recorder* rec = svc.recorder(i);
    ASSERT_NE(rec, nullptr) << i;
    if (const auto* node = rec->root().child("serve/request")) {
      invocations += node->invocations;
      EXPECT_GT(node->steps, 0u);
    }
  }
  EXPECT_EQ(invocations, 8u);  // every request traced exactly once
}

// --- execution-backend selection (iph::exec) --------------------------

// A request pinned to the native engine is served by it: ok status, a
// validate-passing hull, metrics.backend == native with zero PRAM
// counters, and exactly the backend-labeled counter bumped.
TEST(HullService, NativeBackendRoundTripBumpsLabeledCounter) {
  ServiceConfig cfg = small_config();
  HullService svc(cfg);  // service default stays pram
  Request r = make_request(5, 600, 13);
  r.backend = exec::BackendKind::kNative;
  r.edge_above = true;
  const Response resp = svc.submit(std::move(r)).get();
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.metrics.backend, exec::BackendKind::kNative);
  EXPECT_EQ(resp.metrics.steps, 0u);  // native reports zero PRAM cost
  EXPECT_EQ(resp.metrics.work, 0u);
  std::string err;
  const auto pts = geom::in_disk(600, 13);
  EXPECT_TRUE(geom::validate_upper_hull(pts, resp.hull.upper, &err)) << err;
  EXPECT_TRUE(geom::validate_edge_above(pts, resp.hull, &err)) << err;

  svc.shutdown();
  namespace sn = statnames;
  const stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
  EXPECT_EQ(snap.counter_or0(
                stats::labeled(sn::kBackendBase, "backend", "native")),
            1u);
  EXPECT_EQ(snap.counter_or0(
                stats::labeled(sn::kBackendBase, "backend", "pram")),
            0u);
  // No PRAM run happened, so the folded simulator counters stayed flat.
  EXPECT_EQ(snap.counter_or0("iph_serve_pram_steps_total"), 0u);
}

// edge_above is opt-in (Request::edge_above, the wire's "edge_above"): a
// native request that does not ask gets an empty array, one that asks
// gets exactly seq::assign_edges_above's — on the small lane and on the
// large lane, whose 2^16-point run crosses the engine's parallel paths.
TEST(HullService, NativeEdgeAboveIsOptIn) {
  ServiceConfig cfg = small_config();
  cfg.backend = exec::BackendKind::kNative;
  HullService svc(cfg);
  for (const std::size_t n : {std::size_t{600}, std::size_t{1} << 16}) {
    const auto pts = geom::in_disk(n, 21);
    Request skip = make_request(1, n, 21);
    Request ask = make_request(2, n, 21);
    ask.edge_above = true;
    const Response a = svc.submit(std::move(skip)).get();
    const Response b = svc.submit(std::move(ask)).get();
    ASSERT_EQ(a.status, Status::kOk) << n;
    ASSERT_EQ(b.status, Status::kOk) << n;
    EXPECT_EQ(a.metrics.backend, exec::BackendKind::kNative) << n;
    EXPECT_TRUE(a.hull.edge_above.empty()) << n;
    EXPECT_EQ(a.hull.upper.vertices, b.hull.upper.vertices) << n;
    EXPECT_EQ(b.hull.edge_above, seq::assign_edges_above(pts, b.hull.upper))
        << n;
  }
}

// The wire decoder range-checks every number before it casts it: lines
// that once crashed or fooled hullserved are ordinary decode errors, and
// the edge_above flag reaches the Request.
TEST(WireDecoder, RejectsOutOfRangeFieldsAndCarriesEdgeAbove) {
  auto decode = [](const std::string& line, Request* req, bool* want,
                   std::string* err) {
    trace::Json j;
    EXPECT_TRUE(trace::Json::parse(line, &j, err)) << line;
    return tools::request_from_json(j, req, want, err);
  };
  for (const char* bad : {
           R"({"n":-5})", R"({"n":1e12})", R"({"n":2.5})",
           R"({"n":2,"alpha":-3,"backend":"pram"})", R"({"n":2,"alpha":0})",
           R"({"n":2,"alpha":1e9})", R"({"points":[[0,0],[1e400,1],[2,0]]})",
           R"({"points":[[0,0],[1,-1e999]]})", R"({"id":-1,"n":4})",
           R"({"id":1e300,"n":4})", R"({"id":"7","n":4})",
           R"({"n":4,"seed":-2})", R"({"n":4,"seed":1e30})",
           R"({"n":4,"deadline_ms":-1})", R"({"n":4,"deadline_ms":1e300})",
           R"({"n":0})", R"({})"}) {
    Request req;
    bool want = false;
    std::string err;
    EXPECT_FALSE(decode(bad, &req, &want, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  Request req;
  bool want = false;
  std::string err;
  ASSERT_TRUE(decode(R"({"id":9,"n":64,"seed":3,"alpha":64,"deadline_ms":5,"edge_above":true})",
                     &req, &want, &err))
      << err;
  EXPECT_EQ(req.id, 9u);
  EXPECT_EQ(req.points.size(), 64u);
  EXPECT_EQ(req.alpha, 64);
  EXPECT_TRUE(req.has_deadline());
  EXPECT_TRUE(want);
  EXPECT_TRUE(req.edge_above);
  ASSERT_TRUE(decode(R"({"points":[[0,0],[1,2],[2,0]]})", &req, &want, &err))
      << err;
  EXPECT_FALSE(want);
  EXPECT_FALSE(req.edge_above);
  EXPECT_EQ(req.alpha, 8);

  std::uint64_t sid = 0;
  std::vector<geom::Point2> pts;
  for (const char* bad : {R"({"sid":1,"n":-5})", R"({"sid":1,"n":1e12})",
                          R"({"sid":1,"points":[[1e400,0]]})",
                          R"({"sid":1e300,"n":4})", R"({"sid":0,"n":4})"}) {
    trace::Json j;
    ASSERT_TRUE(trace::Json::parse(bad, &j, &err)) << bad;
    err.clear();
    EXPECT_FALSE(tools::session_append_from_json(j, &sid, &pts, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// ServiceConfig::backend routes kDefault requests; an explicit request
// kind always wins over the service default.
TEST(HullService, ServiceDefaultBackendRoutesAndExplicitWins) {
  ServiceConfig cfg = small_config();
  cfg.backend = exec::BackendKind::kNative;
  HullService svc(cfg);
  Request by_default = make_request(1, 300, 2);  // kDefault -> native
  Request pinned = make_request(2, 300, 2);
  pinned.backend = exec::BackendKind::kPram;
  const Response a = svc.submit(std::move(by_default)).get();
  const Response b = svc.submit(std::move(pinned)).get();
  ASSERT_EQ(a.status, Status::kOk);
  ASSERT_EQ(b.status, Status::kOk);
  EXPECT_EQ(a.metrics.backend, exec::BackendKind::kNative);
  EXPECT_EQ(b.metrics.backend, exec::BackendKind::kPram);
  EXPECT_GT(b.metrics.steps, 0u);  // the simulator meters its runs

  svc.shutdown();
  namespace sn = statnames;
  const stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
  EXPECT_EQ(snap.counter_or0(
                stats::labeled(sn::kBackendBase, "backend", "native")),
            1u);
  EXPECT_EQ(snap.counter_or0(
                stats::labeled(sn::kBackendBase, "backend", "pram")),
            1u);
}

// A mixed-backend burst dispatches per request: each engine serves its
// own requests on the same worker, the two per-backend counters split
// the burst exactly, and pram + native == completed (the invariant
// hullload --scrape asserts).
TEST(HullService, MixedBatchSplitsBackendCounters) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  futs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    Request r = make_request(0, 200, 4);
    r.backend = i % 2 == 0 ? exec::BackendKind::kNative
                           : exec::BackendKind::kPram;
    futs.push_back(svc.submit(std::move(r)));
  }
  std::uint64_t native = 0, pram = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.metrics.batch_size, 1u);
    EXPECT_EQ(r.metrics.backend, i % 2 == 0 ? exec::BackendKind::kNative
                                            : exec::BackendKind::kPram);
    (r.metrics.backend == exec::BackendKind::kNative ? native : pram)++;
  }
  EXPECT_EQ(native, 4u);
  EXPECT_EQ(pram, 4u);
  svc.shutdown();
  namespace sn = statnames;
  const stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
  const std::uint64_t c_native = snap.counter_or0(
      stats::labeled(sn::kBackendBase, "backend", "native"));
  const std::uint64_t c_pram = snap.counter_or0(
      stats::labeled(sn::kBackendBase, "backend", "pram"));
  EXPECT_EQ(c_native, 4u);
  EXPECT_EQ(c_pram, 4u);
  EXPECT_EQ(c_native + c_pram, snap.counter_or0(sn::kCompleted));
}

// The same request served by either engine produces an identical
// default wire response once the legitimately-differing metrics are
// masked: same hull indices, byte-identical serve_wire JSON. The
// points here are duplicate-free, so the backends' chains agree down
// to the indices, not just coordinates (exec_diff_test covers the
// duplicate-divergence case). The opt-in edge_above array is NOT
// byte-stable across engines: a point whose x equals a hull vertex's
// may cite either incident edge (both valid covers — the randomized
// PRAM algorithm records whichever bridge discovered the point), so
// each engine's array is held to the validator instead.
TEST(HullService, WireResponseIdenticalAcrossBackends) {
  Response by[2];
  for (int which = 0; which < 2; ++which) {
    ServiceConfig cfg = small_config();
    cfg.backend = which == 0 ? exec::BackendKind::kPram
                             : exec::BackendKind::kNative;
    HullService svc(cfg);
    Request r = make_request(77, 400, 6);  // same id -> same derived seed
    r.edge_above = true;
    by[which] = svc.submit(std::move(r)).get();
    ASSERT_EQ(by[which].status, Status::kOk);
  }
  EXPECT_EQ(by[0].metrics.seed, by[1].metrics.seed);
  EXPECT_EQ(by[0].hull.upper.vertices, by[1].hull.upper.vertices);
  const auto pts = geom::in_disk(400, 6);
  for (const Response& r : by) {
    std::string err;
    EXPECT_TRUE(geom::validate_edge_above(pts, r.hull, &err)) << err;
  }
  // Wall-clock and engine-specific metrics legitimately differ; the
  // default wire payload must not once they are masked out.
  for (Response& r : by) r.metrics = RequestMetrics{};
  EXPECT_EQ(tools::response_to_json(by[0], /*edge_above=*/false).dump(),
            tools::response_to_json(by[1], /*edge_above=*/false).dump());
}

// The BackendSet seam itself: per-request dispatch and the pram
// fallback when no native engine is wired.
TEST(Execute, BackendSetDispatchesAndFallsBack) {
  pram::Machine m(2, 99);
  exec::PramBackend pram_backend(m);
  exec::NativeBackend native_backend(2);
  std::vector<Request> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(make_request(static_cast<RequestId>(i + 1), 100, 5));
  }
  reqs[0].backend = exec::BackendKind::kNative;
  reqs[1].backend = exec::BackendKind::kPram;
  // reqs[2] stays kDefault -> BackendSet::service_default (pram here).
  // A run consumes its request's points; each run gets its own copy.
  const auto kinds = [&](const BackendSet& backends) {
    std::vector<exec::BackendKind> out;
    for (Request r : reqs) {
      const Execution ex = execute(backends, r, 7);
      EXPECT_EQ(ex.pram.steps == 0,
                ex.response.metrics.backend == exec::BackendKind::kNative);
      out.push_back(ex.response.metrics.backend);
    }
    return out;
  };

  BackendSet both;
  both.pram = &pram_backend;
  both.native = &native_backend;
  EXPECT_EQ(kinds(both),
            (std::vector<exec::BackendKind>{exec::BackendKind::kNative,
                                            exec::BackendKind::kPram,
                                            exec::BackendKind::kPram}));

  // Without a native engine, a kNative request falls back to pram
  // rather than failing — the resolved kind records what actually ran.
  BackendSet pram_only;
  pram_only.pram = &pram_backend;
  EXPECT_EQ(kinds(pram_only),
            std::vector<exec::BackendKind>(3, exec::BackendKind::kPram));
}

// --- request-scoped tracing (iph::obs) --------------------------------

// execute() takes each PRAM run's phase spans out of the shard recorder
// right after the run: they lie inside the run's own exec interval, and
// the recorder holds none past the request that made them. Requests run
// back to back on one machine get disjoint exec intervals.
TEST(Execute, ReportsStartStampAndPhaseSpans) {
  pram::Machine m(2, 99);
  trace::Recorder rec;
  rec.attach(m);
  exec::PramBackend pram_backend(m);
  BackendSet backends;
  backends.pram = &pram_backend;
  backends.recorder = &rec;
  const auto ns = [](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  };
  Clock::time_point prev_end{};
  for (int i = 0; i < 4; ++i) {
    Request req = make_request(static_cast<RequestId>(i + 1), 128, 11);
    const Execution ex = execute(backends, req, 7);
    EXPECT_LT(ex.started_at.time_since_epoch().count(),
              ex.completed_at.time_since_epoch().count());
    EXPECT_GE(ex.started_at.time_since_epoch().count(),
              prev_end.time_since_epoch().count());
    prev_end = ex.completed_at;
    EXPECT_FALSE(ex.phase_spans.empty());
    for (const trace::PhaseSpan& p : ex.phase_spans) {
      EXPECT_GE(p.start_ns, ns(ex.started_at)) << p.name;
      EXPECT_LE(p.end_ns, ns(ex.completed_at)) << p.name;
    }
    EXPECT_TRUE(rec.spans().empty());
  }

  // Native-resolved requests bypass the simulator: they have no spans.
  exec::NativeBackend native_backend(2);
  backends.native = &native_backend;
  Request req = make_request(5, 128, 11);
  req.backend = exec::BackendKind::kNative;
  EXPECT_TRUE(execute(backends, req, 7).phase_spans.empty());
}

// The service stamps a fresh trace id on requests that arrive without
// one and adopts a caller-supplied context verbatim; every completed
// request publishes one 4-span tree whose counters reconcile EXACTLY
// against the serve counters (the identity hullload --scrape checks).
TEST(HullService, TraceStampingAdoptionAndExactSpanReconciliation) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  HullService svc(cfg);
  ASSERT_NE(svc.flight_recorder(), nullptr);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(svc.submit(make_request(0, 128, 5)));
  }
  Request tagged = make_request(0, 128, 5);
  tagged.trace.trace_id = 0xabc123;
  tagged.trace.parent_span = 0x7;
  futs.push_back(svc.submit(std::move(tagged)));

  std::vector<std::uint64_t> ids;
  for (auto& f : futs) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_TRUE(r.trace.has_id()) << "service must stamp missing ids";
    ids.push_back(r.trace.trace_id);
  }
  // The adopted context came back verbatim on its own response...
  EXPECT_EQ(ids.back(), 0xabc123u);
  // ...and stamped ids are unique.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

  svc.shutdown();
  namespace on = obs::statnames;
  const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
  const std::uint64_t completed = s.counter_or0(statnames::kCompleted);
  ASSERT_EQ(completed, futs.size());
  EXPECT_EQ(s.counter_or0(
                stats::labeled(on::kTracesPublishedBase, "kind", "request")),
            completed);
  EXPECT_EQ(s.counter_or0(
                stats::labeled(on::kSpansRecordedBase, "kind", "request")),
            completed * obs::kSpansPerRequest);

  // The retained span trees carry the adopted client span as the root's
  // wire-level parent.
  bool saw_tagged = false;
  for (const obs::CompletedTrace& t : svc.flight_recorder()->snapshot()) {
    ASSERT_EQ(t.spans.size(),
              static_cast<std::size_t>(obs::kSpansPerRequest));
    if (t.trace_id == 0xabc123u) {
      saw_tagged = true;
      EXPECT_EQ(t.parent_span, 0x7u);
    }
  }
  EXPECT_TRUE(saw_tagged);
}

// With --trace on the PRAM path, each request's trace links its own
// slice of the simulator phase tree as child spans of its exec span.
TEST(HullService, PramTracesLinkPhaseSpansUnderExec) {
  ServiceConfig cfg = small_config();
  cfg.trace = true;
  cfg.shards = 1;
  HullService svc(cfg);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(svc.submit(make_request(0, 128, 5)).get().status, Status::kOk);
  }
  svc.shutdown();
  const std::vector<obs::CompletedTrace> traces =
      svc.flight_recorder()->snapshot();
  ASSERT_EQ(traces.size(), 3u);
  for (const obs::CompletedTrace& t : traces) {
    ASSERT_FALSE(t.phase_spans.empty()) << "pram trace lost its phases";
    // Root of each phase slice hangs off the exec span; nested phases
    // hang off other phase spans.
    for (const obs::Span& s : t.phase_spans) {
      EXPECT_TRUE(s.parent_id == obs::kExecSpanId ||
                  s.parent_id >= obs::kFirstPhaseSpanId)
          << s.name;
      EXPECT_GE(s.start_ns, t.root_start_ns());
    }
    EXPECT_EQ(t.phase_spans[0].parent_id, obs::kExecSpanId);
  }
  // Phase spans are counted under their own kind — request span counts
  // stay exactly 4 per completed request.
  const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
  namespace on = obs::statnames;
  EXPECT_EQ(s.counter_or0(
                stats::labeled(on::kSpansRecordedBase, "kind", "request")),
            3u * obs::kSpansPerRequest);
  EXPECT_GT(s.counter_or0(
                stats::labeled(on::kSpansRecordedBase, "kind", "phase")),
            0u);
}

// A traced PRAM service links phase spans into every request's trace,
// however long it runs: each run's spans leave the shard recorder with
// the request, so no recorder-wide cap is ever reached (a recorder that
// kept every phase of the service's life stopped linking after about
// 1,100 requests at n = 64).
TEST(HullService, PramPhaseSpansSurviveALongRun) {
  ServiceConfig cfg = small_config();
  cfg.trace = true;
  cfg.shards = 1;
  HullService svc(cfg);
  constexpr int kRequests = 1500;
  constexpr int kWave = 100;  // stays under the queue capacity
  for (int done = 0; done < kRequests; done += kWave) {
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < kWave; ++i) {
      futs.push_back(svc.submit(make_request(0, 64, 5)));
    }
    for (auto& f : futs) ASSERT_EQ(f.get().status, Status::kOk);
  }
  svc.shutdown();
  const std::vector<obs::CompletedTrace> traces =
      svc.flight_recorder()->snapshot();
  ASSERT_EQ(traces.size(), cfg.obs.capacity);
  for (const obs::CompletedTrace& t : traces) {
    ASSERT_FALSE(t.phase_spans.empty())
        << "request " << t.request_id << " lost its phase spans";
    EXPECT_FALSE(t.phase_spans_truncated) << t.request_id;
    EXPECT_EQ(t.phase_spans[0].parent_id, obs::kExecSpanId);
    // Every phase hangs off exec or off a phase of the same trace.
    for (const obs::Span& s : t.phase_spans) {
      EXPECT_TRUE(s.parent_id == obs::kExecSpanId ||
                  (s.parent_id >= obs::kFirstPhaseSpanId &&
                   s.parent_id < s.span_id))
          << s.name;
    }
  }
  EXPECT_TRUE(svc.recorder(0)->spans().empty());
}

// Disabling obs removes the recorder and its counters entirely — the
// zero-cost off switch (and the config hullload's presence-gated
// reconciliation must tolerate).
TEST(HullService, ObsDisabledServesWithoutRecorderOrCounters) {
  ServiceConfig cfg = small_config();
  cfg.obs.enabled = false;
  HullService svc(cfg);
  EXPECT_EQ(svc.flight_recorder(), nullptr);
  const Response r = svc.submit(make_request(0, 128, 5)).get();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_FALSE(r.trace.has_id()) << "no recorder, no stamping";
  svc.shutdown();
  const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
  EXPECT_EQ(s.counter(stats::labeled(obs::statnames::kTracesPublishedBase,
                                     "kind", "request")),
            nullptr);
}

// A native run sorts the request's own points where they lie
// (exec/backend.h, upper_hull_in_place). The tail-exemplar repro writer
// reads those points after the run, so with obs.repro_dir set the
// service runs the copying entry: the pinned exemplar's repro file holds
// the request's input, bit for bit and in input order, not the sorted
// survivors.
TEST(HullService, ExemplarReproHoldsTheRequestsInput) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("iph_repro_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  ServiceConfig cfg;
  cfg.backend = exec::BackendKind::kNative;
  cfg.threads_per_shard = 2;
  cfg.obs.repro_dir = dir.string();
  HullService svc(cfg);
  // Large enough for the engine's pool; a circle keeps half its points.
  std::vector<geom::Point2> pts = geom::on_circle(40000, 12);
  pts[7] = {-0.0, 0.5};
  pts[8] = {0.25, 4.9406564584124654e-324};
  Request req;
  req.id = 1;
  req.points = pts;
  const Response resp = svc.submit(std::move(req)).get();
  ASSERT_EQ(resp.status, Status::kOk);
  const std::filesystem::path file =
      dir / ("serve_exemplar_" + obs::to_hex(resp.trace.trace_id) + ".json");
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << "no repro file " << file;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  trace::Json j;
  std::string err;
  ASSERT_TRUE(trace::Json::parse(text, &j, &err)) << err;
  const trace::Json* got = j.find("points");
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const trace::Json& q = got->at(i);
    const geom::Point2 p{q.at(0).as_double(), q.at(1).as_double()};
    ASSERT_EQ(std::memcmp(&p, &pts[i], sizeof p), 0) << "point " << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace iph::serve
