// iph::serve — queue admission, deadline expiry, lane routing, batching
// and shutdown-drain semantics. The concurrency tests here are the ones
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
  // close() drains: both admitted items still come out, then empty.
  EXPECT_EQ(q.pop_batch(1, 1, 0us).size(), 1u);
  EXPECT_EQ(q.pop_batch(1, 1, 0us).size(), 1u);
  EXPECT_TRUE(q.pop_batch(1, 1, 0us).empty());
}

TEST(BoundedQueue, PopBatchRespectsBudgetsAndTakesOversizedFirst) {
  BoundedQueue q(16);
  auto push_n_points = [&](std::size_t n) {
    Pending p;
    p.request.points.resize(n);
    ASSERT_EQ(q.push(p), BoundedQueue::Admit::kOk);
  };
  push_n_points(1000);  // oversized vs the 500-point budget below
  push_n_points(100);
  push_n_points(100);
  push_n_points(100);
  // First item is taken unconditionally (an oversized request must not
  // wedge the queue); it already exceeds the point budget, so the batch
  // is exactly one.
  auto batch = q.pop_batch(8, 500, 0us);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.points.size(), 1000u);
  // Budgets bound the rest: 3 x 100 points fit under 500.
  batch = q.pop_batch(2, 500, 0us);
  EXPECT_EQ(batch.size(), 2u);  // request budget
  batch = q.pop_batch(8, 500, 0us);
  EXPECT_EQ(batch.size(), 1u);
  q.close();
  EXPECT_TRUE(q.pop_batch(8, 500, 0us).empty());
}

TEST(BoundedQueue, PopBatchReportsCloseReasonAndDepth) {
  BoundedQueue q(16);
  stats::Gauge depth;
  q.bind_depth_gauge(&depth);
  auto push_n_points = [&](std::size_t n) {
    Pending p;
    p.request.points.resize(n);
    ASSERT_EQ(q.push(p), BoundedQueue::Admit::kOk);
  };
  push_n_points(1000);
  push_n_points(100);
  push_n_points(100);
  push_n_points(100);
  EXPECT_EQ(depth.value(), 4);

  BatchClose reason = BatchClose::kWindow;
  // Oversized head blows the point budget immediately.
  auto batch = q.pop_batch(8, 500, 0us, &reason);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(reason, BatchClose::kPoints);
  // Request budget closes the next one.
  batch = q.pop_batch(2, 500, 0us, &reason);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(reason, BatchClose::kRequests);
  EXPECT_EQ(depth.value(), 1);
  // Window elapses with one straggler collected.
  batch = q.pop_batch(8, 500, 0us, &reason);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(reason, BatchClose::kWindow);
  EXPECT_EQ(depth.value(), 0);
  // An oversized head alone in the queue spends the point budget: the
  // batch closes at once instead of waiting out the window for a
  // straggler that could not fit.
  push_n_points(1000);
  const Clock::time_point t0 = Clock::now();
  batch = q.pop_batch(8, 500, 1s, &reason);
  EXPECT_LT(ms_between(t0, Clock::now()), 500.0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(reason, BatchClose::kPoints);
  // A closed queue hands out its backlog under the kClosed reason.
  push_n_points(100);
  q.close();
  batch = q.pop_batch(8, 500, 0us, &reason);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(reason, BatchClose::kClosed);
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
  cfg.batch.window = 200us;
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
  EXPECT_GE(resp.metrics.batch_size, 1u);
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
  // One worker consuming one request per batch, capacity-1 queue:
  // submitting is orders of magnitude cheaper than executing a
  // 512-point hull, so a tight burst must overflow the queue and the
  // overflow must come back as an immediate kRejectedFull answer.
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.queue_capacity = 1;
  cfg.batch.max_batch_requests = 1;
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
  EXPECT_EQ(big.metrics.batch_size, 1u);  // the large lane's batch of one
  EXPECT_EQ(counter(svc, statnames::kLargeRequests), 1u);
  // Its trace is tagged by lane, not by a batch close reason.
  bool saw_big = false;
  for (const obs::CompletedTrace& t : svc.flight_recorder()->snapshot()) {
    if (t.trace_id == big.trace.trace_id) {
      saw_big = true;
      EXPECT_STREQ(t.tag, "large");
    }
  }
  EXPECT_TRUE(saw_big);
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

TEST(HullService, ShutdownWithoutDrainAbandonsTheBacklog) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.window = 50ms;  // keep the backlog queued long enough
  cfg.batch.max_batch_requests = 1;
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(svc.submit(make_request(0, 64, 4)));
  }
  svc.shutdown(/*drain=*/false);
  std::uint64_t answered = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    ++answered;
  }
  EXPECT_EQ(answered, futs.size());  // abandoned, never silent
}

// The serve/stats.h identities, on a snapshot taken after shutdown(),
// for traffic popped in one-request batches (so every all-expired batch
// is one expired request). `turned_away` counts the shutdown rejects
// answered at admission; the rest were admitted, then abandoned.
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
  // Every popped, non-abandoned batch closed for one reason; `batches`
  // counts only the executed ones, each recording its size once.
  std::uint64_t closes = 0;
  for (const char* why : {"window", "requests", "points", "closed"}) {
    closes += s.counter_or0(stats::labeled(sn::kBatchCloseBase, "reason", why));
  }
  EXPECT_EQ(closes, s.counter_or0(sn::kBatches) + expired);
  const stats::HistogramSnapshot* bs = s.histogram(sn::kBatchSize);
  ASSERT_NE(bs, nullptr);
  EXPECT_EQ(bs->count, s.counter_or0(sn::kBatches));
  EXPECT_DOUBLE_EQ(bs->sum, static_cast<double>(completed));
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

/// A one-shard service whose traffic all rides one lane: the small lane
/// in one-request batches, or the large lane. The requests sent to it
/// (64..512 points) fall below the default small_threshold and above
/// the lowered one.
ServiceConfig lane_config(bool large) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.max_batch_requests = 1;
  if (large) cfg.batch.small_threshold = 32;
  return cfg;
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
      ServiceConfig cfg = lane_config(large);
      cfg.batch.window = 50ms;  // keep a real backlog queued at shutdown
      HullService svc(cfg);
      std::vector<std::future<Response>> futs;
      for (int i = 0; i < 24; ++i) {
        futs.push_back(svc.submit(make_request(0, 64, 4)));
      }
      svc.shutdown(drain);
      for (auto& f : futs) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        f.get();
      }
      const stats::RegistrySnapshot snap = svc.stats_registry().snapshot();
      expect_serve_identities(snap, /*turned_away=*/0);
      EXPECT_EQ(snap.counter_or0(statnames::kLargeRequests),
                large ? futs.size() : 0u);
    }
  }
}

TEST(HullService, BatchingCoalescesABurst) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.window = 20ms;
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  futs.reserve(32);
  for (int i = 0; i < 32; ++i) {
    futs.push_back(svc.submit(make_request(0, 64, 8)));
  }
  for (auto& f : futs) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  const stats::RegistrySnapshot s = svc.stats_registry().snapshot();
  EXPECT_EQ(s.counter_or0(statnames::kCompleted), 32u);
  // One worker + a 20ms window: the burst cannot have run one-per-batch.
  EXPECT_LT(s.counter_or0(statnames::kBatches), 32u);
  EXPECT_GT(mean_batch(s), 1.0);
}

TEST(ExecuteBatch, ReportsPerRequestCompletionAndPramTotals) {
  pram::Machine m(2, 99);
  exec::PramBackend pram_backend(m);
  BackendSet backends;
  backends.pram = &pram_backend;
  std::vector<Request> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(static_cast<RequestId>(i + 1), 128, 11));
  }
  BatchExecInfo info;
  const std::vector<Response> rs =
      execute_batch(backends, reqs, /*master_seed=*/7, &info);
  ASSERT_EQ(rs.size(), reqs.size());
  ASSERT_EQ(info.completed_at.size(), reqs.size());
  // Requests execute back-to-back inside the lease: completion stamps
  // strictly increase along the batch.
  for (std::size_t i = 1; i < info.completed_at.size(); ++i) {
    EXPECT_GT(info.completed_at[i].time_since_epoch().count(),
              info.completed_at[i - 1].time_since_epoch().count());
  }
  // The machine is reset per request, so its own metrics end up as the
  // last request's; pram_total is the whole batch.
  std::uint64_t steps = 0, work = 0;
  for (const Response& r : rs) {
    steps += r.metrics.steps;
    work += r.metrics.work;
  }
  EXPECT_EQ(info.pram_total.steps, steps);
  EXPECT_EQ(info.pram_total.work, work);
}

// Regression for the batch-metrics overwrite: every batch-mate used to
// be stamped with the batch tail's end time, so queue/e2e timings were
// the LAST request's for the whole batch. Now each request's e2e is
// submit -> its own completion, which strictly increases along a
// sequentially-executed batch.
TEST(HullService, BatchMatesReportPerRequestTimings) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.window = 500ms;        // far wider than the submit burst...
  cfg.batch.max_batch_requests = 8;  // ...so the count closes the batch
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  futs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    futs.push_back(svc.submit(make_request(0, 256, 8)));
  }
  std::vector<Response> rs;
  rs.reserve(futs.size());
  for (auto& f : futs) rs.push_back(f.get());
  for (const Response& r : rs) {
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.metrics.batch_size, 8u) << "burst did not coalesce";
    // Each request's e2e covers at least its own execution...
    EXPECT_GE(r.metrics.e2e_ms, r.metrics.exec_ms);
  }
  // ...and along the (FIFO) batch, e2e - queue_wait (= time from the
  // shared dequeue stamp to THIS request's completion) strictly
  // increases. Under the old overwrite bug it was one shared batch-end
  // value for every mate.
  for (std::size_t i = 1; i < rs.size(); ++i) {
    EXPECT_GT(rs[i].metrics.e2e_ms - rs[i].metrics.queue_wait_ms,
              rs[i - 1].metrics.e2e_ms - rs[i - 1].metrics.queue_wait_ms);
  }
}

// Both lanes share one finish path, so each reconciles the same way:
// the small lane in one-request batches, the large lane in its batches
// of one. The traffic mixes ok, full, expired and shutdown-rejected
// requests.
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
// gets exactly seq::assign_edges_above's — on the batch lane and on the
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

// A mixed batch dispatches per request: both engines serve out of ONE
// coalesced run, the two per-backend counters split the batch exactly,
// and pram + native == completed (the invariant hullload --scrape
// asserts).
TEST(HullService, MixedBatchSplitsBackendCounters) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.window = 500ms;
  cfg.batch.max_batch_requests = 8;
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
  for (auto& f : futs) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.metrics.batch_size, 8u) << "burst did not coalesce";
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

// The BackendSet seam itself: per-request dispatch, the pram fallback
// when no native engine is wired, and the legacy machine-only overload.
TEST(ExecuteBatch, BackendSetDispatchesAndFallsBack) {
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

  BackendSet both;
  both.pram = &pram_backend;
  both.native = &native_backend;
  BatchExecInfo info;
  // A batch consumes its requests' points; each run gets its own copies.
  std::vector<Request> batch = reqs;
  std::vector<Response> rs = execute_batch(both, batch, 7, &info);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0].metrics.backend, exec::BackendKind::kNative);
  EXPECT_EQ(rs[1].metrics.backend, exec::BackendKind::kPram);
  EXPECT_EQ(rs[2].metrics.backend, exec::BackendKind::kPram);
  EXPECT_EQ(info.native_requests, 1u);
  EXPECT_EQ(info.pram_requests, 2u);

  // Without a native engine, a kNative request falls back to pram
  // rather than failing — the resolved kind records what actually ran.
  BackendSet pram_only;
  pram_only.pram = &pram_backend;
  batch = reqs;
  rs = execute_batch(pram_only, batch, 7, &info);
  EXPECT_EQ(rs[0].metrics.backend, exec::BackendKind::kPram);
  EXPECT_EQ(info.native_requests, 0u);
  EXPECT_EQ(info.pram_requests, 3u);
}

// --- request-scoped tracing (iph::obs) --------------------------------

// Extends the PR 5 batch-metrics fix down to spans: execute_batch now
// also reports each request's own START stamp and takes its phase
// spans out of the shard recorder right after its run, so batch-mates
// get disjoint, per-request exec spans instead of sharing the batch's.
TEST(ExecuteBatch, ReportsPerRequestStartStampsAndPhaseSpans) {
  pram::Machine m(2, 99);
  trace::Recorder rec;
  rec.attach(m);
  exec::PramBackend pram_backend(m);
  std::vector<Request> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(static_cast<RequestId>(i + 1), 128, 11));
  }
  BackendSet backends;
  backends.pram = &pram_backend;
  backends.recorder = &rec;
  BatchExecInfo info;
  const std::vector<Response> rs = execute_batch(backends, reqs, 7, &info);
  ASSERT_EQ(rs.size(), reqs.size());
  ASSERT_EQ(info.started_at.size(), reqs.size());
  ASSERT_EQ(info.completed_at.size(), reqs.size());
  ASSERT_EQ(info.phase_spans.size(), reqs.size());
  const auto ns = [](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Each request's exec interval is well-formed and disjoint from its
    // predecessor's (back-to-back in the arena, never shared stamps).
    EXPECT_LT(info.started_at[i].time_since_epoch().count(),
              info.completed_at[i].time_since_epoch().count());
    if (i > 0) {
      EXPECT_GE(info.started_at[i].time_since_epoch().count(),
                info.completed_at[i - 1].time_since_epoch().count());
    }
    // PRAM-resolved requests own consecutive, non-empty span lists:
    // every span of request i lies inside its own exec interval.
    EXPECT_FALSE(info.phase_spans[i].empty());
    for (const trace::PhaseSpan& p : info.phase_spans[i]) {
      EXPECT_GE(p.start_ns, ns(info.started_at[i])) << p.name;
      EXPECT_LE(p.end_ns, ns(info.completed_at[i])) << p.name;
    }
  }
  // Every span was taken: the recorder holds none past its request.
  EXPECT_TRUE(rec.spans().empty());

  // Native-resolved requests bypass the simulator: they have no spans.
  exec::NativeBackend native_backend(2);
  backends.native = &native_backend;
  for (auto& r : reqs) r.backend = exec::BackendKind::kNative;
  execute_batch(backends, reqs, 7, &info);
  for (const auto& spans : info.phase_spans) {
    EXPECT_TRUE(spans.empty());
  }
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

// Batch-mates get per-request exec spans: along a coalesced batch the
// exec spans are disjoint and strictly ordered, matching the PR 5
// per-request completion stamps (under the old shared-stamp bug every
// mate's exec span would have been the batch tail's interval).
TEST(HullService, BatchMatesGetDisjointExecSpans) {
  ServiceConfig cfg = small_config();
  cfg.shards = 1;
  cfg.batch.window = 500ms;
  cfg.batch.max_batch_requests = 8;
  HullService svc(cfg);
  std::vector<std::future<Response>> futs;
  futs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    futs.push_back(svc.submit(make_request(0, 256, 8)));
  }
  for (auto& f : futs) ASSERT_EQ(f.get().status, Status::kOk);
  svc.shutdown();

  std::vector<obs::CompletedTrace> traces = svc.flight_recorder()->snapshot();
  ASSERT_EQ(traces.size(), 8u);
  // All one batch...
  for (const obs::CompletedTrace& t : traces) {
    ASSERT_EQ(t.batch_size, 8u) << "burst did not coalesce";
  }
  // ...so ordered by request id, the exec spans tile the lease without
  // overlap or shared stamps.
  std::sort(traces.begin(), traces.end(),
            [](const obs::CompletedTrace& a, const obs::CompletedTrace& b) {
              return a.trace_id < b.trace_id;
            });
  const obs::Span* prev = nullptr;
  for (const obs::CompletedTrace& t : traces) {
    const obs::Span& exec = t.spans[obs::kExecSpanId - 1];
    ASSERT_STREQ(exec.name, "exec");
    EXPECT_LT(exec.start_ns, exec.end_ns);
    if (prev != nullptr) {
      EXPECT_GE(exec.start_ns, prev->end_ns)
          << "batch-mates shared exec stamps";
    }
    prev = &t.spans[obs::kExecSpanId - 1];
  }
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
