// iph::cluster unit + integration tests.
//
// Three layers, mirroring the subsystem's own layering:
//   * HashRing — determinism, coverage, and the consistent-hashing
//     contract (marking a shard down moves ONLY that shard's keys).
//   * merge_snapshots — fleet roll-ups add counters/gauges/le-buckets
//     and reject bounds mismatches; round trips through the strict
//     stats JSON codec.
//   * Router — driven end to end over in-process FakeShard TCP
//     backends that speak just enough of the serve_wire.h NDJSON
//     protocol: routing by id, session affinity with sid rewriting,
//     reject retries, io/admin/probe mark-down semantics, and the
//     exactly-reconciled fleet statz answer.
// Last, real hullserved, hullrouter and hullload processes over TCP:
// serve_tcp must not keep a finished connection's thread, hullserved's
// --threads bounds every engine it owns, and hullload refuses an answer
// to a line it never sent.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/endpoint.h"
#include "cluster/merge.h"
#include "cluster/protocol.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/stats.h"
#include "stats/export.h"
#include "stats/stats.h"
#include "support/rng.h"
#include "support/linechan.h"
#include "trace/json.h"

namespace iph::cluster {
namespace {

using trace::Json;

// ---------------------------------------------------------------------------
// HashRing

std::uint64_t test_key(std::uint64_t i) { return support::mix3(11, 7, i); }

TEST(HashRing, DeterministicAcrossInstancesAndCoversAllShards) {
  HashRing a(4, 64, /*seed=*/123);
  HashRing b(4, 64, /*seed=*/123);
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t i = 0; i < 2048; ++i) {
    std::size_t sa = 0;
    std::size_t sb = 0;
    ASSERT_TRUE(a.shard_for(test_key(i), &sa));
    ASSERT_TRUE(b.shard_for(test_key(i), &sb));
    EXPECT_EQ(sa, sb);
    ++hits[sa];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " owns no keys";
  }
}

TEST(HashRing, MarkdownMovesOnlyTheDownedShardsKeys) {
  HashRing ring(4, 64, /*seed=*/99);
  std::vector<std::size_t> before(2048);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(ring.shard_for(test_key(i), &before[i]));
  }
  ring.set_up(2, false);
  EXPECT_EQ(ring.rebuilds(), 1u);
  EXPECT_EQ(ring.up_count(), 3u);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    std::size_t now = 0;
    ASSERT_TRUE(ring.shard_for(test_key(i), &now));
    if (before[i] != 2) {
      EXPECT_EQ(now, before[i]) << "key " << i << " moved although its "
                                << "home shard stayed up";
    } else {
      EXPECT_NE(now, 2u);
    }
  }
  ring.set_up(2, true);  // mark-up restores the original mapping exactly
  EXPECT_EQ(ring.rebuilds(), 2u);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    std::size_t now = 0;
    ASSERT_TRUE(ring.shard_for(test_key(i), &now));
    EXPECT_EQ(now, before[i]);
  }
  ring.set_up(2, true);  // no-op: already up, no rebuild
  EXPECT_EQ(ring.rebuilds(), 2u);
}

TEST(HashRing, AttemptWalkYieldsDistinctUpShards) {
  HashRing ring(4, 64, /*seed=*/7);
  for (std::uint64_t i = 0; i < 32; ++i) {
    std::vector<bool> seen(4, false);
    for (std::size_t a = 0; a < 4; ++a) {
      std::size_t s = 0;
      ASSERT_TRUE(ring.shard_for_attempt(test_key(i), a, &s));
      EXPECT_FALSE(seen[s]) << "attempt " << a << " repeated shard " << s;
      seen[s] = true;
    }
    std::size_t s = 0;
    EXPECT_FALSE(ring.shard_for_attempt(test_key(i), 4, &s));
  }
  ring.set_up(1, false);
  for (std::uint64_t i = 0; i < 32; ++i) {
    for (std::size_t a = 0; a < 3; ++a) {
      std::size_t s = 0;
      ASSERT_TRUE(ring.shard_for_attempt(test_key(i), a, &s));
      EXPECT_NE(s, 1u);
    }
    std::size_t s = 0;
    EXPECT_FALSE(ring.shard_for_attempt(test_key(i), 3, &s));
  }
  ring.set_up(0, false);
  ring.set_up(2, false);
  ring.set_up(3, false);
  std::size_t s = 0;
  EXPECT_FALSE(ring.shard_for(1, &s));
  EXPECT_EQ(ring.up_count(), 0u);
}

// ---------------------------------------------------------------------------
// merge_snapshots

TEST(MergeSnapshots, AddsCountersGaugesAndLeBuckets) {
  stats::Registry r1;
  r1.counter("c").inc(3);
  r1.gauge("g").set(5);
  stats::Histogram& h1 = r1.histogram("h", stats::latency_bounds_ms());
  h1.record(1.0);
  h1.record(2.0);

  stats::Registry r2;
  r2.counter("c").inc(4);
  r2.counter("only2").inc(7);
  r2.gauge("g").set(-2);
  r2.histogram("h", stats::latency_bounds_ms()).record(1.0);

  stats::RegistrySnapshot fleet;
  std::string err;
  ASSERT_TRUE(merge_snapshots({r1.snapshot(), r2.snapshot()}, &fleet, &err))
      << err;
  EXPECT_EQ(fleet.counter_or0("c"), 7u);
  EXPECT_EQ(fleet.counter_or0("only2"), 7u);
  ASSERT_NE(fleet.gauge("g"), nullptr);
  EXPECT_EQ(*fleet.gauge("g"), 3);  // gauges are extensive: they sum
  // First-seen order: the first part's instruments lead the export.
  ASSERT_FALSE(fleet.counters.empty());
  EXPECT_EQ(fleet.counters.front().first, "c");

  const stats::HistogramSnapshot* h = fleet.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 4.0);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 3u);
  // The merged quantile answers for the whole fleet: all three samples
  // are <= 2ms, so the p99 estimate cannot exceed the 2ms sample's
  // bucket upper bound by more than one ladder step.
  EXPECT_GT(h->quantile(0.5), 0.0);
  EXPECT_LE(h->quantile(0.99), 4.0);
}

TEST(MergeSnapshots, RoundTripsThroughStrictJsonCodec) {
  stats::Registry r1;
  r1.counter("iph_serve_submitted_total").inc(10);
  r1.histogram("lat", stats::latency_bounds_ms()).record(0.5);
  stats::Registry r2;
  r2.counter("iph_serve_submitted_total").inc(32);
  r2.histogram("lat", stats::latency_bounds_ms()).record(8.0);

  // The router's fleet_statz path: each backend's snapshot travels as
  // statz JSON, is re-parsed, then merged.
  std::vector<stats::RegistrySnapshot> parts(2);
  std::string err;
  ASSERT_TRUE(stats::from_json(stats::to_json(r1.snapshot()), parts[0], &err))
      << err;
  ASSERT_TRUE(stats::from_json(stats::to_json(r2.snapshot()), parts[1], &err))
      << err;
  stats::RegistrySnapshot fleet;
  ASSERT_TRUE(merge_snapshots(parts, &fleet, &err)) << err;
  EXPECT_EQ(fleet.counter_or0("iph_serve_submitted_total"), 42u);
  const stats::HistogramSnapshot* h = fleet.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 8.5);
}

TEST(MergeSnapshots, RejectsHistogramBoundsMismatchNamingTheInstrument) {
  stats::Registry r1;
  r1.histogram("iph_forward_ms", {1.0, 2.0, 4.0}).record(1.0);
  stats::Registry r2;
  r2.histogram("iph_forward_ms", {1.0, 2.0}).record(1.0);
  stats::RegistrySnapshot fleet;
  std::string err;
  EXPECT_FALSE(merge_snapshots({r1.snapshot(), r2.snapshot()}, &fleet, &err));
  EXPECT_NE(err.find("iph_forward_ms"), std::string::npos)
      << "error must name the mismatched instrument: " << err;
}

TEST(MergeSnapshots, MalformedSnapshotJsonIsRejectedByTheCodec) {
  stats::Registry r;
  r.counter("c").inc();
  Json good = stats::to_json(r.snapshot());

  Json bad_schema = good;
  bad_schema["schema"] = Json("iph-stats-v0");
  stats::RegistrySnapshot out;
  std::string err;
  EXPECT_FALSE(stats::from_json(bad_schema, out, &err));
  EXPECT_FALSE(err.empty());

  Json bad_counters = good;
  bad_counters["counters"] = Json("not-an-object");
  err.clear();
  EXPECT_FALSE(stats::from_json(bad_counters, out, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// protocol.h

TEST(Protocol, VersionGateAcceptsAbsentAndCurrentRejectsNewer) {
  Json none = Json::object();
  EXPECT_TRUE(version_ok(none));
  Json current = Json::object();
  current["v"] = Json(kProtocolVersion);
  EXPECT_TRUE(version_ok(current));
  Json newer = Json::object();
  newer["v"] = Json(kProtocolVersion + 1);
  EXPECT_FALSE(version_ok(newer));
  EXPECT_TRUE(version_ok(Json(3.0)));  // non-object: no pin to honor
}

TEST(Protocol, StructuredErrorsCarryReasonAndVersion) {
  const Json e = make_error(reject::kUnknownCmd, "no such cmd");
  EXPECT_EQ(e.get_str("error"), "no such cmd");
  EXPECT_EQ(e.get_str("reject"), reject::kUnknownCmd);
  EXPECT_EQ(static_cast<int>(e.get_num("v")), kProtocolVersion);
}

TEST(Protocol, PinnedVersionIsPrintedNeverCast) {
  // A number beyond the double range reads as inf; neither may reach an
  // integer conversion on its way into the reject text.
  const std::pair<const char*, const char*> lines[] = {
      {R"({"v":1e300,"n":3})", "1.0000000000000001e+300"},
      {R"({"v":1e400,"n":3})", "inf"},
  };
  for (const auto& [line, printed] : lines) {
    Envelope in;
    EXPECT_FALSE(decode_envelope(line, 0, true, &in)) << line;
    EXPECT_EQ(in.reject, reject::kVersion) << line;
    EXPECT_EQ(in.error, std::string("request pins protocol version ") +
                            printed + "; this server speaks 1")
        << line;
  }
}

TEST(Protocol, EnvelopeClassifiesCommandsAndRangeChecksTheirFields) {
  Envelope in;
  ASSERT_TRUE(
      decode_envelope(R"({"id":7,"deadline_ms":2.5,"n":4})", 0, true, &in));
  EXPECT_EQ(in.cmd, Command::kRequest);
  EXPECT_EQ(in.id, 7u);
  EXPECT_EQ(in.deadline_ms, 2.5);
  EXPECT_EQ(in.json.get_num("n"), 4);  // the rest is the backend's
  ASSERT_TRUE(decode_envelope(R"({"cmd":"statz","format":"prometheus"})", 0,
                              true, &in));
  EXPECT_EQ(in.cmd, Command::kStatz);
  EXPECT_TRUE(in.prometheus);
  ASSERT_TRUE(decode_envelope(R"({"cmd":"tracez","limit":0,"order":"slowest"})",
                              0, true, &in));
  EXPECT_EQ(in.cmd, Command::kTracez);
  EXPECT_EQ(in.limit, 0u);
  EXPECT_TRUE(in.slowest);
  ASSERT_TRUE(
      decode_envelope(R"({"cmd":"session_close","sid":9})", 0, true, &in));
  EXPECT_EQ(in.cmd, Command::kSessionClose);
  EXPECT_EQ(in.sid, 9u);
  ASSERT_TRUE(decode_envelope(R"({"cmd":"markup","shard":2})", 3, true, &in));
  EXPECT_EQ(in.cmd, Command::kMarkup);
  EXPECT_EQ(in.shard, 2u);

  // Admin commands exist only where there are shards to name.
  const std::pair<const char*, std::size_t> unknown[] = {
      {R"({"cmd":"markdown","shard":0})", 0}, {R"({"cmd":"frobnicate"})", 3}};
  for (const auto& [line, shards] : unknown) {
    EXPECT_FALSE(decode_envelope(line, shards, true, &in)) << line;
    EXPECT_EQ(in.reject, reject::kUnknownCmd) << line;
  }
  EXPECT_FALSE(decode_envelope("{oops", 3, true, &in));
  EXPECT_EQ(in.reject, reject::kBadJson);
  for (const char* line : {
           "[1,2]", R"({"cmd":5,"n":3})", R"({"cmd":"statz","format":"xml"})",
           R"({"cmd":"tracez","order":"fastest"})",
           R"({"cmd":"markdown","shard":3})", R"({"n":3,"deadline_ms":"x"})"}) {
    EXPECT_FALSE(decode_envelope(line, 3, true, &in)) << line;
    EXPECT_EQ(in.reject, reject::kBadRequest) << line;
    EXPECT_FALSE(in.error.empty()) << line;
  }
}

// The parser reads JSON numbers only. Hex, a leading '+', a leading
// zero, a bare '.' on either side and inf/nan words are bad_json, with
// the text a whole-line Json::parse gives, from either front end.
TEST(Protocol, NonJsonNumbersAreBadJson) {
  for (const char* line :
       {R"({"id":0x10,"n":3})", R"({"id":+7,"n":3})",
        R"({"id":7,"n":3,"v":-infinity})", R"({"id":01,"n":3})",
        R"({"id":1.,"n":3})", R"({"points":[[.5,0]]})",
        R"({"v":nan,"n":3})", R"({"cmd":"session_append","sid":1e,"n":3})"}) {
    Json j;
    std::string err;
    EXPECT_FALSE(Json::parse(line, &j, &err)) << line;
    for (const bool keep_points : {true, false}) {
      Envelope in;
      EXPECT_FALSE(decode_envelope(line, 0, keep_points, &in)) << line;
      EXPECT_EQ(in.reject, reject::kBadJson) << line;
      EXPECT_EQ(in.error, "bad JSON: " + err) << line;
    }
  }
  // What JSON allows still reads exactly; beyond the double range is inf.
  Envelope in;
  ASSERT_TRUE(decode_envelope(
      R"({"id":0,"points":[[-0,0.5],[1E2,-2.5e-3],[1e400,3]]})", 0, true,
      &in));
  EXPECT_FALSE(in.points_read);  // inf is the tree decoder's to refuse
  ASSERT_TRUE(decode_envelope(
      R"({"id":0,"points":[[-0,0.5],[1E2,-2.5e-3],[4.9e-324,1e-400]]})", 0,
      true, &in));
  ASSERT_TRUE(in.points_read);
  ASSERT_EQ(in.points.size(), 3u);
  EXPECT_TRUE(std::signbit(in.points[0].x));
  EXPECT_EQ(in.points[1].x, 100.0);
  EXPECT_EQ(in.points[1].y, -2.5e-3);
  EXPECT_EQ(in.points[2].x, 4.9e-324);
  EXPECT_EQ(in.points[2].y, 0.0);
}

// Brackets nested past JsonReader::kMaxDepth are bad_json, not a stack
// overflow: 50,000 of them under any member, "points" included, get the
// text a whole-line Json::parse gives, from either front end's decode,
// and kMaxDepth levels still read.
TEST(Protocol, DeepNestingIsBadJson) {
  auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const std::size_t max = trace::JsonReader::kMaxDepth;
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(nested(max), &j, &err)) << err;
  EXPECT_FALSE(Json::parse(nested(max + 1), &j, &err));
  EXPECT_EQ(err, "nesting too deep at byte " + std::to_string(max));
  for (const std::string key : {"x", "points"}) {
    const std::string head = R"({"id":1,")" + key + "\":";
    const std::string line = head + nested(50000) + "}";
    EXPECT_FALSE(Json::parse(line, &j, &err));
    EXPECT_EQ(err, "nesting too deep at byte " +
                       std::to_string(head.size() + max - 1));
    for (const bool keep_points : {true, false}) {
      Envelope in;
      EXPECT_FALSE(decode_envelope(line, 0, keep_points, &in)) << key;
      EXPECT_EQ(in.reject, reject::kBadJson) << key;
      EXPECT_EQ(in.error, "bad JSON: " + err) << key;
    }
  }
}

// "points" is scanned into Envelope::points and kept out of the tree;
// any other value (and a later duplicate, by last-wins) stays a tree.
TEST(Protocol, PointsAreScannedAsideAndTheSidSpanIsSpliced) {
  Envelope in;
  ASSERT_TRUE(decode_envelope(R"({ "id" : 4, "points" : [ [0,0] , [1,2]] })",
                              0, true, &in));
  EXPECT_TRUE(in.points_read);
  EXPECT_EQ(in.points, (std::vector<geom::Point2>{{0, 0}, {1, 2}}));
  EXPECT_EQ(in.json.find("points"), nullptr);
  EXPECT_EQ(in.id, 4u);
  // The router checks the pairs but keeps none.
  ASSERT_TRUE(decode_envelope(R"({"points":[[0,0],[1,2]]})", 2, false, &in));
  EXPECT_TRUE(in.points_read);
  EXPECT_TRUE(in.points.empty());
  // Last wins, whichever way each copy was read.
  ASSERT_TRUE(decode_envelope(R"({"points":[[1,2]],"points":5,"n":3})", 0,
                              true, &in));
  EXPECT_FALSE(in.points_read);
  EXPECT_TRUE(in.points.empty());
  EXPECT_EQ(in.json.get_num("points"), 5);
  ASSERT_TRUE(decode_envelope(R"({"points":[[1,2,3]],"points":[[1,2]]})", 0,
                              true, &in));
  EXPECT_TRUE(in.points_read);
  EXPECT_EQ(in.json.find("points"), nullptr);
  EXPECT_EQ(in.points, (std::vector<geom::Point2>{{1, 2}}));
  ASSERT_TRUE(decode_envelope(R"({"points":[],"n":3})", 0, true, &in));
  EXPECT_TRUE(in.points_read);
  EXPECT_TRUE(in.points.empty());

  // The router forwards the client's bytes with only the last sid's
  // value replaced.
  const std::string line =
      R"({"cmd":"session_append","sid":3,"points":[[0,0]], "sid" : 12.0 })";
  ASSERT_TRUE(decode_envelope(line, 2, false, &in));
  EXPECT_EQ(in.sid, 12u);
  EXPECT_EQ(with_sid(line, in, 987),
            R"({"cmd":"session_append","sid":3,"points":[[0,0]], "sid" : 987 })");
}

// ---------------------------------------------------------------------------
// Router over FakeShard backends

/// A minimal hullserved stand-in: a TCP listener answering the NDJSON
/// subset the router exercises. Hull requests bump the serve counters
/// (submitted always, completed when accepted) so fleet reconciliation
/// is testable; every reply is tagged {"shard": tag} so tests can see
/// where a line landed. reject_mode switches the shard to answering
/// rejected_full / rejected_shutdown, modeling backpressure.
class FakeShard {
 public:
  explicit FakeShard(std::size_t tag)
      : tag_(tag),
        submitted_(registry_.counter("iph_serve_submitted_total")),
        completed_(registry_.counter("iph_serve_completed_total")) {
    start(0);
  }
  ~FakeShard() { stop(); }

  int port() const { return port_; }
  std::uint64_t submitted() const { return submitted_.value(); }

  /// 0 = accept, 1 = rejected_full, 2 = rejected_shutdown.
  std::atomic<int> reject_mode{0};
  /// Nonzero: session_open answers "ok" with this "sid" instead of one
  /// it issued (a misbehaving backend).
  std::atomic<double> open_sid{0};
  /// Copies written of each answer; more than one breaks the protocol's
  /// one answer per line.
  std::atomic<int> copies{1};

  void start(int port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ASSERT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t alen = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);
    stopped_.store(false);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  void stop() {
    if (stopped_.exchange(true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    std::vector<std::thread> conns;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
      conns.swap(conn_threads_);
    }
    for (auto& t : conns) t.join();
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (int fd : conn_fds_) ::close(fd);
      conn_fds_.clear();
    }
  }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lk(mu_);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    support::LineChannel ch(fd, fd);
    std::string line;
    std::uint64_t next_sid = 1;
    while (ch.read_line(&line)) {
      Json j;
      std::string err;
      if (!Json::parse(line, &j, &err) || !j.is_object()) {
        if (!ch.write_line(make_error(reject::kBadJson, "bad json").dump()))
          return;
        continue;
      }
      Json r = Json::object();
      if (const Json* c = j.find("cmd")) {
        const std::string cmd = c->as_string();
        if (cmd == "statz") {
          r["statz"] = stats::to_json(registry_.snapshot());
        } else if (cmd == "session_open") {
          r["sid"] = open_sid.load() != 0 ? Json(open_sid.load())
                                          : Json(next_sid++);
          r["status"] = Json("ok");
          r["shard"] = Json(static_cast<std::uint64_t>(tag_));
        } else if (cmd == "session_append" || cmd == "session_close") {
          r["sid"] = Json(j.get_num("sid"));
          r["status"] = Json("ok");
          r["shard"] = Json(static_cast<std::uint64_t>(tag_));
        } else {
          if (!ch.write_line(make_error(reject::kUnknownCmd, cmd).dump()))
            return;
          continue;
        }
      } else {
        submitted_.inc();  // rejects count as submitted, like hullserved
        const int mode = reject_mode.load();
        if (mode == 0) {
          completed_.inc();
          r["status"] = Json("ok");
        } else {
          r["status"] = Json(mode == 1 ? "rejected_full" : "rejected_shutdown");
        }
        if (const Json* id = j.find("id")) r["id"] = Json(id->as_double());
        r["shard"] = Json(static_cast<std::uint64_t>(tag_));
      }
      stamp_version(&r);
      for (int k = 0; k < copies.load(); ++k) {
        if (!ch.write_line(r.dump())) return;
      }
    }
  }

  const std::size_t tag_;
  stats::Registry registry_;
  stats::Counter& submitted_;
  stats::Counter& completed_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopped_{true};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

RouterConfig fleet_config(const std::vector<std::unique_ptr<FakeShard>>& fleet,
                          int retries, int probe_ms) {
  RouterConfig cfg;
  for (const auto& f : fleet) {
    cfg.endpoints.push_back(Endpoint{"127.0.0.1", f->port()});
  }
  cfg.retry_limit = retries;
  cfg.probe_period_ms = probe_ms;
  return cfg;
}

std::vector<std::unique_ptr<FakeShard>> make_fleet(std::size_t n) {
  std::vector<std::unique_ptr<FakeShard>> fleet;
  for (std::size_t i = 0; i < n; ++i) {
    fleet.push_back(std::make_unique<FakeShard>(i));
  }
  return fleet;
}

Json send(Router::Conn& conn, const Json& j) {
  Json reply;
  std::string err;
  EXPECT_TRUE(Json::parse(conn.handle_line(j.dump()), &reply, &err)) << err;
  return reply;
}

Json request_line(std::uint64_t id) {
  Json j = Json::object();
  j["id"] = Json(id);
  j["n"] = Json(16);
  return j;
}

TEST(Router, RoutesByIdDeterministicallyAndCountsEverything) {
  auto fleet = make_fleet(3);
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/0));
  std::map<std::uint64_t, std::uint64_t> homed;
  {
    Router::Conn conn(router);
    for (std::uint64_t id = 1; id <= 30; ++id) {
      const Json r = send(conn, request_line(id));
      EXPECT_EQ(r.get_str("status"), "ok");
      EXPECT_EQ(static_cast<int>(r.get_num("v")), kProtocolVersion);
      homed[id] = static_cast<std::uint64_t>(r.get_num("shard"));
    }
  }
  {
    // Same ids on a fresh connection land on the same shards: routing
    // keys on the request id, not on connection state.
    Router::Conn conn(router);
    for (std::uint64_t id = 1; id <= 30; ++id) {
      const Json r = send(conn, request_line(id));
      EXPECT_EQ(static_cast<std::uint64_t>(r.get_num("shard")), homed[id]);
    }
  }
  const stats::RegistrySnapshot s = router.registry().snapshot();
  EXPECT_EQ(s.counter_or0(statnames::kForwards), 60u);
  std::uint64_t routed = 0;
  std::uint64_t backend_submitted = 0;
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    routed += s.counter_or0(
        stats::labeled(statnames::kRoutesBase, "shard", std::to_string(k)));
    backend_submitted += fleet[k]->submitted();
  }
  EXPECT_EQ(routed, 60u);
  EXPECT_EQ(backend_submitted, 60u);  // forwards == fleet submitted
  ASSERT_NE(s.gauge(statnames::kBackendsUp), nullptr);
  EXPECT_EQ(*s.gauge(statnames::kBackendsUp), 3);
}

TEST(Router, RejectedRequestsRetryOnSiblingsThenSurfaceVerbatim) {
  auto fleet = make_fleet(2);
  fleet[0]->reject_mode.store(1);  // shard 0 sheds all hull requests
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/0));
  Router::Conn conn(router);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const Json r = send(conn, request_line(id));
    // Every request succeeds: those homed on shard 0 retried to 1.
    EXPECT_EQ(r.get_str("status"), "ok");
    EXPECT_EQ(static_cast<std::uint64_t>(r.get_num("shard")), 1u);
  }
  const stats::RegistrySnapshot s = router.registry().snapshot();
  const std::uint64_t retried = s.counter_or0(
      stats::labeled(statnames::kRetriesBase, "reason", "rejected_full"));
  EXPECT_GT(retried, 0u) << "no request homed on the rejecting shard";
  EXPECT_EQ(s.counter_or0(statnames::kForwards), 40u + retried);
  EXPECT_EQ(fleet[0]->submitted() + fleet[1]->submitted(), 40u + retried);

  // Whole fleet shedding: the budget runs out and the backend's own
  // reject reaches the client verbatim (backpressure propagates).
  fleet[1]->reject_mode.store(2);
  fleet[0]->reject_mode.store(2);
  const Json r = send(conn, request_line(1000));
  EXPECT_EQ(r.get_str("status"), "rejected_shutdown");
}

TEST(Router, SessionsPinRewriteSidsAndNeverRetry) {
  auto fleet = make_fleet(2);
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/0));
  Router::Conn conn(router);

  Json open = Json::object();
  open["cmd"] = Json("session_open");
  open["n"] = Json(8);
  const Json r1 = send(conn, open);
  ASSERT_EQ(r1.get_str("status"), "ok");
  const auto sid1 = static_cast<std::uint64_t>(r1.get_num("sid"));
  const auto pinned = static_cast<std::uint64_t>(r1.get_num("shard"));
  const Json r2 = send(conn, open);
  const auto sid2 = static_cast<std::uint64_t>(r2.get_num("sid"));
  EXPECT_NE(sid1, sid2) << "router sids must be distinct across sessions";

  Json append = Json::object();
  append["cmd"] = Json("session_append");
  append["sid"] = Json(sid1);
  for (int i = 0; i < 5; ++i) {
    const Json a = send(conn, append);
    EXPECT_EQ(a.get_str("status"), "ok");
    // Affinity: every append answers from the opening shard, and the
    // client keeps seeing its router sid, not the backend's.
    EXPECT_EQ(static_cast<std::uint64_t>(a.get_num("shard")), pinned);
    EXPECT_EQ(static_cast<std::uint64_t>(a.get_num("sid")), sid1);
  }
  {
    const stats::RegistrySnapshot s = router.registry().snapshot();
    ASSERT_NE(s.gauge(statnames::kSessionsOpen), nullptr);
    EXPECT_EQ(*s.gauge(statnames::kSessionsOpen), 2);
    // Session traffic reconciles in routes{}, never in forwards.
    EXPECT_EQ(s.counter_or0(statnames::kForwards), 0u);
  }

  // Down the pinned shard: appends are never re-routed — a structured
  // shard_down reject comes back and the sibling sees no traffic.
  const std::uint64_t before_other = fleet[1 - pinned]->submitted();
  fleet[pinned]->stop();
  const Json down = send(conn, append);
  EXPECT_EQ(down.get_str("reject"), reject::kShardDown);
  EXPECT_EQ(fleet[1 - pinned]->submitted(), before_other);

  Json close = Json::object();
  close["cmd"] = Json("session_close");
  close["sid"] = Json(sid2);
  if (static_cast<std::uint64_t>(r2.get_num("shard")) != pinned) {
    // sid2 lives on the surviving shard: close it and check teardown.
    const Json c = send(conn, close);
    EXPECT_EQ(c.get_str("status"), "ok");
    const Json again = send(conn, close);
    EXPECT_EQ(again.get_str("status"), "closed");
  }
  Json unknown = Json::object();
  unknown["cmd"] = Json("session_append");
  unknown["sid"] = Json(std::uint64_t{999999});
  EXPECT_EQ(send(conn, unknown).get_str("status"), "unknown");

  const stats::RegistrySnapshot s = router.registry().snapshot();
  EXPECT_GE(s.counter_or0(stats::labeled(statnames::kRejectedBase, "reason",
                                         "shard_down")),
            1u);
  EXPECT_GE(s.counter_or0(stats::labeled(statnames::kMarkdownsBase, "cause",
                                         "io")),
            1u);
}

TEST(Router, IoFailureMarksDownRetriesAndAdminMarkupRestores) {
  auto fleet = make_fleet(3);
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/0));
  Router::Conn probe_conn(router);
  // Learn the id -> shard map while every backend is healthy.
  std::uint64_t id_on_0 = 0;
  for (std::uint64_t id = 1; id <= 64 && id_on_0 == 0; ++id) {
    const Json r = send(probe_conn, request_line(id));
    if (static_cast<std::uint64_t>(r.get_num("shard")) == 0) id_on_0 = id;
  }
  ASSERT_NE(id_on_0, 0u);

  const int port0 = fleet[0]->port();
  fleet[0]->stop();
  // A fresh connection dials the dead shard, fails, marks it down and
  // retries a sibling — the client still gets its answer.
  Router::Conn conn(router);
  const Json r = send(conn, request_line(id_on_0));
  EXPECT_EQ(r.get_str("status"), "ok");
  EXPECT_NE(static_cast<std::uint64_t>(r.get_num("shard")), 0u);
  EXPECT_FALSE(router.shard_up(0));
  {
    const stats::RegistrySnapshot s = router.registry().snapshot();
    EXPECT_EQ(s.counter_or0(
                  stats::labeled(statnames::kRetriesBase, "reason", "io")),
              1u);
    EXPECT_EQ(s.counter_or0(
                  stats::labeled(statnames::kMarkdownsBase, "cause", "io")),
              1u);
    ASSERT_NE(s.gauge(statnames::kBackendsUp), nullptr);
    EXPECT_EQ(*s.gauge(statnames::kBackendsUp), 2);
  }

  // Once marked down the ring routes around it with no further retries.
  const Json r2 = send(conn, request_line(id_on_0));
  EXPECT_NE(static_cast<std::uint64_t>(r2.get_num("shard")), 0u);
  {
    const stats::RegistrySnapshot s = router.registry().snapshot();
    EXPECT_EQ(s.counter_or0(
                  stats::labeled(statnames::kRetriesBase, "reason", "io")),
              1u);
  }

  // Bring the backend back on its old port and undrain: the id homes
  // on shard 0 again (consistent-hash mapping restored exactly).
  fleet[0]->start(port0);
  ASSERT_TRUE(router.mark_up_admin(0));
  EXPECT_TRUE(router.shard_up(0));
  const Json r3 = send(conn, request_line(id_on_0));
  EXPECT_EQ(r3.get_str("status"), "ok");
  EXPECT_EQ(static_cast<std::uint64_t>(r3.get_num("shard")), 0u);
}

TEST(Router, WireProtocolAdminDrainRejectsAndVersionGate) {
  auto fleet = make_fleet(2);
  Router router(fleet_config(fleet, /*retries=*/1, /*probe_ms=*/0));
  Router::Conn conn(router);

  Json markdown = Json::object();
  markdown["cmd"] = Json("markdown");
  markdown["shard"] = Json(0);
  const Json md = send(conn, markdown);
  EXPECT_EQ(md.get_str("status"), "ok");
  EXPECT_FALSE(md.find("up")->as_bool());
  const std::uint64_t drained_before = fleet[0]->submitted();
  for (std::uint64_t id = 1; id <= 20; ++id) {
    const Json r = send(conn, request_line(id));
    EXPECT_EQ(r.get_str("status"), "ok");
    EXPECT_EQ(static_cast<std::uint64_t>(r.get_num("shard")), 1u);
  }
  EXPECT_EQ(fleet[0]->submitted(), drained_before)
      << "admin-drained shard must see no new traffic";

  // Malformed / unknown / cross-version lines all answer structurally.
  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::parse(conn.handle_line("{oops"), &parsed, &err));
  EXPECT_EQ(parsed.get_str("reject"), reject::kBadJson);
  ASSERT_TRUE(Json::parse(conn.handle_line("[1,2]"), &parsed, &err));
  EXPECT_EQ(parsed.get_str("reject"), reject::kBadRequest);
  Json unknown = Json::object();
  unknown["cmd"] = Json("frobnicate");
  EXPECT_EQ(send(conn, unknown).get_str("reject"), reject::kUnknownCmd);
  Json pinned = request_line(5);
  pinned["v"] = Json(kProtocolVersion + 7);
  EXPECT_EQ(send(conn, pinned).get_str("reject"), reject::kVersion);
  Json bad_shard = Json::object();
  bad_shard["cmd"] = Json("markdown");
  bad_shard["shard"] = Json(42);
  EXPECT_EQ(send(conn, bad_shard).get_str("reject"), reject::kBadRequest);

  // Drain the whole fleet: requests answer no_backend, router-minted.
  markdown["shard"] = Json(1);
  EXPECT_EQ(send(conn, markdown).get_str("status"), "ok");
  EXPECT_EQ(send(conn, request_line(9)).get_str("reject"),
            reject::kNoBackend);

  Json markup = Json::object();
  markup["cmd"] = Json("markup");
  markup["shard"] = Json(0);
  const Json mu = send(conn, markup);
  EXPECT_EQ(mu.get_str("status"), "ok");
  EXPECT_TRUE(mu.find("up")->as_bool());

  const stats::RegistrySnapshot s = router.registry().snapshot();
  EXPECT_EQ(s.counter_or0(stats::labeled(statnames::kMarkdownsBase, "cause",
                                         "admin")),
            2u);
  EXPECT_EQ(s.counter_or0(stats::labeled(statnames::kMarkupsBase, "cause",
                                         "admin")),
            1u);
  EXPECT_EQ(s.counter_or0(stats::labeled(statnames::kRejectedBase, "reason",
                                         "no_backend")),
            1u);
  EXPECT_EQ(s.counter_or0(statnames::kRingRebuilds), 3u);
}

TEST(Router, OutOfRangeIntegerFieldsAreBadRequestsAndNeverForwarded) {
  // Every field the router itself reads ("cmd", request id and
  // deadline_ms, session sid, admin shard, tracez limit) is checked by
  // the shared decoder before any cast: huge, infinite, negative,
  // fractional or non-numeric values answer bad_request, reach no
  // backend, and leave the connection usable.
  auto fleet = make_fleet(2);
  Router router(fleet_config(fleet, /*retries=*/1, /*probe_ms=*/0));
  Router::Conn conn(router);
  const char* bad[] = {
      R"({"cmd":5,"n":3})",
      R"({"id":1,"n":16,"deadline_ms":-4})",
      R"({"id":1,"n":16,"deadline_ms":1e300})",
      R"({"id":1,"n":16,"deadline_ms":"x"})",
      R"({"id":1e300,"n":16})",
      R"({"id":1e400,"n":16})",
      R"({"id":-1e400,"n":16})",
      R"({"id":-5,"n":16})",
      R"({"id":2.5,"n":16})",
      R"({"id":1e16,"n":16})",
      R"({"id":"7","n":16})",
      R"({"cmd":"session_append","sid":0,"points":[[0,0]]})",
      R"({"cmd":"session_append","sid":-5,"points":[[0,0]]})",
      R"({"cmd":"session_append","sid":1.5,"points":[[0,0]]})",
      R"({"cmd":"session_close","sid":1e300})",
      R"({"cmd":"session_close","sid":1e400})",
      R"({"cmd":"session_close","sid":1e16})",
      R"({"cmd":"session_close"})",
      R"({"cmd":"markdown","shard":-1})",
      R"({"cmd":"markdown","shard":0.5})",
      R"({"cmd":"markdown","shard":2})",
      R"({"cmd":"markup","shard":1e300})",
      R"({"cmd":"markup","shard":1e400})",
      R"({"cmd":"markdown"})",
      R"({"cmd":"tracez","limit":-5})",
      R"({"cmd":"tracez","limit":2.5})",
      R"({"cmd":"tracez","limit":1e300})",
      R"({"cmd":"tracez","limit":1e400})",
  };
  // Each answer is the shared decoder's, byte for byte: the text a
  // hullserved sends for the same line.
  const auto decoder_answer = [&](const char* line) {
    Envelope in;
    EXPECT_FALSE(decode_envelope(line, router.shard_count(), false, &in))
        << line;
    return make_error(in.reject, in.error).dump();
  };
  for (const char* line : bad) {
    const std::string raw = conn.handle_line(line);
    EXPECT_EQ(raw, decoder_answer(line));
    Json reply;
    std::string err;
    ASSERT_TRUE(Json::parse(raw, &reply, &err)) << line << ": " << err;
    EXPECT_EQ(reply.get_str("reject"), reject::kBadRequest) << line;
  }
  // A version too new to speak is a version reject, however large.
  for (const char* line : {R"({"v":1e300,"n":16})", R"({"v":1e400,"n":16})"}) {
    const std::string raw = conn.handle_line(line);
    EXPECT_EQ(raw, decoder_answer(line));
    Json reply;
    std::string err;
    ASSERT_TRUE(Json::parse(raw, &reply, &err)) << line;
    EXPECT_EQ(reply.get_str("reject"), reject::kVersion) << line;
  }
  const stats::RegistrySnapshot s = router.registry().snapshot();
  EXPECT_EQ(s.counter_or0(statnames::kForwards), 0u);
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    EXPECT_EQ(s.counter_or0(stats::labeled(statnames::kRoutesBase, "shard",
                                           std::to_string(k))),
              0u)
        << "a refused line reached shard " << k;
  }
  EXPECT_EQ(s.counter_or0(stats::labeled(statnames::kMarkdownsBase, "cause",
                                         "admin")),
            0u);
  for (const auto& f : fleet) EXPECT_EQ(f->submitted(), 0u);
  EXPECT_TRUE(router.shard_up(0));
  EXPECT_TRUE(router.shard_up(1));

  const Json ok = send(conn, request_line(3));
  EXPECT_EQ(ok.get_str("status"), "ok");
  EXPECT_EQ(router.registry().snapshot().counter_or0(statnames::kForwards),
            1u);
}

TEST(Router, FleetStatzMergesLiveBackendsAndFallsBackToCache) {
  auto fleet = make_fleet(2);
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/0));
  Router::Conn conn(router);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    EXPECT_EQ(send(conn, request_line(id)).get_str("status"), "ok");
  }

  const Json live = router.fleet_statz(/*prometheus=*/false);
  ASSERT_NE(live.find("statz"), nullptr);
  EXPECT_EQ(static_cast<int>(live.get_num("v")), kProtocolVersion);
  const Json* f = live.find("fleet");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(static_cast<int>(f->get_num("backends")), 2);
  EXPECT_EQ(static_cast<int>(f->get_num("up")), 2);
  EXPECT_EQ(static_cast<int>(f->get_num("scraped_live")), 2);
  EXPECT_EQ(static_cast<int>(f->get_num("scraped_cached")), 0);
  stats::RegistrySnapshot merged;
  std::string err;
  ASSERT_TRUE(stats::from_json(*live.find("statz"), merged, &err)) << err;
  // The roll-up reconciles exactly: router forwards == fleet submitted
  // == fleet completed == the 10 client requests, in ONE scrape.
  EXPECT_EQ(merged.counter_or0("iph_serve_submitted_total"), 10u);
  EXPECT_EQ(merged.counter_or0("iph_serve_completed_total"), 10u);
  EXPECT_EQ(merged.counter_or0(statnames::kForwards), 10u);

  // Kill one backend: its last good snapshot keeps contributing, so
  // the fleet totals don't dip mid-outage.
  fleet[1]->stop();
  const Json after = router.fleet_statz(/*prometheus=*/false);
  const Json* f2 = after.find("fleet");
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(static_cast<int>(f2->get_num("scraped_live")), 1);
  EXPECT_EQ(static_cast<int>(f2->get_num("scraped_cached")), 1);
  stats::RegistrySnapshot merged2;
  ASSERT_TRUE(stats::from_json(*after.find("statz"), merged2, &err)) << err;
  EXPECT_EQ(merged2.counter_or0("iph_serve_submitted_total"), 10u);
}

TEST(Router, ProberMarksCrashedShardsDownAndRecoveredShardsUp) {
  auto fleet = make_fleet(2);
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/25));
  const int port1 = fleet[1]->port();

  auto wait_for = [&](bool want_up, std::size_t shard) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (router.shard_up(shard) != want_up &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return router.shard_up(shard) == want_up;
  };

  fleet[1]->stop();
  EXPECT_TRUE(wait_for(false, 1)) << "prober never marked the dead shard down";
  fleet[1]->start(port1);
  EXPECT_TRUE(wait_for(true, 1)) << "prober never marked the shard back up";

  // Administrative drain is sticky: the prober sees a healthy backend
  // but must not undrain it — only mark_up_admin may.
  ASSERT_TRUE(router.mark_down_admin(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(router.shard_up(0));
  ASSERT_TRUE(router.mark_up_admin(0));
  EXPECT_TRUE(router.shard_up(0));

  const stats::RegistrySnapshot s = router.registry().snapshot();
  EXPECT_GE(s.counter_or0(stats::labeled(statnames::kMarkdownsBase, "cause",
                                         "probe")),
            1u);
  EXPECT_GE(s.counter_or0(stats::labeled(statnames::kMarkupsBase, "cause",
                                         "probe")),
            1u);
}

TEST(Router, ConnTeardownClosesItsSessionsGlobally) {
  auto fleet = make_fleet(2);
  Router router(fleet_config(fleet, /*retries=*/2, /*probe_ms=*/0));
  std::uint64_t sid = 0;
  {
    Router::Conn conn(router);
    Json open = Json::object();
    open["cmd"] = Json("session_open");
    const Json r = send(conn, open);
    ASSERT_EQ(r.get_str("status"), "ok");
    sid = static_cast<std::uint64_t>(r.get_num("sid"));
    const stats::RegistrySnapshot s = router.registry().snapshot();
    ASSERT_NE(s.gauge(statnames::kSessionsOpen), nullptr);
    EXPECT_EQ(*s.gauge(statnames::kSessionsOpen), 1);
  }  // conn gone: its sessions close, mirroring backend conn-EOF
  Router::Conn other(router);
  Json append = Json::object();
  append["cmd"] = Json("session_append");
  append["sid"] = Json(sid);
  EXPECT_EQ(send(other, append).get_str("status"), "closed");
  const stats::RegistrySnapshot s = router.registry().snapshot();
  ASSERT_NE(s.gauge(statnames::kSessionsOpen), nullptr);
  EXPECT_EQ(*s.gauge(statnames::kSessionsOpen), 0);
}

TEST(Router, SessionOpenAnswerWithoutAUsableSidIsAFailedRoundTrip) {
  // A backend's sid becomes the router's mapping: one that is not an
  // integer in [1, 2^53] is never mapped. The shard is marked down and a
  // sibling tried, exactly as when the round trip fails.
  Json open = Json::object();
  open["cmd"] = Json("session_open");
  for (const double bad : {1e300, -5.0, 2.5}) {
    auto fleet = make_fleet(2);
    for (auto& f : fleet) f->open_sid.store(bad);
    Router router(fleet_config(fleet, /*retries=*/1, /*probe_ms=*/0));
    Router::Conn conn(router);
    const std::string raw = conn.handle_line(open.dump());
    EXPECT_EQ(raw.find("\"status\":\"ok\""), std::string::npos) << raw;
    Json reply;
    std::string err;
    ASSERT_TRUE(Json::parse(raw, &reply, &err)) << raw;
    EXPECT_EQ(reply.get_str("reject"), reject::kRetryBudget) << bad;
    EXPECT_FALSE(router.shard_up(0)) << bad;
    EXPECT_FALSE(router.shard_up(1)) << bad;
    const stats::RegistrySnapshot s = router.registry().snapshot();
    EXPECT_EQ(s.counter_or0(
                  stats::labeled(statnames::kMarkdownsBase, "cause", "io")),
              2u);
    EXPECT_EQ(s.counter_or0(
                  stats::labeled(statnames::kRetriesBase, "reason", "io")),
              1u);
    ASSERT_NE(s.gauge(statnames::kSessionsOpen), nullptr);
    EXPECT_EQ(*s.gauge(statnames::kSessionsOpen), 0) << bad;
  }

  // With one good sibling every open lands there, and the session it
  // maps answers from that shard.
  auto fleet = make_fleet(2);
  fleet[0]->open_sid.store(2.5);
  Router router(fleet_config(fleet, /*retries=*/1, /*probe_ms=*/0));
  for (int tries = 0; tries < 64 && router.shard_up(0); ++tries) {
    Router::Conn conn(router);
    const Json r = send(conn, open);
    ASSERT_EQ(r.get_str("status"), "ok");
    EXPECT_EQ(static_cast<std::uint64_t>(r.get_num("shard")), 1u);
    Json append = Json::object();
    append["cmd"] = Json("session_append");
    append["sid"] = Json(r.get_num("sid"));
    const Json a = send(conn, append);
    EXPECT_EQ(a.get_str("status"), "ok");
    EXPECT_EQ(static_cast<std::uint64_t>(a.get_num("shard")), 1u);
  }
  EXPECT_FALSE(router.shard_up(0)) << "no open was ever homed on shard 0";
}

TEST(Endpoint, ParsesListsAndRejectsGarbage) {
  std::vector<Endpoint> eps;
  ASSERT_TRUE(parse_endpoint_list("127.0.0.1:7070,localhost:80", &eps));
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 7070);
  EXPECT_EQ(eps[1].host, "localhost");
  EXPECT_EQ(eps[1].port, 80);
  EXPECT_FALSE(parse_endpoint_list("", &eps));
  EXPECT_FALSE(parse_endpoint_list("noport", &eps));
  EXPECT_FALSE(parse_endpoint_list("h:0,", &eps));
  EXPECT_FALSE(parse_endpoint_list("h:99999", &eps));
}

/// A hullserved or hullrouter child on a kernel-picked port, read from
/// its "listening <port>" line; SIGTERMed and reaped on destruction.
class ToolProcess {
 public:
  explicit ToolProcess(std::vector<std::string> args) {
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      // An ignored signal stays ignored across exec, and tests here
      // ignore SIGPIPE: the tool starts with the default, as from a shell.
      ::signal(SIGPIPE, SIG_DFL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(out[1]);
    out_ = out[0];
    support::LineChannel ch(out_, -1);
    std::string line;
    while (port_ == 0 && ch.read_line(&line)) {
      std::sscanf(line.c_str(), "listening %d", &port_);
    }
  }
  ~ToolProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) ::close(out_);
  }
  ToolProcess(const ToolProcess&) = delete;
  ToolProcess& operator=(const ToolProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  /// Lines of /proc/<pid>/maps. A thread stack left unjoined stays
  /// mapped, two lines with its guard page, though the thread is gone.
  std::size_t mappings() const {
    std::ifstream maps("/proc/" + std::to_string(pid_) + "/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);) ++n;
    return n;
  }

  /// Entries of /proc/<pid>/task: the process's live threads.
  std::size_t threads() const {
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/" + std::to_string(pid_) +
                                            "/task"),
        std::filesystem::directory_iterator{}));
  }

  /// Sends SIGTERM to each of the tool's threads but its main one and
  /// waits up to `limit` for the tool to exit; true when it did. A tool
  /// still running then is killed, so the destructor cannot hang. A
  /// thread may be gone before its signal (a finished connection's); the
  /// others still take theirs.
  bool stops_on_a_worker_signal(std::chrono::milliseconds limit) {
    int sent = 0;
    for (const auto& e : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/task")) {
      const pid_t t = std::stoi(e.path().filename().string());
      if (t != pid_ && ::syscall(SYS_tgkill, pid_, t, SIGTERM) == 0) ++sent;
    }
    if (sent == 0) return false;
    const auto deadline = std::chrono::steady_clock::now() + limit;
    bool exited = false;
    while (!exited && std::chrono::steady_clock::now() < deadline) {
      exited = ::waitpid(pid_, nullptr, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    return exited;
  }

  /// `count` connections, one after another, each with one request
  /// answered before it closes.
  void connect_one_by_one(int count) const {
    for (int i = 0; i < count; ++i) {
      const int fd = dial(Endpoint{"127.0.0.1", port_});
      ASSERT_GE(fd, 0);
      support::LineChannel ch(fd, fd);
      std::string reply;
      EXPECT_TRUE(ch.write_line(R"({"id":1,"n":8,"seed":1})") &&
                  ch.read_line(&reply));
      EXPECT_NE(reply.find("\"ok\""), std::string::npos) << reply;
      ::close(fd);
    }
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  int port_ = 0;
};

// serve_tcp, under both front ends, joins a finished connection's
// thread at the next accept. Left unjoined, 200 one-request
// connections kept 200 stacks mapped (400 maps lines, 1.6 GiB of
// VmSize) while the thread count stayed flat.
TEST(Endpoint, FinishedConnectionsReleaseTheirThreads) {
  const ToolProcess backend(
      {IPH_HULLSERVED_BIN, "--quiet", "--port", "0", "--threads", "1"});
  ASSERT_GT(backend.port(), 0);
  const ToolProcess router(
      {IPH_HULLROUTER_BIN, "--quiet", "--port", "0", "--probe-ms", "0",
       "--endpoints", "127.0.0.1:" + std::to_string(backend.port())});
  ASSERT_GT(router.port(), 0);
  for (const ToolProcess* tool : {&backend, &router}) {
    tool->connect_one_by_one(10);
    const std::size_t before = tool->mappings();
    tool->connect_one_by_one(200);
    EXPECT_LT(tool->mappings(), before + 40)
        << (tool == &backend ? "hullserved" : "hullrouter");
  }
}

// hullload's open loop pairs each answer with the oldest outstanding
// send. An answer to no line is a broken stream (exit 3): against a
// backend that answered every line twice, the reader once popped an
// empty queue and reported ok runs with latencies of 30 million ms.
TEST(Endpoint, HullloadRefusesAnAnswerToNoLine) {
  // hullload hangs up mid-stream; the shard's next write must fail with
  // EPIPE, not kill this process.
  ::signal(SIGPIPE, SIG_IGN);
  FakeShard shard(0);
  shard.copies = 2;
  const std::string target = "127.0.0.1:" + std::to_string(shard.port());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    ::dup2(null, STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    ::execl(IPH_HULLLOAD_BIN, IPH_HULLLOAD_BIN, "--connect", target.c_str(),
            "--clients", "1", "--requests", "20", "--qps", "50",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3);
}

// hullload pairs replies with lines by position, and checks each
// reply's "id" against its line's. Against a backend that answers every
// line twice, the closed loop used to pair line i with the second copy
// of answer i-1 and report ok 20, exit 0. Now a mispaired reply is a
// client error, so --expect-all-ok fails in the closed loop and under
// --qps (sent all at once, so every reply finds its line outstanding).
TEST(Endpoint, HullloadChecksEachReplyId) {
  ::signal(SIGPIPE, SIG_IGN);  // hullload hangs up mid-stream
  FakeShard shard(0);
  shard.copies = 2;
  const std::string target = "127.0.0.1:" + std::to_string(shard.port());
  for (const char* qps : {"0", "100000"}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const int null = ::open("/dev/null", O_WRONLY);
      ::dup2(null, STDOUT_FILENO);
      ::dup2(null, STDERR_FILENO);
      ::execl(IPH_HULLLOAD_BIN, IPH_HULLLOAD_BIN, "--connect", target.c_str(),
              "--clients", "1", "--requests", "20", "--qps", qps,
              "--expect-all-ok", static_cast<char*>(nullptr));
      _exit(127);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "--qps " << qps;
    EXPECT_NE(WEXITSTATUS(status), 0) << "--qps " << qps;
    EXPECT_NE(WEXITSTATUS(status), 127) << "--qps " << qps;
  }
}

// A client that hangs up before its answers are written ends only its
// own connection. serve_tcp ignores SIGPIPE; before it did, five
// connections that each sent 200 pipelined lines and closed killed
// hullserved, and hullrouter in front of it, with SIGPIPE: the first
// write after the hang-up draws a reset, the next one the signal.
TEST(Endpoint, ClientsThatHangUpEndOnlyTheirConnection) {
  const ToolProcess backend({IPH_HULLSERVED_BIN, "--quiet", "--port", "0",
                             "--threads", "1", "--backend", "native"});
  ASSERT_GT(backend.port(), 0);
  const ToolProcess router(
      {IPH_HULLROUTER_BIN, "--quiet", "--port", "0", "--probe-ms", "0",
       "--endpoints", "127.0.0.1:" + std::to_string(backend.port())});
  ASSERT_GT(router.port(), 0);
  std::string burst;
  for (int i = 1; i <= 200; ++i) {
    if (i > 1) burst += '\n';
    burst += "{\"id\":" + std::to_string(i) + ",\"n\":4096,\"seed\":" +
             std::to_string(i) + "}";
  }
  for (const ToolProcess* tool : {&backend, &router}) {
    const char* name = tool == &backend ? "hullserved" : "hullrouter";
    std::vector<int> fds;
    for (int c = 0; c < 5; ++c) {
      const int fd = dial(Endpoint{"127.0.0.1", tool->port()});
      ASSERT_GE(fd, 0) << name;
      support::LineChannel ch(fd, fd);
      ASSERT_TRUE(ch.write_line(burst)) << name;
      fds.push_back(fd);
    }
    for (const int fd : fds) ::close(fd);
    // The server answers into the closed connections meanwhile.
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    ASSERT_EQ(::waitpid(tool->pid(), nullptr, WNOHANG), 0)
        << name << " died after its clients hung up";
    tool->connect_one_by_one(1);
  }
}

// A stop signal ends the server whichever of its threads it lands on.
// The handler used to close the listening socket, which does not wake an
// accept() blocked on the main thread: a SIGTERM taken by a service
// worker or the router's prober left the tool running, and the test
// that had started it waiting in waitpid.
TEST(Endpoint, StopSignalOnAnyThreadEndsTheServer) {
  ToolProcess backend({IPH_HULLSERVED_BIN, "--quiet", "--port", "0",
                       "--threads", "1"});
  ASSERT_GT(backend.port(), 0);
  ToolProcess router({IPH_HULLROUTER_BIN, "--quiet", "--port", "0",
                      "--endpoints",
                      "127.0.0.1:" + std::to_string(backend.port())});
  ASSERT_GT(router.port(), 0);
  EXPECT_TRUE(router.stops_on_a_worker_signal(std::chrono::seconds(10)))
      << "hullrouter";
  EXPECT_TRUE(backend.stops_on_a_worker_signal(std::chrono::seconds(10)))
      << "hullserved";
}

// hullserved's --threads bounds every engine it owns, the session
// manager's native pool and PRAM machine too. Idle at --threads 1
// --shards 2 it runs main, two small-lane workers and the large-lane
// worker; with the session engines at hardware width it ran 10
// threads on a 4-core machine.
TEST(Endpoint, ThreadsFlagBoundsTheSessionEngines) {
  const ToolProcess backend({IPH_HULLSERVED_BIN, "--quiet", "--port", "0",
                             "--threads", "1", "--shards", "2"});
  ASSERT_GT(backend.port(), 0);
  EXPECT_LE(backend.threads(), 4u);
}

}  // namespace
}  // namespace iph::cluster
