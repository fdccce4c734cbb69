// iph::cluster — sharded multi-process serving.
//
// Router fronts N hullserved backends with the same NDJSON protocol
// the backends speak (tools/serve_wire.h): a client cannot tell a
// router from a single server, except that statz/tracez answers cover
// the whole fleet. One Router::Conn per client stream answers one line
// at a time (handle_line), so tools/hullrouter (thread per TCP
// connection), bench/e16_cluster and tests/cluster_test all drive the
// exact same routing code.
//
// Decoding: handle_line decodes each line with decode_envelope
// (cluster/protocol.h), as hullserved does, so a malformed line gets
// the same answer from either and never reaches a backend; a backend's
// own decode error has no "status" and is no forward (cluster/stats.h).
// The router checks a line's points but keeps none, and forwards the
// client's bytes: a session command's sid value is spliced to the
// backend's (with_sid), never re-serialized.
//
// Routing (DESIGN.md §13):
//   * Batch requests consistent-hash on their request id (HashRing over
//     the configured endpoints; requests without an id spread by a
//     per-connection sequence). Same id -> same home shard, which is
//     what makes hot-key skew measurable in e16.
//   * Sessions pin: session_open picks a shard, the router mints its
//     own monotonic sid and maps it to (shard, backend sid); every
//     later append/close for that sid forwards to the pinned shard
//     with the sid rewritten both ways. Appends are NEVER re-routed —
//     a downed pinned shard answers a structured shard_down reject.
//   * Backpressure propagates: a backend's rejected_full /
//     rejected_shutdown answer is surfaced to the client verbatim
//     after the retry budget (bounded sibling retries for stateless
//     requests only, clipped by the request's deadline_ms) runs out.
//   * IO failures mark the shard down (cause=io) and retry siblings (so
//     does a session_open answer without a sid in [1, 2^53]; it is
//     never mapped); the health prober (probe_period_ms > 0) marks
//     io-down shards back up when their statz probe answers again.
//     Administrative mark_down (wire cmd "markdown", or
//     mark_down_admin) is a drain: new traffic routes around the shard,
//     in-flight lines finish, and the prober never overrides it — only
//     mark_up_admin does.
//
// Fleet statz: fleet_statz() live-scrapes every backend, falls back to
// the last good snapshot for unreachable ones (so a crashed backend
// contributes a frozen view instead of vanishing mid-reconciliation),
// merges all parts plus the router's own registry (cluster/merge.h)
// and answers the standard statz shape. Exactness: under pure admin
// mark-down/mark-up churn every backend stays scrapeable and the
// fleet roll-up reconciles exactly against the client tally; after a
// crash, exactness holds provided the crash window had no in-flight
// requests (the cached snapshot then equals the backend's final
// counters). See RouterStats (cluster/stats.h) for the identities.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/endpoint.h"
#include "cluster/protocol.h"
#include "cluster/ring.h"
#include "cluster/stats.h"
#include "stats/stats.h"
#include "support/linechan.h"
#include "trace/json.h"

namespace iph::cluster {

struct RouterConfig {
  std::vector<Endpoint> endpoints;
  /// Ring virtual nodes per shard (placement smoothness).
  static constexpr std::size_t kVnodes = 64;
  /// Max sibling re-routes of one stateless request (0 = never retry).
  int retry_limit = 2;
  /// Health-prober period; 0 disables the prober thread entirely
  /// (io mark-down still happens on the request path).
  int probe_period_ms = 200;
  /// Ring placement seed — every router over the same fleet must agree.
  std::uint64_t seed = 0x726f757465726bULL;
};

class Router {
 public:
  explicit Router(RouterConfig cfg);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const RouterConfig& config() const { return cfg_; }
  std::size_t shard_count() const { return cfg_.endpoints.size(); }
  stats::Registry& registry() { return registry_; }
  bool shard_up(std::size_t shard) const;

  /// Administrative drain / undrain (also reachable over the wire:
  /// {"cmd": "markdown"|"markup", "shard": K}). False on a bad index.
  bool mark_down_admin(std::size_t shard);
  bool mark_up_admin(std::size_t shard);

  /// Fleet statz answer ({"statz": ...} / {"statz_text": ...} plus a
  /// "fleet" summary object), merged per the file comment.
  trace::Json fleet_statz(bool prometheus);
  /// Fleet tracez answer: every reachable backend's flight-recorder
  /// view, traces tagged with their shard, slowest-first when asked.
  /// `limit` 0 means unlimited, matching obs::tracez_json.
  trace::Json fleet_tracez(std::size_t limit, bool slowest);

  /// One client stream's routing state: lazily-dialed backend channels
  /// plus the per-connection request sequence. handle_line() is the
  /// whole protocol — exactly one answer line per input line, in order.
  /// A Conn is single-threaded; different Conns share the Router.
  class Conn {
   public:
    explicit Conn(Router& r);
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    std::string handle_line(const std::string& line);

   private:
    std::string handle_request(const Envelope& in, const std::string& line);
    std::string handle_session_open(const std::string& line);
    std::string handle_session_cmd(const Envelope& in,
                                   const std::string& line);
    /// The attempt loop of a stateless line (a request, a session_open):
    /// walk the ring from `key` within the retry budget and `deadline_ms`
    /// (0 = none). `on_reply(shard, &reply)` judges each answer: nullptr
    /// returns it; retries{rejected_*} keeps it in case no sibling does
    /// better; retries{io} marks the shard down like a failed round trip.
    template <class OnReply>
    std::string forward(std::uint64_t key, double deadline_ms,
                        const std::string& line, OnReply on_reply);
    /// Forward `line` to `shard` on this conn's channel; false on IO
    /// failure (the channel is reset so the next use re-dials).
    bool round_trip(std::size_t shard, const std::string& line,
                    std::string* reply);

    Router& r_;
    std::uint64_t salt_;  ///< spreads id-less requests across shards
    std::uint64_t seq_ = 0;
    struct Chan {
      int fd = -1;
      std::unique_ptr<support::LineChannel> ch;
    };
    std::vector<Chan> chans_;
    std::vector<std::uint64_t> my_sids_;  ///< router sids opened here
  };

 private:
  friend class Conn;

  enum class Down { kNo, kIo, kAdmin };
  struct ShardState {
    Down down = Down::kNo;
    stats::RegistrySnapshot cached;  ///< last good statz snapshot
    bool have_cached = false;
  };
  struct SessionEntry {
    std::size_t shard = 0;
    std::uint64_t backend_sid = 0;
    bool closed = false;
  };

  /// Request-path io failure: mark the shard down unless admin-down
  /// already. Returns true when this call did the transition.
  bool mark_down_io(std::size_t shard);
  void probe_loop();
  void mark_session_closed(std::uint64_t router_sid);

  const RouterConfig cfg_;
  stats::Registry registry_;
  RouterStats stats_;

  mutable std::mutex mu_;  ///< guards ring_, shards_, sessions_
  HashRing ring_;
  std::vector<ShardState> shards_;
  std::unordered_map<std::uint64_t, SessionEntry> sessions_;
  std::uint64_t next_sid_ = 1;
  std::uint64_t next_salt_ = 1;

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
  std::thread probe_thread_;
};

}  // namespace iph::cluster
