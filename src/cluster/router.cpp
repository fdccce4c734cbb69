#include "cluster/router.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/merge.h"
#include "stats/export.h"
#include "support/rng.h"

namespace iph::cluster {

namespace {

using trace::Json;
using ClockT = std::chrono::steady_clock;

/// Hash-stream separators so request keys and session-open keys never
/// collide even under identical salts.
constexpr std::uint64_t kRequestStream = 0x72657175657374ULL;
constexpr std::uint64_t kSessionStream = 0x73657373696f6eULL;

double ms_since(ClockT::time_point t0) {
  return std::chrono::duration<double, std::milli>(ClockT::now() - t0)
      .count();
}

}  // namespace

Router::Router(RouterConfig cfg)
    : cfg_(std::move(cfg)),
      stats_(registry_, cfg_.endpoints.size()),
      ring_(cfg_.endpoints.size(), cfg_.vnodes, cfg_.seed),
      shards_(cfg_.endpoints.size()) {
  stats_.backends_up.set(static_cast<std::int64_t>(shards_.size()));
  if (cfg_.probe_period_ms > 0) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
}

Router::~Router() {
  if (probe_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(probe_mu_);
      probe_stop_ = true;
    }
    probe_cv_.notify_one();
    probe_thread_.join();
  }
}

bool Router::shard_up(std::size_t shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  return shard < shards_.size() && ring_.up(shard);
}

bool Router::mark_down_admin(std::size_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shard >= shards_.size()) return false;
  if (shards_[shard].down == Down::kAdmin) return true;
  const bool was_up = shards_[shard].down == Down::kNo;
  shards_[shard].down = Down::kAdmin;
  if (was_up) {
    ring_.set_up(shard, false);
    stats_.ring_rebuilds.inc();
    stats_.backends_up.add(-1);
  }
  // An io-down shard being drained still counts as an admin action;
  // cause tells WHY the shard left the ring, so only a real
  // up->down transition bumps it.
  if (was_up) stats_.markdowns_admin.inc();
  return true;
}

bool Router::mark_up_admin(std::size_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shard >= shards_.size()) return false;
  if (shards_[shard].down == Down::kNo) return true;
  shards_[shard].down = Down::kNo;
  ring_.set_up(shard, true);
  stats_.ring_rebuilds.inc();
  stats_.backends_up.add(1);
  stats_.markups_admin.inc();
  return true;
}

bool Router::mark_down_io(std::size_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shard >= shards_.size() || shards_[shard].down != Down::kNo) {
    return false;
  }
  shards_[shard].down = Down::kIo;
  ring_.set_up(shard, false);
  stats_.ring_rebuilds.inc();
  stats_.backends_up.add(-1);
  stats_.markdowns_io.inc();
  return true;
}


void Router::probe_loop() {
  std::unique_lock<std::mutex> lk(probe_mu_);
  while (!probe_cv_.wait_for(
      lk, std::chrono::milliseconds(cfg_.probe_period_ms),
      [this] { return probe_stop_; })) {
    lk.unlock();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      stats::RegistrySnapshot snap;
      const bool live = scrape_statz(cfg_.endpoints[s], &snap, nullptr);
      std::lock_guard<std::mutex> g(mu_);
      if (live) {
        shards_[s].cached = std::move(snap);
        shards_[s].have_cached = true;
        if (shards_[s].down == Down::kIo) {
          shards_[s].down = Down::kNo;
          ring_.set_up(s, true);
          stats_.ring_rebuilds.inc();
          stats_.backends_up.add(1);
          stats_.markups_probe.inc();
        }
      } else if (shards_[s].down == Down::kNo) {
        shards_[s].down = Down::kIo;
        ring_.set_up(s, false);
        stats_.ring_rebuilds.inc();
        stats_.backends_up.add(-1);
        stats_.markdowns_probe.inc();
      }
    }
    lk.lock();
  }
}

Json Router::fleet_statz(bool prometheus) {
  std::vector<stats::RegistrySnapshot> parts;
  parts.reserve(shards_.size() + 1);
  parts.push_back(registry_.snapshot());
  std::size_t live = 0;
  std::size_t cached = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    stats::RegistrySnapshot snap;
    if (scrape_statz(cfg_.endpoints[s], &snap, nullptr)) {
      ++live;
      std::lock_guard<std::mutex> g(mu_);
      shards_[s].cached = snap;
      shards_[s].have_cached = true;
      parts.push_back(std::move(snap));
    } else {
      std::lock_guard<std::mutex> g(mu_);
      if (shards_[s].have_cached) {
        ++cached;
        parts.push_back(shards_[s].cached);
      }
    }
  }
  stats::RegistrySnapshot merged;
  std::string err;
  if (!merge_snapshots(parts, &merged, &err)) {
    return make_error(reject::kBadRequest, "fleet statz merge: " + err);
  }
  Json o = Json::object();
  if (prometheus) {
    o["statz_text"] = Json(stats::to_prometheus(merged));
  } else {
    o["statz"] = stats::to_json(merged);
  }
  Json fleet = Json::object();
  fleet["backends"] = Json(static_cast<std::uint64_t>(shards_.size()));
  {
    std::lock_guard<std::mutex> g(mu_);
    fleet["up"] = Json(static_cast<std::uint64_t>(ring_.up_count()));
  }
  fleet["scraped_live"] = Json(static_cast<std::uint64_t>(live));
  fleet["scraped_cached"] = Json(static_cast<std::uint64_t>(cached));
  o["fleet"] = std::move(fleet);
  stamp_version(&o);
  return o;
}

Json Router::fleet_tracez(std::size_t limit, bool slowest) {
  Json cmd = Json::object();
  cmd["cmd"] = Json("tracez");
  cmd["limit"] = Json(static_cast<std::uint64_t>(limit));
  cmd["order"] = Json(slowest ? "slowest" : "recent");
  const std::string cmd_line = cmd.dump();

  double retained = 0;
  double published = 0;
  double dropped = 0;
  std::size_t answered = 0;
  std::vector<Json> traces;
  std::vector<Json> exemplars;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::string reply;
    if (!round_trip(cfg_.endpoints[s], cmd_line, &reply)) continue;
    Json j;
    std::string err;
    if (!Json::parse(reply, &j, &err) || !j.is_object()) continue;
    const Json* doc = j.find("tracez");
    if (doc == nullptr || !doc->is_object()) continue;
    ++answered;
    retained += doc->get_num("retained", 0);
    published += doc->get_num("published", 0);
    dropped += doc->get_num("dropped_spans", 0);
    const Json* ts = doc->find("traces");
    if (ts != nullptr && ts->is_array()) {
      for (const Json& t : ts->items()) {
        Json tagged = t;
        tagged["shard"] = Json(static_cast<std::uint64_t>(s));
        traces.push_back(std::move(tagged));
      }
    }
    const Json* ex = doc->find("exemplars");
    if (ex != nullptr && ex->is_array()) {
      for (const Json& e : ex->items()) {
        Json tagged = e;
        tagged["shard"] = Json(static_cast<std::uint64_t>(s));
        exemplars.push_back(std::move(tagged));
      }
    }
  }
  if (slowest) {
    std::stable_sort(traces.begin(), traces.end(),
                     [](const Json& a, const Json& b) {
                       return a.get_num("e2e_ms", 0) > b.get_num("e2e_ms", 0);
                     });
  }
  // limit 0 means unlimited, matching obs::tracez_json.
  if (limit != 0 && traces.size() > limit) traces.resize(limit);

  Json doc = Json::object();
  doc["shards_answering"] = Json(static_cast<std::uint64_t>(answered));
  doc["retained"] = Json(retained);
  doc["published"] = Json(published);
  doc["dropped_spans"] = Json(dropped);
  Json tarr = Json::array();
  for (Json& t : traces) tarr.push_back(std::move(t));
  doc["traces"] = std::move(tarr);
  Json earr = Json::array();
  for (Json& e : exemplars) earr.push_back(std::move(e));
  doc["exemplars"] = std::move(earr);
  Json o = Json::object();
  o["tracez"] = std::move(doc);
  stamp_version(&o);
  return o;
}

void Router::mark_session_closed(std::uint64_t router_sid) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(router_sid);
  if (it != sessions_.end() && !it->second.closed) {
    it->second.closed = true;
    stats_.sessions_open.add(-1);
  }
}

Router::Conn::Conn(Router& r)
    : r_(r), chans_(r.cfg_.endpoints.size()) {
  std::lock_guard<std::mutex> lk(r_.mu_);
  salt_ = r_.next_salt_++;
}

Router::Conn::~Conn() {
  for (Chan& c : chans_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  // The backend drops sessions opened over a connection when that
  // connection closes; mirror that in the router's sid map so later
  // appends answer "closed" instead of forwarding into a dead sid.
  for (std::uint64_t sid : my_sids_) r_.mark_session_closed(sid);
}

bool Router::Conn::round_trip(std::size_t shard, const std::string& line,
                              std::string* reply) {
  Chan& c = chans_[shard];
  if (c.fd < 0) {
    c.fd = dial(r_.cfg_.endpoints[shard]);
    if (c.fd < 0) return false;
    c.ch = std::make_unique<support::LineChannel>(c.fd, c.fd);
  }
  if (c.ch->write_line(line) && c.ch->read_line(reply)) return true;
  ::close(c.fd);
  c.fd = -1;
  c.ch.reset();
  return false;
}

std::string Router::Conn::handle_line(const std::string& line) {
  Envelope in;
  if (!decode_envelope(line, r_.shard_count(), /*keep_points=*/false,
                       &in)) {
    return make_error(in.reject, in.error).dump();
  }
  switch (in.cmd) {
    case Command::kRequest:
      return handle_request(in, line);
    case Command::kStatz:
      return r_.fleet_statz(in.prometheus).dump();
    case Command::kTracez:
      return r_.fleet_tracez(in.limit, in.slowest).dump();
    case Command::kMarkdown:
    case Command::kMarkup: {
      if (in.cmd == Command::kMarkdown) {
        r_.mark_down_admin(in.shard);
      } else {
        r_.mark_up_admin(in.shard);
      }
      Json reply = Json::object();
      reply["status"] = Json("ok");
      reply["shard"] = Json(static_cast<std::uint64_t>(in.shard));
      reply["up"] = Json(r_.shard_up(in.shard));
      stamp_version(&reply);
      return reply.dump();
    }
    case Command::kSessionOpen:
      return handle_session_open(line);
    case Command::kSessionAppend:
    case Command::kSessionClose:
      break;
  }
  return handle_session_cmd(in, line);
}

template <class OnReply>
std::string Router::Conn::forward(std::uint64_t key, double deadline_ms,
                                  const std::string& line,
                                  OnReply on_reply) {
  const auto start = ClockT::now();
  const int attempts = 1 + std::max(0, r_.cfg_.retry_limit);
  std::string fallback;  // the last backend reject, surfaced at the end
  std::vector<std::size_t> tried;
  stats::Counter* pending_retry = nullptr;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && deadline_ms > 0 && ms_since(start) >= deadline_ms) {
      break;
    }
    // The first up shard clockwise from the key that this line has not
    // tried: an io mark-down shrinks the ring under the walk, so the
    // attempt-th distinct shard would skip the nearest sibling.
    std::size_t shard = 0;
    bool found = false;
    {
      std::lock_guard<std::mutex> lk(r_.mu_);
      for (std::size_t a = 0;
           !found && r_.ring_.shard_for_attempt(key, a, &shard); ++a) {
        found = std::find(tried.begin(), tried.end(), shard) == tried.end();
      }
    }
    if (!found) break;
    tried.push_back(shard);
    // The retry counter names the reason the PREVIOUS attempt failed,
    // and only counts when the retry actually executes.
    if (pending_retry != nullptr) {
      pending_retry->inc();
      pending_retry = nullptr;
    }
    const auto t0 = ClockT::now();
    std::string reply;
    if (!round_trip(shard, line, &reply)) {
      pending_retry = &r_.stats_.retries_io;
    } else {
      r_.stats_.forward_ms.record(ms_since(t0));
      r_.stats_.routes[shard]->inc();
      pending_retry = on_reply(shard, &reply);
      if (pending_retry == nullptr) return reply;
    }
    if (pending_retry == &r_.stats_.retries_io) {
      r_.mark_down_io(shard);
    } else {
      fallback = std::move(reply);
    }
  }
  // Budget exhausted. A backend's own reject is surfaced verbatim —
  // the client sees WHY the fleet pushed back; only when no backend
  // ever answered does the router mint its own reject.
  if (!fallback.empty()) return fallback;
  if (tried.empty()) {
    r_.stats_.rejected_no_backend.inc();
    return make_error(reject::kNoBackend, "no backend shard is up").dump();
  }
  r_.stats_.rejected_retry_budget.inc();
  return make_error(reject::kRetryBudget,
                    "no backend answered within the retry/deadline budget")
      .dump();
}

std::string Router::Conn::handle_request(const Envelope& in,
                                         const std::string& line) {
  const std::uint64_t key =
      in.id != 0
          ? support::mix3(r_.cfg_.seed, kRequestStream, in.id)
          : support::mix3(r_.cfg_.seed ^ kRequestStream, salt_, ++seq_);
  const auto judge = [this](std::size_t,
                            std::string* reply) -> stats::Counter* {
    // A backend answers a line it submitted with a "status" and a line
    // it refuses to decode without one: only the first is a forward.
    Json rj;
    if (!Json::parse(*reply, &rj, nullptr) || rj.find("status") == nullptr) {
      return nullptr;
    }
    r_.stats_.forwards.inc();
    const std::string status = rj.get_str("status");
    if (status == "rejected_full") return &r_.stats_.retries_rejected_full;
    if (status == "rejected_shutdown") {
      return &r_.stats_.retries_rejected_shutdown;
    }
    return nullptr;
  };
  return forward(key, in.deadline_ms, line, judge);
}

std::string Router::Conn::handle_session_open(const std::string& line) {
  const std::uint64_t key =
      support::mix3(r_.cfg_.seed ^ kSessionStream, salt_, ++seq_);
  // Opening is stateless until it succeeds, so sibling retry is safe.
  const auto judge = [this](std::size_t shard,
                            std::string* reply) -> stats::Counter* {
    Json rj;
    if (!Json::parse(*reply, &rj, nullptr) || rj.get_str("status") != "ok") {
      return nullptr;  // backend reject (session cap etc) — surfaced
    }
    // The backend's sid becomes the router's mapping, so it passes the
    // check a client's sid does; an answer without a usable one counts
    // as a failed round trip on that shard.
    std::uint64_t backend_sid = 0;
    std::string err;
    if (!sid_field(rj, &backend_sid, &err)) return &r_.stats_.retries_io;
    std::uint64_t router_sid;
    {
      std::lock_guard<std::mutex> lk(r_.mu_);
      router_sid = r_.next_sid_++;
      r_.sessions_.emplace(router_sid, SessionEntry{shard, backend_sid, false});
    }
    r_.stats_.sessions_open.add(1);
    my_sids_.push_back(router_sid);
    rj["sid"] = Json(router_sid);
    *reply = rj.dump();
    return nullptr;
  };
  return forward(key, /*deadline_ms=*/0, line, judge);
}

std::string Router::Conn::handle_session_cmd(const Envelope& in,
                                             const std::string& line) {
  const std::uint64_t router_sid = in.sid;
  std::size_t shard = 0;
  std::uint64_t backend_sid = 0;
  enum { kRoute, kUnknown, kClosed, kDown } state = kRoute;
  {
    std::lock_guard<std::mutex> lk(r_.mu_);
    auto it = r_.sessions_.find(router_sid);
    if (it == r_.sessions_.end()) {
      state = kUnknown;
    } else if (it->second.closed) {
      state = kClosed;
    } else {
      shard = it->second.shard;
      backend_sid = it->second.backend_sid;
      if (!r_.ring_.up(shard)) state = kDown;
    }
  }
  if (state == kUnknown || state == kClosed) {
    // Same vocabulary the backend uses for a stale sid, so clients
    // handle router and single-server deployments identically.
    Json reply = Json::object();
    reply["sid"] = Json(router_sid);
    reply["status"] = Json(state == kUnknown ? "unknown" : "closed");
    stamp_version(&reply);
    return reply.dump();
  }
  if (state == kDown) {
    r_.stats_.rejected_shard_down.inc();
    return make_error(reject::kShardDown,
                      "session shard " + std::to_string(shard) +
                          " is marked down; session traffic is never "
                          "re-routed")
        .dump();
  }
  const auto t0 = ClockT::now();
  std::string reply;
  if (!round_trip(shard, with_sid(line, in, backend_sid), &reply)) {
    r_.mark_down_io(shard);
    r_.stats_.rejected_shard_down.inc();
    return make_error(reject::kShardDown,
                      "session shard " + std::to_string(shard) +
                          " failed mid-stream; session traffic is never "
                          "re-routed")
        .dump();
  }
  r_.stats_.forward_ms.record(ms_since(t0));
  r_.stats_.routes[shard]->inc();
  Json rj;
  std::string perr;
  if (!Json::parse(reply, &rj, &perr) || !rj.is_object()) return reply;
  if (rj.find("sid") != nullptr) rj["sid"] = Json(router_sid);
  if (in.cmd == Command::kSessionClose && rj.get_str("status", "") == "ok") {
    r_.mark_session_closed(router_sid);
  }
  return rj.dump();
}

}  // namespace iph::cluster
