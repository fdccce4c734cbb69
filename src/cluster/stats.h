// Router-level metric bundle for iph::cluster.
//
// RouterStats mirrors serve::ServeStats: it registers the router's
// instruments in a caller-provided stats::Registry and hands out typed
// references; statnames:: holds the exported spellings so the router,
// hullload's router-aware scrape, benchreport's fleet table and the CI
// assertions never drift. The router's registry is merged (as the
// first part) into every fleet statz answer, so a single scrape sees
// backend serving counters and router routing counters side by side.
//
// Reconciliation invariants (asserted by tests, hullload --scrape and
// the CI cluster smoke), extending PR 5's discipline to fleet level:
//   forwards == sum of backend iph_serve_submitted_total
//     every forward is one backend round trip whose answer carries a
//     "status", as the answer to every line a backend submits does, and
//     load runs are the fleet's only request traffic;
//   forwards == well-formed client requests + retries{rejected_*}
//     a retried request submits once per attempt but the client sees
//     exactly one answer — so sum(backend completed) == client ok
//     counts every retried request ONCE;
//   retries{io} forwards nothing on the failed attempt (the connect or
//     round trip failed before a backend counted it, or a session_open
//     answer carried no usable sid).
// All router counters are bumped BEFORE the answer line is returned to
// the client, matching the serve-side counters-before-promise rule.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/stats.h"

namespace iph::cluster {

namespace statnames {
/// Hull-request round trips whose answer carries a "status" (any):
/// backend decode errors and session commands count in routes{} only,
/// so this reconciles against the fleet's iph_serve_submitted_total.
inline constexpr const char* kForwards = "iph_router_forwards_total";
/// Per-shard forwarded-line counters (requests AND session commands
/// that got an answer), labeled shard="0".."n-1".
inline constexpr const char* kRoutesBase = "iph_router_routes_total";
/// Re-routes of a stateless request to a sibling shard, labeled
/// reason="rejected_full" | "rejected_shutdown" | "io".
inline constexpr const char* kRetriesBase = "iph_router_retries_total";
/// Router-minted rejects (never reached / exhausted the fleet),
/// labeled reason="no_backend" | "shard_down" | "retry_budget".
inline constexpr const char* kRejectedBase = "iph_router_rejected_total";
/// Mark-downs by cause="admin" | "io" | "probe"; mark-ups likewise.
inline constexpr const char* kMarkdownsBase = "iph_router_markdowns_total";
inline constexpr const char* kMarkupsBase = "iph_router_markups_total";
inline constexpr const char* kRingRebuilds =
    "iph_router_ring_rebuilds_total";
inline constexpr const char* kBackendsUp = "iph_router_backends_up";
inline constexpr const char* kSessionsOpen = "iph_router_sessions_open";
/// One backend round trip's wall time (write -> answer line).
inline constexpr const char* kForwardMs = "iph_router_forward_ms";
}  // namespace statnames

class RouterStats {
 public:
  RouterStats(stats::Registry& registry, std::size_t shards);

  stats::Counter& forwards;
  stats::Counter& retries_rejected_full;
  stats::Counter& retries_rejected_shutdown;
  stats::Counter& retries_io;
  stats::Counter& rejected_no_backend;
  stats::Counter& rejected_shard_down;
  stats::Counter& rejected_retry_budget;
  stats::Counter& markdowns_admin;
  stats::Counter& markdowns_io;
  stats::Counter& markdowns_probe;
  stats::Counter& markups_admin;
  stats::Counter& markups_probe;
  stats::Counter& ring_rebuilds;
  stats::Gauge& backends_up;
  stats::Gauge& sessions_open;
  stats::Histogram& forward_ms;
  /// Per-shard forward counters, index == shard.
  std::vector<stats::Counter*> routes;
};

}  // namespace iph::cluster
