// Fleet roll-up of stats registry snapshots.
//
// merge_snapshots sums per-backend RegistrySnapshots (each typically
// parsed from a backend's statz answer) into one fleet view:
//   counters     add — the fleet served the sum of what its shards
//                served, so the exact-reconciliation identities from
//                PR 5 (submitted == terminal states, backend pram +
//                native == completed, obs span/trace identities) hold
//                on the merged snapshot whenever they hold per shard.
//   gauges       add — occupancy levels (queue depth, live sessions,
//                busy shards) are extensive quantities.
//   histograms   bucket-wise add under Prometheus `le` semantics,
//                which is only sound when every source histogram uses
//                the SAME bound ladder. All iph registries do
//                (stats/export.h shared ladders); a bounds mismatch is
//                reported as an error, never silently resampled —
//                quantile() on the merged histogram then answers for
//                the whole fleet.
//
// A malformed source is the caller's problem (stats::from_json already
// rejects it); merge_snapshots itself only rejects structural
// disagreement between well-formed snapshots.
#pragma once

#include <string>
#include <vector>

#include "stats/stats.h"

namespace iph::cluster {

/// Sum `parts` into *out (previous contents discarded). Instrument
/// order is first-seen order across parts, so merging a router's own
/// snapshot first keeps its counters at the top of exports. False on
/// histogram-bounds mismatch (err names the instrument).
bool merge_snapshots(const std::vector<stats::RegistrySnapshot>& parts,
                     stats::RegistrySnapshot* out, std::string* err);

}  // namespace iph::cluster
