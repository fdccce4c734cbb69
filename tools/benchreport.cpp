// benchreport — aggregate BENCH_*.json run reports into the
// EXPERIMENTS.md-style summary table, and (optionally) gate on them.
//
//   benchreport out/                       # render summary markdown
//   benchreport out/BENCH_e03.json ...     # explicit file list
//   benchreport --check out/               # exit 1 on any claim misfit
//   benchreport --check --baseline bench/baselines out/
//                                          # ... or deterministic-counter
//                                          # drift beyond --tol
//
// Arguments that name directories are scanned (non-recursively) for
// BENCH_*.json. The markdown goes to stdout (or --out FILE); diagnostics
// go to stderr so the summary stays pipeable.
//
// Reports carrying a "stats" block (service-registry snapshots attached
// via bench::attach_stats — e14) additionally get a serving-stats
// table: rejects by reason, server-side e2e p99.
// A malformed stats block is broken input (exit 3), same as a truncated
// report.
//
// Directory arguments are also scanned for tracez*.json — flight
// recorder dumps written by `hullserved --tracez-out` (iph::obs). Each
// dump contributes rows to a "Trace exemplars" table: the slowest
// request pinned per e2e latency bucket, with its span count and repro
// file, so a CI artifact page answers "what did the p99 outlier look
// like" without replaying the run. A malformed tracez dump is broken
// input (exit 3) like any other truncated artifact.
//
// Exit codes: 0 ok; 1 claim misfit or baseline drift under --check;
// 2 usage error; 3 an input file was unreadable, truncated, or not a
// bench report (returned even without --check, so CI can tell "the
// numbers regressed" from "the artifact is broken").
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/stats.h"
#include "serve/stats.h"
#include "session/stats.h"
#include "stats/export.h"
#include "stats/stats.h"
#include "trace/json.h"
#include "trace/report.h"

namespace {

using iph::trace::Json;

struct Options {
  bool check = false;
  std::string baseline_dir;
  double tol = 0.0;
  std::string out_path;
  std::vector<std::string> inputs;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--check] [--baseline DIR] [--tol X] [--out FILE] "
               "<BENCH_*.json | tracez*.json | dir>...\n",
               argv0);
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool is_bench_report_name(const std::string& fname) {
  return fname.rfind("BENCH_", 0) == 0 && fname.size() > 11 &&
         fname.compare(fname.size() - 5, 5, ".json") == 0;
}

/// Flight-recorder dumps (`hullserved --tracez-out`) conventionally
/// start with "tracez" — e.g. tracez.json, tracez_19911.json.
bool is_tracez_name(const std::string& fname) {
  return fname.rfind("tracez", 0) == 0 && fname.size() >= 11 &&
         fname.compare(fname.size() - 5, 5, ".json") == 0;
}

/// One parsed report plus the verdicts benchreport derives from it.
struct Loaded {
  std::string path;
  Json doc;
  std::string bench;
  std::size_t rows = 0;
  std::size_t claims_total = 0;
  std::size_t claims_ok = 0;
  bool claims_enforced = true;
  bool baseline_checked = false;
  iph::trace::CompareResult baseline;
  double peak_aux = -1;  // max over rows; -1 = not instrumented
  /// Parsed "stats" block: (tag, registry snapshot) per entry, in the
  /// report's order. Written by bench::attach_stats (e14).
  std::vector<std::pair<std::string, iph::stats::RegistrySnapshot>> stats;
};

/// Parse a report's optional "stats" block (tag -> iph-stats-v1
/// snapshot). Returns false — with a diagnostic — when the block is
/// present but malformed; that is broken input, not a missing feature.
bool load_stats_block(const Json& doc, const std::string& path,
                      std::vector<std::pair<std::string,
                                            iph::stats::RegistrySnapshot>>*
                          out) {
  const Json* stats = doc.find("stats");
  if (stats == nullptr) return true;
  if (!stats->is_object()) {
    std::fprintf(stderr,
                 "benchreport: %s: \"stats\" block is not an object\n",
                 path.c_str());
    return false;
  }
  for (const auto& [tag, j] : stats->members()) {
    iph::stats::RegistrySnapshot snap;
    std::string err;
    if (!iph::stats::from_json(j, snap, &err)) {
      std::fprintf(stderr,
                   "benchreport: %s: stats[\"%s\"] is not an "
                   "iph-stats-v1 snapshot: %s\n",
                   path.c_str(), tag.c_str(), err.c_str());
      return false;
    }
    out->emplace_back(tag, std::move(snap));
  }
  return true;
}

/// One parsed flight-recorder dump (tracez*.json).
struct LoadedTracez {
  std::string path;
  Json doc;
};

/// Parse a flight-recorder dump written by `hullserved --tracez-out`.
/// The shape contract (src/obs/chrome_export.cpp) is an object with
/// "traces" and "exemplars" arrays; anything else is a truncated or
/// foreign file — broken input, not a missing feature.
bool load_tracez_file(const std::string& path, LoadedTracez* out) {
  out->path = path;
  std::string text, err;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "benchreport: cannot read %s\n", path.c_str());
    return false;
  }
  if (!Json::parse(text, &out->doc, &err)) {
    std::fprintf(stderr,
                 "benchreport: %s is not a valid tracez dump: %s "
                 "(truncated upload or interrupted shutdown?)\n",
                 path.c_str(), err.c_str());
    return false;
  }
  const Json* traces = out->doc.find("traces");
  const Json* exemplars = out->doc.find("exemplars");
  if (!out->doc.is_object() || traces == nullptr || !traces->is_array() ||
      exemplars == nullptr || !exemplars->is_array()) {
    std::fprintf(stderr,
                 "benchreport: %s is not a tracez dump: expected an "
                 "object with \"traces\" and \"exemplars\" arrays\n",
                 path.c_str());
    return false;
  }
  return true;
}

/// The histogram bucket bound an exemplar is pinned under: a number in
/// ms, or the literal string "+Inf" for the overflow slot.
std::string exemplar_bucket(const Json& exemplar) {
  const Json* b = exemplar.find("bucket_le_ms");
  if (b == nullptr) return "?";
  if (b->is_string()) return b->as_string();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", b->as_double());
  return buf;
}

/// Tail-latency exemplars preserved from the server's flight recorder:
/// the slowest request pinned per e2e latency bucket, across all dumps
/// fed to this run. The repro column is the replayable request file
/// `hullserved --repro-dir` captured for that exact outlier.
void render_tracez_section(const std::vector<LoadedTracez>& dumps,
                           std::FILE* out) {
  std::fprintf(out, "\n## Trace exemplars (flight recorder)\n\n");
  for (const LoadedTracez& d : dumps) {
    std::fprintf(out, "`%s`: %llu trace%s retained, %llu published, "
                 "%llu span%s dropped.\n",
                 std::filesystem::path(d.path).filename().string().c_str(),
                 static_cast<unsigned long long>(d.doc.get_num("retained")),
                 d.doc.get_num("retained") == 1 ? "" : "s",
                 static_cast<unsigned long long>(d.doc.get_num("published")),
                 static_cast<unsigned long long>(
                     d.doc.get_num("dropped_spans")),
                 d.doc.get_num("dropped_spans") == 1 ? "" : "s");
  }
  std::fprintf(out,
               "\n| dump | bucket ≤ ms | e2e ms | kind | status | "
               "backend | trace | spans | repro |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|---|---|\n");
  std::size_t pinned = 0;
  for (const LoadedTracez& d : dumps) {
    const std::string fname =
        std::filesystem::path(d.path).filename().string();
    const Json* exemplars = d.doc.find("exemplars");
    if (exemplars == nullptr) continue;
    for (const Json& e : exemplars->items()) {
      const Json* t = e.find("trace");
      if (t == nullptr) continue;
      ++pinned;
      const Json* spans = t->find("spans");
      const std::string repro = t->get_str("repro");
      const std::string repro_cell =
          repro.empty() ? "-" : "`" + repro + "`";
      std::fprintf(out,
                   "| %s | %s | %.3f | %s | %s | %s | %s | %zu | %s |\n",
                   fname.c_str(), exemplar_bucket(e).c_str(),
                   t->get_num("e2e_ms"), t->get_str("kind", "?").c_str(),
                   t->get_str("status", "?").c_str(),
                   t->get_str("backend", "-").c_str(),
                   t->get_str("trace", "?").c_str(),
                   spans != nullptr ? spans->size() : 0,
                   repro_cell.c_str());
    }
  }
  if (pinned == 0) {
    std::fprintf(out,
                 "\nNo exemplars pinned (no completed requests crossed "
                 "a bucket's record, or tracing was disabled).\n");
  }
}

/// Largest peak_aux counter across a report's rows, or -1 if no row
/// carries one (bench not yet space-instrumented).
double max_peak_aux(const Json& doc) {
  double peak = -1;
  if (const Json* rows = doc.find("rows")) {
    for (const Json& row : rows->items()) {
      if (const Json* counters = row.find("counters")) {
        if (const Json* pa = counters->find("peak_aux")) {
          peak = std::max(peak, pa->as_double());
        }
      }
    }
  }
  return peak;
}

std::string format_cells(double v) {
  char buf[32];
  if (v < 0) return "-";
  if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3gM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3gk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

/// A row is a cluster row iff it carries a `backends` counter (the
/// e16-style fleet benches); such rows get the scaling table below
/// instead of the single-server serving columns.
const Json* cluster_counters(const Json& row) {
  const Json* counters = row.find("counters");
  if (counters != nullptr && counters->find("backends") != nullptr) {
    return counters;
  }
  return nullptr;
}

bool has_cluster_rows(const Json& doc) {
  if (const Json* rows = doc.find("rows")) {
    for (const Json& row : rows->items()) {
      if (cluster_counters(row) != nullptr) return true;
    }
  }
  return false;
}

/// Fleet scaling detail for cluster benches: aggregate throughput vs
/// fleet size with the ideal-normalized inefficiency the e16 claim
/// gates, plus the skew/churn documentation columns.
void render_cluster_table(const Json& doc, std::FILE* out) {
  std::fprintf(out, "\nCluster scaling (router + N backends):\n\n");
  std::fprintf(out,
               "| row | label | backends | qps | speedup | ideal | "
               "inefficiency | p99 ms | hot share |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|---|---|\n");
  const Json* rows = doc.find("rows");
  if (rows == nullptr) return;
  for (const Json& row : rows->items()) {
    const Json* c = cluster_counters(row);
    if (c == nullptr) continue;
    const Json* hot = c->find("hot_shard_share");
    char hot_cell[32] = "-";
    if (hot != nullptr) {
      std::snprintf(hot_cell, sizeof hot_cell, "%.2f", hot->as_double());
    }
    std::fprintf(out,
                 "| %s | %s | %.0f | %.0f | %.2fx | %.0f | %.2f | %.2f "
                 "| %s |\n",
                 row.get_str("name").c_str(), row.get_str("label").c_str(),
                 c->get_num("backends"), c->get_num("qps"),
                 c->get_num("speedup"), c->get_num("ideal"),
                 c->get_num("scaling_inefficiency"), c->get_num("p99_ms"),
                 hot_cell);
  }
}

/// A row is a serving row iff it carries a `qps` counter (the e14-style
/// latency/throughput benches) and is not a cluster row; such rows get
/// the serving table below.
const Json* serving_counters(const Json& row) {
  if (cluster_counters(row) != nullptr) return nullptr;
  const Json* counters = row.find("counters");
  if (counters != nullptr && counters->find("qps") != nullptr) {
    return counters;
  }
  return nullptr;
}

bool has_serving_rows(const Json& doc) {
  if (const Json* rows = doc.find("rows")) {
    for (const Json& row : rows->items()) {
      if (serving_counters(row) != nullptr) return true;
    }
  }
  return false;
}

/// Latency/throughput detail for serving benches: one line per row with
/// qps, solo-vs-served speedup and the e2e latency tail.
void render_serving_table(const Json& doc, std::FILE* out) {
  std::fprintf(out, "\nServing latency/throughput:\n\n");
  std::fprintf(out,
               "| row | label | qps | qps solo | speedup | p50 ms | "
               "p95 ms | p99 ms |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|---|\n");
  const Json* rows = doc.find("rows");
  if (rows == nullptr) return;
  for (const Json& row : rows->items()) {
    const Json* c = serving_counters(row);
    if (c == nullptr) continue;
    const double qps = c->get_num("qps");
    const double solo = c->get_num("qps_solo");
    std::fprintf(out,
                 "| %s | %s | %.0f | %.0f | %.2fx | %.2f | %.2f | %.2f |\n",
                 row.get_str("name").c_str(), row.get_str("label").c_str(),
                 qps, solo, solo > 0 ? qps / solo : 0,
                 c->get_num("p50_ms"), c->get_num("p95_ms"),
                 c->get_num("p99_ms"));
  }
}

/// A row is a streaming row iff it carries the `delta_vs_scratch`
/// counter (the e15-style session benches).
const Json* streaming_counters(const Json& row) {
  const Json* counters = row.find("counters");
  if (counters != nullptr && counters->find("delta_vs_scratch") != nullptr) {
    return counters;
  }
  return nullptr;
}

bool has_streaming_rows(const Json& doc) {
  if (const Json* rows = doc.find("rows")) {
    for (const Json& row : rows->items()) {
      if (streaming_counters(row) != nullptr) return true;
    }
  }
  return false;
}

/// Streaming detail for session benches: amortized delta-append cost vs
/// the from-scratch rebuild it replaces, plus the delta/rebuild volume
/// and the per-session workspace watermark.
void render_streaming_table(const Json& doc, std::FILE* out) {
  std::fprintf(out, "\nStreaming appends (delta vs from-scratch):\n\n");
  std::fprintf(out,
               "| row | append ms | scratch ms | ratio | delta ops | "
               "rebuilds | peak aux |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|\n");
  const Json* rows = doc.find("rows");
  if (rows == nullptr) return;
  for (const Json& row : rows->items()) {
    const Json* c = streaming_counters(row);
    if (c == nullptr) continue;
    std::fprintf(out,
                 "| %s | %.4f | %.3f | %.4f | %.0f | %.0f | %s |\n",
                 row.get_str("name").c_str(), c->get_num("append_ms"),
                 c->get_num("scratch_ms"), c->get_num("delta_vs_scratch"),
                 c->get_num("delta_ops"), c->get_num("rebuilds"),
                 format_cells(c->get_num("peak_aux", -1)).c_str());
  }
}

/// A stats snapshot is a session snapshot iff any session instrument
/// was ever touched (sessions opened — the open counter moves first).
bool is_session_snapshot(const iph::stats::RegistrySnapshot& snap) {
  return snap.counter_or0(iph::session::statnames::kOpened) > 0;
}

/// A stats snapshot is a FLEET snapshot iff the router's forward
/// counter is present — only the cluster router registers it, and a
/// fleet_statz roll-up always merges the router's registry first.
/// Checked before the session classification: a merged fleet snapshot
/// may carry backend session counters too, and the fleet columns are
/// the ones that tell the router story.
bool is_fleet_snapshot(const iph::stats::RegistrySnapshot& snap) {
  return snap.counter(iph::cluster::statnames::kForwards) != nullptr;
}

/// Router roll-up detail: the routing/retry/markdown counters the
/// cluster smoke and hullload's router-aware scrape reconcile, next to
/// the merged backend serving totals they must reconcile AGAINST.
void render_fleet_stats_table(
    const std::vector<std::pair<std::string, iph::stats::RegistrySnapshot>>&
        stats,
    std::FILE* out) {
  namespace rn = iph::cluster::statnames;
  namespace sn = iph::serve::statnames;
  std::fprintf(out, "\nFleet stats (router roll-up):\n\n");
  std::fprintf(out,
               "| tag | forwards | fleet submitted | fleet completed | "
               "retries | rejected | markdowns | markups | rebuilds | "
               "forward p99 ms |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|---|---|---|\n");
  for (const auto& [tag, snap] : stats) {
    std::uint64_t retries = 0, rejected = 0, markdowns = 0, markups = 0;
    for (const auto& [name, v] : snap.counters) {
      if (name.rfind(rn::kRetriesBase, 0) == 0) retries += v;
      if (name.rfind(rn::kRejectedBase, 0) == 0) rejected += v;
      if (name.rfind(rn::kMarkdownsBase, 0) == 0) markdowns += v;
      if (name.rfind(rn::kMarkupsBase, 0) == 0) markups += v;
    }
    double fwd_p99 = 0;
    if (const iph::stats::HistogramSnapshot* h =
            snap.histogram(rn::kForwardMs)) {
      fwd_p99 = h->quantile(0.99);
    }
    std::fprintf(
        out,
        "| %s | %llu | %llu | %llu | %llu | %llu | %llu | %llu | %llu "
        "| %.2f |\n",
        tag.c_str(),
        static_cast<unsigned long long>(snap.counter_or0(rn::kForwards)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kSubmitted)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kCompleted)),
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(markdowns),
        static_cast<unsigned long long>(markups),
        static_cast<unsigned long long>(snap.counter_or0(rn::kRingRebuilds)),
        fwd_p99);
  }
}

/// Session-registry detail: the counters hullload --stream reconciles
/// live, preserved in the run report.
void render_session_stats_table(
    const std::vector<std::pair<std::string, iph::stats::RegistrySnapshot>>&
        stats,
    std::FILE* out) {
  namespace sn = iph::session::statnames;
  std::fprintf(out, "\nStreaming stats (server-side session registry):\n\n");
  std::fprintf(out,
               "| tag | opened | closed | appends | points | rebuilds | "
               "mismatches | delta ops p99 | append p99 ms |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|---|---|\n");
  for (const auto& [tag, snap] : stats) {
    if (!is_session_snapshot(snap)) continue;
    double ops_p99 = 0, append_p99 = 0;
    if (const iph::stats::HistogramSnapshot* h =
            snap.histogram(sn::kDeltaOps)) {
      ops_p99 = h->quantile(0.99);
    }
    if (const iph::stats::HistogramSnapshot* h =
            snap.histogram(sn::kAppendMs)) {
      append_p99 = h->quantile(0.99);
    }
    std::fprintf(
        out, "| %s | %llu | %llu | %llu | %llu | %llu | %llu | %.1f | %.2f |\n",
        tag.c_str(),
        static_cast<unsigned long long>(snap.counter_or0(sn::kOpened)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kClosed)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kAppends)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kAppendPoints)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kRebuilds)),
        static_cast<unsigned long long>(
            snap.counter_or0(sn::kRebuildMismatch)),
        ops_p99, append_p99);
  }
}

/// Server-side registry detail: one line per attached stats snapshot
/// (bench::attach_stats tag), with the reject counters by reason and
/// the server-recorded e2e latency tail —
/// the numbers hullload --scrape reconciles live, here preserved in the
/// run report.
void render_stats_table(
    const std::vector<std::pair<std::string, iph::stats::RegistrySnapshot>>&
        stats,
    std::FILE* out) {
  namespace sn = iph::serve::statnames;
  std::fprintf(out, "\nServing stats (server-side registry):\n\n");
  std::fprintf(out,
               "| tag | submitted | completed | rej full | rej shutdown | "
               "expired | server e2e p99 ms |\n");
  std::fprintf(out, "|---|---|---|---|---|---|---|\n");
  for (const auto& [tag, snap] : stats) {
    double e2e_p99 = 0;
    if (const iph::stats::HistogramSnapshot* h = snap.histogram(sn::kE2eMs)) {
      e2e_p99 = h->quantile(0.99);
    }
    std::fprintf(
        out,
        "| %s | %llu | %llu | %llu | %llu | %llu | %.2f |\n",
        tag.c_str(),
        static_cast<unsigned long long>(snap.counter_or0(sn::kSubmitted)),
        static_cast<unsigned long long>(snap.counter_or0(sn::kCompleted)),
        static_cast<unsigned long long>(snap.counter_or0(
            iph::stats::labeled(sn::kRejectedBase, "reason", "full"))),
        static_cast<unsigned long long>(snap.counter_or0(
            iph::stats::labeled(sn::kRejectedBase, "reason", "shutdown"))),
        static_cast<unsigned long long>(snap.counter_or0(sn::kExpired)),
        e2e_p99);
  }
}

std::string provenance_line(const Json& doc) {
  const Json* p = doc.find("provenance");
  if (p == nullptr) return "?";
  std::string s = p->get_str("git_sha", "?");
  s += ", " + p->get_str("build_type", "?");
  const Json* san = p->find("sanitize");
  if (san != nullptr && san->as_string() != "none") {
    s += "+" + san->as_string();
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, ", seed %llu, %llu thread%s",
                static_cast<unsigned long long>(p->get_num("seed")),
                static_cast<unsigned long long>(p->get_num("threads")),
                p->get_num("threads") == 1 ? "" : "s");
  return s + buf;
}

/// Worst (largest) band statistic across a claim's series, for the table.
double worst_stat(const Json& claim) {
  double worst = 0;
  if (const Json* series = claim.find("series")) {
    for (const Json& f : series->items()) {
      worst = std::max(worst, f.get_num("stat"));
    }
  }
  return worst;
}

void render_markdown(const std::vector<Loaded>& reports, std::FILE* out) {
  std::fprintf(out, "# Bench report summary\n\n");
  std::fprintf(out,
               "Generated by `tools/benchreport` from %zu report file%s.\n\n",
               reports.size(), reports.size() == 1 ? "" : "s");
  std::fprintf(out,
               "| bench | rows | claims | peak aux | status | provenance |\n");
  std::fprintf(out, "|---|---|---|---|---|---|\n");
  for (const Loaded& r : reports) {
    std::string status;
    if (!r.claims_enforced) {
      status = "claims skipped";
    } else {
      status = r.claims_ok == r.claims_total ? "ok" : "**MISFIT**";
    }
    if (r.baseline_checked) {
      status += r.baseline.ok ? ", baseline ok" : ", **baseline drift**";
    }
    std::fprintf(out, "| %s | %zu | %zu/%zu ok | %s | %s | %s |\n",
                 r.bench.c_str(), r.rows, r.claims_ok, r.claims_total,
                 format_cells(r.peak_aux).c_str(), status.c_str(),
                 provenance_line(r.doc).c_str());
  }
  std::fprintf(out,
               "\n\"peak aux\" is the largest `peak_aux` counter over the\n"
               "report's rows — the high-water auxiliary workspace (cells)\n"
               "the space ledger recorded; `-` means the bench is not\n"
               "space-instrumented.\n");
  for (const Loaded& r : reports) {
    std::fprintf(out, "\n## %s\n\n", r.bench.c_str());
    const Json* claims = r.doc.find("claims");
    if (claims == nullptr || claims->size() == 0) {
      std::fprintf(out, "No claims declared.\n");
    } else {
      std::fprintf(out,
                   "| claim | counter | shape | tol | band stat | status |\n");
      std::fprintf(out, "|---|---|---|---|---|---|\n");
      for (const Json& c : claims->items()) {
        const Json* ok = c.find("ok");
        std::fprintf(out, "| %s | %s | %s | %.3g | %.3g | %s |\n",
                     c.get_str("name").c_str(), c.get_str("counter").c_str(),
                     c.get_str("shape").c_str(), c.get_num("tol"),
                     worst_stat(c),
                     ok != nullptr && ok->as_bool() ? "ok" : "**MISFIT**");
      }
      // Per-series detail only where it matters.
      for (const Json& c : claims->items()) {
        const Json* ok = c.find("ok");
        if (ok != nullptr && ok->as_bool()) continue;
        std::fprintf(out, "\nMisfit detail for `%s`:\n\n",
                     c.get_str("name").c_str());
        if (const Json* err = c.find("error")) {
          std::fprintf(out, "- %s\n", err->as_string().c_str());
        }
        if (const Json* series = c.find("series")) {
          for (const Json& f : series->items()) {
            if (const Json* sok = f.find("ok"); sok && sok->as_bool()) {
              continue;
            }
            std::fprintf(out, "- `%s`: %s\n", f.get_str("series").c_str(),
                         f.get_str("detail").c_str());
          }
        }
      }
    }
    if (has_cluster_rows(r.doc)) render_cluster_table(r.doc, out);
    if (has_serving_rows(r.doc)) render_serving_table(r.doc, out);
    if (has_streaming_rows(r.doc)) render_streaming_table(r.doc, out);
    if (!r.stats.empty()) {
      // Fleet roll-ups (e16) are classified FIRST — a merged fleet
      // snapshot carries backend session counters too, but the router
      // columns are its story. Session snapshots (e15) then get the
      // streaming columns; everything else renders with the
      // request-serving columns (e14).
      std::vector<std::pair<std::string, iph::stats::RegistrySnapshot>>
          serve_stats, session_stats, fleet_stats;
      for (const auto& entry : r.stats) {
        (is_fleet_snapshot(entry.second)       ? fleet_stats
         : is_session_snapshot(entry.second)   ? session_stats
                                               : serve_stats)
            .push_back(entry);
      }
      if (!fleet_stats.empty()) render_fleet_stats_table(fleet_stats, out);
      if (!serve_stats.empty()) render_stats_table(serve_stats, out);
      if (!session_stats.empty()) {
        render_session_stats_table(session_stats, out);
      }
    }
    if (r.baseline_checked) {
      std::fprintf(out, "\nBaseline: %zu rows compared, %zu diff%s%s\n",
                   r.baseline.rows_compared, r.baseline.diffs.size(),
                   r.baseline.diffs.size() == 1 ? "" : "s",
                   r.baseline.ok ? "." : ":");
      for (const std::string& d : r.baseline.diffs) {
        std::fprintf(out, "- %s\n", d.c_str());
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      opt.check = true;
    } else if (a == "--baseline" && i + 1 < argc) {
      opt.baseline_dir = argv[++i];
    } else if (a == "--tol" && i + 1 < argc) {
      opt.tol = std::strtod(argv[++i], nullptr);
    } else if (a == "--out" && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else if (a == "--help" || a == "-h" || a.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      opt.inputs.push_back(a);
    }
  }
  if (opt.inputs.empty()) return usage(argv[0]);

  // Expand directories, then load. Explicit file arguments are
  // classified by the same naming convention as the directory scan.
  std::vector<std::string> files;
  std::vector<std::string> tracez_files;
  for (const std::string& in : opt.inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(in, ec)) {
      for (const auto& e : std::filesystem::directory_iterator(in, ec)) {
        const std::string fname = e.path().filename().string();
        if (is_bench_report_name(fname)) {
          files.push_back(e.path().string());
        } else if (is_tracez_name(fname)) {
          tracez_files.push_back(e.path().string());
        }
      }
    } else if (is_tracez_name(
                   std::filesystem::path(in).filename().string())) {
      tracez_files.push_back(in);
    } else {
      files.push_back(in);
    }
  }
  std::sort(files.begin(), files.end());
  std::sort(tracez_files.begin(), tracez_files.end());
  if (files.empty() && tracez_files.empty()) {
    std::fprintf(stderr, "benchreport: no BENCH_*.json found\n");
    return 2;
  }

  bool failed = false;
  bool input_error = false;
  std::vector<Loaded> reports;
  for (const std::string& path : files) {
    Loaded r;
    r.path = path;
    std::string text, err;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "benchreport: cannot read %s\n", path.c_str());
      input_error = true;
      continue;
    }
    if (!Json::parse(text, &r.doc, &err)) {
      std::fprintf(stderr,
                   "benchreport: %s is not a valid bench report: %s "
                   "(truncated upload or interrupted bench run?)\n",
                   path.c_str(), err.c_str());
      input_error = true;
      continue;
    }
    if (r.doc.get_str("schema") != "iph-bench-report-v1") {
      std::fprintf(stderr,
                   "benchreport: %s is not a bench report: expected "
                   "schema \"iph-bench-report-v1\", found \"%s\"\n",
                   path.c_str(), r.doc.get_str("schema").c_str());
      input_error = true;
      continue;
    }
    r.bench = r.doc.get_str("bench", "?");
    if (const Json* rows = r.doc.find("rows")) r.rows = rows->size();
    if (const Json* enforced = r.doc.find("claims_enforced")) {
      r.claims_enforced = enforced->as_bool();
    }
    if (const Json* claims = r.doc.find("claims")) {
      for (const Json& c : claims->items()) {
        ++r.claims_total;
        const Json* ok = c.find("ok");
        if (ok != nullptr && ok->as_bool()) ++r.claims_ok;
      }
    }
    r.peak_aux = max_peak_aux(r.doc);
    if (!load_stats_block(r.doc, path, &r.stats)) input_error = true;
    if (r.claims_enforced && r.claims_ok != r.claims_total) failed = true;

    if (!opt.baseline_dir.empty()) {
      const std::string bpath =
          opt.baseline_dir + "/BENCH_" + r.bench + ".json";
      std::string btext, berr;
      Json bdoc;
      if (!read_file(bpath, &btext)) {
        std::fprintf(stderr, "benchreport: no baseline %s (skipping)\n",
                     bpath.c_str());
      } else if (!Json::parse(btext, &bdoc, &berr)) {
        std::fprintf(stderr,
                     "benchreport: baseline %s is not valid JSON: %s\n",
                     bpath.c_str(), berr.c_str());
        input_error = true;
      } else {
        r.baseline_checked = true;
        r.baseline =
            iph::trace::compare_counter_rows(r.doc, bdoc, opt.tol);
        if (!r.baseline.ok) failed = true;
      }
    }
    reports.push_back(std::move(r));
  }

  std::vector<LoadedTracez> tracez;
  for (const std::string& path : tracez_files) {
    LoadedTracez t;
    if (!load_tracez_file(path, &t)) {
      input_error = true;
      continue;
    }
    tracez.push_back(std::move(t));
  }

  std::FILE* out = stdout;
  if (!opt.out_path.empty()) {
    out = std::fopen(opt.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "benchreport: cannot write %s\n",
                   opt.out_path.c_str());
      return 2;
    }
  }
  render_markdown(reports, out);
  if (!tracez.empty()) render_tracez_section(tracez, out);
  if (out != stdout) std::fclose(out);

  // Broken input is its own exit code (even without --check): a CI job
  // that fed us a truncated artifact should not read as "claims ok".
  if (input_error) return 3;
  return opt.check && failed ? 1 : 0;
}
