#include "report.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/chrome_export.h"
#include "support/env.h"
#include "trace/fit.h"
#include "trace/json.h"
#include "trace/report.h"

namespace iph::bench {

namespace {

struct Row {
  std::string name;      // full run name, e.g. "e03/65536/2/iterations:1"
  std::string function;  // "e03"
  std::string args;      // "65536/2"
  std::string label;     // SetLabel() value
  double x = 0;          // first argument (the sweep variable)
  double wall_ms = 0;
  std::vector<std::pair<std::string, double>> counters;
};

double first_arg(const std::string& args) {
  return args.empty() ? 0.0 : std::strtod(args.c_str(), nullptr);
}

std::string series_key(const Row& r) {
  const auto slash = r.args.find('/');
  const std::string rest = slash == std::string::npos
                               ? std::string()
                               : r.args.substr(slash + 1);
  return r.function + "/" + rest + "|" + r.label;
}

const double* row_counter(const Row& r, std::string_view name) {
  for (const auto& [k, v] : r.counters) {
    if (k == name) return &v;
  }
  return nullptr;
}

std::vector<std::string> split_csv(std::string_view s) {
  std::vector<std::string> out;
  while (!s.empty()) {
    const auto comma = s.find(',');
    out.emplace_back(s.substr(0, comma));
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return out;
}

/// Console passthrough + row capture.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.function = run.run_name.function_name;
      row.args = run.run_name.args;
      row.label = run.report_label;
      row.x = first_arg(row.args);
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.wall_ms = run.real_accumulated_time / iters * 1e3;
      for (const auto& [k, c] : run.counters) {
        row.counters.emplace_back(k, static_cast<double>(c.value));
      }
      rows.push_back(std::move(row));
    }
  }

  std::vector<Row> rows;
};

struct TaggedRecorder {
  std::string tag;
  std::unique_ptr<trace::Recorder> rec;
};

// Benchmarks here run single-threaded (Iterations(1), threads=1), so a
// plain vector is safe.
std::vector<TaggedRecorder>& recorders() {
  static std::vector<TaggedRecorder> v;
  return v;
}

std::vector<std::pair<std::string, trace::Json>>& stats_blocks() {
  static std::vector<std::pair<std::string, trace::Json>> v;
  return v;
}

trace::Json row_json(const Row& r) {
  trace::Json j = trace::Json::object();
  j["name"] = r.name;
  j["function"] = r.function;
  j["args"] = r.args;
  j["label"] = r.label;
  j["x"] = r.x;
  j["wall_ms"] = r.wall_ms;
  trace::Json counters = trace::Json::object();
  for (const auto& [k, v] : r.counters) counters[k] = v;
  j["counters"] = std::move(counters);
  return j;
}

/// Evaluate one claim over the captured rows; returns its JSON record
/// and sets *ok.
trace::Json eval_claim(const Claim& c, const std::vector<Row>& rows,
                       bool* ok) {
  trace::Json out = trace::Json::object();
  out["name"] = c.name;
  out["counter"] = c.counter;
  out["shape"] = c.shape;
  out["tol"] = c.tol;
  if (c.aux_counter[0] != '\0') out["aux_counter"] = c.aux_counter;
  if (c.labels[0] != '\0') out["labels"] = c.labels;
  if (c.function[0] != '\0') out["function"] = c.function;

  trace::Shape shape;
  if (!trace::shape_from_name(c.shape, &shape)) {
    *ok = false;
    out["ok"] = false;
    out["error"] = std::string("unknown shape \"") + c.shape + "\"";
    return out;
  }
  const std::vector<std::string> wanted = split_csv(c.labels);

  // Group matching rows into series.
  std::vector<std::pair<std::string, std::vector<trace::SeriesPoint>>> series;
  for (const Row& r : rows) {
    if (c.function[0] != '\0' && r.function != c.function) continue;
    if (!wanted.empty()) {
      bool match = false;
      for (const std::string& l : wanted) match = match || l == r.label;
      if (!match) continue;
    }
    const double* y = row_counter(r, c.counter);
    if (y == nullptr) continue;
    const double* aux =
        c.aux_counter[0] != '\0' ? row_counter(r, c.aux_counter) : nullptr;
    const std::string key = series_key(r);
    std::vector<trace::SeriesPoint>* pts = nullptr;
    for (auto& [k, v] : series) {
      if (k == key) pts = &v;
    }
    if (pts == nullptr) {
      series.emplace_back(key, std::vector<trace::SeriesPoint>{});
      pts = &series.back().second;
    }
    pts->push_back({r.x, *y, aux != nullptr ? *aux : 0.0});
  }

  bool all_ok = !series.empty();
  trace::Json fits = trace::Json::array();
  for (const auto& [key, pts] : series) {
    const trace::FitResult f = trace::fit_series(shape, pts, c.tol);
    all_ok = all_ok && f.ok;
    trace::Json fj = trace::Json::object();
    fj["series"] = key;
    fj["points"] = static_cast<std::uint64_t>(pts.size());
    fj["ok"] = f.ok;
    fj["stat"] = f.stat;
    fj["detail"] = f.detail;
    fits.push_back(std::move(fj));
  }
  if (series.empty()) out["error"] = "no rows matched this claim";
  out["ok"] = all_ok;
  out["series"] = std::move(fits);
  *ok = all_ok;
  return out;
}

}  // namespace

std::vector<std::int64_t> n_sweep(std::initializer_list<std::int64_t> full) {
  const auto cap = static_cast<std::int64_t>(
      support::env_u64("IPH_BENCH_MAX_N", 0));
  std::vector<std::int64_t> out;
  for (std::int64_t n : full) {
    if (cap == 0 || n <= cap || out.empty()) out.push_back(n);
  }
  return out;
}

void attach_stats(const std::string& tag, trace::Json stats_json) {
  for (auto& [t, j] : stats_blocks()) {
    if (t == tag) {
      j = std::move(stats_json);
      return;
    }
  }
  stats_blocks().emplace_back(tag, std::move(stats_json));
}

trace::Recorder& instrument(pram::Machine& m, const std::string& tag) {
  static const bool enabled =
      !support::env_string("IPH_TRACE_DIR", "").empty();
  if (!enabled) {
    static trace::Recorder detached;
    return detached;
  }
  for (auto& tr : recorders()) {
    if (tr.tag == tag) {
      tr.rec = std::make_unique<trace::Recorder>();
      tr.rec->attach(m);
      return *tr.rec;
    }
  }
  recorders().push_back({tag, std::make_unique<trace::Recorder>()});
  recorders().back().rec->attach(m);
  return *recorders().back().rec;
}

int run_bench_main(int argc, char** argv, const char* bench_id,
                   std::vector<Claim> claims) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  int exit_code = 0;
  trace::Json report = trace::Json::object();
  report["schema"] = "iph-bench-report-v1";
  report["bench"] = bench_id;
  report["provenance"] = trace::collect_provenance();

  if (reporter.rows.empty()) {
    std::fprintf(stderr, "[%s] no benchmark rows captured\n", bench_id);
    exit_code = 1;
  }
  trace::Json rows = trace::Json::array();
  for (const Row& r : reporter.rows) rows.push_back(row_json(r));
  report["rows"] = std::move(rows);

  // Claims.
  const bool skip_claims = support::env_flag("IPH_BENCH_SKIP_CLAIMS", false);
  trace::Json claims_json = trace::Json::array();
  for (const Claim& c : claims) {
    bool ok = true;
    trace::Json cj = eval_claim(c, reporter.rows, &ok);
    std::fprintf(stderr, "[%s] claim %-24s %s\n", bench_id, c.name,
                 ok ? "ok" : "MISFIT");
    if (!ok) {
      for (const auto& [k, v] : cj.members()) {
        if (k == "series") {
          for (const trace::Json& f : v.items()) {
            std::fprintf(stderr, "    %s: %s\n",
                         f.get_str("series").c_str(),
                         f.get_str("detail").c_str());
          }
        }
      }
      if (!skip_claims) exit_code = 1;
    }
    claims_json.push_back(std::move(cj));
  }
  report["claims"] = std::move(claims_json);
  report["claims_enforced"] = !skip_claims;

  // Baseline comparison on deterministic counters.
  const std::string baseline_dir =
      support::env_string("IPH_BENCH_BASELINE_DIR", "");
  if (!baseline_dir.empty()) {
    const std::string path =
        baseline_dir + "/BENCH_" + bench_id + ".json";
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "[%s] no baseline at %s (skipping compare)\n",
                   bench_id, path.c_str());
    } else {
      std::stringstream ss;
      ss << in.rdbuf();
      trace::Json baseline;
      std::string err;
      if (!trace::Json::parse(ss.str(), &baseline, &err)) {
        std::fprintf(stderr, "[%s] unparsable baseline %s: %s\n", bench_id,
                     path.c_str(), err.c_str());
        exit_code = 1;
      } else {
        const double tol = support::env_double("IPH_BENCH_TOL", 0.0);
        const trace::CompareResult cmp =
            trace::compare_counter_rows(report, baseline, tol);
        std::fprintf(stderr,
                     "[%s] baseline compare: %zu rows, %zu diffs%s\n",
                     bench_id, cmp.rows_compared, cmp.diffs.size(),
                     cmp.ok ? "" : " — FAIL");
        for (const std::string& d : cmp.diffs) {
          std::fprintf(stderr, "    %s\n", d.c_str());
        }
        if (!cmp.ok) exit_code = 1;
      }
    }
  }

  // Traces captured via instrument() (which records only with
  // IPH_TRACE_DIR set).
  const std::string trace_dir = support::env_string("IPH_TRACE_DIR", "");
  trace::Json traces = trace::Json::array();
  for (const TaggedRecorder& tr : recorders()) {
    trace::Json t = trace::Json::object();
    t["tag"] = tr.tag;
    t["anonymous_steps"] = tr.rec->anonymous_steps();
    t["phases"] = trace::phase_table_json(tr.rec->root());
    traces.push_back(std::move(t));
    std::string tag_safe = tr.tag;
    for (char& c : tag_safe) {
      if (c == '/' || c == ' ') c = '_';
    }
    const std::string tpath =
        trace_dir + "/" + bench_id + "." + tag_safe + ".trace.json";
    std::ofstream out(tpath);
    if (out) {
      out << obs::chrome_trace_json(*tr.rec).dump(1) << '\n';
      std::fprintf(stderr, "[%s] chrome trace: %s\n", bench_id,
                   tpath.c_str());
    }
  }
  if (traces.size() > 0) report["traces"] = std::move(traces);
  recorders().clear();

  // Service-level stats snapshots attached via attach_stats().
  if (!stats_blocks().empty()) {
    trace::Json stats = trace::Json::object();
    for (auto& [tag, j] : stats_blocks()) stats[tag] = std::move(j);
    report["stats"] = std::move(stats);
    stats_blocks().clear();
  }

  const std::string out_dir = support::env_string("IPH_BENCH_OUT_DIR", ".");
  const std::string out_path =
      out_dir + "/BENCH_" + std::string(bench_id) + ".json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "[%s] cannot write %s\n", bench_id,
                 out_path.c_str());
    return 1;
  }
  out << report.dump(1) << '\n';
  std::fprintf(stderr, "[%s] report: %s (exit %d)\n", bench_id,
               out_path.c_str(), exit_code);
  return exit_code;
}

}  // namespace iph::bench
