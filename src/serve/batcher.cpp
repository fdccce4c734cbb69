#include "serve/batcher.h"

namespace iph::serve {

std::vector<Response> execute_batch(const BackendSet& backends,
                                    std::span<Request> requests,
                                    std::uint64_t master_seed,
                                    BatchExecInfo* info) {
  std::vector<Response> out;
  out.reserve(requests.size());
  if (info != nullptr) {
    info->completed_at.clear();
    info->completed_at.reserve(requests.size());
    info->started_at.clear();
    info->started_at.reserve(requests.size());
    info->phase_spans.clear();
    info->phase_spans.reserve(requests.size());
    info->pram_total = pram::Metrics{};
    info->pram_requests = 0;
    info->native_requests = 0;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    const std::uint64_t seed = derive_request_seed(master_seed, r.id);
    exec::Backend* backend = backends.resolve(r.backend);
    const bool on_pram = backend->kind() != exec::BackendKind::kNative;
    // The engine sorts the points it is given; with keep_points, a copy.
    std::vector<geom::Point2> copy;
    std::span<geom::Point2> pts = r.points;
    if (backends.keep_points) pts = copy = r.points;
    const auto t0 = Clock::now();
    exec::HullRun run =
        backend->upper_hull_in_place(pts, seed, r.alpha, r.edge_above);
    const auto t1 = Clock::now();
    std::vector<trace::PhaseSpan> phases;
    if (on_pram && backends.recorder != nullptr) {
      phases = backends.recorder->take_spans();
    }
    Response resp;
    resp.id = r.id;
    resp.status = Status::kOk;
    resp.hull = std::move(run.hull);
    resp.metrics.seed = seed;
    resp.metrics.steps = run.metrics.steps;
    resp.metrics.work = run.metrics.work;
    resp.metrics.max_active = run.metrics.max_active;
    resp.metrics.batch_size = requests.size();
    resp.metrics.exec_ms = ms_between(t0, t1);
    resp.metrics.backend = backend->kind();
    if (info != nullptr) {
      info->completed_at.push_back(t1);
      info->started_at.push_back(t0);
      info->phase_spans.push_back(std::move(phases));
      info->pram_total.add_counters(run.metrics);
      if (backend->kind() == exec::BackendKind::kNative) {
        ++info->native_requests;
      } else {
        ++info->pram_requests;
      }
    }
    out.push_back(std::move(resp));
  }
  return out;
}

}  // namespace iph::serve
