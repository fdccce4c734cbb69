#include "serve/batcher.h"

#include <span>

namespace iph::serve {

Execution execute(const BackendSet& backends, Request& request,
                  std::uint64_t master_seed) {
  const std::uint64_t seed = derive_request_seed(master_seed, request.id);
  exec::Backend* backend = backends.resolve(request.backend);
  // The engine sorts the points it is given; with keep_points, a copy.
  std::vector<geom::Point2> copy;
  std::span<geom::Point2> pts = request.points;
  if (backends.keep_points) pts = copy = request.points;
  Execution ex;
  ex.started_at = Clock::now();
  exec::HullRun run = backend->upper_hull_in_place(pts, seed, request.alpha,
                                                   request.edge_above);
  ex.completed_at = Clock::now();
  if (backend->kind() != exec::BackendKind::kNative &&
      backends.recorder != nullptr) {
    ex.phase_spans = backends.recorder->take_spans();
  }
  Response& resp = ex.response;
  resp.id = request.id;
  resp.status = Status::kOk;
  resp.hull = std::move(run.hull);
  resp.metrics.seed = seed;
  resp.metrics.steps = run.metrics.steps;
  resp.metrics.work = run.metrics.work;
  resp.metrics.max_active = run.metrics.max_active;
  resp.metrics.batch_size = 1;
  resp.metrics.exec_ms = ms_between(ex.started_at, ex.completed_at);
  resp.metrics.backend = backend->kind();
  ex.pram = run.metrics;
  return ex;
}

}  // namespace iph::serve
