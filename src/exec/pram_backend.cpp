#include "exec/pram_backend.h"

#include "core/api.h"
#include "pram/machine.h"

namespace iph::exec {

HullRun PramBackend::upper_hull(std::span<const geom::Point2> pts,
                                std::uint64_t seed, int alpha,
                                bool /*edge_above*/) {
  m_.reset(seed);
  Options opts;
  opts.alpha = alpha;
  HullRun run;
  {
    pram::Machine::Phase phase(m_, "serve/request");
    Hull2D h = iph::upper_hull_2d(m_, pts, opts);
    run.hull = std::move(h.result);
    run.metrics = h.metrics;
  }
  return run;
}

HullRun PramBackend::upper_hull_presorted(std::span<const geom::Point2> pts,
                                          std::uint64_t seed, int alpha,
                                          bool /*edge_above*/) {
  m_.reset(seed);
  Options opts;
  opts.alpha = alpha;
  HullRun run;
  {
    pram::Machine::Phase phase(m_, "serve/presorted");
    Hull2D h = iph::upper_hull_2d_presorted(m_, pts, opts);
    run.hull = std::move(h.result);
    run.metrics = h.metrics;
  }
  return run;
}

}  // namespace iph::exec
