#include "exec/backend.h"

namespace iph::exec {

Backend::~Backend() = default;

HullRun Backend::upper_hull_presorted(std::span<const geom::Point2> pts,
                                      std::uint64_t seed, int alpha,
                                      bool edge_above) {
  // Sorted input is still valid unsorted input; engines without a
  // presorted fast path just pay their sort again.
  return upper_hull(pts, seed, alpha, edge_above);
}

HullRun Backend::upper_hull_in_place(std::span<geom::Point2> pts,
                                     std::uint64_t seed, int alpha,
                                     bool edge_above) {
  return upper_hull(pts, seed, alpha, edge_above);
}

bool parse_backend(std::string_view name, BackendKind* out) noexcept {
  if (name == "pram") {
    *out = BackendKind::kPram;
  } else if (name == "native") {
    *out = BackendKind::kNative;
  } else if (name == "default") {
    *out = BackendKind::kDefault;
  } else {
    return false;
  }
  return true;
}

}  // namespace iph::exec
