#include "session/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "geom/predicates.h"
#include "support/rng.h"

namespace iph::session {

namespace {

using geom::Point2;

/// Cells per stored point in the session ledger (x, y).
constexpr std::uint64_t kCellsPerPoint = 2;

Point2 flip(Point2 p) noexcept { return {p.x, -p.y}; }

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

HullSession::HullSession(const SessionConfig& cfg) : cfg_(cfg) {
  if (cfg_.pending_limit == 0) cfg_.pending_limit = 1;
  if (cfg_.staleness_limit == 0) cfg_.staleness_limit = 1;
}

std::vector<Point2> HullSession::lower() const {
  std::vector<Point2> out;
  out.reserve(lower_flip_.size());
  for (const Point2& p : lower_flip_) out.push_back(flip(p));
  return out;
}

bool HullSession::chain_insert(std::vector<Point2>& v, Point2 p,
                               std::uint32_t* pos, std::uint32_t* removed) {
  const std::size_t m = v.size();
  // First vertex with x >= p.x; chains are strictly x-ascending.
  const std::size_t lo =
      static_cast<std::size_t>(
          std::lower_bound(v.begin(), v.end(), p.x,
                           [](const Point2& q, double x) { return q.x < x; }) -
          v.begin());
  std::size_t l = lo;  // removal window [l, r)
  std::size_t r = lo;
  if (lo < m && v[lo].x == p.x) {
    // Same column: the chain keeps only the topmost point per x.
    if (p.y <= v[lo].y) return false;
    r = lo + 1;
  } else if (lo > 0 && lo < m) {
    // Interior column: covered iff on/below the spanning edge (strict
    // hull — a point exactly on the edge is not a vertex).
    if (geom::orient2d(v[lo - 1], v[lo], p) <= 0) return false;
  }
  // p joins the chain. Prune neighbors that stop being strict right
  // turns; prunes on a monotone chain are contiguous around p.
  while (l >= 2 && geom::orient2d(v[l - 2], v[l - 1], p) >= 0) --l;
  while (r + 1 < m && geom::orient2d(p, v[r], v[r + 1]) >= 0) ++r;
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(l),
          v.begin() + static_cast<std::ptrdiff_t>(r));
  v.insert(v.begin() + static_cast<std::ptrdiff_t>(l), p);
  *pos = static_cast<std::uint32_t>(l);
  *removed = static_cast<std::uint32_t>(r - l);
  return true;
}

AppendResult HullSession::append(std::span<const Point2> pts,
                                 exec::Backend& backend) {
  AppendResult res;
  for (const Point2& p : pts) {
    ++points_seen_;
    std::uint32_t pos = 0;
    std::uint32_t removed = 0;
    if (chain_insert(upper_, p, &pos, &removed)) {
      // Net chain growth: +1 vertex, -removed vertices.
      ledger_.record_space_alloc(kCellsPerPoint, pram::SpaceKind::kAux);
      if (removed > 0) {
        ledger_.record_space_release(kCellsPerPoint * removed,
                                     pram::SpaceKind::kAux);
      }
      res.ops.push_back({Side::kUpper, pos, removed, p});
    }
    if (chain_insert(lower_flip_, flip(p), &pos, &removed)) {
      ledger_.record_space_alloc(kCellsPerPoint, pram::SpaceKind::kAux);
      if (removed > 0) {
        ledger_.record_space_release(kCellsPerPoint * removed,
                                     pram::SpaceKind::kAux);
      }
      res.ops.push_back({Side::kLower, pos, removed, p});
    }
    pending_.push_back(p);
    ledger_.record_space_alloc(kCellsPerPoint, pram::SpaceKind::kAux);
  }
  ++appends_;
  ++appends_since_rebuild_;
  if (pending_.size() >= cfg_.pending_limit ||
      appends_since_rebuild_ >= cfg_.staleness_limit) {
    rebuild(backend, &res);
  }
  return res;
}

bool HullSession::rebuild_side(exec::Backend& backend, Side side,
                               AppendResult* res) {
  const std::vector<Point2>& chain =
      side == Side::kUpper ? upper_ : lower_flip_;
  // Merge chain (strictly x-ascending, hence lex-sorted) with the
  // lex-sorted pending batch; the lower side audits in flipped space so
  // the one presorted upper-hull entry point serves both chains.
  std::vector<Point2> batch;
  batch.reserve(pending_.size());
  for (const Point2& p : pending_) {
    batch.push_back(side == Side::kUpper ? p : flip(p));
  }
  std::sort(batch.begin(), batch.end(),
            [](const Point2& a, const Point2& b) {
              return geom::lex_less(a, b);
            });
  std::vector<Point2> merged;
  merged.reserve(chain.size() + batch.size());
  std::merge(chain.begin(), chain.end(), batch.begin(), batch.end(),
             std::back_inserter(merged),
             [](const Point2& a, const Point2& b) {
               return geom::lex_less(a, b);
             });
  const std::uint64_t transient =
      kCellsPerPoint * static_cast<std::uint64_t>(merged.size());
  ledger_.record_space_alloc(transient, pram::SpaceKind::kAux);

  const std::uint64_t rb_seed = support::mix3(
      cfg_.seed, 0x7265626c64ULL /* "rebld" */,
      (rebuilds_ << 1) | static_cast<std::uint64_t>(side));
  exec::HullRun run = backend.upper_hull_presorted(merged, rb_seed, cfg_.alpha,
                                                  /*edge_above=*/false);
  res->rebuild_metrics.add_counters(run.metrics);
  ledger_.record_space_release(transient, pram::SpaceKind::kAux);

  // Coordinate-equality audit: the rebuilt hull of everything the
  // session retains must BE the maintained chain. (The pending points
  // were all inserted incrementally, so they are either chain vertices
  // already or covered.)
  const std::vector<geom::Index>& hv = run.hull.upper.vertices;
  if (hv.size() != chain.size()) return false;
  for (std::size_t i = 0; i < hv.size(); ++i) {
    if (merged[hv[i]] != chain[i]) return false;
  }
  return true;
}

void HullSession::rebuild(exec::Backend& backend, AppendResult* res) {
  const auto t0 = std::chrono::steady_clock::now();
  res->rebuilt = true;
  bool ok = rebuild_side(backend, Side::kUpper, res);
  ok = rebuild_side(backend, Side::kLower, res) && ok;
  if (!ok) {
    res->rebuild_mismatch = true;
    ++mismatches_;
  }
  ledger_.record_space_release(
      kCellsPerPoint * static_cast<std::uint64_t>(pending_.size()),
      pram::SpaceKind::kAux);
  pending_.clear();
  pending_.shrink_to_fit();
  ++rebuilds_;
  appends_since_rebuild_ = 0;
  res->rebuild_ms = ms_since(t0);
}

}  // namespace iph::session
