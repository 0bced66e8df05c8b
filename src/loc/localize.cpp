#include "loc/localize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/angles.hpp"

namespace roarray::loc {

namespace {

/// The grid is tiled into kBlock x kBlock cell blocks; a block is the
/// unit the scan prunes or visits.
constexpr linalg::index_t kBlock = 8;

/// Paper Eq. 19 at one candidate: sum_i R_i * (phi_i(x) - phi_hat_i)^2.
/// Returns false for a candidate sitting on an AP (AoA undefined there),
/// which is never a fix.
bool cell_cost(const Vec2& cand, std::span<const ApObservation> observations,
               double& cost) {
  cost = 0.0;
  for (const ApObservation& o : observations) {
    if (channel::distance(cand, o.pose.position) < 1e-9) return false;
    const double phi = o.pose.aoa_of_point(cand);
    const double d = dsp::angle_diff_deg(phi, o.aoa_deg);
    cost += o.weight * d * d;
  }
  return true;
}

/// The argmin so far, ordered by (cost, iy, ix): the cell a row-major
/// (iy outer, ix inner) scan with a strict-less update would keep.
struct Best {
  double cost = std::numeric_limits<double>::max();
  linalg::index_t ix = -1;  ///< -1 = no candidate yet.
  linalg::index_t iy = -1;
};

struct Block {
  double bound = 0.0;  ///< lower bound on every cell cost in the block.
  linalg::index_t ix0 = 0;
  linalg::index_t iy0 = 0;
};

/// Evaluates every cell of one block with the per-cell cost, keeping
/// the (cost, iy, ix)-smallest. A cost of exactly the initial max or a
/// NaN never wins, as in the strict-less exhaustive scan.
void scan_block(const Block& b, linalg::index_t nx, linalg::index_t ny,
                double step, std::span<const ApObservation> observations,
                Best& best) {
  const linalg::index_t ix1 = std::min(b.ix0 + kBlock, nx);
  const linalg::index_t iy1 = std::min(b.iy0 + kBlock, ny);
  for (linalg::index_t iy = b.iy0; iy < iy1; ++iy) {
    for (linalg::index_t ix = b.ix0; ix < ix1; ++ix) {
      const Vec2 cand{static_cast<double>(ix) * step,
                      static_cast<double>(iy) * step};
      double cost = 0.0;
      if (!cell_cost(cand, observations, cost)) continue;
      const bool earlier_tie =
          cost == best.cost && best.ix >= 0 &&
          (iy < best.iy || (iy == best.iy && ix < best.ix));
      if (cost < best.cost || earlier_tie) best = {cost, ix, iy};
    }
  }
}

/// Lower bound on the cost of every cell in the block at (ix0, iy0).
///
/// Every cell lies within r of the centre c of the cells' bounding box.
/// Seen from an AP at distance D > r, a point within r of c has a
/// bearing within asin(r/D) of c's; folding a bearing to the ULA range
/// [0, 180] is 1-Lipschitz, so the cell's AoA is within that angle of
/// c's, and by the triangle inequality of angle_diff_deg the AP adds at
/// least w * max(0, angle_diff(aoa(c), aoa_hat) - asin(r/D))^2. An AP
/// with D <= r may sit in the block and adds 0.
///
/// The bound must hold for the *computed* cell costs, so the angle is
/// widened to cover rounding: r gains 1e-9 relative and 1e-12 of |c|
/// (centre and hypot rounding), asin gains 1e-9 relative, and 1e-5 deg
/// absolute covers the computed AoA of the cell and of c (acos loses up
/// to sqrt(2 * 1e-15) rad ~ 2.6e-6 deg each near endfire), plus 1e-15
/// of |aoa_hat| for the rounding of phi - aoa_hat. The inflated angle
/// only loosens the bound; it never excludes a cell that could win.
double block_bound(linalg::index_t ix0, linalg::index_t iy0,
                   linalg::index_t nx, linalg::index_t ny, double step,
                   std::span<const ApObservation> observations) {
  const double x_lo = static_cast<double>(ix0) * step;
  const double y_lo = static_cast<double>(iy0) * step;
  const double x_hi =
      static_cast<double>(std::min(ix0 + kBlock, nx) - 1) * step;
  const double y_hi =
      static_cast<double>(std::min(iy0 + kBlock, ny) - 1) * step;
  const Vec2 c{(x_lo + x_hi) * 0.5, (y_lo + y_hi) * 0.5};
  const double r = 0.5 * std::hypot(x_hi - x_lo, y_hi - y_lo) * (1.0 + 1e-9) +
                   1e-12 * (std::abs(c.x) + std::abs(c.y));
  double bound = 0.0;
  for (const ApObservation& o : observations) {
    const double dist = channel::distance(c, o.pose.position);
    // Also false for a NaN distance; dist > r >= 0 keeps aoa_of_point
    // off the zero vector when c lies on the AP (r = 0 included).
    if (!(dist > r)) continue;
    const double delta =
        dsp::rad_to_deg(std::asin(r / dist)) * (1.0 + 1e-9) + 1e-5 +
        1e-15 * std::abs(o.aoa_deg);
    const double gap =
        dsp::angle_diff_deg(o.pose.aoa_of_point(c), o.aoa_deg) - delta;
    if (gap > 0.0) bound += o.weight * gap * gap;  // false for NaN too.
  }
  return bound;
}

/// An observation contributes only with a finite AoA and a positive,
/// finite weight; anything else (all-zero RSSI weights, NaNs from an
/// upstream failure) previously produced a silent bogus (0, 0) fix.
[[nodiscard]] bool usable_observation(const ApObservation& o) noexcept {
  return std::isfinite(o.aoa_deg) && std::isfinite(o.weight) && o.weight > 0.0;
}

}  // namespace

const char* localize_status_name(LocalizeStatus s) noexcept {
  switch (s) {
    case LocalizeStatus::kOk: return "ok";
    case LocalizeStatus::kNoObservations: return "no-observations";
    case LocalizeStatus::kDegenerateWeights: return "degenerate-weights";
  }
  return "unknown";
}

LocalizeResult localize(std::span<const ApObservation> observations,
                        const LocalizeConfig& cfg,
                        const runtime::ThreadPool* /*pool*/) {
  cfg.room.validate();
  if (!std::isfinite(cfg.grid_step_m) || cfg.grid_step_m <= 0.0) {
    throw std::invalid_argument(
        "localize: grid step must be positive and finite");
  }
  LocalizeResult out;
  if (observations.empty()) return out;

  std::vector<ApObservation> usable;
  std::vector<std::size_t> src_index;  // usable slot -> input index.
  usable.reserve(observations.size());
  src_index.reserve(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    if (!usable_observation(observations[i])) continue;
    usable.push_back(observations[i]);
    src_index.push_back(i);
  }
  if (usable.empty()) {
    out.status = LocalizeStatus::kDegenerateWeights;
    return out;
  }

  const auto nx = static_cast<linalg::index_t>(
      std::floor(cfg.room.width_m / cfg.grid_step_m)) + 1;
  const auto ny = static_cast<linalg::index_t>(
      std::floor(cfg.room.height_m / cfg.grid_step_m)) + 1;

  // Exact branch and bound: visit blocks in ascending bound order,
  // evaluate each visited block in full, and stop at the first
  // block whose bound exceeds best + 1e-9 * (1 + best). That margin is
  // fp-safe: a cell's computed cost and its block's computed bound are
  // sums of at most n nonnegative terms with relative rounding of a few
  // ulp per term, so the cost is >= bound * (1 - 2(n + 4) * 2^-53),
  // which exceeds best whenever the bound clears best by 1e-9 relative
  // (n below a million observations). Every pruned cell then costs
  // strictly more than best, so the visited cells hold every minimizer,
  // and the (cost, iy, ix) order in scan_block picks the same one as
  // the exhaustive row-major strict-less scan: position and cost are
  // bit-identical to it.
  const linalg::index_t nbx = (nx + kBlock - 1) / kBlock;
  const linalg::index_t nby = (ny + kBlock - 1) / kBlock;
  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(nbx * nby));
  for (linalg::index_t by = 0; by < nby; ++by) {
    for (linalg::index_t bx = 0; bx < nbx; ++bx) {
      const linalg::index_t ix0 = bx * kBlock;
      const linalg::index_t iy0 = by * kBlock;
      blocks.push_back(
          {block_bound(ix0, iy0, nx, ny, cfg.grid_step_m, usable), ix0, iy0});
    }
  }
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    return a.bound < b.bound;
  });
  Best best;
  for (const Block& b : blocks) {
    if (b.bound > best.cost + 1e-9 * (1.0 + best.cost)) break;
    scan_block(b, nx, ny, cfg.grid_step_m, usable, best);
  }
  if (best.ix >= 0) {
    out.position = Vec2{static_cast<double>(best.ix) * cfg.grid_step_m,
                        static_cast<double>(best.iy) * cfg.grid_step_m};
  }
  out.cost = best.cost;
  out.valid = true;
  out.status = LocalizeStatus::kOk;

  // Robust fusion refinement, seeded by the grid argmin. Below the AP
  // floor the grid fix stands alone: a 2-AP robust solve has no
  // redundancy to tell an inlier from a liar.
  if (cfg.robust && static_cast<int>(usable.size()) >= cfg.robust_min_aps) {
    std::vector<fusion::Observation> fobs(usable.size());
    for (std::size_t i = 0; i < usable.size(); ++i) {
      fobs[i].pose = usable[i].pose;
      fobs[i].aoa_deg = usable[i].aoa_deg;
      fobs[i].weight = usable[i].weight;
      fobs[i].toa_s = usable[i].toa_s;
      fobs[i].has_toa = usable[i].has_toa && std::isfinite(usable[i].toa_s);
    }
    fusion::FusionReport report =
        fusion::fuse_robust(fobs, cfg.room, out.position, cfg.fusion);
    out.used_fusion = true;
    out.position = report.position;
    out.cost = report.cost;
    // Re-align per-AP diagnostics with the caller's input span; screened
    // observations keep default (non-inlier, zero-weight) entries.
    std::vector<fusion::ApDiagnostics> aligned(observations.size());
    for (std::size_t i = 0; i < src_index.size(); ++i) {
      aligned[src_index[i]] = report.per_ap[i];
    }
    report.per_ap = std::move(aligned);
    out.fusion = std::move(report);
  }
  return out;
}

}  // namespace roarray::loc
