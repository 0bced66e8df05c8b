// Exhaustive localization-grid oracle for the loc tests.
//
// The row-major (iy outer, ix inner) strict-less scan over every grid
// cell that loc::localize's grid argmin must reproduce bit for bit.
// It screens observations and evaluates each cell exactly as localize
// does, so any difference in position or cost is a pruning error.
#pragma once

#include <cmath>
#include <limits>
#include <span>

#include "dsp/angles.hpp"
#include "loc/localize.hpp"

namespace roarray::testing {

struct GridArgmin {
  loc::Vec2 position;
  double cost = std::numeric_limits<double>::max();
  int minimizers = 0;  ///< cells whose cost equals `cost` exactly.
};

inline GridArgmin exhaustive_grid_argmin(
    std::span<const loc::ApObservation> observations,
    const loc::LocalizeConfig& cfg) {
  const auto nx = static_cast<linalg::index_t>(
      std::floor(cfg.room.width_m / cfg.grid_step_m)) + 1;
  const auto ny = static_cast<linalg::index_t>(
      std::floor(cfg.room.height_m / cfg.grid_step_m)) + 1;
  GridArgmin best;
  for (linalg::index_t iy = 0; iy < ny; ++iy) {
    for (linalg::index_t ix = 0; ix < nx; ++ix) {
      const loc::Vec2 cand{static_cast<double>(ix) * cfg.grid_step_m,
                           static_cast<double>(iy) * cfg.grid_step_m};
      double cost = 0.0;
      bool degenerate = false;
      for (const loc::ApObservation& o : observations) {
        if (!(std::isfinite(o.aoa_deg) && std::isfinite(o.weight) &&
              o.weight > 0.0)) {
          continue;  // screened out by localize.
        }
        if (channel::distance(cand, o.pose.position) < 1e-9) {
          degenerate = true;
          break;
        }
        const double phi = o.pose.aoa_of_point(cand);
        const double d = dsp::angle_diff_deg(phi, o.aoa_deg);
        cost += o.weight * d * d;
      }
      if (degenerate) continue;
      if (cost < best.cost) {
        best.cost = cost;
        best.position = cand;
        best.minimizers = 1;
      } else if (cost == best.cost) {
        ++best.minimizers;
      }
    }
  }
  return best;
}

}  // namespace roarray::testing
