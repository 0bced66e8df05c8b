#include "sparse/omp.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "linalg/qr.hpp"

namespace roarray::sparse {

OmpResult solve_omp(const LinearOperator& op, const CVec& y,
                    const OmpConfig& cfg) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_omp: rhs size");
  if (cfg.max_atoms < 1) throw std::invalid_argument("solve_omp: max_atoms < 1");

  const index_t m = op.rows();
  const index_t n = op.cols();
  const double y_norm = norm2(y);

  OmpResult out;
  out.x = CVec(n);
  if (y_norm <= 0.0) return out;

  // Selection uses plain (un-normalized) correlations: every steering
  // column in this library has the same norm, so normalizing by atom
  // norms would only rescale the argmax.
  CVec residual = y;
  CMat selected_cols(m, 0);
  std::vector<char> used(static_cast<std::size_t>(n), 0);

  for (index_t it = 0; it < cfg.max_atoms; ++it) {
    // Pick the atom with the largest |<s_j, r>|, ranked by the squared
    // magnitude (no hypot per atom); only the winner's magnitude is
    // needed, for the stop test.
    const CVec corr = op.apply_adjoint(residual);
    index_t best = -1;
    double best_sq = 0.0;
    for (index_t j = 0; j < n; ++j) {
      if (used[static_cast<std::size_t>(j)]) continue;
      const double sq = std::norm(corr[j]);
      if (sq > best_sq) {
        best_sq = sq;
        best = j;
      }
    }
    if (best < 0 || std::sqrt(best_sq) <= 1e-14 * y_norm) break;

    used[static_cast<std::size_t>(best)] = 1;
    out.support.push_back(best);
    // Materialize the new column.
    CVec e(n);
    e[best] = cxd{1.0, 0.0};
    const CVec col = op.apply(e);
    CMat grown(m, selected_cols.cols() + 1);
    for (index_t j = 0; j < selected_cols.cols(); ++j) {
      grown.set_col(j, selected_cols.col_vec(j));
    }
    grown.set_col(selected_cols.cols(), col);
    selected_cols = std::move(grown);

    // Least-squares refit over the whole support.
    const CVec coeffs = linalg::lstsq(selected_cols, y);
    residual = y;
    for (index_t j = 0; j < selected_cols.cols(); ++j) {
      CVec scaled = selected_cols.col_vec(j);
      scaled *= -coeffs[j];
      residual += scaled;
    }
    out.iterations = it + 1;

    if (norm2(residual) <= cfg.residual_tolerance * y_norm) {
      // Write out coefficients and stop.
      out.x.fill(cxd{});
      for (std::size_t k = 0; k < out.support.size(); ++k) {
        out.x[out.support[k]] = coeffs[static_cast<index_t>(k)];
      }
      out.residual_norm = norm2(residual);
      return out;
    }
    // Keep latest coefficients in case this is the final round.
    out.x.fill(cxd{});
    for (std::size_t k = 0; k < out.support.size(); ++k) {
      out.x[out.support[k]] = coeffs[static_cast<index_t>(k)];
    }
  }
  out.residual_norm = norm2(residual);
  return out;
}

}  // namespace roarray::sparse
