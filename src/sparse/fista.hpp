// Proximal-gradient solvers (ISTA / FISTA) for the paper's Lagrangian
// sparse-recovery objective (Eq. 11 / Eq. 18):
//
//     min_x  1/2 ||y - S x||_2^2 + kappa ||x||_1
//
// and its multi-snapshot (l2,1 / l1-SVD) generalization
//
//     min_X  1/2 ||Y - S X||_F^2 + kappa sum_i ||X(i,:)||_2.
//
// The paper solves the constrained SOCP form with CVX; the Lagrangian
// proximal form has identical minimizers (see DESIGN.md) and maps the
// "iteration progress" of the paper's Fig. 3 onto solver iterations.
#pragma once

#include <functional>
#include <vector>

#include "sparse/operator.hpp"

namespace roarray::sparse {

/// Which proximal-gradient flavor to run.
enum class Algorithm {
  kIsta,   ///< plain proximal gradient (baseline, slower convergence).
  kFista,  ///< Nesterov-accelerated with adaptive (function) restart.
};

/// Solver configuration.
struct SolveConfig {
  Algorithm algorithm = Algorithm::kFista;
  int max_iterations = 400;
  /// Stop when the relative iterate change drops below this.
  double tolerance = 1e-6;
  /// Regularization weight kappa. <= 0 means "auto": kappa =
  /// kappa_ratio * ||S^H y||_inf (the smallest kappa giving x = 0 is
  /// exactly ||S^H y||_inf, so the ratio directly sets sparsity).
  double kappa = -1.0;
  double kappa_ratio = 0.15;
  /// Safety factor applied to the power-iteration Lipschitz estimate.
  double lipschitz_safety = 1.05;
  /// Precomputed lambda_max(S^H S) (e.g. from runtime::OperatorCache).
  /// <= 0 means "estimate per call by power iteration". Because the
  /// power iteration is deterministic, a cached value equals the
  /// per-call one exactly — solutions are bit-identical either way.
  double lipschitz_hint = -1.0;
};

/// Result of a single-snapshot solve.
struct SolveResult {
  CVec x;                         ///< recovered sparse coefficient vector.
  int iterations = 0;             ///< iterations actually run.
  bool converged = false;         ///< tolerance reached before max_iterations.
  double kappa = 0.0;             ///< regularization weight actually used.
  std::vector<double> objective;  ///< objective value after each iteration.
};

/// Result of a multi-snapshot (group) solve.
struct GroupSolveResult {
  CMat x;                         ///< n x k row-sparse coefficient matrix.
  int iterations = 0;
  bool converged = false;
  double kappa = 0.0;
  std::vector<double> objective;
};

/// Optional per-iteration observer (used to trace spectrum sharpening,
/// paper Fig. 3). Called after each iteration with the current iterate.
using IterationCallback = std::function<void(int iteration, const CVec& x)>;

/// Smallest kappa for which the l1 solution is identically zero.
[[nodiscard]] double kappa_max(const LinearOperator& op, const CVec& y);

/// Solves min_x 1/2 ||y - S x||^2 + kappa ||x||_1 — the loop of
/// solve_group_l1 with one snapshot, whose row shrink is the complex
/// soft threshold: the fused one-pass iteration on a
/// Kronecker-structured operator (KroneckerOperator, SupportOperator),
/// the generic loop on any other. The callback, when set, sees a copy
/// of the iterate.
/// Throws std::invalid_argument on dimension mismatch.
[[nodiscard]] SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                                   const SolveConfig& cfg = {},
                                   const IterationCallback& callback = nullptr);

/// Solves the row-group problem
/// min_X 1/2 ||Y - S X||_F^2 + kappa sum_i ||X(i,:)||_2.
/// On a Kronecker-structured operator this runs the fused one-pass
/// iteration (DESIGN.md "Fused FISTA iteration"); the optional pool
/// then runs fixed blocks of ToA columns and the ToA-side GEMMs, and on
/// the generic loop it parallelizes the operator applications. Either
/// way the result is identical at any thread count.
[[nodiscard]] GroupSolveResult solve_group_l1(
    const LinearOperator& op, const CMat& y, const SolveConfig& cfg = {},
    const runtime::ThreadPool* pool = nullptr);

/// Objective value 1/2 ||y - S x||^2 + kappa ||x||_1 (for tests/benches).
[[nodiscard]] double l1_objective(const LinearOperator& op, const CVec& y,
                                  const CVec& x, double kappa);

}  // namespace roarray::sparse
