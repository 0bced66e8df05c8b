#include "sparse/fista.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/backend/backend.hpp"
#include "linalg/gemm.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/power.hpp"

namespace roarray::sparse {

namespace {

double resolve_kappa(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg) {
  if (cfg.kappa > 0.0) return cfg.kappa;
  return cfg.kappa_ratio * kappa_max(op, y);
}

double resolve_step(const LinearOperator& op, const SolveConfig& cfg) {
  const double norm_sq =
      cfg.lipschitz_hint > 0.0 ? cfg.lipschitz_hint : operator_norm_sq(op);
  const double lip = norm_sq * cfg.lipschitz_safety;
  if (lip <= 0.0) throw std::domain_error("solve_l1: zero operator");
  return 1.0 / lip;
}

/// 0.5 * || s - y ||^2 over interleaved complex storage of `count`
/// elements, without materializing the residual (accumulation matches
/// norm2_sq / norm_fro_sq of the explicit difference: one |.|^2 term
/// per complex element, ascending).
double half_residual_sq(const cxd* s, const cxd* y, index_t count) {
  const double* sd = reinterpret_cast<const double*>(s);
  const double* yd = reinterpret_cast<const double*>(y);
  double acc = 0.0;
  for (index_t i = 0; i < count; ++i) {
    const double dr = sd[2 * i] - yd[2 * i];
    const double di = sd[2 * i + 1] - yd[2 * i + 1];
    acc += dr * dr + di * di;
  }
  return 0.5 * acc;
}

/// Fused momentum bookkeeping over `count` complex elements: writes
/// z = x_new + beta (x_new - x) and accumulates ||x_new - x||^2 and
/// ||x_new||^2 for the relative-change stopping rule, all in one pass
/// (the unfused version walks the iterate four times).
void momentum_update(const cxd* x_new, const cxd* x, double beta, cxd* z,
                     index_t count, double& diff_sq, double& new_sq) {
  const double* nd = reinterpret_cast<const double*>(x_new);
  const double* od = reinterpret_cast<const double*>(x);
  double* zd = reinterpret_cast<double*>(z);
  double ds = 0.0;
  double ns = 0.0;
  for (index_t i = 0; i < count; ++i) {
    const double dr = nd[2 * i] - od[2 * i];
    const double di = nd[2 * i + 1] - od[2 * i + 1];
    ds += dr * dr + di * di;
    ns += nd[2 * i] * nd[2 * i] + nd[2 * i + 1] * nd[2 * i + 1];
    zd[2 * i] = nd[2 * i] + beta * dr;
    zd[2 * i + 1] = nd[2 * i + 1] + beta * di;
  }
  diff_sq = ds;
  new_sq = ns;
}

/// sz = sx_new + beta (sx_new - sx): the momentum identity on the
/// cached forward applications.
void extrapolate(const cxd* sx_new, const cxd* sx, double beta, cxd* sz,
                 index_t count) {
  const double* nd = reinterpret_cast<const double*>(sx_new);
  const double* od = reinterpret_cast<const double*>(sx);
  double* zd = reinterpret_cast<double*>(sz);
  for (index_t i = 0; i < 2 * count; ++i) {
    zd[i] = nd[i] + beta * (nd[i] - od[i]);
  }
}

using linalg::backend::FistaPass;
using linalg::backend::FistaSums;

/// The Kronecker factors behind `op`, or nullptr when it has none.
const KroneckerOperator* kronecker_factors(const LinearOperator& op) {
  if (const auto* kop = dynamic_cast<const KroneckerOperator*>(&op)) {
    return kop;
  }
  if (const auto* sop = dynamic_cast<const SupportOperator*>(&op)) {
    return &sop->sub();
  }
  return nullptr;
}

// ToA columns per block of the fused pass. The block partition depends
// only on N_r, and the per-block sums reduce in block order, so the
// pass gives the same bits serially and on a pool of any width.
constexpr index_t kPassBlock = 8;

// Cell-snapshot-antenna products below which one pass stays on the
// calling thread (the pool hand-off would cost more than it saves).
constexpr index_t kPassParallelFloor = 1 << 14;

/// Buffers of the fused loop, allocated once per solve. The ToA-side
/// blocks use the permuted layout (row c * M + m for snapshot c,
/// antenna m): measurements, cached forward applications and residual
/// are (M*K) x L, the pass's gradient partials p and forward partials b
/// are (M*K) x N_r. Unknowns keep the natural n x K layout.
struct FusedWork {
  CMat y;        // measurements
  CMat sx;       // S x
  CMat sx_prev;  // S x_prev
  CMat sx_new;   // S x_new
  CMat resid;    // S z - y at the momentum point
  CMat p;        // resid * conj(right)
  CMat b;        // left * x_new
  CMat x;
  CMat x_prev;
  CMat x_new;
  std::vector<FistaSums> block_sums;
};

/// The blocks of one pass, shared by reference with the pool workers
/// (the lambda captures one pointer, so no closure is heap-allocated).
struct PassJob {
  const linalg::backend::Backend* bk;
  const FistaPass* pass;
  index_t nr;
  FistaSums* sums;
};

/// One proximal-gradient step from the momentum point
/// z = x + beta (x - from_prev), given S from_prev as `sx_from_prev`:
///   resid = S z - y = S x + beta (S x - S from_prev) - y,
///   p = resid conj(right),
///   the fused pass (x_new and b = left x_new, per ToA column),
///   S x_new = b right^T.
/// A plain step from x passes from_prev = x, beta = 0.
FistaSums fused_step(const KroneckerOperator& kop, FusedWork& w,
                     const CMat& from_prev, const CMat& sx_from_prev,
                     double beta, double step, double shrink,
                     const runtime::ThreadPool* pool) {
  const index_t mk = w.y.rows();
  const index_t l = w.y.cols();
  const index_t nr = w.p.cols();
  {
    const double* sd = reinterpret_cast<const double*>(w.sx.data());
    const double* qd = reinterpret_cast<const double*>(sx_from_prev.data());
    const double* yd = reinterpret_cast<const double*>(w.y.data());
    double* rd = reinterpret_cast<double*>(w.resid.data());
    for (index_t i = 0; i < 2 * mk * l; ++i) {
      rd[i] = (sd[i] + beta * (sd[i] - qd[i])) - yd[i];
    }
  }
  linalg::gemm(mk, nr, l, w.resid.data(), kop.right_conjugate().data(),
               w.p.data(), pool);

  const FistaPass pass{kop.left().rows(), kop.left().cols(), w.x.cols(),
                       w.x.rows(), kop.left_adjoint().data(), w.p.data(),
                       w.x.data(), from_prev.data(), beta, step, shrink,
                       w.x_new.data(), w.b.data()};
  const PassJob job{&linalg::backend::active(), &pass, nr,
                    w.block_sums.data()};
  const auto blocks = static_cast<index_t>(w.block_sums.size());
  const auto run_block = [j = &job](index_t blk) {
    const index_t j0 = blk * kPassBlock;
    j->bk->fista_pass(*j->pass, j0, std::min(j->nr, j0 + kPassBlock),
                      j->sums[blk]);
  };
  if (pool != nullptr && pool->threads() > 1 && blocks > 1 &&
      w.x.rows() * mk >= kPassParallelFloor) {
    pool->parallel_for(blocks, run_block);
  } else {
    for (index_t blk = 0; blk < blocks; ++blk) run_block(blk);
  }

  linalg::gemm(mk, l, nr, w.b.data(), kop.right_transpose().data(),
               w.sx_new.data(), pool);
  FistaSums total;
  for (index_t blk = 0; blk < blocks; ++blk) {
    const FistaSums& bs = w.block_sums[static_cast<std::size_t>(blk)];
    total.diff_sq += bs.diff_sq;
    total.new_sq += bs.new_sq;
    total.l21 += bs.l21;
  }
  return total;
}

/// Hands the callback (if any) the first column of x; `observed` is
/// sized on the first call and reused.
void notify(const IterationCallback& callback, int it, const CMat& x,
            CVec& observed) {
  if (!callback) return;
  if (observed.size() != x.rows()) observed = CVec(x.rows());
  std::memcpy(observed.data(), x.data(),
              static_cast<std::size_t>(x.rows()) * sizeof(cxd));
  callback(it, observed);
}

/// The fused FISTA / ISTA loop over a Kronecker-structured operator,
/// for any snapshot count K (solve_l1 runs it with K = 1). Same
/// iteration as the generic loop below — monotone restart, the
/// relative-change stop rule, the objective trace — but each step walks
/// the iterate once (fused_step) instead of through generic operator
/// applications and separate prox and momentum passes.
GroupSolveResult solve_fused(const KroneckerOperator& kop, const CMat& y,
                             double kappa, double step, const SolveConfig& cfg,
                             const runtime::ThreadPool* pool,
                             const IterationCallback& callback) {
  const index_t k = y.cols();
  const index_t m = kop.left().rows();
  const index_t l = kop.right().rows();
  const index_t nr = kop.right().cols();
  const index_t n = kop.cols();
  const index_t mk = m * k;
  const double shrink = step * kappa;
  const bool accelerated = cfg.algorithm == Algorithm::kFista;

  FusedWork w{CMat(mk, l),  CMat(mk, l),  CMat(mk, l),  CMat(mk, l),
              CMat(mk, l),  CMat(mk, nr), CMat(mk, nr), CMat(n, k),
              CMat(n, k),   CMat(n, k),
              std::vector<FistaSums>(
                  static_cast<std::size_t>((nr + kPassBlock - 1) / kPassBlock))};
  for (index_t c = 0; c < k; ++c) {
    for (index_t li = 0; li < l; ++li) {
      std::memcpy(w.y.data() + li * mk + c * m, y.data() + c * (m * l) + li * m,
                  static_cast<std::size_t>(m) * sizeof(cxd));
    }
  }
  CVec observed;
  GroupSolveResult out;
  out.kappa = kappa;
  double t = 1.0;
  double beta = 0.0;  // momentum of the next step's point (x = x_prev = 0)
  double prev_obj = half_residual_sq(w.sx.data(), w.y.data(), mk * l);
  for (int it = 1; it <= cfg.max_iterations; ++it) {
    FistaSums sums =
        fused_step(kop, w, w.x_prev, w.sx_prev, beta, step, shrink, pool);
    double obj = half_residual_sq(w.sx_new.data(), w.y.data(), mk * l) +
                 kappa * sums.l21;
    if (accelerated && obj > prev_obj) {
      // Monotone restart (see solve_generic): a plain step from x.
      sums = fused_step(kop, w, w.x, w.sx, 0.0, step, shrink, pool);
      obj = half_residual_sq(w.sx_new.data(), w.y.data(), mk * l) +
            kappa * sums.l21;
      t = 1.0;
    }
    out.objective.push_back(obj);
    out.iterations = it;

    beta = 0.0;
    if (accelerated) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    const double rel_change =
        std::sqrt(sums.diff_sq) / std::max(1.0, std::sqrt(sums.new_sq));
    prev_obj = obj;
    // x_prev <- x <- x_new (the old x_prev becomes the next scratch).
    std::swap(w.x_prev, w.x);
    std::swap(w.x, w.x_new);
    std::swap(w.sx_prev, w.sx);
    std::swap(w.sx, w.sx_new);
    notify(callback, it, w.x, observed);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(w.x);
  return out;
}

// Kronecker-structured operators (KroneckerOperator, SupportOperator)
// run the fused loop above; every other operator runs the generic loop
// below, which is also the differential oracle for the fused one
// (tests/sparse/test_fused_solve.cpp). Both serve both entry points:
// solve_l1 is the K = 1 case of the row-group problem, whose l2,1 row
// shrink is then the complex soft threshold.
//
// Both loops keep the forward application S x cached across
// iterations. Per iteration they cost two operator applications, S^H r
// and S x_new, because the next momentum point's S z follows by
// linearity:
//   z = x_new + beta (x_new - x)  =>  S z = (1+beta) S x_new - beta S x.
// After a monotone restart beta = 0 and S z = S x_new exactly; the
// cached S x is always a direct application (never a linear
// combination), so error from the identity cannot compound across
// iterations.
//
// All large per-iteration buffers (iterate, momentum point, gradient,
// residual, cached applications) are allocated once and recycled via
// swaps; element-wise passes over the grid-sized iterate are fused (see
// the helpers above).
GroupSolveResult solve_generic(const LinearOperator& op, const CMat& y,
                               double kappa, double step,
                               const SolveConfig& cfg,
                               const runtime::ThreadPool* pool,
                               const IterationCallback& callback) {
  const index_t n = op.cols();
  const index_t k = y.cols();
  const index_t m = op.rows();
  const double shrink = step * kappa;
  const bool accelerated = cfg.algorithm == Algorithm::kFista;

  GroupSolveResult out;
  out.kappa = kappa;
  CMat x(n, k);
  CMat z(n, k);  // momentum point (equals x for ISTA)
  CMat x_new(n, k);
  CMat grad(n, k);
  CMat sx(m, k);  // S x (x starts at zero)
  CMat sz(m, k);  // S z
  CMat sx_new(m, k);
  CMat residual(m, k);
  CVec observed;
  std::vector<double> row_scale(static_cast<std::size_t>(n));
  double t = 1.0;
  double prev_obj = half_residual_sq(sx.data(), y.data(), m * k);  // x = 0

  // x_new = prox_{shrink ||.||_{2,1}}(from - step * grad), returning
  // ||x_new||_{2,1} for the objective. One column-major pass writes the
  // gradient step and accumulates the squared row norms; a second
  // applies the row shrink factors. The returned l2,1 value is the
  // analytic post-shrink norm (row norm times its shrink factor).
  auto prox_gradient_step = [&](const CMat& from, const CMat& g) {
    const double* fd = reinterpret_cast<const double*>(from.data());
    const double* gd = reinterpret_cast<const double*>(g.data());
    double* xd = reinterpret_cast<double*>(x_new.data());
    std::fill(row_scale.begin(), row_scale.end(), 0.0);
    for (index_t j = 0; j < k; ++j) {
      const index_t off = 2 * j * n;
      for (index_t i = 0; i < n; ++i) {
        const double xr = fd[off + 2 * i] - step * gd[off + 2 * i];
        const double xi = fd[off + 2 * i + 1] - step * gd[off + 2 * i + 1];
        xd[off + 2 * i] = xr;
        xd[off + 2 * i + 1] = xi;
        row_scale[static_cast<std::size_t>(i)] += xr * xr + xi * xi;
      }
    }
    double l21 = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double norm = std::sqrt(row_scale[static_cast<std::size_t>(i)]);
      if (norm <= shrink) {
        row_scale[static_cast<std::size_t>(i)] = -1.0;
      } else {
        const double s = 1.0 - shrink / norm;
        row_scale[static_cast<std::size_t>(i)] = s;
        l21 += norm * s;
      }
    }
    // The shrink pass is the backend row_scale kernel (bit-identical
    // across tables); the fused gradient+accumulate pass above stays
    // scalar because splitting it would double the memory traffic.
    const auto& bk = linalg::backend::active();
    for (index_t j = 0; j < k; ++j) {
      bk.row_scale(x_new.data() + j * n, n, row_scale.data());
    }
    return l21;
  };

  for (int it = 1; it <= cfg.max_iterations; ++it) {
    // Gradient of the smooth part at z: S^H (S z - y).
    residual = sz;
    residual -= y;
    op.apply_adjoint_mat_into(residual, grad, pool);

    double l21 = prox_gradient_step(z, grad);
    op.apply_mat_into(x_new, sx_new, pool);
    double obj = half_residual_sq(sx_new.data(), y.data(), m * k) + kappa * l21;

    if (accelerated && obj > prev_obj) {
      // Monotone restart: the momentum step overshot. Discard it and
      // take a plain proximal-gradient step from x, which the step-size
      // majorization guarantees does not increase the objective. S x is
      // already cached, so the restart gradient costs no extra forward
      // application.
      residual = sx;
      residual -= y;
      op.apply_adjoint_mat_into(residual, grad, pool);
      l21 = prox_gradient_step(x, grad);
      op.apply_mat_into(x_new, sx_new, pool);
      obj = half_residual_sq(sx_new.data(), y.data(), m * k) + kappa * l21;
      t = 1.0;
    }
    out.objective.push_back(obj);
    out.iterations = it;

    double beta = 0.0;
    if (accelerated) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    double diff_sq = 0.0;
    double new_sq = 0.0;
    momentum_update(x_new.data(), x.data(), beta, z.data(), n * k, diff_sq,
                    new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m * k);

    prev_obj = obj;
    std::swap(x, x_new);
    std::swap(sx, sx_new);
    notify(callback, it, x, observed);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(x);
  return out;
}

/// Dispatches one solve with its regularization weight resolved.
GroupSolveResult solve_resolved(const LinearOperator& op, const CMat& y,
                                double kappa, const SolveConfig& cfg,
                                const runtime::ThreadPool* pool,
                                const IterationCallback& callback) {
  const double step = resolve_step(op, cfg);
  if (const KroneckerOperator* kop = kronecker_factors(op)) {
    return solve_fused(*kop, y, kappa, step, cfg, pool, callback);
  }
  return solve_generic(op, y, kappa, step, cfg, pool, callback);
}

}  // namespace

double kappa_max(const LinearOperator& op, const CVec& y) {
  return norm_inf(op.apply_adjoint(y));
}

double l1_objective(const LinearOperator& op, const CVec& y, const CVec& x,
                    double kappa) {
  CVec r = op.apply(x);
  r -= y;
  return 0.5 * norm2_sq(r) + kappa * norm1(x);
}

SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg, const IterationCallback& callback) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_l1: rhs size");
  if (cfg.max_iterations < 1) throw std::invalid_argument("solve_l1: max_iterations");

  const double kappa = resolve_kappa(op, y, cfg);
  CMat ym(y.size(), 1);
  ym.set_col(0, y);
  GroupSolveResult group = solve_resolved(op, ym, kappa, cfg, nullptr, callback);
  SolveResult out;
  out.x = group.x.col_vec(0);
  out.iterations = group.iterations;
  out.converged = group.converged;
  out.kappa = group.kappa;
  out.objective = std::move(group.objective);
  return out;
}

GroupSolveResult solve_group_l1(const LinearOperator& op, const CMat& y,
                                const SolveConfig& cfg,
                                const runtime::ThreadPool* pool) {
  if (y.rows() != op.rows()) throw std::invalid_argument("solve_group_l1: rhs rows");
  if (y.cols() < 1) throw std::invalid_argument("solve_group_l1: no snapshots");
  if (cfg.max_iterations < 1) {
    throw std::invalid_argument("solve_group_l1: max_iterations");
  }

  // Auto kappa for the group norm: largest row norm of S^H Y.
  double kappa = cfg.kappa;
  if (kappa <= 0.0) {
    const index_t n = op.cols();
    const CMat g = op.apply_adjoint_mat(y, pool);
    const auto& bk = linalg::backend::active();
    std::vector<double> row_sq(static_cast<std::size_t>(n), 0.0);
    for (index_t j = 0; j < y.cols(); ++j) {
      bk.row_sq_accumulate(g.data() + j * n, n, row_sq.data());
    }
    double mx = 0.0;
    for (index_t i = 0; i < n; ++i) {
      mx = std::max(mx, std::sqrt(row_sq[static_cast<std::size_t>(i)]));
    }
    kappa = cfg.kappa_ratio * mx;
  }
  return solve_resolved(op, y, kappa, cfg, pool, nullptr);
}

}  // namespace roarray::sparse
