// Pluggable compute backends for the complex kernel hot path.
//
// A Backend is a table of raw-buffer kernels (GEMM microkernels, the
// soft-threshold / group-prox element passes, the fused FISTA pass,
// and the steering-vector phase recurrences). The `scalar` table holds today's hand-separated
// real-arithmetic loops, extracted verbatim from gemm.cpp / prox.hpp /
// steering.cpp; the `simd` table hand-vectorizes the same kernels
// (AVX2+FMA on x86-64, NEON on aarch64) behind compile-time feature
// macros with a runtime CPU check, so a binary built with the SIMD
// translation units still runs on machines without the vector units.
//
// Selection is process-global and resolved once: callers reach the
// active table through active(), or pass an explicit table to the
// kernel entry points (gemm, soft_threshold_inplace, ...) for
// differential testing. ROARRAY_BACKEND=scalar|simd|auto overrides the
// default (auto). Selection is deliberately NOT per-request: operator
// caches and pool workers are shared across requests, and mixing
// backends inside one process would let a cached Gram matrix or
// Lipschitz constant disagree with the kernels consuming it. A device
// backend (CUDA) would slot in as another table plus a memory-space
// contract; see DESIGN.md "Compute backends".
//
// Determinism contract per table:
//   * Every kernel is bit-identical across thread counts (the tile
//     partition and reduction order never depend on the pool), for the
//     scalar AND the simd table alike.
//   * The scalar table reproduces the pre-backend kernels bit-for-bit
//     (the loops moved, the arithmetic did not).
//   * scalar vs simd may differ only to rounding: the simd kernels keep
//     ascending-k traversal but may round differently (FMA contraction,
//     lane-split partial sums in gemm_adj_tile, squared-magnitude
//     threshold compare in soft_threshold). Per-kernel tolerances are
//     documented next to each pointer and enforced by
//     tests/linalg/test_backend.cpp.
#pragma once

#include "linalg/types.hpp"

namespace roarray::linalg::backend {

/// Outputs with at most this many rows use the fixed-height column
/// kernel (`gemm_cols`) instead of the generic tile.
inline constexpr index_t kSmallRowLimit = 16;

/// Reductions at most this deep use the fixed-depth column kernel
/// (`gemm_cols_depth`) when the row count is too large for the
/// fixed-height one.
inline constexpr index_t kSmallDepthLimit = 8;

/// Operands of one fused FISTA pass over a Kronecker-structured
/// dictionary S = R (x) L (L: the M x N_l AoA factor, R: the ToA
/// factor). Unknown blocks are column-major n x K (n = N_l * N_r, cell
/// index j * N_l + i, AoA-fastest, snapshot column stride n). The
/// ToA-side blocks p and b are (M*K) x N_r, column-major, with row
/// c * M + m for snapshot c and antenna m, so column j holds one
/// contiguous M*K run.
struct FistaPass {
  index_t m;             ///< antenna count (rows of L), >= 1.
  index_t nl;            ///< AoA cells per ToA column (columns of L).
  index_t k;             ///< snapshot columns, >= 1.
  index_t n;             ///< total cells: column stride of x / x_prev / x_new.
  const cxd* left_adj;   ///< L^H, N_l x M column-major.
  const cxd* p;          ///< gradient partials: the residual times conj(R).
  const cxd* x;          ///< current iterate.
  const cxd* x_prev;     ///< previous iterate (== x with beta = 0 for a plain step).
  double beta;           ///< momentum weight of z = x + beta (x - x_prev).
  double step;           ///< gradient step 1 / Lipschitz.
  double shrink;         ///< row-shrink threshold step * kappa.
  cxd* x_new;            ///< output iterate (must not alias x / x_prev).
  cxd* b;                ///< output forward partials L x_new, per column.
};

/// Per-call reductions of fista_pass, accumulated in ascending column
/// order within the call.
struct FistaSums {
  double diff_sq = 0.0;  ///< ||x_new - x||_F^2 over the columns.
  double new_sq = 0.0;   ///< ||x_new||_F^2.
  double l21 = 0.0;      ///< sum of post-shrink row norms of x_new.
};

/// Function-pointer table of hot kernels. All matrix arguments are raw
/// column-major interleaved (re, im) buffers; every pointer is non-null
/// in a published table.
struct Backend {
  /// Short stable identifier ("scalar", "simd-avx2", "simd-neon") —
  /// recorded in bench provenance.
  const char* name;

  /// C(i0:i1, j0:j1) += A(i0:i1, :) B(:, j0:j1); A is m x k, C is m x n.
  /// Skips exact-zero B entries (matmul's zero-skip). Reduction over k
  /// ascends for every output element. simd tolerance vs scalar is the
  /// dot-product forward-error bound gamma_k * sum |a||b| with slack
  /// for complex FMA contraction:
  /// |diff| <= 8 * eps * k * max|A| * max_j sum_l |B(l,j)| per element.
  void (*gemm_tile)(index_t i0, index_t i1, index_t j0, index_t j1,
                    index_t m, index_t k, const cxd* a, const cxd* b, cxd* c);

  /// C(:, j0:j1) = A B(:, j0:j1) for m <= kSmallRowLimit (overwrites,
  /// no prior memset needed). Same zero-skip and tolerance as gemm_tile.
  void (*gemm_cols)(index_t m, index_t j0, index_t j1, index_t k,
                    const cxd* a, const cxd* b, cxd* c);

  /// C(:, j0:j1) = A B(:, j0:j1) for k <= kSmallDepthLimit (overwrites).
  /// Does NOT skip zero B entries (their terms are exact +/-0); the
  /// simd kernel matches that so the two tables see the same terms.
  void (*gemm_cols_depth)(index_t m, index_t j0, index_t j1, index_t k,
                          const cxd* a, const cxd* b, cxd* c);

  /// C(i0:i1, j0:j1) = A(:, i0:i1)^H B(:, j0:j1); A is k x m', B k x n.
  /// simd may split the k reduction into a fixed number of lanes with a
  /// fixed-order horizontal reduce (still thread-count independent);
  /// tolerance vs scalar as gemm_tile.
  void (*gemm_adj_tile)(index_t i0, index_t i1, index_t j0, index_t j1,
                        index_t m, index_t k, const cxd* a, const cxd* b,
                        cxd* c);

  /// x[i] <- x[i] * max(0, 1 - t/|x[i]|), zeroing when |x[i]| <= t.
  /// simd compares squared magnitudes against t^2 (no sqrt on the
  /// shrink-to-zero branch); tolerance vs scalar: 4 * eps * |x| per
  /// element, plus one documented divergence — inputs whose squared
  /// magnitude underflows to zero (|x| < ~1.5e-154) are zeroed by simd
  /// and kept by scalar when t is smaller still.
  void (*soft_threshold)(cxd* x, index_t n, double t);

  /// acc[i] += |col[i]|^2 for one matrix column (the group-prox /
  /// l2,1-norm row sweep). Tolerance vs scalar: 2 * eps * |col[i]|^2
  /// per element per column.
  void (*row_sq_accumulate)(const cxd* col, index_t n, double* acc);

  /// col[i] *= scale[i], writing exact +0 when scale[i] < 0 (the
  /// group-prox "zero the row" marker). Bit-identical across tables.
  void (*row_scale)(cxd* col, index_t n, const double* scale);

  /// out[i] = scale * step^i via the phase recurrence lm *= step
  /// (steering vectors / dictionary factors). simd advances four
  /// elements per step with a step^4 stride; tolerance vs scalar:
  /// 2 * eps * n * |scale| per element (|step| = 1 in every caller).
  void (*phase_ramp)(cxd scale, cxd step, index_t n, cxd* out);

  /// out[i] += scale * step^i (the CSI synthesis accumulation).
  void (*phase_ramp_accum)(cxd scale, cxd step, index_t n, cxd* out);

  /// One fused FISTA iteration body over ToA columns [j0, j1). Per
  /// column j and AoA cell i it forms the momentum point
  /// z = x + beta (x - x_prev), the gradient g = L^H P_j (P_j = column
  /// j of p, one M-vector per snapshot), the step v = z - step g and
  /// the l2,1 row shrink x_new = v max(0, 1 - shrink / ||v||) across
  /// the K snapshots (the complex soft threshold for K = 1), and
  /// overwrites b's column j with L x_new. `sums` is overwritten with
  /// the reductions over these columns. Zero rows skip the forward
  /// accumulation. simd tolerance vs scalar: the step and shrink are
  /// elementwise, so x_new differs only by FMA rounding,
  /// |diff| <= 16 * eps * M * (|z| + step * max|L| * sum|P_j|) per
  /// element; b and the sums additionally reorder their cell sums
  /// (lane-split partial sums), 8 * eps * N_l * max|L| * sum|x_new|.
  void (*fista_pass)(const FistaPass& a, index_t j0, index_t j1,
                     FistaSums& sums);
};

/// The portable table (always available; arithmetic of the pre-backend
/// scalar kernels, bit-for-bit).
[[nodiscard]] const Backend& scalar();

/// The vectorized table compiled into this binary, or nullptr when the
/// build has no SIMD translation unit for this architecture OR the
/// running CPU lacks the required features (AVX2+FMA / NEON).
[[nodiscard]] const Backend* simd();

/// True when a SIMD translation unit was compiled into this binary,
/// independent of whether the running CPU can execute it.
[[nodiscard]] bool simd_compiled();

/// How the active table was chosen (for bench provenance and the CI
/// backend leg).
struct Dispatch {
  const Backend* selected;  ///< the table active() returns.
  const char* requested;    ///< "auto", "scalar", "simd" (env) or "force".
  bool simd_compiled;       ///< a SIMD TU exists in this binary.
  bool simd_supported;      ///< the running CPU has the features.
};

/// The process-global table: force() override if set, else the
/// ROARRAY_BACKEND environment choice, else auto (simd when supported,
/// scalar otherwise). Resolved once and cached; ROARRAY_BACKEND=simd on
/// hardware without the features falls back to scalar (recorded in
/// dispatch_info() so the CI leg can skip gracefully).
[[nodiscard]] const Backend& active();

/// Selection provenance for the current active() result.
[[nodiscard]] Dispatch dispatch_info();

/// Comma-separated vector features detected on this CPU at runtime
/// (e.g. "avx2,fma"), independent of what was compiled in. Empty string
/// when none. Stable storage (string literal).
[[nodiscard]] const char* cpu_features();

/// Test hook: force the active table (nullptr restores env/auto
/// selection). Affects the whole process; tests that force a backend
/// must restore it. Safe to call concurrently with active().
void force(const Backend* be);

}  // namespace roarray::linalg::backend
