// The portable backend: today's hand-separated real-arithmetic kernels,
// moved here verbatim from linalg/gemm.cpp, sparse/prox.hpp and
// dsp/steering.cpp. The loops moved but the arithmetic (expression
// trees, traversal order, zero-skips) did not, so this table reproduces
// the pre-backend results bit-for-bit. Keep it that way: the golden
// corpus and the cross-backend differential tests both anchor on this
// table.
#include "linalg/backend/backend.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

namespace roarray::linalg::backend {

namespace {

/// C(i0:i1, j0:j1) += A(i0:i1, :) B(:, j0:j1) on interleaved storage.
/// Reduction over kk ascends for every (i, j), matching naive matmul.
void gemm_tile(index_t i0, index_t i1, index_t j0, index_t j1, index_t m,
               index_t k, const cxd* a, const cxd* b, cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * k;
    double* cj = reinterpret_cast<double*>(c + j * m);
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t i = i0; i < i1; ++i) {
        const double ar = ak[2 * i];
        const double ai = ak[2 * i + 1];
        cj[2 * i] += ar * br - ai * bi;
        cj[2 * i + 1] += ar * bi + ai * br;
      }
    }
  }
}

/// C(:, j0:j1) = A B(:, j0:j1) for an A with a compile-time row count.
/// The Kronecker fast path spends most of its time in GEMMs whose output
/// has only a few rows (the antenna count M, or M times the snapshot
/// count); the generic tile reloads and restores the C column on every
/// step of the k reduction there. Keeping the whole column in a
/// fixed-size accumulator removes that traffic. Reduction order and the
/// zero-skip match gemm_tile exactly, so results are bit-identical.
template <int M>
void gemm_cols_small(index_t j0, index_t j1, index_t k, const cxd* a,
                     const cxd* b, cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * k;
    double acc[2 * M] = {};
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const double* ak = reinterpret_cast<const double*>(a + kk * M);
      for (int i = 0; i < M; ++i) {
        acc[2 * i] += ak[2 * i] * br - ak[2 * i + 1] * bi;
        acc[2 * i + 1] += ak[2 * i] * bi + ak[2 * i + 1] * br;
      }
    }
    std::memcpy(c + j * M, acc, sizeof(acc));
  }
}

using SmallKernel = void (*)(index_t, index_t, index_t, const cxd*,
                             const cxd*, cxd*);

template <int... Ms>
constexpr std::array<SmallKernel, sizeof...(Ms)> small_kernel_table(
    std::integer_sequence<int, Ms...>) {
  return {&gemm_cols_small<Ms + 1>...};
}

constexpr auto kSmallKernels =
    small_kernel_table(std::make_integer_sequence<int, kSmallRowLimit>{});

void gemm_cols(index_t m, index_t j0, index_t j1, index_t k, const cxd* a,
               const cxd* b, cxd* c) {
  kSmallKernels[static_cast<std::size_t>(m - 1)](j0, j1, k, a, b, c);
}

/// C(:, j0:j1) = A B(:, j0:j1) for a compile-time reduction depth K.
/// This is the Kronecker adjoint's final product (tall output, inner
/// dimension = the antenna count). The loop structure is the generic
/// tile's (vectorizable contiguous sweep over the C column per
/// reduction step, ascending as always), but the first step stores
/// instead of accumulating — no memset of C and one fewer read pass
/// per column. Zero B entries are not skipped here: their terms are
/// exact +/-0, which leaves every sum's value unchanged versus the
/// zero-skipping kernels (only the sign of an all-zero sum can
/// differ).
template <int K>
void gemm_cols_small_depth(index_t m, index_t j0, index_t j1, const cxd* a,
                           const cxd* b, cxd* c) {
  const double* ad = reinterpret_cast<const double*>(a);
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * K;
    double* cj = reinterpret_cast<double*>(c + j * m);
    {
      const double br = bj[0].real();
      const double bi = bj[0].imag();
      for (index_t i = 0; i < m; ++i) {
        const double ar = ad[2 * i];
        const double ai = ad[2 * i + 1];
        cj[2 * i] = ar * br - ai * bi;
        cj[2 * i + 1] = ar * bi + ai * br;
      }
    }
    for (int kk = 1; kk < K; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      const double* ak = ad + 2 * kk * m;
      for (index_t i = 0; i < m; ++i) {
        const double ar = ak[2 * i];
        const double ai = ak[2 * i + 1];
        cj[2 * i] += ar * br - ai * bi;
        cj[2 * i + 1] += ar * bi + ai * br;
      }
    }
  }
}

using SmallDepthKernel = void (*)(index_t, index_t, index_t, const cxd*,
                                  const cxd*, cxd*);

template <int... Ks>
constexpr std::array<SmallDepthKernel, sizeof...(Ks)> small_depth_table(
    std::integer_sequence<int, Ks...>) {
  return {&gemm_cols_small_depth<Ks + 1>...};
}

constexpr auto kSmallDepthKernels =
    small_depth_table(std::make_integer_sequence<int, kSmallDepthLimit>{});

void gemm_cols_depth(index_t m, index_t j0, index_t j1, index_t k,
                     const cxd* a, const cxd* b, cxd* c) {
  kSmallDepthKernels[static_cast<std::size_t>(k - 1)](m, j0, j1, a, b, c);
}

/// C(i0:i1, j0:j1) = A(:, i0:i1)^H B(:, j0:j1): contiguous dot products
/// down the shared k dimension, ascending like naive matmul_adj_left.
void gemm_adj_tile(index_t i0, index_t i1, index_t j0, index_t j1,
                   index_t m, index_t k, const cxd* a, const cxd* b,
                   cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const double* bj = reinterpret_cast<const double*>(b + j * k);
    cxd* cj = c + j * m;
    for (index_t i = i0; i < i1; ++i) {
      const double* ai = reinterpret_cast<const double*>(a + i * k);
      double sr = 0.0;
      double si = 0.0;
      for (index_t kk = 0; kk < k; ++kk) {
        const double ar = ai[2 * kk];
        const double aim = ai[2 * kk + 1];
        const double brr = bj[2 * kk];
        const double bii = bj[2 * kk + 1];
        sr += ar * brr + aim * bii;
        si += ar * bii - aim * brr;
      }
      cj[i] = cxd{sr, si};
    }
  }
}

/// Complex soft-thresholding: shrink each magnitude by t, preserving
/// phase (the prox.hpp loop; std::abs on complex is hypot-based, which
/// is the reference the simd squared-compare is measured against).
void soft_threshold(cxd* x, index_t n, double t) {
  for (index_t i = 0; i < n; ++i) {
    const double mag = std::abs(x[i]);
    if (mag <= t) {
      x[i] = cxd{};
    } else {
      x[i] *= (1.0 - t / mag);
    }
  }
}

/// acc[i] += |col[i]|^2, the column-major row-norm sweep of the group
/// prox and the l2,1 norm.
void row_sq_accumulate(const cxd* col, index_t n, double* acc) {
  const double* cj = reinterpret_cast<const double*>(col);
  for (index_t i = 0; i < n; ++i) {
    acc[i] += cj[2 * i] * cj[2 * i] + cj[2 * i + 1] * cj[2 * i + 1];
  }
}

/// col[i] *= scale[i], with scale[i] < 0 marking "write exact zero".
void row_scale(cxd* col, index_t n, const double* scale) {
  double* cj = reinterpret_cast<double*>(col);
  for (index_t i = 0; i < n; ++i) {
    const double s = scale[i];
    if (s < 0.0) {
      cj[2 * i] = 0.0;
      cj[2 * i + 1] = 0.0;
    } else {
      cj[2 * i] *= s;
      cj[2 * i + 1] *= s;
    }
  }
}

/// out[i] = scale * step^i via the running-product recurrence — the
/// exact expression steering_joint_sub evaluates (scale enters each
/// element as one multiply; the recurrence itself is never scaled, so
/// error does not compound through scale).
void phase_ramp(cxd scale, cxd step, index_t n, cxd* out) {
  cxd lm{1.0, 0.0};
  for (index_t i = 0; i < n; ++i) {
    out[i] = scale * lm;
    lm *= step;
  }
}

/// out[i] += scale * step^i (the CSI synthesis accumulation).
void phase_ramp_accum(cxd scale, cxd step, index_t n, cxd* out) {
  cxd lm{1.0, 0.0};
  for (index_t i = 0; i < n; ++i) {
    out[i] += scale * lm;
    lm *= step;
  }
}

/// The fused FISTA pass (backend.hpp): one sweep per ToA column over
/// the AoA cells. The gradient entries ascend over antennas like the
/// fixed-depth adjoint GEMM; the forward partials ascend over cells.
/// The step values are parked in x_new between the row-norm sweep and
/// the shrink, so no scratch is needed for any snapshot count.
void fista_pass(const FistaPass& a, index_t j0, index_t j1, FistaSums& sums) {
  const index_t m = a.m;
  const index_t nl = a.nl;
  const index_t k = a.k;
  const index_t mk = m * k;
  const double* ld = reinterpret_cast<const double*>(a.left_adj);
  const double* xd = reinterpret_cast<const double*>(a.x);
  const double* qd = reinterpret_cast<const double*>(a.x_prev);
  double* nd = reinterpret_cast<double*>(a.x_new);
  double diff_sq = 0.0;
  double new_sq = 0.0;
  double l21 = 0.0;
  for (index_t j = j0; j < j1; ++j) {
    const double* pj = reinterpret_cast<const double*>(a.p + j * mk);
    double* bj = reinterpret_cast<double*>(a.b + j * mk);
    std::fill(bj, bj + 2 * mk, 0.0);
    for (index_t i = 0; i < nl; ++i) {
      const index_t cell = j * nl + i;
      double norm_sq = 0.0;
      for (index_t c = 0; c < k; ++c) {
        const double* pc = pj + 2 * c * m;
        double gr = 0.0;
        double gi = 0.0;
        for (index_t r = 0; r < m; ++r) {
          const double ar = ld[2 * (r * nl + i)];
          const double ai = ld[2 * (r * nl + i) + 1];
          gr += ar * pc[2 * r] - ai * pc[2 * r + 1];
          gi += ar * pc[2 * r + 1] + ai * pc[2 * r];
        }
        const index_t e = 2 * (c * a.n + cell);
        const double zr = xd[e] + a.beta * (xd[e] - qd[e]);
        const double zi = xd[e + 1] + a.beta * (xd[e + 1] - qd[e + 1]);
        const double vr = zr - a.step * gr;
        const double vi = zi - a.step * gi;
        nd[e] = vr;
        nd[e + 1] = vi;
        norm_sq += vr * vr + vi * vi;
      }
      const double norm = std::sqrt(norm_sq);
      if (norm <= a.shrink) {
        for (index_t c = 0; c < k; ++c) {
          const index_t e = 2 * (c * a.n + cell);
          diff_sq += xd[e] * xd[e] + xd[e + 1] * xd[e + 1];
          nd[e] = 0.0;
          nd[e + 1] = 0.0;
        }
        continue;  // zero row: no forward contribution
      }
      const double s = 1.0 - a.shrink / norm;
      l21 += norm * s;
      for (index_t c = 0; c < k; ++c) {
        const index_t e = 2 * (c * a.n + cell);
        const double vr = nd[e] * s;
        const double vi = nd[e + 1] * s;
        nd[e] = vr;
        nd[e + 1] = vi;
        const double dr = vr - xd[e];
        const double di = vi - xd[e + 1];
        diff_sq += dr * dr + di * di;
        new_sq += vr * vr + vi * vi;
        // b(c * M + r, j) += L(r, i) x_new, with L(r, i) = conj(L^H(i, r)).
        double* bc = bj + 2 * c * m;
        for (index_t r = 0; r < m; ++r) {
          const double ar = ld[2 * (r * nl + i)];
          const double ai = ld[2 * (r * nl + i) + 1];
          bc[2 * r] += ar * vr + ai * vi;
          bc[2 * r + 1] += ar * vi - ai * vr;
        }
      }
    }
  }
  sums.diff_sq = diff_sq;
  sums.new_sq = new_sq;
  sums.l21 = l21;
}

constexpr Backend kScalar = {
    "scalar",        &gemm_tile, &gemm_cols,         &gemm_cols_depth,
    &gemm_adj_tile,  &soft_threshold, &row_sq_accumulate, &row_scale,
    &phase_ramp,     &phase_ramp_accum, &fista_pass,
};

}  // namespace

const Backend& scalar() { return kScalar; }

}  // namespace roarray::linalg::backend
