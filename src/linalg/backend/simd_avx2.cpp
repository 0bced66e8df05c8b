// AVX2+FMA backend. Compiled only on x86-64 with -mavx2 -mfma (the
// CMake list adds this TU per-source); backend.cpp gates table
// publication behind a runtime CPU check so the binary still runs on
// machines without the units.
//
// Layout notes. All buffers are interleaved (re, im) column-major, so
// one 256-bit lane holds two complex numbers. Two access schemes are
// used:
//   * interleaved: keep (re, im) adjacent and multiply by a broadcast
//     complex via one permute + two FMAs per vector
//     (gemm_cols/gemm_cols_depth/phase_ramp) — cheap for streaming
//     kernels whose b-scalar is reused across a whole column;
//   * planar: deinterleave four complex rows into a real and an
//     imaginary register via unpacklo/unpackhi (lane order is permuted
//     but consistent between the two, and folds back with the same
//     unpacks), so the GEMM inner loop is pure FMA with no shuffle
//     traffic (gemm_tile).
//
// Determinism: nothing here depends on the thread count — the tile
// partition comes from the caller, and every reduction (including the
// fixed-order horizontal folds in gemm_adj_tile) is a deterministic
// function of the operand shapes. Differences vs the scalar table are
// rounding-only and bounded by the per-kernel tolerances in
// backend.hpp, with two documented exceptions (squared-magnitude
// underflow in soft_threshold; zero-skip granularity in gemm_tile,
// which skips only all-zero B row groups so a zero B entry next to a
// nonzero one contributes exact +/-0 terms).
#include "linalg/backend/backend.hpp"

#if !defined(__x86_64__) || !defined(__AVX2__) || !defined(__FMA__)
#error "simd_avx2.cpp must be compiled on x86-64 with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

namespace roarray::linalg::backend {

namespace {

// k-chunk length for gemm_tile: bounds the A panel slice live in L2
// between C-accumulator spills (128 rows x 256 depth x 16 B = 512 KB
// worst case, typically far less because callers tile rows at 128).
constexpr index_t kKc = 256;

/// One j-group of the generic tile: C(i0:i1, j0..j0+NR) +=
/// A(i0:i1, kc:kend) B(kc:kend, j0..j0+NR). Four complex rows are
/// deinterleaved into planar registers; per reduction step the inner
/// body is 4 FMAs per column with no shuffles. Skips a reduction step
/// only when ALL NR b-entries are exactly zero — this still captures
/// the row-sparse iterates the zero-skip exists for (the group prox
/// zeros whole rows of B at once).
template <int NR>
void tile_panel(index_t i0, index_t i1, index_t j0, index_t kc, index_t kend,
                index_t m, index_t k, const cxd* a, const cxd* b, cxd* c) {
  // Planar repack of the B panel, once per (column group, k-chunk):
  // the i-loop below revisits every reduction step per row group, and
  // broadcasting from a hot contiguous pack beats re-reading the
  // strided B columns every time. nzf caches the zero-skip verdict.
  alignas(64) double brp[kKc * NR];
  alignas(64) double bip[kKc * NR];
  unsigned char nzf[kKc];
  const index_t klen = kend - kc;
  for (index_t kk = 0; kk < klen; ++kk) {
    bool any = false;
    for (int jj = 0; jj < NR; ++jj) {
      const cxd bv = b[(j0 + jj) * k + kc + kk];
      brp[kk * NR + jj] = bv.real();
      bip[kk * NR + jj] = bv.imag();
      any = any || bv.real() != 0.0 || bv.imag() != 0.0;
    }
    nzf[kk] = any ? 1 : 0;
  }
  // One named accumulator pair per column, fully unrolled: gcc keeps
  // named locals in ymm registers but spills a loop-indexed __m256d[NR]
  // to the stack (8 reloads + 8 stores per reduction step — measured
  // ~2x slower), so the jj loop is written out via these macros.
#define ROARRAY_TP_MAC(JJ)                                   \
  do {                                                       \
    const __m256d vbr = _mm256_broadcast_sd(brow + (JJ));    \
    const __m256d vbi = _mm256_broadcast_sd(birow + (JJ));   \
    cre##JJ = _mm256_fmadd_pd(are, vbr, cre##JJ);            \
    cre##JJ = _mm256_fnmadd_pd(aim, vbi, cre##JJ);           \
    cim##JJ = _mm256_fmadd_pd(are, vbi, cim##JJ);            \
    cim##JJ = _mm256_fmadd_pd(aim, vbr, cim##JJ);            \
  } while (0)
  // The unpacks that split (re, im) also interleave them back:
  // lo = rows i, i+1 and hi = rows i+2, i+3 in storage order.
#define ROARRAY_TP_STORE(JJ)                                           \
  do {                                                                 \
    double* cj = reinterpret_cast<double*>(c + (j0 + (JJ)) * m);       \
    const __m256d lo = _mm256_unpacklo_pd(cre##JJ, cim##JJ);           \
    const __m256d hi = _mm256_unpackhi_pd(cre##JJ, cim##JJ);           \
    _mm256_storeu_pd(cj + 2 * i,                                       \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i), lo));  \
    _mm256_storeu_pd(cj + 2 * i + 4,                                   \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i + 4), hi)); \
  } while (0)
  index_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    __m256d cre0 = _mm256_setzero_pd(), cim0 = _mm256_setzero_pd();
    [[maybe_unused]] __m256d cre1 = cre0, cim1 = cre0;
    [[maybe_unused]] __m256d cre2 = cre0, cim2 = cre0;
    [[maybe_unused]] __m256d cre3 = cre0, cim3 = cre0;
    for (index_t kk = 0; kk < klen; ++kk) {
      if (!nzf[kk]) continue;  // all-zero B row group: matmul's zero-skip
      const double* ak = reinterpret_cast<const double*>(a + (kc + kk) * m);
      const __m256d a0 = _mm256_loadu_pd(ak + 2 * i);
      const __m256d a1 = _mm256_loadu_pd(ak + 2 * i + 4);
      const __m256d are = _mm256_unpacklo_pd(a0, a1);  // rows i,i+2,i+1,i+3
      const __m256d aim = _mm256_unpackhi_pd(a0, a1);  // same permuted order
      const double* brow = brp + kk * NR;
      const double* birow = bip + kk * NR;
      ROARRAY_TP_MAC(0);
      if constexpr (NR > 1) ROARRAY_TP_MAC(1);
      if constexpr (NR > 2) ROARRAY_TP_MAC(2);
      if constexpr (NR > 3) ROARRAY_TP_MAC(3);
    }
    ROARRAY_TP_STORE(0);
    if constexpr (NR > 1) ROARRAY_TP_STORE(1);
    if constexpr (NR > 2) ROARRAY_TP_STORE(2);
    if constexpr (NR > 3) ROARRAY_TP_STORE(3);
  }
#undef ROARRAY_TP_MAC
#undef ROARRAY_TP_STORE
  // Row tail (i1 - i < 4): the scalar kernel restricted to these rows,
  // per-entry zero-skip and all — the same rows land here on every
  // call, so the table stays deterministic.
  for (int jj = 0; jj < NR; ++jj) {
    const cxd* bj = b + (j0 + jj) * k;
    double* cj = reinterpret_cast<double*>(c + (j0 + jj) * m);
    for (index_t kk = kc; kk < kend; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t ii = i; ii < i1; ++ii) {
        const double ar = ak[2 * ii];
        const double ai = ak[2 * ii + 1];
        cj[2 * ii] += ar * br - ai * bi;
        cj[2 * ii + 1] += ar * bi + ai * br;
      }
    }
  }
}

// Column-chunk width for the packed fast path below: bounds the B pack
// at 2 x kKc x kJc doubles (128 KB) of stack.
constexpr index_t kJc = 32;

/// Packed fast path: C(i0:i1, jc:jc+4*ngroups) += A(i0:i1, kc:kend)
/// B(kc:kend, ...) with BOTH operands repacked planar. B is packed once
/// per (column chunk, k-chunk); each four-row A quad is packed once and
/// reused across every column group, turning the stride-m A walk into
/// contiguous aligned loads (the strided walk defeats the hardware
/// prefetcher past each 4 KB page and was the measured bottleneck).
/// Accumulation per output element is unchanged: ascending kk, one
/// visit per (element, chunk).
void tile_packed(index_t i0, index_t i1, index_t jc, index_t ngroups,
                 index_t kc, index_t kend, index_t m, index_t k,
                 const cxd* a, const cxd* b, cxd* c) {
  alignas(64) double brp[kKc * kJc];
  alignas(64) double bip[kKc * kJc];
  alignas(64) double apre[kKc * 4];
  alignas(64) double apim[kKc * 4];
  unsigned char nzf[(kJc / 4) * kKc];   // per-group zero-skip verdicts
  unsigned char nzany[kKc];             // OR over groups: skip the A pack too
  const index_t klen = kend - kc;
  std::memset(nzany, 0, static_cast<std::size_t>(klen));
  for (index_t g = 0; g < ngroups; ++g) {
    for (index_t kk = 0; kk < klen; ++kk) {
      bool any = false;
      for (index_t jj = 0; jj < 4; ++jj) {
        const cxd bv = b[(jc + 4 * g + jj) * k + kc + kk];
        brp[(g * kKc + kk) * 4 + jj] = bv.real();
        bip[(g * kKc + kk) * 4 + jj] = bv.imag();
        any = any || bv.real() != 0.0 || bv.imag() != 0.0;
      }
      nzf[g * kKc + kk] = any ? 1 : 0;
      nzany[kk] |= nzf[g * kKc + kk];
    }
  }
#define ROARRAY_TP_MAC(JJ)                                   \
  do {                                                       \
    const __m256d vbr = _mm256_broadcast_sd(brow + (JJ));    \
    const __m256d vbi = _mm256_broadcast_sd(birow + (JJ));   \
    cre##JJ = _mm256_fmadd_pd(are, vbr, cre##JJ);            \
    cre##JJ = _mm256_fnmadd_pd(aim, vbi, cre##JJ);           \
    cim##JJ = _mm256_fmadd_pd(are, vbi, cim##JJ);            \
    cim##JJ = _mm256_fmadd_pd(aim, vbr, cim##JJ);            \
  } while (0)
#define ROARRAY_TP_STORE(JJ)                                           \
  do {                                                                 \
    double* cj = reinterpret_cast<double*>(c + (j + (JJ)) * m);        \
    const __m256d lo = _mm256_unpacklo_pd(cre##JJ, cim##JJ);           \
    const __m256d hi = _mm256_unpackhi_pd(cre##JJ, cim##JJ);           \
    _mm256_storeu_pd(cj + 2 * i,                                       \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i), lo));  \
    _mm256_storeu_pd(cj + 2 * i + 4,                                   \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i + 4), hi)); \
  } while (0)
  index_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    // Planar A quad: rows i..i+3 of the chunk, deinterleaved once. The
    // in-lane unpack order (i, i+2, i+1, i+3) is the same one the store
    // unpacks fold back, so it never leaks. kk steps that every group
    // skips are never read (their pack slots stay stale and unread).
    for (index_t kk = 0; kk < klen; ++kk) {
      if (!nzany[kk]) continue;
      const double* ak = reinterpret_cast<const double*>(a + (kc + kk) * m);
      const __m256d a0 = _mm256_loadu_pd(ak + 2 * i);
      const __m256d a1 = _mm256_loadu_pd(ak + 2 * i + 4);
      _mm256_store_pd(apre + 4 * kk, _mm256_unpacklo_pd(a0, a1));
      _mm256_store_pd(apim + 4 * kk, _mm256_unpackhi_pd(a0, a1));
    }
    for (index_t g = 0; g < ngroups; ++g) {
      const index_t j = jc + 4 * g;
      const unsigned char* gz = nzf + g * kKc;
      const double* gbr = brp + g * kKc * 4;
      const double* gbi = bip + g * kKc * 4;
      __m256d cre0 = _mm256_setzero_pd(), cim0 = _mm256_setzero_pd();
      __m256d cre1 = cre0, cim1 = cre0;
      __m256d cre2 = cre0, cim2 = cre0;
      __m256d cre3 = cre0, cim3 = cre0;
      for (index_t kk = 0; kk < klen; ++kk) {
        if (!gz[kk]) continue;  // all-zero B row group: matmul's zero-skip
        const __m256d are = _mm256_load_pd(apre + 4 * kk);
        const __m256d aim = _mm256_load_pd(apim + 4 * kk);
        const double* brow = gbr + 4 * kk;
        const double* birow = gbi + 4 * kk;
        ROARRAY_TP_MAC(0);
        ROARRAY_TP_MAC(1);
        ROARRAY_TP_MAC(2);
        ROARRAY_TP_MAC(3);
      }
      ROARRAY_TP_STORE(0);
      ROARRAY_TP_STORE(1);
      ROARRAY_TP_STORE(2);
      ROARRAY_TP_STORE(3);
    }
  }
#undef ROARRAY_TP_MAC
#undef ROARRAY_TP_STORE
  // Row tail (i1 - i < 4): the scalar kernel restricted to these rows,
  // per-entry zero-skip and all — the same rows land here on every
  // call, so the table stays deterministic.
  for (index_t j = jc; j < jc + 4 * ngroups; ++j) {
    const cxd* bj = b + j * k;
    double* cj = reinterpret_cast<double*>(c + j * m);
    for (index_t kk = kc; kk < kend; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t ii = i; ii < i1; ++ii) {
        const double ar = ak[2 * ii];
        const double ai = ak[2 * ii + 1];
        cj[2 * ii] += ar * br - ai * bi;
        cj[2 * ii + 1] += ar * bi + ai * br;
      }
    }
  }
}

void gemm_tile(index_t i0, index_t i1, index_t j0, index_t j1, index_t m,
               index_t k, const cxd* a, const cxd* b, cxd* c) {
  // Chunk columns (bounds the B pack) then the reduction (keeps the A
  // slice L2-resident between C-accumulator spills); per output element
  // the chunks, and the steps inside each chunk, still accumulate in
  // ascending k order, and the partition depends only on the shapes.
  for (index_t jc = j0; jc < j1; jc += kJc) {
    const index_t jend = std::min(j1, jc + kJc);
    const index_t ngroups = (jend - jc) / 4;
    const index_t jt = jc + 4 * ngroups;  // first tail column (< 4 left)
    for (index_t kc = 0; kc < k; kc += kKc) {
      const index_t kend = std::min(k, kc + kKc);
      if (ngroups > 0) {
        tile_packed(i0, i1, jc, ngroups, kc, kend, m, k, a, b, c);
      }
      switch (jend - jt) {
        case 3: tile_panel<3>(i0, i1, jt, kc, kend, m, k, a, b, c); break;
        case 2: tile_panel<2>(i0, i1, jt, kc, kend, m, k, a, b, c); break;
        case 1: tile_panel<1>(i0, i1, jt, kc, kend, m, k, a, b, c); break;
        default: break;
      }
    }
  }
}

// Sign mask [-0, +0, -0, +0]: xor-ing a broadcast bi produces
// [-bi, +bi, ...], the multiplier that turns one permute + FMA into a
// complex multiply-accumulate on interleaved lanes.
#define ROARRAY_SIGN_EVEN() _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)

/// C(:, j0:j1) = A B(:, j0:j1) for a compile-time row count M <= 16.
/// Whole C column lives in registers (ceil(M/2) vectors); per reduction
/// step: one contiguous A-column load, one in-lane permute, two FMAs
/// per vector. Zero-skip matches the scalar kernel per entry.
template <int M>
void cols_kernel(index_t j0, index_t j1, index_t k, const cxd* a,
                 const cxd* b, cxd* c) {
  constexpr int NV = M / 2;           // full 2-complex vectors
  constexpr bool kTail = (M % 2) != 0;  // odd row count: one xmm lane
  const __m256d sign = ROARRAY_SIGN_EVEN();
  const double* ad = reinterpret_cast<const double*>(a);
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * k;
    __m256d acc[NV > 0 ? NV : 1];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
    [[maybe_unused]] __m128d tacc = _mm_setzero_pd();
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const __m256d vbr = _mm256_set1_pd(br);
      const __m256d vbi = _mm256_xor_pd(_mm256_set1_pd(bi), sign);
      const double* ak = ad + 2 * kk * M;
      for (int v = 0; v < NV; ++v) {
        const __m256d va = _mm256_loadu_pd(ak + 4 * v);
        acc[v] = _mm256_fmadd_pd(va, vbr, acc[v]);
        acc[v] = _mm256_fmadd_pd(_mm256_permute_pd(va, 0x5), vbi, acc[v]);
      }
      if constexpr (kTail) {
        const __m128d ta = _mm_loadu_pd(ak + 4 * NV);
        tacc = _mm_fmadd_pd(ta, _mm_set1_pd(br), tacc);
        tacc = _mm_fmadd_pd(_mm_shuffle_pd(ta, ta, 0x1),
                            _mm_setr_pd(-bi, bi), tacc);
      }
    }
    double* cj = reinterpret_cast<double*>(c + j * M);
    for (int v = 0; v < NV; ++v) _mm256_storeu_pd(cj + 4 * v, acc[v]);
    if constexpr (kTail) _mm_storeu_pd(cj + 4 * NV, tacc);
  }
}

using ColsKernel = void (*)(index_t, index_t, index_t, const cxd*,
                            const cxd*, cxd*);

template <int... Ms>
constexpr std::array<ColsKernel, sizeof...(Ms)> cols_table(
    std::integer_sequence<int, Ms...>) {
  return {&cols_kernel<Ms + 1>...};
}

constexpr auto kColsKernels =
    cols_table(std::make_integer_sequence<int, kSmallRowLimit>{});

void gemm_cols(index_t m, index_t j0, index_t j1, index_t k, const cxd* a,
               const cxd* b, cxd* c) {
  kColsKernels[static_cast<std::size_t>(m - 1)](j0, j1, k, a, b, c);
}

/// C(:, j0:j1) = A B(:, j0:j1) for k <= 8: the B factors are hoisted
/// into per-depth broadcast registers once per column, then each C
/// vector is produced in one pass over the k contiguous A columns. No
/// zero-skip, matching the scalar fixed-depth kernel (exact +/-0
/// terms).
void gemm_cols_depth(index_t m, index_t j0, index_t j1, index_t k,
                     const cxd* a, const cxd* b, cxd* c) {
  const __m256d sign = ROARRAY_SIGN_EVEN();
  const double* ad = reinterpret_cast<const double*>(a);
  __m256d vbr[kSmallDepthLimit] = {};
  __m256d vbi[kSmallDepthLimit] = {};
  __m128d tbr[kSmallDepthLimit] = {};
  __m128d tbi[kSmallDepthLimit] = {};
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * k;
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      vbr[kk] = _mm256_set1_pd(br);
      vbi[kk] = _mm256_xor_pd(_mm256_set1_pd(bi), sign);
      tbr[kk] = _mm_set1_pd(br);
      tbi[kk] = _mm_setr_pd(-bi, bi);
    }
    double* cj = reinterpret_cast<double*>(c + j * m);
    index_t i = 0;
    for (; i + 2 <= m; i += 2) {
      __m256d acc = _mm256_setzero_pd();
      for (index_t kk = 0; kk < k; ++kk) {
        const __m256d va = _mm256_loadu_pd(ad + 2 * kk * m + 2 * i);
        acc = _mm256_fmadd_pd(va, vbr[kk], acc);
        acc = _mm256_fmadd_pd(_mm256_permute_pd(va, 0x5), vbi[kk], acc);
      }
      _mm256_storeu_pd(cj + 2 * i, acc);
    }
    if (i < m) {  // odd row count: final complex in an xmm lane
      __m128d acc = _mm_setzero_pd();
      for (index_t kk = 0; kk < k; ++kk) {
        const __m128d ta = _mm_loadu_pd(ad + 2 * kk * m + 2 * i);
        acc = _mm_fmadd_pd(ta, tbr[kk], acc);
        acc = _mm_fmadd_pd(_mm_shuffle_pd(ta, ta, 0x1), tbi[kk], acc);
      }
      _mm_storeu_pd(cj + 2 * i, acc);
    }
  }
}

/// C(i0:i1, j0:j1) = A(:, i0:i1)^H B(:, j0:j1). Each dot product keeps
/// two vector accumulators (aligned and swapped products) over the
/// contiguous k dimension; the horizontal fold at the end runs in one
/// fixed order, so results depend only on the shapes (NOT on the thread
/// count), but the lane-split partial sums round differently from the
/// scalar ascending sum — rounding-tolerance only.
void gemm_adj_tile(index_t i0, index_t i1, index_t j0, index_t j1,
                   index_t m, index_t k, const cxd* a, const cxd* b,
                   cxd* c) {
  const __m256d sign_odd = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  for (index_t j = j0; j < j1; ++j) {
    const double* bj = reinterpret_cast<const double*>(b + j * k);
    cxd* cj = c + j * m;
    for (index_t i = i0; i < i1; ++i) {
      const double* ai = reinterpret_cast<const double*>(a + i * k);
      __m256d acc1 = _mm256_setzero_pd();  // lanes: ar*br, aim*bii
      __m256d acc2 = _mm256_setzero_pd();  // lanes: ar*bii, aim*br
      index_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const __m256d va = _mm256_loadu_pd(ai + 2 * kk);
        const __m256d vb = _mm256_loadu_pd(bj + 2 * kk);
        acc1 = _mm256_fmadd_pd(va, vb, acc1);
        acc2 = _mm256_fmadd_pd(va, _mm256_permute_pd(vb, 0x5), acc2);
      }
      // sr = sum of acc1 lanes; si = acc2 with odd lanes negated.
      acc2 = _mm256_xor_pd(acc2, sign_odd);
      const __m128d s1 = _mm_add_pd(_mm256_castpd256_pd128(acc1),
                                    _mm256_extractf128_pd(acc1, 1));
      const __m128d s2 = _mm_add_pd(_mm256_castpd256_pd128(acc2),
                                    _mm256_extractf128_pd(acc2, 1));
      double sr = _mm_cvtsd_f64(s1) + _mm_cvtsd_f64(_mm_unpackhi_pd(s1, s1));
      double si = _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
      for (; kk < k; ++kk) {  // odd reduction tail
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

/// Squared-magnitude soft threshold: |x|^2 <= t^2 replaces |x| <= t, so
/// the (common, on sparse iterates) shrink-to-zero branch never touches
/// sqrt or div — both are skipped wholesale when every lane of a vector
/// shrinks. The unordered-NaN compare keeps NaN elements on the scale
/// branch like the scalar kernel. Documented divergence: |x| small
/// enough that |x|^2 underflows to zero is shrunk here but kept by
/// scalar when t is smaller still.
void soft_threshold(cxd* x, index_t n, double t) {
  double* xd = reinterpret_cast<double*>(x);
  const double t2 = t * t;
  const __m256d vt2 = _mm256_set1_pd(t2);
  const __m256d vt = _mm256_set1_pd(t);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(xd + 2 * i);
    const __m256d sq = _mm256_mul_pd(va, va);
    const __m256d mag2 = _mm256_add_pd(sq, _mm256_permute_pd(sq, 0x5));
    // Keep where mag2 > t2 OR mag2 is NaN (scalar's |x| <= t is false
    // for NaN, so NaN inputs stay on the multiply branch there too).
    const __m256d keep = _mm256_cmp_pd(mag2, vt2, _CMP_NLE_UQ);
    if (_mm256_movemask_pd(keep) == 0) {
      _mm256_storeu_pd(xd + 2 * i, zero);
      continue;
    }
    const __m256d f = _mm256_sub_pd(one, _mm256_div_pd(vt, _mm256_sqrt_pd(mag2)));
    _mm256_storeu_pd(xd + 2 * i,
                     _mm256_and_pd(_mm256_mul_pd(va, f), keep));
  }
  if (i < n) {  // odd tail: same squared-compare semantics as the lanes
    const double xr = xd[2 * i];
    const double xi = xd[2 * i + 1];
    const double m2 = xr * xr + xi * xi;
    if (m2 <= t2) {
      xd[2 * i] = 0.0;
      xd[2 * i + 1] = 0.0;
    } else {
      const double f = 1.0 - t / std::sqrt(m2);
      xd[2 * i] = xr * f;
      xd[2 * i + 1] = xi * f;
    }
  }
}

/// acc[i] += |col[i]|^2 (group-prox row sweep), two rows per step.
void row_sq_accumulate(const cxd* col, index_t n, double* acc) {
  const double* cj = reinterpret_cast<const double*>(col);
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(cj + 2 * i);
    const __m256d sq = _mm256_mul_pd(va, va);
    const __m128d lo = _mm256_castpd256_pd128(sq);
    const __m128d hi = _mm256_extractf128_pd(sq, 1);
    const __m128d s = _mm_add_pd(_mm_unpacklo_pd(lo, hi),
                                 _mm_unpackhi_pd(lo, hi));
    _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i), s));
  }
  for (; i < n; ++i) {
    acc[i] += cj[2 * i] * cj[2 * i] + cj[2 * i + 1] * cj[2 * i + 1];
  }
}

/// col[i] *= scale[i], exact +0 where scale[i] < 0 (the group-prox
/// "zero the row" marker). Same multiplies as scalar: bit-identical.
void row_scale(cxd* col, index_t n, const double* scale) {
  double* cj = reinterpret_cast<double*>(col);
  const __m256d zero = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d s2 = _mm_loadu_pd(scale + i);
    const __m256d vs = _mm256_set_m128d(_mm_unpackhi_pd(s2, s2),
                                        _mm_unpacklo_pd(s2, s2));
    const __m256d lt = _mm256_cmp_pd(vs, zero, _CMP_LT_OQ);
    const __m256d r = _mm256_andnot_pd(
        lt, _mm256_mul_pd(_mm256_loadu_pd(cj + 2 * i), vs));
    _mm256_storeu_pd(cj + 2 * i, r);
  }
  for (; i < n; ++i) {
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

/// out[i] (+)= scale * step^i, four elements per iteration: two
/// two-element chains each advanced by step^4 (one permute, one
/// multiply, one fmaddsub per chain). The chained products drift from
/// the scalar recurrence by O(n eps) — |step| = 1 in every caller, so
/// the products stay O(|scale|).
template <bool Accum>
void phase_ramp_impl(cxd scale, cxd step, index_t n, cxd* out) {
  const cxd p1 = scale * step;
  const cxd p2 = p1 * step;
  const cxd p3 = p2 * step;
  const cxd s2 = step * step;
  const cxd s4 = s2 * s2;
  __m256d v0 = _mm256_setr_pd(scale.real(), scale.imag(), p1.real(), p1.imag());
  __m256d v1 = _mm256_setr_pd(p2.real(), p2.imag(), p3.real(), p3.imag());
  const __m256d cr = _mm256_set1_pd(s4.real());
  const __m256d ci = _mm256_set1_pd(s4.imag());
  double* od = reinterpret_cast<double*>(out);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (Accum) {
      _mm256_storeu_pd(od + 2 * i,
                       _mm256_add_pd(_mm256_loadu_pd(od + 2 * i), v0));
      _mm256_storeu_pd(od + 2 * i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(od + 2 * i + 4), v1));
    } else {
      _mm256_storeu_pd(od + 2 * i, v0);
      _mm256_storeu_pd(od + 2 * i + 4, v1);
    }
    v0 = _mm256_fmaddsub_pd(v0, cr,
                            _mm256_mul_pd(_mm256_permute_pd(v0, 0x5), ci));
    v1 = _mm256_fmaddsub_pd(v1, cr,
                            _mm256_mul_pd(_mm256_permute_pd(v1, 0x5), ci));
  }
  if (i < n) {  // up to three elements left in the chain registers
    alignas(32) double buf[8];
    _mm256_store_pd(buf, v0);
    _mm256_store_pd(buf + 4, v1);
    for (int idx = 0; i < n; ++i, ++idx) {
      const cxd p{buf[2 * idx], buf[2 * idx + 1]};
      if (Accum) {
        out[i] += p;
      } else {
        out[i] = p;
      }
    }
  }
}

void phase_ramp(cxd scale, cxd step, index_t n, cxd* out) {
  phase_ramp_impl<false>(scale, step, n, out);
}

void phase_ramp_accum(cxd scale, cxd step, index_t n, cxd* out) {
  phase_ramp_impl<true>(scale, step, n, out);
}

#undef ROARRAY_SIGN_EVEN

// Largest antenna count and largest M*K whose per-column state the
// fused pass keeps in fixed stack arrays; larger problems run the
// scalar table's kernel.
constexpr index_t kFistaMaxAntennas = kSmallRowLimit;
constexpr index_t kFistaMaxPartials = 64;

/// Sum of the four lanes in one fixed order.
inline double lane_sum(__m256d v) {
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                               _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

/// Load masks for a group of four complex cells of which only the
/// first `width` exist: lo covers cells 0-1, hi cells 2-3.
struct CellMask {
  __m256i lo;
  __m256i hi;
};

inline CellMask cell_mask(index_t width) {
  const auto lane = [width](index_t cell) {
    return cell < width ? std::int64_t{-1} : std::int64_t{0};
  };
  return {_mm256_setr_epi64x(lane(0), lane(0), lane(1), lane(1)),
          _mm256_setr_epi64x(lane(2), lane(2), lane(3), lane(3))};
}

/// Deinterleaves four consecutive complex values into planar (re, im)
/// registers in gemm_tile's permuted lane order (i, i+2, i+1, i+3);
/// the masked form reads only the cells that exist and yields zeros
/// for the rest.
template <bool Masked>
inline void load_planar(const double* p, const CellMask& mask, __m256d& re,
                        __m256d& im) {
  __m256d v0;
  __m256d v1;
  if constexpr (Masked) {
    v0 = _mm256_maskload_pd(p, mask.lo);
    v1 = _mm256_maskload_pd(p + 4, mask.hi);
  } else {
    v0 = _mm256_loadu_pd(p);
    v1 = _mm256_loadu_pd(p + 4);
  }
  re = _mm256_unpacklo_pd(v0, v1);
  im = _mm256_unpackhi_pd(v0, v1);
}

/// Inverse of load_planar.
template <bool Masked>
inline void store_planar(double* p, const CellMask& mask, __m256d re,
                         __m256d im) {
  const __m256d v0 = _mm256_unpacklo_pd(re, im);
  const __m256d v1 = _mm256_unpackhi_pd(re, im);
  if constexpr (Masked) {
    _mm256_maskstore_pd(p, mask.lo, v0);
    _mm256_maskstore_pd(p + 4, mask.hi, v1);
  } else {
    _mm256_storeu_pd(p, v0);
    _mm256_storeu_pd(p + 4, v1);
  }
}

/// Lane state of one fused pass: the deinterleaved L^H columns of the
/// current cell group, the per-(snapshot, antenna) forward partials of
/// the current column, and the running reductions.
struct FistaLanes {
  __m256d lr[kFistaMaxAntennas];
  __m256d li[kFistaMaxAntennas];
  __m256d accr[kFistaMaxPartials];
  __m256d acci[kFistaMaxPartials];
  __m256d diff;
  __m256d new_sq;
  __m256d l21;
};

/// One group of up to four AoA cells starting at cell i of column j.
/// Absent cells (Masked) load as zero rows, which shrink to zero and
/// contribute nothing.
template <bool Masked>
inline void fista_group(const FistaPass& a, const double* pj, index_t j,
                        index_t i, const CellMask& mask, FistaLanes& st) {
  const index_t m = a.m;
  const double* ld = reinterpret_cast<const double*>(a.left_adj);
  const double* xd = reinterpret_cast<const double*>(a.x);
  const double* qd = reinterpret_cast<const double*>(a.x_prev);
  double* nd = reinterpret_cast<double*>(a.x_new);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vshrink = _mm256_set1_pd(a.shrink);
  for (index_t r = 0; r < m; ++r) {
    load_planar<Masked>(ld + 2 * (r * a.nl + i), mask, st.lr[r], st.li[r]);
  }
  const index_t cell = j * a.nl + i;
  __m256d nsq = zero;
  for (index_t c = 0; c < a.k; ++c) {
    const double* pc = pj + 2 * c * m;
    __m256d gr = zero;
    __m256d gi = zero;
    for (index_t r = 0; r < m; ++r) {
      const __m256d pr = _mm256_broadcast_sd(pc + 2 * r);
      const __m256d pi = _mm256_broadcast_sd(pc + 2 * r + 1);
      gr = _mm256_fmadd_pd(st.lr[r], pr, gr);
      gr = _mm256_fnmadd_pd(st.li[r], pi, gr);
      gi = _mm256_fmadd_pd(st.lr[r], pi, gi);
      gi = _mm256_fmadd_pd(st.li[r], pr, gi);
    }
    const index_t e = 2 * (c * a.n + cell);
    __m256d xr, xi, qr, qi;
    load_planar<Masked>(xd + e, mask, xr, xi);
    load_planar<Masked>(qd + e, mask, qr, qi);
    const __m256d vbeta = _mm256_set1_pd(a.beta);
    const __m256d vstep = _mm256_set1_pd(a.step);
    const __m256d zr = _mm256_fmadd_pd(vbeta, _mm256_sub_pd(xr, qr), xr);
    const __m256d zi = _mm256_fmadd_pd(vbeta, _mm256_sub_pd(xi, qi), xi);
    const __m256d vr = _mm256_fnmadd_pd(vstep, gr, zr);
    const __m256d vi = _mm256_fnmadd_pd(vstep, gi, zi);
    nsq = _mm256_fmadd_pd(vr, vr, nsq);
    nsq = _mm256_fmadd_pd(vi, vi, nsq);
    store_planar<Masked>(nd + e, mask, vr, vi);  // parked until the shrink
  }
  const __m256d norm = _mm256_sqrt_pd(nsq);
  const __m256d keep = _mm256_cmp_pd(norm, vshrink, _CMP_NLE_UQ);
  if (_mm256_movemask_pd(keep) == 0) {  // all zero rows: no forward work
    for (index_t c = 0; c < a.k; ++c) {
      const index_t e = 2 * (c * a.n + cell);
      __m256d xr, xi;
      load_planar<Masked>(xd + e, mask, xr, xi);
      st.diff = _mm256_fmadd_pd(xr, xr, st.diff);
      st.diff = _mm256_fmadd_pd(xi, xi, st.diff);
      store_planar<Masked>(nd + e, mask, zero, zero);
    }
    return;
  }
  const __m256d sc = _mm256_and_pd(
      _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_div_pd(vshrink, norm)), keep);
  st.l21 = _mm256_fmadd_pd(norm, sc, st.l21);
  for (index_t c = 0; c < a.k; ++c) {
    const index_t e = 2 * (c * a.n + cell);
    __m256d vr, vi, xr, xi;
    load_planar<Masked>(nd + e, mask, vr, vi);
    // and-with-keep writes exact +0 on shrunk lanes (scalar's zero).
    vr = _mm256_and_pd(_mm256_mul_pd(vr, sc), keep);
    vi = _mm256_and_pd(_mm256_mul_pd(vi, sc), keep);
    store_planar<Masked>(nd + e, mask, vr, vi);
    load_planar<Masked>(xd + e, mask, xr, xi);
    const __m256d dr = _mm256_sub_pd(vr, xr);
    const __m256d di = _mm256_sub_pd(vi, xi);
    st.diff = _mm256_fmadd_pd(dr, dr, st.diff);
    st.diff = _mm256_fmadd_pd(di, di, st.diff);
    st.new_sq = _mm256_fmadd_pd(vr, vr, st.new_sq);
    st.new_sq = _mm256_fmadd_pd(vi, vi, st.new_sq);
    // b(c * M + r, j) += L(r, i) x_new, with L = conj(L^H).
    __m256d* ar = st.accr + c * m;
    __m256d* ai = st.acci + c * m;
    for (index_t r = 0; r < m; ++r) {
      ar[r] = _mm256_fmadd_pd(st.lr[r], vr, ar[r]);
      ar[r] = _mm256_fmadd_pd(st.li[r], vi, ar[r]);
      ai[r] = _mm256_fmadd_pd(st.lr[r], vi, ai[r]);
      ai[r] = _mm256_fnmadd_pd(st.li[r], vr, ai[r]);
    }
  }
}

/// Fused FISTA pass (backend.hpp), four AoA cells per vector in planar
/// form. The L^H columns of a cell group are deinterleaved once and
/// serve both the gradient and the forward partials (L = conj(L^H)).
/// The forward partials sum in per-lane accumulators that fold into b
/// once per column in a fixed order; the N_l mod 4 cell tail runs the
/// same body with masked loads and stores. The shrink compare is
/// unordered, so NaN rows stay on the scale branch like the scalar
/// kernel.
void fista_pass(const FistaPass& a, index_t j0, index_t j1, FistaSums& sums) {
  const index_t mk = a.m * a.k;
  if (a.m > kFistaMaxAntennas || mk > kFistaMaxPartials) {
    scalar().fista_pass(a, j0, j1, sums);
    return;
  }
  const CellMask full = cell_mask(4);
  const CellMask tail = cell_mask(a.nl % 4);
  FistaLanes st;
  st.diff = _mm256_setzero_pd();
  st.new_sq = _mm256_setzero_pd();
  st.l21 = _mm256_setzero_pd();
  for (index_t j = j0; j < j1; ++j) {
    const double* pj = reinterpret_cast<const double*>(a.p + j * mk);
    for (index_t q = 0; q < mk; ++q) {
      st.accr[q] = _mm256_setzero_pd();
      st.acci[q] = _mm256_setzero_pd();
    }
    index_t i = 0;
    for (; i + 4 <= a.nl; i += 4) fista_group<false>(a, pj, j, i, full, st);
    if (i < a.nl) fista_group<true>(a, pj, j, i, tail, st);
    double* bj = reinterpret_cast<double*>(a.b + j * mk);
    for (index_t q = 0; q < mk; ++q) {
      bj[2 * q] = lane_sum(st.accr[q]);
      bj[2 * q + 1] = lane_sum(st.acci[q]);
    }
  }
  sums.diff_sq = lane_sum(st.diff);
  sums.new_sq = lane_sum(st.new_sq);
  sums.l21 = lane_sum(st.l21);
}

constexpr Backend kAvx2 = {
    "simd-avx2",     &gemm_tile, &gemm_cols,         &gemm_cols_depth,
    &gemm_adj_tile,  &soft_threshold, &row_sq_accumulate, &row_scale,
    &phase_ramp,     &phase_ramp_accum, &fista_pass,
};

}  // namespace

const Backend* simd_avx2_table() { return &kAvx2; }

}  // namespace roarray::linalg::backend
