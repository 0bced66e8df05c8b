// Differential suite for the compute-backend tables: every published
// SIMD table must match the scalar table over adversarial inputs within
// the per-kernel tolerances documented in backend.hpp. The inputs are
// crafted around the documented divergences (zero-skip granularity in
// gemm_tile, squared-magnitude underflow in soft_threshold): those
// regions get their own semantics tests instead of a comparison.
#include "linalg/backend/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "runtime/thread_pool.hpp"
#include "../test_util.hpp"

namespace roarray::linalg::backend {
namespace {

namespace rt = roarray::testing;

constexpr double kEps = std::numeric_limits<double>::epsilon();

double max_abs(const CMat& m) {
  double mx = 0.0;
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i) mx = std::max(mx, std::abs(m(i, j)));
  return mx;
}

/// max_j sum_l |B(l,j)| — the magnitude-sum factor of the gemm
/// forward-error bound in backend.hpp.
double max_col_abs_sum(const CMat& m) {
  double mx = 0.0;
  for (index_t j = 0; j < m.cols(); ++j) {
    double s = 0.0;
    for (index_t i = 0; i < m.rows(); ++i) s += std::abs(m(i, j));
    mx = std::max(mx, s);
  }
  return mx;
}

void expect_gemm_close(const CMat& simd_c, const CMat& scalar_c, index_t k,
                       double amax, double bsum, const char* what) {
  // backend.hpp gemm tolerance: the gamma_k dot-product bound,
  // 8 * eps * k * max|A| * max_j sum_l |B(l,j)| per element.
  const double tol = 8.0 * kEps * static_cast<double>(k) * amax * bsum;
  for (index_t j = 0; j < scalar_c.cols(); ++j) {
    for (index_t i = 0; i < scalar_c.rows(); ++i) {
      EXPECT_NEAR(simd_c(i, j).real(), scalar_c(i, j).real(), tol)
          << what << " at (" << i << "," << j << ")";
      EXPECT_NEAR(simd_c(i, j).imag(), scalar_c(i, j).imag(), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Selection and provenance.

TEST(BackendDispatch, ScalarTableIsAlwaysPublished) {
  EXPECT_STREQ(scalar().name, "scalar");
  EXPECT_NE(scalar().gemm_tile, nullptr);
  EXPECT_NE(scalar().phase_ramp_accum, nullptr);
}

TEST(BackendDispatch, DispatchInfoIsConsistent) {
  const Dispatch d = dispatch_info();
  ASSERT_NE(d.selected, nullptr);
  EXPECT_EQ(d.selected, &active());
  EXPECT_EQ(d.simd_compiled, simd_compiled());
  // A supported SIMD table implies a compiled one, and the published
  // table pointer agrees with the support flag.
  if (d.simd_supported) {
    EXPECT_TRUE(d.simd_compiled);
  }
  EXPECT_EQ(simd() != nullptr, d.simd_compiled && d.simd_supported);
  const std::string req = d.requested;
  EXPECT_TRUE(req == "auto" || req == "scalar" || req == "simd") << req;
}

TEST(BackendDispatch, ForceRoundTrips) {
  const Backend* before = &active();
  force(&scalar());
  EXPECT_EQ(&active(), &scalar());
  EXPECT_STREQ(dispatch_info().requested, "force");
  force(nullptr);
  EXPECT_EQ(&active(), before);
}

// ---------------------------------------------------------------------------
// Storage alignment (the SIMD tables may use aligned loads on column
// bases; alignment is a property of the allocation so it must survive
// moves and swaps).

TEST(BackendStorage, MatrixAndVectorBuffersAreCacheLineAligned) {
  static_assert(kBufferAlign >= 64);
  CMat m(7, 3);
  CVec v(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kBufferAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kBufferAlign, 0u);
}

TEST(BackendStorage, AlignmentSurvivesMoveAndSwap) {
  CMat m(33, 4);
  const cxd* before = m.data();
  CMat moved = std::move(m);
  EXPECT_EQ(moved.data(), before);  // the buffer moved owner, not address
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) % kBufferAlign, 0u);
  CVec a(9), b(17);
  const cxd* pa = a.data();
  const cxd* pb = b.data();
  std::swap(a, b);
  EXPECT_EQ(a.data(), pb);
  EXPECT_EQ(b.data(), pa);
}

// ---------------------------------------------------------------------------
// Differential: simd vs scalar. Skipped (visibly) when this binary or
// machine has no SIMD table — the scalar-vs-scalar comparison would be
// vacuous.

class BackendDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    simd_ = simd();
    if (simd_ == nullptr) {
      GTEST_SKIP() << "no SIMD table on this build/machine";
    }
  }
  const Backend* simd_ = nullptr;
};

// Adversarial B matrices exercise the zero-skip: whole zero rows (the
// row-sparse iterates the skip exists for), denormal entries, and
// signed zeros. A stays finite and normal-range: the documented
// zero-skip granularity divergence means a zero B entry *next to* a
// nonzero one contributes exact +/-0 terms on the simd path, which only
// matters for non-finite or sign-of-zero A contributions.
CMat adversarial_b(index_t k, index_t n, std::mt19937_64& rng) {
  CMat b = rt::random_cmat(k, n, rng);
  for (index_t i = 0; i < k; i += 3) {        // whole zero rows
    for (index_t j = 0; j < n; ++j) b(i, j) = cxd{0.0, 0.0};
  }
  if (k > 1) {
    for (index_t j = 0; j < n; j += 2) {      // scattered signed zeros
      b(1, j) = cxd{-0.0, 0.0};
    }
  }
  if (k > 4) {
    for (index_t j = 0; j < n; ++j) {         // denormals
      b(4, j) = cxd{5e-320, -3e-310};
    }
  }
  return b;
}

TEST_F(BackendDifferential, GemmMatchesScalarOnAdversarialInputs) {
  auto rng = rt::make_rng(701);
  // Shapes hit every dispatch path: fixed-height (m <= 16), fixed-depth
  // (k <= 8), the packed tile fast path (m, k large; n covers full
  // 4-column groups plus every tail width), odd row tails, and a
  // reduction crossing the k-chunk boundary (kKc = 256).
  const index_t shapes[][3] = {
      {7, 5, 40},    {16, 9, 33},  {17, 3, 9},   {37, 11, 300},
      {90, 8, 641},  {129, 7, 260}, {130, 33, 12}, {20, 6, 257},
  };
  for (const auto& s : shapes) {
    const index_t m = s[0], n = s[1], k = s[2];
    const CMat a = rt::random_cmat(m, k, rng);
    const CMat b = adversarial_b(k, n, rng);
    const CMat cs = matmul_blocked(a, b, nullptr, &scalar());
    const CMat cv = matmul_blocked(a, b, nullptr, simd_);
    expect_gemm_close(cv, cs, k, max_abs(a), max_col_abs_sum(b), "gemm");
  }
}

TEST_F(BackendDifferential, GemmAdjointMatchesScalar) {
  auto rng = rt::make_rng(702);
  const index_t shapes[][3] = {{5, 4, 30}, {33, 9, 101}, {64, 17, 7}};
  for (const auto& s : shapes) {
    const index_t m = s[0], n = s[1], k = s[2];
    const CMat a = rt::random_cmat(k, m, rng);
    const CMat b = rt::random_cmat(k, n, rng);
    const CMat cs = matmul_adj_left_blocked(a, b, nullptr, &scalar());
    const CMat cv = matmul_adj_left_blocked(a, b, nullptr, simd_);
    expect_gemm_close(cv, cs, k, max_abs(a), max_col_abs_sum(b), "gemm_adj");
  }
}

TEST_F(BackendDifferential, GemmZeroSkipIsExactOnRowSparseB) {
  // When B's zero structure is whole rows (the case the skip exists
  // for), the simd path skips exactly the steps scalar skips: results
  // stay within rounding even though the skip granularity differs.
  auto rng = rt::make_rng(703);
  const index_t m = 37, n = 9, k = 120;
  const CMat a = rt::random_cmat(m, k, rng);
  CMat b = rt::random_cmat(k, n, rng);
  for (index_t i = 0; i < k; ++i) {
    if (i % 4 != 0) {  // keep every 4th row: 75% zero rows
      for (index_t j = 0; j < n; ++j) b(i, j) = cxd{0.0, 0.0};
    }
  }
  const CMat cs = matmul_blocked(a, b, nullptr, &scalar());
  const CMat cv = matmul_blocked(a, b, nullptr, simd_);
  expect_gemm_close(cv, cs, k, max_abs(a), max_col_abs_sum(b), "sparse gemm");
}

TEST_F(BackendDifferential, SoftThresholdMatchesScalarIncludingEdges) {
  auto rng = rt::make_rng(704);
  const double t = 0.8;
  // Magnitudes straddling t from both sides, exact zeros, huge values,
  // and elements exactly at |x| = t (both tables must zero them). NaN
  // and (inf, finite) go through the semantics test below, not a
  // numeric comparison.
  for (const index_t n : {index_t{1}, index_t{2}, index_t{7}, index_t{64},
                          index_t{257}}) {
    CVec x = rt::random_cvec(n, rng);
    if (n > 2) x[1] = cxd{0.0, -0.0};
    if (n > 3) x[3] = cxd{t, 0.0};            // exactly at the threshold
    if (n > 4) x[4] = cxd{1e200, -1e200};     // |x|^2 overflows to inf
    CVec xs = x;
    CVec xv = x;
    scalar().soft_threshold(xs.data(), n, t);
    simd_->soft_threshold(xv.data(), n, t);
    for (index_t i = 0; i < n; ++i) {
      const double tol = 4.0 * kEps * std::abs(x[i]);
      EXPECT_NEAR(xv[i].real(), xs[i].real(), tol) << "i=" << i << " n=" << n;
      EXPECT_NEAR(xv[i].imag(), xs[i].imag(), tol) << "i=" << i << " n=" << n;
    }
  }
}

TEST_F(BackendDifferential, SoftThresholdKeepsNanOnScaleBranch) {
  // NaN magnitudes fail |x| <= t on both tables, so the element is
  // scaled (stays NaN) rather than zeroed.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (const Backend* be : {&scalar(), simd_}) {
    CVec x(4);
    x[0] = cxd{qnan, 1.0};
    x[1] = cxd{2.0, qnan};
    x[2] = cxd{0.1, 0.1};   // below threshold: zeroed
    x[3] = cxd{3.0, -4.0};  // above: scaled, finite
    be->soft_threshold(x.data(), 4, 1.0);
    EXPECT_TRUE(std::isnan(x[0].real())) << be->name;
    EXPECT_TRUE(std::isnan(x[1].imag())) << be->name;
    EXPECT_EQ(x[2], (cxd{0.0, 0.0})) << be->name;
    EXPECT_NEAR(std::abs(x[3]), 4.0, 1e-12) << be->name;
  }
}

TEST_F(BackendDifferential, RowScaleIsBitIdentical) {
  auto rng = rt::make_rng(705);
  for (const index_t n : {index_t{1}, index_t{6}, index_t{31}}) {
    CVec col = rt::random_cvec(n, rng);
    std::vector<double> s(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      s[static_cast<std::size_t>(i)] = (i % 3 == 0) ? -1.0 : 0.25 * double(i);
    }
    CVec cs = col;
    CVec cv = col;
    scalar().row_scale(cs.data(), n, s.data());
    simd_->row_scale(cv.data(), n, s.data());
    EXPECT_EQ(0, std::memcmp(cs.data(), cv.data(),
                             static_cast<std::size_t>(n) * sizeof(cxd)))
        << "row_scale must be bit-identical (n=" << n << ")";
    // Negative markers produce exact +0, not -0.
    EXPECT_EQ(0.0, cv[0].real());
    EXPECT_FALSE(std::signbit(cv[0].real()));
  }
}

TEST_F(BackendDifferential, RowSqAccumulateMatchesScalar) {
  auto rng = rt::make_rng(706);
  for (const index_t n : {index_t{1}, index_t{8}, index_t{129}}) {
    const CVec col = rt::random_cvec(n, rng);
    std::vector<double> as(static_cast<std::size_t>(n), 0.5);
    std::vector<double> av = as;
    scalar().row_sq_accumulate(col.data(), n, as.data());
    simd_->row_sq_accumulate(col.data(), n, av.data());
    for (index_t i = 0; i < n; ++i) {
      const double tol = 2.0 * kEps * std::norm(col[i]) + 2.0 * kEps;
      EXPECT_NEAR(av[static_cast<std::size_t>(i)],
                  as[static_cast<std::size_t>(i)], tol) << "i=" << i;
    }
  }
}

TEST_F(BackendDifferential, PhaseRampMatchesScalar) {
  const cxd step = std::polar(1.0, 0.37);  // |step| = 1 like every caller
  const cxd gain = std::polar(1.7, -1.1);
  for (const index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{5},
                          index_t{64}, index_t{1001}}) {
    CVec os(n), ov(n);
    scalar().phase_ramp(gain, step, n, os.data());
    simd_->phase_ramp(gain, step, n, ov.data());
    for (index_t i = 0; i < n; ++i) {
      const double tol = 2.0 * kEps * static_cast<double>(n) * std::abs(gain);
      EXPECT_NEAR(ov[i].real(), os[i].real(), tol) << "i=" << i << " n=" << n;
      EXPECT_NEAR(ov[i].imag(), os[i].imag(), tol) << "i=" << i << " n=" << n;
    }
    // The accumulating variant adds the same ramp on top of a payload.
    CVec bs(n, cxd{0.5, -0.25});
    CVec bv = bs;
    scalar().phase_ramp_accum(gain, step, n, bs.data());
    simd_->phase_ramp_accum(gain, step, n, bv.data());
    for (index_t i = 0; i < n; ++i) {
      const double tol =
          4.0 * kEps * static_cast<double>(n) * (std::abs(gain) + 1.0);
      EXPECT_NEAR(bv[i].real(), bs[i].real(), tol) << "i=" << i << " n=" << n;
    }
  }
}

/// Inputs of one fused FISTA pass (backend.hpp FistaPass) with owned
/// buffers: random factors and iterates, and a shrink threshold at the
/// median row norm of the step so that about half the rows shrink to
/// zero.
struct FistaPassCase {
  index_t m, nl, nr, k;
  CMat left_adj, p, x, x_prev;
  double beta = 0.0, step = 0.0, shrink = 0.0;

  FistaPassCase(index_t m_, index_t nl_, index_t nr_, index_t k_,
                std::mt19937_64& rng)
      : m(m_), nl(nl_), nr(nr_), k(k_),
        left_adj(rt::random_cmat(nl_, m_, rng)),
        p(rt::random_cmat(m_ * k_, nr_, rng)),
        x(rt::random_cmat(nl_ * nr_, k_, rng)),
        x_prev(rt::random_cmat(nl_ * nr_, k_, rng)) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    beta = 0.9 * u(rng);
    step = 0.05 + 0.2 * u(rng);
    std::vector<double> norms;
    for (index_t cell = 0; cell < nl * nr; ++cell) {
      double sq = 0.0;
      for (index_t c = 0; c < k; ++c) sq += std::norm(x(cell, c));
      norms.push_back(std::sqrt(sq));
    }
    std::nth_element(norms.begin(), norms.begin() + norms.size() / 2,
                     norms.end());
    shrink = norms[norms.size() / 2];
  }

  FistaPass bind(CMat& x_new, CMat& b) const {
    return FistaPass{m,        nl,        k,    nl * nr, left_adj.data(),
                     p.data(), x.data(), x_prev.data(), beta, step, shrink,
                     x_new.data(), b.data()};
  }
};

TEST_F(BackendDifferential, FistaPassMatchesScalar) {
  auto rng = rt::make_rng(708);
  std::uniform_int_distribution<index_t> antennas(2, 5);
  std::uniform_int_distribution<index_t> snapshots(1, 6);
  std::uniform_int_distribution<index_t> cells(1, 13);
  for (int trial = 0; trial < 60; ++trial) {
    const FistaPassCase tc(antennas(rng), cells(rng), 5, snapshots(rng), rng);
    SCOPED_TRACE("M=" + std::to_string(tc.m) + " N_l=" + std::to_string(tc.nl) +
                 " K=" + std::to_string(tc.k));
    CMat xs(tc.nl * tc.nr, tc.k), xv = xs;
    CMat bs(tc.m * tc.k, tc.nr), bv = bs;
    FistaSums ss, sv;
    scalar().fista_pass(tc.bind(xs, bs), 0, tc.nr, ss);
    simd_->fista_pass(tc.bind(xv, bv), 0, tc.nr, sv);

    // backend.hpp: x_new within 16 eps M (|z| + step max|L| sum|P_j|);
    // b and the sums add the reordered cell sums on top.
    const double lmax = max_abs(tc.left_adj);
    const double zmax = (1.0 + 2.0 * tc.beta) *
                        std::max(max_abs(tc.x), max_abs(tc.x_prev));
    const double tol_x = 16.0 * kEps * static_cast<double>(tc.m) *
                         (zmax + tc.step * lmax * max_col_abs_sum(tc.p));
    rt::expect_mat_near(xv, xs, tol_x, "x_new");
    const double tol_b =
        static_cast<double>(tc.nl) * lmax *
        (8.0 * kEps * max_col_abs_sum(xs) + static_cast<double>(tc.k) * tol_x);
    rt::expect_mat_near(bv, bs, tol_b, "b");
    const double cells_total = static_cast<double>(tc.nl * tc.nr * tc.k);
    const double tol_rel = 64.0 * kEps * cells_total + tol_x;
    EXPECT_NEAR(sv.diff_sq, ss.diff_sq, tol_rel * (1.0 + ss.diff_sq));
    EXPECT_NEAR(sv.new_sq, ss.new_sq, tol_rel * (1.0 + ss.new_sq));
    EXPECT_NEAR(sv.l21, ss.l21, tol_rel * (1.0 + ss.l21));
    // Shrunk rows are exact +0 on both tables.
    for (index_t cell = 0; cell < xs.rows(); ++cell) {
      if (xs(cell, 0) == cxd{} && xv(cell, 0) == cxd{}) {
        EXPECT_FALSE(std::signbit(xv(cell, 0).real())) << "cell " << cell;
      }
    }
  }
}

TEST_F(BackendDifferential, FistaPassTouchesOnlyItsColumns) {
  // A pass over ToA columns [1, 3) writes exactly those columns' cells
  // of x_new and b: the masked cell tail must not spill into the next
  // column's cells.
  auto rng = rt::make_rng(709);
  const FistaPassCase tc(3, 7, 5, 2, rng);
  const cxd sentinel{1234.5, -678.25};
  for (const Backend* be : {&scalar(), simd_}) {
    CMat x_new(tc.nl * tc.nr, tc.k, sentinel);
    CMat b(tc.m * tc.k, tc.nr, sentinel);
    FistaSums sums;
    be->fista_pass(tc.bind(x_new, b), 1, 3, sums);
    for (index_t c = 0; c < tc.k; ++c) {
      for (index_t cell = 0; cell < x_new.rows(); ++cell) {
        const bool inside = cell >= tc.nl && cell < 3 * tc.nl;
        EXPECT_EQ(x_new(cell, c) != sentinel, inside)
            << be->name << " cell " << cell << " snapshot " << c;
      }
    }
    for (index_t j = 0; j < tc.nr; ++j) {
      EXPECT_EQ(b(0, j) != sentinel, j == 1 || j == 2) << be->name << " col " << j;
    }
  }
}

TEST_F(BackendDifferential, FistaPassFallsBackToScalarBeyondItsLanes) {
  // More partials than the simd kernel keeps in registers (M * K > 64)
  // or more antennas than kSmallRowLimit: the simd entry runs the
  // scalar kernel, so the outputs are bit-identical.
  auto rng = rt::make_rng(710);
  for (const auto& [m, k] : {std::pair<index_t, index_t>{5, 14},
                             std::pair<index_t, index_t>{17, 1}}) {
    const FistaPassCase tc(m, 9, 3, k, rng);
    CMat xs(tc.nl * tc.nr, tc.k), xv = xs;
    CMat bs(tc.m * tc.k, tc.nr), bv = bs;
    FistaSums ss, sv;
    scalar().fista_pass(tc.bind(xs, bs), 0, tc.nr, ss);
    simd_->fista_pass(tc.bind(xv, bv), 0, tc.nr, sv);
    EXPECT_EQ(0, std::memcmp(xs.data(), xv.data(),
                             static_cast<std::size_t>(xs.size()) * sizeof(cxd)));
    EXPECT_EQ(0, std::memcmp(bs.data(), bv.data(),
                             static_cast<std::size_t>(bs.size()) * sizeof(cxd)));
    EXPECT_EQ(ss.l21, sv.l21);
  }
}

TEST_F(BackendDifferential, PooledGemmIsBitIdenticalPerTable) {
  // The determinism contract: on a fixed table, pooled and serial runs
  // produce bit-identical results (the tile partition never depends on
  // the pool). Checked for both tables.
  auto rng = rt::make_rng(707);
  const CMat a = rt::random_cmat(130, 300, rng);
  const CMat b = rt::random_cmat(300, 40, rng);
  runtime::ThreadPool pool(3);
  for (const Backend* be : {&scalar(), simd_}) {
    const CMat serial = matmul_blocked(a, b, nullptr, be);
    const CMat pooled = matmul_blocked(a, b, &pool, be);
    EXPECT_EQ(0, std::memcmp(serial.data(), pooled.data(),
                             static_cast<std::size_t>(serial.size()) *
                                 sizeof(cxd)))
        << be->name;
  }
}

}  // namespace
}  // namespace roarray::linalg::backend
