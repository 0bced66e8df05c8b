#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace roarray::linalg {
namespace {

CMat reconstruct(const SvdResult& s) {
  CMat usv(s.u.rows(), s.v.rows());
  for (index_t k = 0; k < s.singular_values.size(); ++k) {
    for (index_t j = 0; j < s.v.rows(); ++j) {
      for (index_t i = 0; i < s.u.rows(); ++i) {
        usv(i, j) += s.u(i, k) * s.singular_values[k] * std::conj(s.v(j, k));
      }
    }
  }
  return usv;
}

TEST(Svd, ReconstructsTallMatrix) {
  auto rng = testing::make_rng(41);
  const CMat a = testing::random_cmat(8, 4, rng);
  const SvdResult s = svd(a);
  testing::expect_mat_near(reconstruct(s), a, 1e-8, "U S V^H = A");
}

TEST(Svd, ReconstructsWideMatrix) {
  auto rng = testing::make_rng(42);
  const CMat a = testing::random_cmat(3, 9, rng);
  const SvdResult s = svd(a);
  testing::expect_mat_near(reconstruct(s), a, 1e-8, "U S V^H = A");
}

TEST(Svd, FactorsAreOrthonormal) {
  auto rng = testing::make_rng(43);
  const CMat a = testing::random_cmat(7, 5, rng);
  const SvdResult s = svd(a);
  testing::expect_orthonormal_columns(s.u, 1e-8);
  testing::expect_orthonormal_columns(s.v, 1e-8);
}

TEST(Svd, SingularValuesDescendingAndNonNegative) {
  auto rng = testing::make_rng(44);
  const CMat a = testing::random_cmat(10, 6, rng);
  const SvdResult s = svd(a);
  for (index_t i = 0; i < s.singular_values.size(); ++i) {
    EXPECT_GE(s.singular_values[i], 0.0);
    if (i > 0) {
      EXPECT_LE(s.singular_values[i], s.singular_values[i - 1] + 1e-12);
    }
  }
}

TEST(Svd, FrobeniusNormIdentity) {
  auto rng = testing::make_rng(45);
  const CMat a = testing::random_cmat(6, 6, rng);
  const SvdResult s = svd(a);
  double acc = 0.0;
  for (index_t i = 0; i < s.singular_values.size(); ++i) {
    acc += s.singular_values[i] * s.singular_values[i];
  }
  EXPECT_NEAR(std::sqrt(acc), norm_fro(a), 1e-8 * std::max(1.0, norm_fro(a)));
}

TEST(Svd, RankDeficientMatrix) {
  auto rng = testing::make_rng(46);
  const CMat b = testing::random_cmat(8, 2, rng);
  const CMat c = testing::random_cmat(2, 5, rng);
  const CMat a = matmul(b, c);  // rank 2
  const SvdResult s = svd(a);
  EXPECT_EQ(s.rank(1e-8), 2);
  EXPECT_NEAR(s.singular_values[2], 0.0, 1e-7);
  testing::expect_mat_near(reconstruct(s), a, 1e-7, "rank-2 reconstruction");
  // Basis completion must keep U orthonormal even for null directions.
  testing::expect_orthonormal_columns(s.u, 1e-6);
}

TEST(Svd, KnownDiagonalCase) {
  CMat a(3, 2);
  a(0, 0) = cxd{3.0, 0.0};
  a(1, 1) = cxd{0.0, 4.0};  // magnitude 4
  const SvdResult s = svd(a);
  EXPECT_NEAR(s.singular_values[0], 4.0, 1e-10);
  EXPECT_NEAR(s.singular_values[1], 3.0, 1e-10);
}

TEST(Svd, DominantSubspaceOfNoisyLowRank) {
  // Signal: rank-1 outer product with large amplitude + small noise.
  auto rng = testing::make_rng(47);
  const CVec u = testing::random_cvec(20, rng);
  const CVec v = testing::random_cvec(6, rng);
  CMat a(20, 6);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 20; ++i) a(i, j) = 10.0 * u[i] * std::conj(v[j]);
  const CMat noise = testing::random_cmat(20, 6, rng);
  CMat noisy = a;
  CMat small_noise = noise;
  small_noise *= cxd{0.01, 0.0};
  noisy += small_noise;
  const SvdResult s = svd(noisy);
  // One dominant singular value, the rest tiny.
  EXPECT_GT(s.singular_values[0], 50.0 * s.singular_values[1]);
}

TEST(Svd, EmptyAndSingleElement) {
  const SvdResult s1 = svd(CMat(1, 1, cxd{2.0, 0.0}));
  EXPECT_NEAR(s1.singular_values[0], 2.0, 1e-12);
}

class SvdSizes
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(SvdSizes, InvariantsAcrossShapes) {
  const auto [m, n] = GetParam();
  auto rng = testing::make_rng(static_cast<std::uint64_t>(m * 37 + n));
  const CMat a = testing::random_cmat(m, n, rng);
  const SvdResult s = svd(a);
  EXPECT_EQ(s.singular_values.size(), std::min(m, n));
  testing::expect_mat_near(reconstruct(s), a, 1e-7, "reconstruction");
  testing::expect_orthonormal_columns(s.u, 1e-7);
  testing::expect_orthonormal_columns(s.v, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdSizes,
    ::testing::Values(std::pair<index_t, index_t>{1, 4},
                      std::pair<index_t, index_t>{4, 1},
                      std::pair<index_t, index_t>{5, 5},
                      std::pair<index_t, index_t>{12, 4},
                      std::pair<index_t, index_t>{4, 12},
                      std::pair<index_t, index_t>{30, 10},
                      std::pair<index_t, index_t>{90, 15}));

}  // namespace
}  // namespace roarray::linalg
