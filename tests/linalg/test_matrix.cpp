#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace roarray::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  CMat m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 2; ++i) EXPECT_EQ(m(i, j), cxd{});
}

TEST(Matrix, NegativeDimensionThrows) {
  EXPECT_THROW(CMat(-1, 2), std::invalid_argument);
  EXPECT_THROW(CMat(2, -1), std::invalid_argument);
}

TEST(Matrix, InitializerListIsRowMajorNotation) {
  RMat m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((RMat{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const CMat i3 = CMat::identity(3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i)
      EXPECT_EQ(i3(i, j), (i == j ? cxd{1.0, 0.0} : cxd{}));
}

TEST(Matrix, ColumnMajorStorageColIsContiguous) {
  RMat m{{1.0, 2.0}, {3.0, 4.0}};
  auto c0 = m.col(0);
  EXPECT_DOUBLE_EQ(c0[0], 1.0);
  EXPECT_DOUBLE_EQ(c0[1], 3.0);
  c0[1] = 30.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 30.0);
}

TEST(Matrix, RowVecAndSetCol) {
  CMat m(2, 2);
  m.set_col(1, CVec{cxd{1.0, 0.0}, cxd{2.0, 0.0}});
  const CVec r0 = m.row_vec(0);
  EXPECT_EQ(r0.size(), 2);
  EXPECT_NEAR(std::abs(r0[1] - cxd{1.0, 0.0}), 0.0, 1e-15);
  EXPECT_THROW(m.set_col(0, CVec(3)), std::invalid_argument);
  EXPECT_THROW((void)m.col(5), std::out_of_range);
}

TEST(Matrix, TransposeAndAdjointDifferOnComplex) {
  CMat m(1, 2);
  m(0, 0) = cxd{1.0, 2.0};
  m(0, 1) = cxd{3.0, -4.0};
  const CMat t = transpose(m);
  const CMat h = adjoint(m);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_NEAR(std::abs(t(0, 0) - cxd{1.0, 2.0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(h(0, 0) - cxd{1.0, -2.0}), 0.0, 1e-15);
}

TEST(Matrix, AdjointIsInvolution) {
  auto rng = testing::make_rng(3);
  const CMat m = testing::random_cmat(4, 6, rng);
  testing::expect_mat_near(adjoint(adjoint(m)), m, 1e-15, "A^HH = A");
}

TEST(Matrix, MatvecAgainstHandComputed) {
  CMat a{{cxd{1.0, 0.0}, cxd{0.0, 1.0}},   // [1, i]
         {cxd{2.0, 0.0}, cxd{0.0, 0.0}}};  // [2, 0]
  const CVec x{cxd{1.0, 0.0}, cxd{1.0, 0.0}};
  const CVec y = matvec(a, x);
  EXPECT_NEAR(std::abs(y[0] - cxd{1.0, 1.0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[1] - cxd{2.0, 0.0}), 0.0, 1e-15);
}

TEST(Matrix, MatvecAdjMatchesExplicitAdjoint) {
  auto rng = testing::make_rng(5);
  const CMat a = testing::random_cmat(5, 7, rng);
  const CVec y = testing::random_cvec(5, rng);
  testing::expect_vec_near(matvec_adj(a, y), matvec(adjoint(a), y), 1e-12,
                           "A^H y");
}

TEST(Matrix, MatmulAssociativity) {
  auto rng = testing::make_rng(9);
  const CMat a = testing::random_cmat(3, 4, rng);
  const CMat b = testing::random_cmat(4, 5, rng);
  const CMat c = testing::random_cmat(5, 2, rng);
  testing::expect_mat_near(matmul(matmul(a, b), c), matmul(a, matmul(b, c)),
                           1e-10, "(AB)C = A(BC)");
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(CMat(2, 3), CMat(2, 3)), std::invalid_argument);
  EXPECT_THROW(matvec(CMat(2, 3), CVec(2)), std::invalid_argument);
  EXPECT_THROW(matvec_adj(CMat(2, 3), CVec(3)), std::invalid_argument);
}

TEST(Matrix, MatmulAdjLeftMatchesExplicit) {
  auto rng = testing::make_rng(13);
  const CMat a = testing::random_cmat(6, 3, rng);
  const CMat b = testing::random_cmat(6, 4, rng);
  testing::expect_mat_near(matmul_adj_left(a, b), matmul(adjoint(a), b), 1e-12,
                           "A^H B");
}

TEST(Matrix, AdjointReversesProducts) {
  auto rng = testing::make_rng(17);
  const CMat a = testing::random_cmat(3, 4, rng);
  const CMat b = testing::random_cmat(4, 5, rng);
  testing::expect_mat_near(adjoint(matmul(a, b)),
                           matmul(adjoint(b), adjoint(a)), 1e-12,
                           "(AB)^H = B^H A^H");
}

TEST(Matrix, FrobeniusNormMatchesVectorization) {
  auto rng = testing::make_rng(21);
  const CMat a = testing::random_cmat(4, 4, rng);
  double acc = 0.0;
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) acc += std::norm(a(i, j));
  EXPECT_NEAR(norm_fro(a), std::sqrt(acc), 1e-12);
  // The squared variant must be the pre-sqrt accumulator exactly (it
  // exists so callers never compute sqrt-then-square).
  EXPECT_DOUBLE_EQ(norm_fro_sq(a), acc);
}

TEST(Matrix, ArithmeticOperators) {
  RMat a{{1.0, 2.0}, {3.0, 4.0}};
  RMat b{{1.0, 1.0}, {1.0, 1.0}};
  const RMat s = a + b;
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
  const RMat d = a - b;
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  const RMat m = a * 2.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 6.0);
  EXPECT_THROW(a += RMat(3, 3), std::invalid_argument);
}

TEST(Matrix, ToComplexPreservesValues) {
  RMat a{{1.0, -2.0}};
  const CMat c = to_complex(a);
  EXPECT_NEAR(std::abs(c(0, 1) - cxd{-2.0, 0.0}), 0.0, 1e-15);
}

TEST(Matrix, AtBoundsChecked) {
  CMat m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

}  // namespace
}  // namespace roarray::linalg
