#include "linalg/vector.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace roarray::linalg {
namespace {

TEST(Vector, DefaultConstructedIsEmpty) {
  CVec v;
  EXPECT_EQ(v.size(), 0);
  EXPECT_TRUE(v.empty());
}

TEST(Vector, SizedConstructorZeroInitializes) {
  CVec v(5);
  EXPECT_EQ(v.size(), 5);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], cxd{});
}

TEST(Vector, FillConstructor) {
  RVec v(4, 2.5);
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(v[i], 2.5);
}

TEST(Vector, NegativeSizeThrows) {
  EXPECT_THROW(CVec(-1), std::invalid_argument);
}

TEST(Vector, InitializerList) {
  RVec v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(Vector, AtBoundsChecked) {
  CVec v(3);
  EXPECT_THROW(v.at(3), std::out_of_range);
  EXPECT_THROW(v.at(-1), std::out_of_range);
  EXPECT_NO_THROW(v.at(2));
}

TEST(Vector, AdditionAndSubtraction) {
  RVec a{1.0, 2.0};
  RVec b{10.0, 20.0};
  const RVec sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 11.0);
  EXPECT_DOUBLE_EQ(sum[1], 22.0);
  const RVec diff = b - a;
  EXPECT_DOUBLE_EQ(diff[0], 9.0);
  EXPECT_DOUBLE_EQ(diff[1], 18.0);
}

TEST(Vector, SizeMismatchThrows) {
  RVec a(2), b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW((void)dot(CVec(2), CVec(3)), std::invalid_argument);
  CVec y(3);
  EXPECT_THROW(axpy(cxd{1.0, 0.0}, CVec(2), y), std::invalid_argument);
}

TEST(Vector, ScalarMultiply) {
  CVec v{cxd{1.0, 1.0}, cxd{2.0, 0.0}};
  v *= cxd{0.0, 1.0};  // multiply by i
  EXPECT_NEAR(std::abs(v[0] - cxd{-1.0, 1.0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(v[1] - cxd{0.0, 2.0}), 0.0, 1e-15);
}

TEST(Vector, DotIsConjugateLinearInFirstArgument) {
  const CVec x{cxd{0.0, 1.0}};  // i
  const CVec y{cxd{1.0, 0.0}};
  // <x, y> = conj(i) * 1 = -i
  const cxd d = dot(x, y);
  EXPECT_NEAR(std::abs(d - cxd{0.0, -1.0}), 0.0, 1e-15);
}

TEST(Vector, DotOfSelfIsNormSquared) {
  auto rng = testing::make_rng();
  const CVec v = testing::random_cvec(16, rng);
  const cxd d = dot(v, v);
  EXPECT_NEAR(d.real(), norm2_sq(v), 1e-10);
  EXPECT_NEAR(d.imag(), 0.0, 1e-10);
}

TEST(Vector, Norms) {
  const CVec v{cxd{3.0, 4.0}, cxd{0.0, 0.0}};  // |v0| = 5
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm2_sq(v), 25.0);
  EXPECT_DOUBLE_EQ(norm1(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 5.0);
}

TEST(Vector, TriangleInequalityHolds) {
  auto rng = testing::make_rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const CVec a = testing::random_cvec(8, rng);
    const CVec b = testing::random_cvec(8, rng);
    EXPECT_LE(norm2(a + b), norm2(a) + norm2(b) + 1e-12);
    EXPECT_LE(norm1(a + b), norm1(a) + norm1(b) + 1e-12);
  }
}

TEST(Vector, CauchySchwarzHolds) {
  auto rng = testing::make_rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const CVec a = testing::random_cvec(6, rng);
    const CVec b = testing::random_cvec(6, rng);
    EXPECT_LE(std::abs(dot(a, b)), norm2(a) * norm2(b) + 1e-12);
  }
}

TEST(Vector, AxpyMatchesManualComputation) {
  const CVec x{cxd{1.0, 0.0}, cxd{0.0, 1.0}};
  CVec y{cxd{1.0, 1.0}, cxd{2.0, 2.0}};
  axpy(cxd{2.0, 0.0}, x, y);
  EXPECT_NEAR(std::abs(y[0] - cxd{3.0, 1.0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[1] - cxd{2.0, 4.0}), 0.0, 1e-15);
}

TEST(Vector, SpanRoundTrip) {
  RVec v{1.0, 2.0, 3.0};
  auto s = v.span();
  s[1] = 20.0;
  EXPECT_DOUBLE_EQ(v[1], 20.0);
  const RVec copy{std::span<const double>(v.span())};
  EXPECT_EQ(copy.size(), 3);
  EXPECT_DOUBLE_EQ(copy[1], 20.0);
}

TEST(Vector, ResizePreservesAndZeroFills) {
  RVec v{1.0, 2.0};
  v.resize(4);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

}  // namespace
}  // namespace roarray::linalg
