#include "dsp/grid.hpp"

#include <gtest/gtest.h>

namespace roarray::dsp {
namespace {

TEST(Grid, EndpointsIncluded) {
  const Grid g(0.0, 180.0, 181);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[180], 180.0);
  EXPECT_DOUBLE_EQ(g.step(), 1.0);
}

TEST(Grid, SinglePoint) {
  const Grid g(5.0, 5.0, 1);
  EXPECT_EQ(g.size(), 1);
  EXPECT_DOUBLE_EQ(g[0], 5.0);
  EXPECT_DOUBLE_EQ(g.step(), 0.0);
  EXPECT_EQ(g.nearest_index(100.0), 0);
}

TEST(Grid, InvalidArgumentsThrow) {
  EXPECT_THROW(Grid(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Grid(1.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW((void)Grid::with_step(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)Grid::with_step(0.0, 1.0, -0.5), std::invalid_argument);
}

TEST(Grid, WithStepLandsOnGridPoints) {
  const Grid g = Grid::with_step(0.0, 180.0, 2.0);
  EXPECT_EQ(g.size(), 91);
  EXPECT_DOUBLE_EQ(g.hi(), 180.0);
  EXPECT_DOUBLE_EQ(g[45], 90.0);
}

TEST(Grid, WithStepTruncatesPartialStep) {
  const Grid g = Grid::with_step(0.0, 10.0, 3.0);  // 0, 3, 6, 9
  EXPECT_EQ(g.size(), 4);
  EXPECT_DOUBLE_EQ(g.hi(), 9.0);
}

TEST(Grid, WithStepReversedBoundsThrow) {
  EXPECT_THROW((void)Grid::with_step(1.0, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)Grid::with_step(0.0, -1e-6, 0.5), std::invalid_argument);
  // Degenerate but valid: a single-point grid.
  const Grid g = Grid::with_step(2.0, 2.0, 0.5);
  EXPECT_EQ(g.size(), 1);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
}

TEST(Grid, WithStepEpsilonAbsorbsRoundoffAtHi) {
  // 0.7 / 0.1 evaluates just below 7 in binary; the 1e-9 slack must
  // still count hi as landing on the grid (8 points, not 7).
  const Grid g = Grid::with_step(0.0, 0.7, 0.1);
  EXPECT_EQ(g.size(), 8);
  EXPECT_NEAR(g.hi(), 0.7, 1e-12);
}

TEST(Grid, NearestIndexRoundsAndClamps) {
  const Grid g(0.0, 10.0, 11);
  EXPECT_EQ(g.nearest_index(3.4), 3);
  EXPECT_EQ(g.nearest_index(3.6), 4);
  EXPECT_EQ(g.nearest_index(-5.0), 0);
  EXPECT_EQ(g.nearest_index(50.0), 10);
}

TEST(Grid, AtBoundsChecked) {
  const Grid g(0.0, 1.0, 2);
  EXPECT_THROW((void)g.at(2), std::out_of_range);
  EXPECT_THROW((void)g.at(-1), std::out_of_range);
  EXPECT_DOUBLE_EQ(g.at(1), 1.0);
}

TEST(Grid, ValuesVectorMatchesIndexing) {
  const Grid g(-1.0, 1.0, 5);
  const auto v = g.values();
  ASSERT_EQ(v.size(), 5);
  for (linalg::index_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(v[i], g[i]);
}

TEST(Grid, DefaultGridsMatchPaperParameters) {
  const Grid aoa = default_aoa_grid();
  EXPECT_DOUBLE_EQ(aoa.lo(), 0.0);
  EXPECT_DOUBLE_EQ(aoa.hi(), 180.0);
  const Grid toa = default_toa_grid();
  EXPECT_EQ(toa.size(), 50);  // paper: N_tau = 50
  EXPECT_LE(toa.hi(), 800e-9);  // within the unambiguous range
}

class GridRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(GridRoundTrip, NearestIndexOfGridValueIsExact) {
  const Grid g(0.0, 180.0, 91);
  const double frac = GetParam();
  const auto idx = static_cast<linalg::index_t>(frac * 90);
  EXPECT_EQ(g.nearest_index(g[idx]), idx);
}

INSTANTIATE_TEST_SUITE_P(Fractions, GridRoundTrip,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace roarray::dsp
