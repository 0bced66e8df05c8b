#include "loc/localize.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "../grid_oracle.hpp"
#include "sim/testbed.hpp"

namespace roarray::loc {
namespace {

LocalizeConfig paper_config() {
  LocalizeConfig cfg;
  cfg.room = channel::Room{18.0, 12.0};
  cfg.grid_step_m = 0.1;
  return cfg;
}

/// Observations with perfect AoAs for a target from the paper testbed.
std::vector<ApObservation> perfect_observations(const Vec2& target,
                                                std::size_t num_aps) {
  const sim::Testbed tb = sim::make_paper_testbed();
  std::vector<ApObservation> obs;
  for (std::size_t i = 0; i < std::min(num_aps, tb.aps.size()); ++i) {
    ApObservation o;
    o.pose = tb.aps[i];
    o.aoa_deg = tb.aps[i].aoa_of_point(target);
    o.weight = 1.0;
    obs.push_back(o);
  }
  return obs;
}

TEST(Localize, PerfectAoasRecoverTargetToGridResolution) {
  const Vec2 target{7.3, 4.8};
  const auto obs = perfect_observations(target, 6);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.position.x, target.x, 0.15);
  EXPECT_NEAR(r.position.y, target.y, 0.15);
}

TEST(Localize, EmptyObservationsInvalid) {
  const LocalizeResult r = localize({}, paper_config());
  EXPECT_FALSE(r.valid);
}

TEST(Localize, BadGridStepThrows) {
  LocalizeConfig cfg = paper_config();
  cfg.grid_step_m = 0.0;
  EXPECT_THROW(localize(perfect_observations({5, 5}, 3), cfg),
               std::invalid_argument);
}

TEST(Localize, NonFiniteGridStepThrows) {
  for (const double step : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    LocalizeConfig cfg = paper_config();
    cfg.grid_step_m = step;
    EXPECT_THROW(localize(perfect_observations({5, 5}, 3), cfg),
                 std::invalid_argument)
        << "step " << step;
  }
}

TEST(Localize, NonFiniteRoomThrows) {
  for (const double width : {std::nan(""), HUGE_VAL}) {
    LocalizeConfig cfg = paper_config();
    cfg.room.width_m = width;
    EXPECT_THROW(localize(perfect_observations({5, 5}, 3), cfg),
                 std::invalid_argument)
        << "width " << width;
  }
}

TEST(Localize, TwoApsSufficeWithPerfectAngles) {
  const Vec2 target{12.0, 7.0};
  const auto obs = perfect_observations(target, 2);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  // ULA mirror ambiguity can allow multiple optima; with the paper
  // testbed poses the target side is identifiable for interior points.
  EXPECT_NEAR(r.position.x, target.x, 0.5);
  EXPECT_NEAR(r.position.y, target.y, 0.5);
}

TEST(Localize, WeightsArbitrateConflictingAoas) {
  // Two APs vote for different targets; the heavier one must win.
  const Vec2 target_a{5.0, 5.0};
  const Vec2 target_b{14.0, 8.0};
  const sim::Testbed tb = sim::make_paper_testbed();
  std::vector<ApObservation> obs;
  // Three APs for target A with high weight.
  for (int i = 0; i < 3; ++i) {
    ApObservation o;
    o.pose = tb.aps[static_cast<std::size_t>(i)];
    o.aoa_deg = o.pose.aoa_of_point(target_a);
    o.weight = 10.0;
    obs.push_back(o);
  }
  // Three APs for target B with tiny weight.
  for (int i = 3; i < 6; ++i) {
    ApObservation o;
    o.pose = tb.aps[static_cast<std::size_t>(i)];
    o.aoa_deg = o.pose.aoa_of_point(target_b);
    o.weight = 0.01;
    obs.push_back(o);
  }
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_LT(channel::distance(r.position, target_a), 1.0);
}

TEST(Localize, NoisyAnglesDegradeGracefully) {
  const Vec2 target{9.0, 6.0};
  auto obs = perfect_observations(target, 6);
  // Bias every AoA by 5 degrees.
  for (auto& o : obs) o.aoa_deg = std::min(180.0, o.aoa_deg + 5.0);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  const double err = channel::distance(r.position, target);
  EXPECT_GT(err, 0.05);  // not exact anymore
  EXPECT_LT(err, 3.0);   // but bounded
}

TEST(Localize, CostIsZeroForConsistentObservations) {
  const Vec2 target{6.0, 6.0};
  const auto obs = perfect_observations(target, 6);
  const LocalizeResult r = localize(obs, paper_config());
  // Grid point nearest to the target has near-zero cost.
  EXPECT_LT(r.cost, 10.0);
}

// Regression: all-zero (or otherwise degenerate) RSSI weights used to
// make every grid candidate cost 0, silently returning a "valid" (0, 0)
// fix; a NaN weight likewise poisoned the scan but still reported
// valid. Both must now surface as a typed error.
TEST(Localize, AllZeroWeightsAreATypedErrorNotABogusFix) {
  auto obs = perfect_observations({7.0, 5.0}, 5);
  for (auto& o : obs) o.weight = 0.0;
  const LocalizeResult r = localize(obs, paper_config());
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.status, LocalizeStatus::kDegenerateWeights);
  EXPECT_FALSE(r.used_fusion);
}

TEST(Localize, NanWeightsAreATypedErrorNotABogusFix) {
  auto obs = perfect_observations({7.0, 5.0}, 5);
  for (auto& o : obs) o.weight = std::nan("");
  const LocalizeResult r = localize(obs, paper_config());
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.status, LocalizeStatus::kDegenerateWeights);
}

TEST(Localize, DegenerateObservationsAreScreenedNotFatal) {
  // Two poisoned observations ride along with four good ones: the round
  // still resolves, and the fused diagnostics stay aligned with the
  // caller's indices (screened slots keep default entries).
  const Vec2 target{7.3, 4.8};
  auto obs = perfect_observations(target, 6);
  obs[1].weight = 0.0;
  obs[4].weight = std::nan("");
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.status, LocalizeStatus::kOk);
  EXPECT_NEAR(r.position.x, target.x, 0.15);
  EXPECT_NEAR(r.position.y, target.y, 0.15);
  ASSERT_TRUE(r.used_fusion);
  ASSERT_EQ(r.fusion.per_ap.size(), obs.size());
  EXPECT_FALSE(r.fusion.per_ap[1].inlier);
  EXPECT_FALSE(r.fusion.per_ap[4].inlier);
  EXPECT_TRUE(r.fusion.per_ap[0].inlier);
}

TEST(Localize, StatusNamesAreStable) {
  EXPECT_STREQ(localize_status_name(LocalizeStatus::kOk), "ok");
  EXPECT_STREQ(localize_status_name(LocalizeStatus::kNoObservations),
               "no-observations");
  EXPECT_STREQ(localize_status_name(LocalizeStatus::kDegenerateWeights),
               "degenerate-weights");
}

TEST(Localize, EmptyStatusIsNoObservations) {
  const LocalizeResult r = localize({}, paper_config());
  EXPECT_EQ(r.status, LocalizeStatus::kNoObservations);
}

// The robust layer's acceptance story at the localize API: one blocked
// AP (confidently wrong AoA) barely moves the robust fix while the
// naive argmin visibly drifts.
TEST(Localize, RobustFixShrugsOffOneLyingApWhereNaiveDrifts) {
  const Vec2 target{11.0, 7.5};
  auto obs = perfect_observations(target, 5);
  obs[2].aoa_deg = std::min(180.0, obs[2].aoa_deg + 30.0);

  LocalizeConfig naive_cfg = paper_config();
  naive_cfg.robust = false;
  const LocalizeResult naive = localize(obs, naive_cfg);
  const LocalizeResult robust = localize(obs, paper_config());
  ASSERT_TRUE(naive.valid);
  ASSERT_TRUE(robust.valid);
  ASSERT_TRUE(robust.used_fusion);
  const double naive_err = channel::distance(naive.position, target);
  const double robust_err = channel::distance(robust.position, target);
  EXPECT_LT(robust_err, 0.2);
  EXPECT_LT(robust_err, naive_err);
  EXPECT_FALSE(robust.fusion.per_ap[2].inlier);
}

// Exact cost ties across blocks. With the AP axis along +x and a step
// of 0.5 m (exact in binary), cells mirrored across the AP's row see
// bit-identical AoAs, and so do cells whose offsets from the AP are
// multiples of each other: (5.5, 1) and (2, 3) both lie at offset
// k * (1.75, -1) from the AP. Four cells tie at the minimum. The first
// in row-major order, (5.5, 1), lies in the block right of the one
// holding (2, 3), and the scan visits that block later. It must still
// return (5.5, 1), as the exhaustive strict-less scan does.
TEST(Localize, ExactCostTieReturnsRowMajorFirstCell) {
  LocalizeConfig cfg;
  cfg.room = channel::Room{8.0, 8.0};
  cfg.grid_step_m = 0.5;
  cfg.robust = false;
  ApObservation o;
  o.pose = ApPose{{0.25, 4.0}, 0.0};
  o.aoa_deg = 30.0;
  const std::vector<ApObservation> obs{o};
  const auto oracle = testing::exhaustive_grid_argmin(obs, cfg);
  ASSERT_EQ(oracle.minimizers, 4);
  ASSERT_EQ(oracle.position.x, 5.5);
  ASSERT_EQ(oracle.position.y, 1.0);
  const LocalizeResult r = localize(obs, cfg);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.position.x, oracle.position.x);
  EXPECT_EQ(r.position.y, oracle.position.y);
  EXPECT_EQ(r.cost, oracle.cost);
}

// Two blocks (16 x 8 cells of 0.125 m), one AP at each block's centre
// with the AoA of the other block's centre: each AP lies inside its own
// block and agrees exactly with the other, so both block bounds are 0
// and nothing prunes. The scan degenerates to the exhaustive one and
// must return its argmin.
TEST(Localize, AllZeroBlockBoundsStillReturnExhaustiveArgmin) {
  LocalizeConfig cfg;
  cfg.room = channel::Room{1.875, 0.875};
  cfg.grid_step_m = 0.125;
  cfg.robust = false;
  const Vec2 centre_a{0.4375, 0.4375};
  const Vec2 centre_b{1.4375, 0.4375};
  std::vector<ApObservation> obs(2);
  obs[0].pose = ApPose{centre_a, 90.0};
  obs[0].aoa_deg = obs[0].pose.aoa_of_point(centre_b);
  obs[1].pose = ApPose{centre_b, 30.0};
  obs[1].aoa_deg = obs[1].pose.aoa_of_point(centre_a);
  obs[1].weight = 3.0;
  const auto oracle = testing::exhaustive_grid_argmin(obs, cfg);
  const LocalizeResult r = localize(obs, cfg);
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.cost, 0.0);
  EXPECT_EQ(r.position.x, oracle.position.x);
  EXPECT_EQ(r.position.y, oracle.position.y);
  EXPECT_EQ(r.cost, oracle.cost);
}

// One-cell grid (room narrower than a step in both axes): r = 0 and the
// only block centre is the node an AP sits on, so that cell is skipped
// and the result is the no-candidate default, exactly as before.
TEST(Localize, OneCellGridWithApOnTheNodeHasNoCandidate) {
  LocalizeConfig cfg;
  cfg.room = channel::Room{0.05, 0.05};
  cfg.grid_step_m = 0.1;
  cfg.robust = false;
  ApObservation o;
  o.pose = ApPose{{0.0, 0.0}, 45.0};
  o.aoa_deg = 10.0;
  const std::vector<ApObservation> obs{o};
  const auto oracle = testing::exhaustive_grid_argmin(obs, cfg);
  const LocalizeResult r = localize(obs, cfg);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.cost, oracle.cost);
  EXPECT_EQ(r.position.x, oracle.position.x);
  EXPECT_EQ(r.position.y, oracle.position.y);
}

class LocalizeTargetSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LocalizeTargetSweep, InteriorTargetsRecovered) {
  const auto [x, y] = GetParam();
  const Vec2 target{x, y};
  const auto obs = perfect_observations(target, 6);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_LT(channel::distance(r.position, target), 0.3)
      << "target (" << x << ", " << y << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Targets, LocalizeTargetSweep,
    ::testing::Values(std::pair<double, double>{2.0, 2.0},
                      std::pair<double, double>{16.0, 10.0},
                      std::pair<double, double>{9.0, 6.0},
                      std::pair<double, double>{3.5, 9.5},
                      std::pair<double, double>{14.2, 2.7}));

}  // namespace
}  // namespace roarray::loc
