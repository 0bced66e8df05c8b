#include "music/model_order.hpp"

#include <gtest/gtest.h>

#include "dsp/steering.hpp"
#include "linalg/eig.hpp"
#include "music/covariance.hpp"
#include "../test_util.hpp"

namespace roarray::music {
namespace {

namespace rt = roarray::testing;
using linalg::cxd;
using linalg::index_t;
using linalg::RVec;

/// Eigenvalues of a covariance with `k` planted sources on a d-element
/// array plus noise.
RVec planted_eigenvalues(index_t d, const std::vector<double>& angles,
                         index_t snapshots, double noise_sigma,
                         std::mt19937_64& rng) {
  dsp::ArrayConfig cfg;
  cfg.num_antennas = d;
  cfg.antenna_spacing_m = cfg.wavelength_m / 2.0;
  CMat y(d, snapshots);
  std::normal_distribution<double> n(0.0, 1.0);
  for (index_t t = 0; t < snapshots; ++t) {
    for (double a : angles) {
      const auto s = dsp::steering_aoa(a, cfg);
      const cxd amp{n(rng), n(rng)};
      for (index_t i = 0; i < d; ++i) y(i, t) += amp * s[i];
    }
    for (index_t i = 0; i < d; ++i) {
      y(i, t) += cxd{n(rng) * noise_sigma, n(rng) * noise_sigma};
    }
  }
  return linalg::eig_hermitian(sample_covariance(y)).eigenvalues;
}

TEST(ModelOrder, ZeroSourcesPureNoise) {
  auto rng = rt::make_rng(131);
  const RVec lam = planted_eigenvalues(6, {}, 400, 1.0, rng);
  EXPECT_EQ(estimate_model_order(lam, 400), 0);
}

TEST(ModelOrder, DetectsOneSource) {
  auto rng = rt::make_rng(132);
  const RVec lam = planted_eigenvalues(6, {70.0}, 400, 0.1, rng);
  EXPECT_EQ(estimate_model_order(lam, 400), 1);
}

TEST(ModelOrder, DetectsThreeSources) {
  auto rng = rt::make_rng(133);
  const RVec lam = planted_eigenvalues(8, {40.0, 90.0, 140.0}, 600, 0.1, rng);
  EXPECT_EQ(estimate_model_order(lam, 600), 3);
}

TEST(ModelOrder, AicAndMdlAgreeOnEasyCases) {
  auto rng = rt::make_rng(134);
  const RVec lam = planted_eigenvalues(7, {60.0, 120.0}, 500, 0.05, rng);
  EXPECT_EQ(estimate_model_order(lam, 500, OrderCriterion::kMdl), 2);
  EXPECT_EQ(estimate_model_order(lam, 500, OrderCriterion::kAic), 2);
}

TEST(ModelOrder, UnderestimatesAtVeryLowSnrMdl) {
  // At terrible SNR the signal eigenvalue sinks into the noise spread —
  // MDL then under-reports the source count. This is exactly the
  // degradation that motivates ROArray's K-free formulation.
  auto rng = rt::make_rng(135);
  const RVec lam = planted_eigenvalues(5, {60.0, 100.0}, 30, 5.0, rng);
  EXPECT_LT(estimate_model_order(lam, 30), 2);
}

TEST(ModelOrder, InvalidInputsThrow) {
  EXPECT_THROW((void)estimate_model_order(RVec(1), 10), std::invalid_argument);
  EXPECT_THROW((void)estimate_model_order(RVec(4), 0), std::invalid_argument);
}

TEST(ModelOrder, HandlesRankDeficientCovariance) {
  // Zero eigenvalues (more antennas than snapshots) must not produce
  // NaNs or throws.
  RVec lam(6);
  lam[4] = 1.0;
  lam[5] = 10.0;
  const index_t k = estimate_model_order(lam, 4);
  EXPECT_GE(k, 0);
  EXPECT_LT(k, 6);
}

class ModelOrderSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(ModelOrderSweep, CorrectCountAcrossSourceNumbers) {
  const index_t true_k = GetParam();
  std::vector<double> angles;
  for (index_t i = 0; i < true_k; ++i) {
    angles.push_back(30.0 + 120.0 * static_cast<double>(i) /
                                std::max<index_t>(1, true_k - 1));
  }
  if (true_k == 1) angles = {75.0};
  auto rng = rt::make_rng(static_cast<std::uint64_t>(777 + true_k));
  const RVec lam = planted_eigenvalues(10, angles, 800, 0.05, rng);
  EXPECT_EQ(estimate_model_order(lam, 800), true_k);
}

INSTANTIATE_TEST_SUITE_P(Counts, ModelOrderSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace roarray::music
