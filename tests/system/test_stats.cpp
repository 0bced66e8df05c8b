#include "eval/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "../test_util.hpp"
#include "runtime/seed.hpp"

namespace roarray::eval {
namespace {

namespace rt = roarray::testing;

TEST(BootstrapCi, BracketsTheMedian) {
  auto rng = rt::make_rng(1011);
  std::normal_distribution<double> n(5.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(n(rng));
  const ConfidenceInterval ci = bootstrap_median_ci(samples, rng);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
  // 95% CI for the median of N(5,1) with n=200 is tight around 5.
  EXPECT_NEAR(ci.point, 5.0, 0.3);
  EXPECT_LT(ci.hi - ci.lo, 0.8);
}

TEST(BootstrapCi, WiderWithFewerSamples) {
  auto rng = rt::make_rng(1012);
  std::normal_distribution<double> n(0.0, 1.0);
  std::vector<double> small, large;
  for (int i = 0; i < 10; ++i) small.push_back(n(rng));
  for (int i = 0; i < 500; ++i) large.push_back(n(rng));
  const auto ci_small = bootstrap_median_ci(small, rng);
  const auto ci_large = bootstrap_median_ci(large, rng);
  EXPECT_GT(ci_small.hi - ci_small.lo, ci_large.hi - ci_large.lo);
}

TEST(BootstrapCi, HigherConfidenceIsWider) {
  auto rng = rt::make_rng(1013);
  std::normal_distribution<double> n(0.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 60; ++i) samples.push_back(n(rng));
  auto rng_a = rt::make_rng(1);
  auto rng_b = rt::make_rng(1);
  const auto ci90 = bootstrap_median_ci(samples, rng_a, 0.90);
  const auto ci99 = bootstrap_median_ci(samples, rng_b, 0.99);
  EXPECT_GE(ci99.hi - ci99.lo, ci90.hi - ci90.lo);
}

TEST(BootstrapCi, InvalidInputsThrow) {
  auto rng = rt::make_rng(1014);
  std::vector<double> empty;
  EXPECT_THROW((void)bootstrap_median_ci(empty, rng), std::invalid_argument);
  std::vector<double> ok = {1.0, 2.0};
  EXPECT_THROW((void)bootstrap_median_ci(ok, rng, 1.5), std::invalid_argument);
  EXPECT_THROW((void)bootstrap_median_ci(ok, rng, 0.95, 2), std::invalid_argument);
}

TEST(BootstrapCi, RegressionPinsPercentileIndexing) {
  // Fixed sample set + seed: pins the percentile endpoints to the
  // nearest-rank (lower) / ceiling (upper) indexing. The old floored
  // upper index shifted ci.hi one order statistic low on fractional
  // ranks, silently narrowing the interval.
  const std::vector<double> samples = {0.8, 1.1, 1.9, 2.4, 3.0,
                                       3.6, 4.2, 5.0, 6.5, 9.1};
  auto rng = rt::make_rng(2026);
  const ConfidenceInterval ci = bootstrap_median_ci(samples, rng, 0.95, 200);
  EXPECT_DOUBLE_EQ(ci.point, 3.3);  // (3.0 + 3.6) / 2
  EXPECT_DOUBLE_EQ(ci.lo, 1.9);
  EXPECT_DOUBLE_EQ(ci.hi, 5.35);
}

TEST(BootstrapCi, DeterministicGivenSeed) {
  std::vector<double> samples = {1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 0.5};
  auto rng_a = rt::make_rng(77);
  auto rng_b = rt::make_rng(77);
  const auto a = bootstrap_median_ci(samples, rng_a);
  const auto b = bootstrap_median_ci(samples, rng_b);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapCi, DerivedTrialSeedsAreReproducibleAndDistinct) {
  // The eval pipeline seeds each trial with derive_seed(base, trial);
  // the resulting bootstrap intervals must replay bit-exactly from the
  // base seed alone, while distinct trials see distinct streams.
  std::vector<double> samples;
  {
    auto srng = rt::make_rng(9001);
    std::normal_distribution<double> n(10.0, 3.0);
    for (int i = 0; i < 40; ++i) samples.push_back(n(srng));
  }
  const std::uint64_t base = 0xfeedface;
  std::vector<ConfidenceInterval> first, second;
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    auto rng_a = rt::make_rng(runtime::derive_seed(base, trial));
    auto rng_b = rt::make_rng(runtime::derive_seed(base, trial));
    first.push_back(bootstrap_median_ci(samples, rng_a));
    second.push_back(bootstrap_median_ci(samples, rng_b));
  }
  bool any_interval_differs_between_trials = false;
  for (std::size_t t = 0; t < first.size(); ++t) {
    EXPECT_DOUBLE_EQ(first[t].lo, second[t].lo) << "trial " << t;
    EXPECT_DOUBLE_EQ(first[t].hi, second[t].hi) << "trial " << t;
    if (t > 0 && (first[t].lo != first[0].lo || first[t].hi != first[0].hi)) {
      any_interval_differs_between_trials = true;
    }
  }
  EXPECT_TRUE(any_interval_differs_between_trials)
      << "derived seeds collapsed to identical bootstrap streams";
}

TEST(BootstrapCi, DeterministicAcrossResampleCounts) {
  // Changing only the resample count must not perturb the point
  // estimate (the sample median is resample-independent).
  const std::vector<double> samples = {0.8, 1.1, 1.9, 2.4, 3.0, 3.6};
  auto rng_a = rt::make_rng(31);
  auto rng_b = rt::make_rng(31);
  const auto a = bootstrap_median_ci(samples, rng_a, 0.95, 200);
  const auto b = bootstrap_median_ci(samples, rng_b, 0.95, 2000);
  EXPECT_DOUBLE_EQ(a.point, b.point);
}

TEST(KsStatistic, IdenticalDistributionsGiveZero) {
  const Cdf a({1.0, 2.0, 3.0});
  const Cdf b({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 0.0);
}

TEST(KsStatistic, DisjointSupportsGiveOne) {
  const Cdf a({1.0, 2.0, 3.0});
  const Cdf b({10.0, 11.0});
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(KsStatistic, SymmetricAndBounded) {
  auto rng = rt::make_rng(1015);
  std::normal_distribution<double> n1(0.0, 1.0), n2(0.5, 1.5);
  std::vector<double> s1, s2;
  for (int i = 0; i < 100; ++i) {
    s1.push_back(n1(rng));
    s2.push_back(n2(rng));
  }
  const Cdf a(s1), b(s2);
  const double d_ab = ks_statistic(a, b);
  EXPECT_DOUBLE_EQ(d_ab, ks_statistic(b, a));
  EXPECT_GT(d_ab, 0.0);
  EXPECT_LE(d_ab, 1.0);
}

TEST(KsStatistic, GrowsWithDistributionShift) {
  auto rng = rt::make_rng(1016);
  std::normal_distribution<double> base(0.0, 1.0);
  std::vector<double> s0;
  for (int i = 0; i < 300; ++i) s0.push_back(base(rng));
  const Cdf a(s0);
  double prev = 0.0;
  for (double shift : {0.3, 1.0, 3.0}) {
    std::vector<double> s;
    for (double v : s0) s.push_back(v + shift);
    const double d = ks_statistic(a, Cdf(s));
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(KsStatistic, EmptyThrows) {
  const Cdf a({1.0});
  EXPECT_THROW((void)ks_statistic(a, Cdf{}), std::invalid_argument);
}

}  // namespace
}  // namespace roarray::eval
