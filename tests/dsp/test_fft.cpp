#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include "channel/csi.hpp"
#include "../test_util.hpp"

namespace roarray::dsp {
namespace {

namespace rt = roarray::testing;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// Direct O(N^2) DFT for reference.
CVec dft_reference(const CVec& x) {
  const index_t n = x.size();
  CVec out(n);
  for (index_t k = 0; k < n; ++k) {
    cxd acc{};
    for (index_t t = 0; t < n; ++t) {
      acc += x[t] * std::polar(1.0, -2.0 * kPi * static_cast<double>(k * t) /
                                        static_cast<double>(n));
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, MatchesDirectDft) {
  auto rng = rt::make_rng(991);
  for (index_t n : {2, 4, 8, 32, 128}) {
    CVec x = rt::random_cvec(n, rng);
    const CVec ref = dft_reference(x);
    fft_inplace(x);
    rt::expect_vec_near(x, ref, 1e-9 * static_cast<double>(n), "fft == dft");
  }
}

TEST(Fft, InverseRoundTrip) {
  auto rng = rt::make_rng(992);
  CVec x = rt::random_cvec(64, rng);
  const CVec orig = x;
  fft_inplace(x);
  ifft_inplace(x);
  rt::expect_vec_near(x, orig, 1e-10, "ifft(fft(x)) == x");
}

TEST(Fft, ParsevalHolds) {
  auto rng = rt::make_rng(993);
  CVec x = rt::random_cvec(128, rng);
  const double time_energy = norm2_sq(x);
  fft_inplace(x);
  EXPECT_NEAR(norm2_sq(x) / 128.0, time_energy, 1e-8 * time_energy);
}

TEST(Fft, NonPowerOfTwoThrows) {
  CVec x(12);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
  CVec empty(0);
  EXPECT_THROW(fft_inplace(empty), std::invalid_argument);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  CVec x(16);
  x[0] = cxd{1.0, 0.0};
  fft_inplace(x);
  for (index_t k = 0; k < 16; ++k) {
    EXPECT_NEAR(std::abs(x[k] - cxd{1.0, 0.0}), 0.0, 1e-12);
  }
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(30), 32);
  EXPECT_EQ(next_pow2(129), 256);
  EXPECT_THROW((void)next_pow2(0), std::invalid_argument);
}

TEST(Pdp, PeaksAtPathDelay) {
  const ArrayConfig cfg;
  channel::Path p;
  p.aoa_deg = 90.0;
  p.toa_s = 240e-9;
  p.gain = cxd{1.0, 0.0};
  const auto csi = channel::synthesize_csi({p}, cfg);
  const PowerDelayProfile pdp = power_delay_profile(csi, cfg);
  // Find the strongest bin.
  index_t best = 0;
  for (index_t k = 0; k < pdp.power.size(); ++k) {
    if (pdp.power[k] > pdp.power[best]) best = k;
  }
  // Delay resolution of 30 subcarriers x 1.25 MHz is ~27 ns; zero-pad
  // interpolation localizes the peak well within one raw bin.
  EXPECT_NEAR(pdp.delays_s[best], 240e-9, 15e-9);
  EXPECT_DOUBLE_EQ(pdp.power[best], 1.0);  // normalized
}

TEST(Pdp, TwoPathsTwoPeaks) {
  const ArrayConfig cfg;
  channel::Path p1;
  p1.aoa_deg = 90.0;
  p1.toa_s = 100e-9;
  p1.gain = cxd{1.0, 0.0};
  channel::Path p2;
  p2.aoa_deg = 40.0;
  p2.toa_s = 450e-9;
  p2.gain = cxd{0.8, 0.0};
  const auto csi = channel::synthesize_csi({p1, p2}, cfg);
  const PowerDelayProfile pdp = power_delay_profile(csi, cfg);
  // Power near both true delays must dominate power far from them.
  auto power_near = [&](double tau) {
    double mx = 0.0;
    for (index_t k = 0; k < pdp.power.size(); ++k) {
      if (std::abs(pdp.delays_s[k] - tau) < 30e-9) {
        mx = std::max(mx, pdp.power[k]);
      }
    }
    return mx;
  };
  EXPECT_GT(power_near(100e-9), 0.5);
  EXPECT_GT(power_near(450e-9), 0.3);
  EXPECT_LT(power_near(700e-9), 0.2);
}

TEST(Pdp, InvalidArgsThrow) {
  const ArrayConfig cfg;
  EXPECT_THROW(power_delay_profile(linalg::CMat(3, 0), cfg),
               std::invalid_argument);
  const linalg::CMat csi(3, 30);
  EXPECT_THROW(power_delay_profile(csi, cfg, 31), std::invalid_argument);
  EXPECT_THROW(power_delay_profile(csi, cfg, 16), std::invalid_argument);
}

}  // namespace
}  // namespace roarray::dsp
