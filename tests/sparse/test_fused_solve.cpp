// The fused one-pass FISTA iteration on Kronecker-structured operators
// (sparse/fista.cpp) against its differential oracle: the generic loop
// on the same dictionary materialized as a DenseOperator. Also pins the
// fused path's thread-count invariance and that solve_l1 and
// solve_group_l1 share it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "dsp/steering.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/fista.hpp"
#include "sparse/operator.hpp"
#include "sparse/power.hpp"
#include "../test_util.hpp"

namespace roarray::sparse {
namespace {

namespace rt = roarray::testing;

// Agreement contract of the differential property: equal iteration
// counts and kappa, and iterates within this bound relative to the
// oracle's largest coefficient (the two loops differ only in the
// rounding of their operator products and reductions). It holds at the
// default stop tolerance (1e-6). Run far past it (1e-7 and below on
// these random, poorly conditioned factors) the per-iteration
// objective change reaches rounding level, the monotone-restart test
// compares noise, and a flipped restart or stop moves the iterate by
// one step (~1e-7): that regime has no iteration-count contract.
constexpr double kIterateBound = 1e-9;

double max_abs(const CMat& m) {
  double mx = 0.0;
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) mx = std::max(mx, std::abs(m(i, j)));
  }
  return mx;
}

double max_abs_diff(const CMat& a, const CMat& b) {
  double mx = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      mx = std::max(mx, std::abs(a(i, j) - b(i, j)));
    }
  }
  return mx;
}

struct Case {
  index_t m, nl, l, nr, k;
  double kappa_ratio;
  bool zero_y;
};

std::string describe(const Case& c) {
  return "M=" + std::to_string(c.m) + " N_l=" + std::to_string(c.nl) +
         " L=" + std::to_string(c.l) + " N_r=" + std::to_string(c.nr) +
         " K=" + std::to_string(c.k) +
         " kappa_ratio=" + std::to_string(c.kappa_ratio) +
         (c.zero_y ? " y=0" : "");
}

/// Runs the fused and the generic loop on one problem and checks the
/// agreement contract. K = 1 goes through solve_l1 on both sides.
void expect_fused_matches_generic(const LinearOperator& fused_op,
                                  const CMat& y, double kappa_ratio,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  const DenseOperator dense(
      dynamic_cast<const SupportOperator*>(&fused_op) != nullptr
          ? dynamic_cast<const SupportOperator&>(fused_op).sub().to_dense()
          : dynamic_cast<const KroneckerOperator&>(fused_op).to_dense());
  SolveConfig cfg;
  cfg.kappa_ratio = kappa_ratio;
  cfg.max_iterations = 400;
  cfg.lipschitz_hint = operator_norm_sq(dense);  // one step for both

  CMat xf, xg;
  int itf = 0, itg = 0;
  std::vector<double> objf, objg;
  if (y.cols() == 1) {
    const SolveResult g = solve_l1(dense, y.col_vec(0), cfg);
    cfg.kappa = g.kappa > 0.0 ? g.kappa : -1.0;
    const SolveResult f = solve_l1(fused_op, y.col_vec(0), cfg);
    EXPECT_EQ(f.kappa, g.kappa);
    xf = CMat(f.x.size(), 1);
    xf.set_col(0, f.x);
    xg = CMat(g.x.size(), 1);
    xg.set_col(0, g.x);
    itf = f.iterations;
    itg = g.iterations;
    objf = f.objective;
    objg = g.objective;
  } else {
    const GroupSolveResult g = solve_group_l1(dense, y, cfg);
    cfg.kappa = g.kappa > 0.0 ? g.kappa : -1.0;
    const GroupSolveResult f = solve_group_l1(fused_op, y, cfg);
    EXPECT_EQ(f.kappa, g.kappa);
    xf = f.x;
    xg = g.x;
    itf = f.iterations;
    itg = g.iterations;
    objf = f.objective;
    objg = g.objective;
  }
  EXPECT_EQ(itf, itg);
  const double scale = std::max(1.0, max_abs(xg));
  EXPECT_LE(max_abs_diff(xf, xg), kIterateBound * scale);
  ASSERT_EQ(objf.size(), objg.size());
  for (std::size_t i = 0; i < objf.size(); ++i) {
    EXPECT_NEAR(objf[i], objg[i], kIterateBound * (1.0 + std::abs(objg[i])))
        << "objective at " << i;
  }
}

TEST(FusedSolve, MatchesGenericOracleOnRandomKroneckerProblems) {
  auto rng = rt::make_rng(1501);
  std::uniform_int_distribution<index_t> antennas(2, 5);
  std::uniform_int_distribution<index_t> snapshots(1, 6);
  std::uniform_int_distribution<index_t> aoa_cells(3, 14);
  std::uniform_int_distribution<index_t> toa_cells(2, 11);
  std::uniform_int_distribution<index_t> subcarriers(3, 8);
  std::uniform_real_distribution<double> ratio(0.05, 0.6);
  for (int trial = 0; trial < 40; ++trial) {
    Case c{antennas(rng), aoa_cells(rng), subcarriers(rng), toa_cells(rng),
           snapshots(rng), ratio(rng), trial % 10 == 9};
    if (trial % 2 == 0) c.nl |= 1;         // odd N_l
    if (trial % 2 == 1) c.nl += c.nl % 2;  // even N_l
    const KroneckerOperator op(rt::random_cmat(c.m, c.nl, rng),
                               rt::random_cmat(c.l, c.nr, rng));
    const CMat y = c.zero_y ? CMat(op.rows(), c.k)
                            : rt::random_cmat(op.rows(), c.k, rng);
    expect_fused_matches_generic(op, y, c.kappa_ratio, describe(c));
  }
}

TEST(FusedSolve, MatchesGenericOracleOnSteeringSupports) {
  // The coarse-to-fine shapes: a Cartesian support of the paper's
  // dictionary, including a one-cell support, at K = 1 and K = 3.
  dsp::ArrayConfig arr;
  arr.num_subcarriers = 12;
  const KroneckerOperator full(
      dsp::steering_matrix_aoa(dsp::Grid(0.0, 180.0, 37), arr),
      dsp::steering_matrix_toa(dsp::Grid(0.0, 700e-9, 15), arr));
  auto rng = rt::make_rng(1502);
  const std::vector<std::vector<index_t>> aoa_supports = {
      {17}, {3, 4, 5, 6, 7, 20, 21, 22, 23}, {0, 1, 2, 3, 4, 5, 6, 7, 36}};
  const std::vector<std::vector<index_t>> toa_supports = {
      {4}, {1, 2, 3, 9}, {0, 1, 2, 3, 4, 5, 14}};
  for (std::size_t s = 0; s < aoa_supports.size(); ++s) {
    const SupportOperator sub(full, aoa_supports[s], toa_supports[s]);
    for (const index_t k : {index_t{1}, index_t{3}}) {
      const CMat y = rt::random_cmat(sub.rows(), k, rng);
      expect_fused_matches_generic(
          sub, y, 0.2,
          "support " + std::to_string(s) + " K=" + std::to_string(k));
    }
  }
}

TEST(FusedSolve, SolveL1IsTheGroupLoopWithOneSnapshot) {
  auto rng = rt::make_rng(1503);
  const KroneckerOperator op(rt::random_cmat(3, 11, rng),
                             rt::random_cmat(7, 9, rng));
  const CVec y = rt::random_cvec(op.rows(), rng);
  SolveConfig cfg;
  cfg.kappa = 0.4;
  cfg.max_iterations = 300;
  cfg.tolerance = 1e-9;
  const SolveResult v = solve_l1(op, y, cfg);
  CMat ym(op.rows(), 1);
  ym.set_col(0, y);
  const GroupSolveResult g = solve_group_l1(op, ym, cfg);
  EXPECT_EQ(v.iterations, g.iterations);
  EXPECT_EQ(v.objective, g.objective);
  for (index_t i = 0; i < op.cols(); ++i) {
    EXPECT_EQ(v.x[i], g.x(i, 0)) << "coefficient " << i;
  }
}

TEST(FusedSolve, CallbackSeesEveryIterate) {
  auto rng = rt::make_rng(1504);
  const KroneckerOperator op(rt::random_cmat(4, 10, rng),
                             rt::random_cmat(6, 5, rng));
  const CVec y = rt::random_cvec(op.rows(), rng);
  SolveConfig cfg;
  cfg.max_iterations = 50;
  cfg.tolerance = 0.0;
  int calls = 0;
  CVec last;
  const SolveResult r = solve_l1(op, y, cfg, [&](int it, const CVec& x) {
    ++calls;
    EXPECT_EQ(it, calls);
    last = x;
  });
  EXPECT_EQ(calls, r.iterations);
  rt::expect_vec_near(last, r.x, 0.0, "final callback iterate");
}

TEST(FusedSolve, PooledFullGridSolveIsThreadCountInvariant) {
  // Top-level pooled solve on the full default grid: ToA-column blocks
  // of the fused pass and the ToA GEMMs fan out over the pool. Every
  // width must give the serial bits.
  const dsp::ArrayConfig arr;
  const KroneckerOperator op(
      dsp::steering_matrix_aoa(dsp::Grid(0.0, 180.0, 91), arr),
      dsp::steering_matrix_toa(dsp::Grid(0.0, 784e-9, 50), arr));
  auto rng = rt::make_rng(1505);
  const CMat y = rt::random_cmat(op.rows(), 3, rng);
  SolveConfig cfg;
  cfg.max_iterations = 60;
  const GroupSolveResult serial = solve_group_l1(op, y, cfg, nullptr);
  for (const int threads : {1, 2, 3, 4}) {
    const runtime::ThreadPool pool(threads);
    const GroupSolveResult pooled = solve_group_l1(op, y, cfg, &pool);
    EXPECT_EQ(pooled.iterations, serial.iterations) << threads << " threads";
    EXPECT_EQ(pooled.objective, serial.objective) << threads << " threads";
    EXPECT_EQ(max_abs_diff(pooled.x, serial.x), 0.0) << threads << " threads";
  }
}

}  // namespace
}  // namespace roarray::sparse
