#include "stage_pass.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "channel/csi.hpp"
#include "core/roarray.hpp"
#include "dsp/angles.hpp"
#include "dsp/sanitize.hpp"
#include "fusion/fusion.hpp"
#include "loc/localize.hpp"
#include "music/model_order.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/coarse_fine.hpp"
#include "sparse/fista.hpp"
#include "sparse/l1svd.hpp"
#include "sparse/operator.hpp"
#include "sparse/power.hpp"

namespace perfbench {

namespace core = roarray::core;
namespace serve = roarray::serve;
namespace sparse = roarray::sparse;
using roarray::linalg::CMat;
using roarray::linalg::index_t;

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_direct(const ApOutcome& a, const ApOutcome& b) {
  return a.valid == b.valid && same_bits(a.aoa_deg, b.aoa_deg) &&
         same_bits(a.toa_s, b.toa_s);
}

}  // namespace

bool same_served_outcome(const RoundOutcome& a, const RoundOutcome& b) {
  if (a.status != b.status || a.aps.size() != b.aps.size()) return false;
  if (a.status == serve::ResponseStatus::kOk &&
      !(same_bits(a.position.x, b.position.x) &&
        same_bits(a.position.y, b.position.y))) {
    return false;
  }
  for (std::size_t i = 0; i < a.aps.size(); ++i) {
    if (!same_direct(a.aps[i], b.aps[i]) ||
        !same_bits(a.aps[i].power, b.aps[i].power)) {
      return false;
    }
  }
  return true;
}

namespace {

/// The service's observation list for one round's estimates.
std::vector<roarray::loc::ApObservation> observations_of(
    const roarray::io::ClientRound& round, const std::vector<ApOutcome>& aps,
    const serve::ServeConfig& cfg) {
  std::vector<roarray::loc::ApObservation> obs;
  for (std::size_t j = 0; j < aps.size(); ++j) {
    if (!aps[j].valid) continue;
    roarray::loc::ApObservation o;
    o.pose = cfg.ap_poses[round.ap_ids[j]];
    o.aoa_deg = aps[j].aoa_deg;
    o.weight = roarray::channel::burst_rssi_weight(round.bursts[j]);
    o.toa_s = aps[j].toa_s;
    o.has_toa = true;
    obs.push_back(o);
  }
  return obs;
}

}  // namespace

std::vector<RoundOutcome> localize_rounds(
    const std::vector<const roarray::io::ClientRound*>& rounds,
    const std::vector<core::RoArrayResult>& results, const serve::ServeConfig& cfg,
    const roarray::runtime::ThreadPool* pool, std::vector<std::int64_t>* done_ns) {
  std::vector<RoundOutcome> out(rounds.size());
  if (done_ns != nullptr) done_ns->assign(rounds.size(), 0);
  std::size_t k = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    RoundOutcome& o = out[i];
    for (std::size_t j = 0; j < rounds[i]->bursts.size(); ++j, ++k) {
      ApOutcome a;
      a.valid = results[k].valid;
      if (a.valid) {
        a.aoa_deg = results[k].direct.aoa_deg;
        a.toa_s = results[k].direct.toa_s;
        a.power = results[k].direct.power;
      }
      a.solver_iterations = results[k].solver_iterations;
      o.aps.push_back(a);
    }
    const auto obs = observations_of(*rounds[i], o.aps, cfg);
    if (obs.empty()) {
      o.status = serve::ResponseStatus::kNoObservations;
    } else {
      const roarray::loc::LocalizeResult loc =
          roarray::loc::localize(obs, cfg.localize, pool);
      o.status = loc.valid ? serve::ResponseStatus::kOk
                           : serve::ResponseStatus::kNoObservations;
      o.position = loc.position;
    }
    if (done_ns != nullptr) (*done_ns)[i] = now_ns();
  }
  return out;
}

std::vector<RoundOutcome> offline_rounds(
    const std::vector<const roarray::io::ClientRound*>& rounds,
    const serve::ServeConfig& cfg, const roarray::runtime::EstimateContext& ctx) {
  std::vector<core::CsiBurst> bursts;
  for (const auto* r : rounds) {
    for (const auto& b : r->bursts) bursts.push_back(b);
  }
  return localize_rounds(
      rounds, core::roarray_estimate_batch(bursts, cfg.estimator, cfg.array, ctx),
      cfg, ctx.pool);
}

namespace {

void stamp(std::int64_t (&span)[2], std::int64_t start) {
  span[0] = start;
  span[1] = now_ns();
}

/// roarray_estimate rebuilt from public calls, one timestamp pair per
/// stage. Mirrors core/roarray.cpp on the path every workload takes —
/// a multi-packet burst with coarse-to-fine on: sanitize + stack, l1-SVD
/// with the MDL trim, the coarse support selection, the restricted group
/// solve, then the spectrum peaks and the direct-path pick.
BurstStages replica_estimate(const core::CsiBurst& packets,
                             const core::RoArrayConfig& cfg,
                             const roarray::dsp::ArrayConfig& array,
                             const roarray::runtime::EstimateContext& ctx) {
  if (!cfg.coarse_fine.enabled || packets.size() < 2) {
    throw std::invalid_argument(
        "stage replica: only multi-packet coarse-to-fine bursts are rebuilt");
  }
  BurstStages st;
  const std::int64_t t_core = now_ns();
  const auto cached = ctx.cache->get(cfg.aoa_grid, cfg.toa_grid, array);
  sparse::SolveConfig solver = cfg.solver;
  if (solver.lipschitz_hint <= 0.0) solver.lipschitz_hint = cached->norm_sq;
  const sparse::KroneckerOperator& op = cached->op;

  std::int64_t t = now_ns();
  CMat snapshots(array.num_antennas * array.num_subcarriers,
                 static_cast<index_t>(packets.size()));
  for (std::size_t p = 0; p < packets.size(); ++p) {
    CMat csi = packets[p];
    if (cfg.sanitize) {
      csi = roarray::dsp::sanitize_csi(csi, array, cfg.rebias_delay_s).csi;
    }
    snapshots.set_col(static_cast<index_t>(p), core::stack_csi(csi));
  }
  stamp(st.sanitize, t);

  t = now_ns();
  sparse::SvdReduction red = sparse::reduce_snapshots(snapshots, cfg.fusion_rank);
  if (cfg.fusion_rank <= 0) {
    const index_t p = snapshots.cols();
    const index_t r = red.singular_values.size();
    roarray::linalg::RVec lam(r);
    for (index_t i = 0; i < r; ++i) {
      const double s = red.singular_values[r - 1 - i];
      lam[i] = s * s / static_cast<double>(p);
    }
    const index_t mdl = roarray::music::estimate_model_order(lam, p);
    const index_t rank =
        std::clamp<index_t>(mdl, 1, std::min(cfg.max_paths, red.reduced.cols()));
    if (rank < red.reduced.cols()) {
      CMat trimmed(red.reduced.rows(), rank);
      for (index_t j = 0; j < rank; ++j) trimmed.set_col(j, red.reduced.col_vec(j));
      red.reduced = std::move(trimmed);
    }
  }
  const CMat& y = red.reduced;
  stamp(st.l1svd, t);

  const sparse::CoarseFineConfig& cf = cfg.coarse_fine;
  const auto coarse = ctx.cache->get_coarse(cfg.aoa_grid, cfg.toa_grid, array, cf);
  t = now_ns();
  const sparse::FactoredSupport support = sparse::select_factored_support(
      coarse->op, y, cfg.aoa_grid.size(), cfg.toa_grid.size(), cf);
  stamp(st.coarse_omp, t);

  t = now_ns();
  CMat coefficients;
  if (support.empty()) {
    coefficients = CMat(op.cols(), y.cols());
  } else {
    const sparse::SupportOperator sub(op, support.aoa, support.toa);
    solver.lipschitz_hint =
        sparse::operator_norm_sq(sparse::DenseOperator(sub.sub().left())) *
        sparse::operator_norm_sq(sparse::DenseOperator(sub.sub().right()));
    if (cf.max_refine_iterations > 0) {
      solver.max_iterations = std::min(solver.max_iterations, cf.max_refine_iterations);
    }
    if (cf.refine_tolerance > 0.0) {
      solver.tolerance = std::max(solver.tolerance, cf.refine_tolerance);
    }
    st.support_cells = static_cast<std::int64_t>(support.aoa.size() * support.toa.size());
    const sparse::GroupSolveResult sol = sparse::solve_group_l1(sub, y, solver, ctx.pool);
    st.iterations = sol.iterations;
    coefficients = sub.scatter(sol.x);
  }
  st.iteration_cap = solver.max_iterations;
  stamp(st.solve, t);

  t = now_ns();
  const roarray::dsp::Spectrum2d spectrum =
      core::coefficients_to_spectrum(coefficients, cfg.aoa_grid, cfg.toa_grid);
  auto peaks = spectrum.find_peaks(cfg.max_paths, cfg.min_peak_rel_height,
                                   cfg.min_peak_sep_aoa, cfg.min_peak_sep_toa,
                                   roarray::dsp::aoa_wrap_period(cfg.aoa_grid, array));
  std::sort(peaks.begin(), peaks.end(),
            [](const roarray::dsp::Peak& a, const roarray::dsp::Peak& b) {
              return a.toa_s < b.toa_s;
            });
  if (!peaks.empty()) {
    double max_power = 0.0;
    for (const auto& p : peaks) max_power = std::max(max_power, p.value);
    const roarray::dsp::Peak* direct = &peaks.front();
    for (const auto& p : peaks) {
      if (p.value >= cfg.min_direct_rel_power * max_power) {
        direct = &p;
        break;
      }
    }
    st.outcome.valid = true;
    st.outcome.aoa_deg = direct->aoa_deg;
    st.outcome.toa_s = direct->toa_s;
    st.outcome.power = direct->value;
  }
  stamp(st.peaks, t);
  st.outcome.solver_iterations = st.iterations;
  stamp(st.core, t_core);
  return st;
}

/// loc::localize rebuilt from public calls: the naive grid scan
/// (robust off), then fuse_robust seeded by the grid fix.
LocalizeStages replica_localize(const roarray::io::ClientRound& round,
                                const std::vector<ApOutcome>& aps,
                                const serve::ServeConfig& cfg,
                                const roarray::runtime::ThreadPool* pool) {
  LocalizeStages st;
  const std::int64_t t_loc = now_ns();
  const auto obs = observations_of(round, aps, cfg);
  st.outcome.aps = aps;
  if (obs.empty()) {
    st.outcome.status = serve::ResponseStatus::kNoObservations;
    stamp(st.localize, t_loc);
    return st;
  }
  std::int64_t t = now_ns();
  roarray::loc::LocalizeConfig grid_cfg = cfg.localize;
  grid_cfg.robust = false;
  const roarray::loc::LocalizeResult grid =
      roarray::loc::localize(obs, grid_cfg, pool);
  stamp(st.grid, t);
  st.outcome.status = grid.valid ? serve::ResponseStatus::kOk
                                 : serve::ResponseStatus::kNoObservations;
  st.outcome.position = grid.position;

  std::vector<roarray::fusion::Observation> fobs;
  for (const auto& o : obs) {
    if (!(std::isfinite(o.aoa_deg) && std::isfinite(o.weight) && o.weight > 0.0)) {
      continue;
    }
    roarray::fusion::Observation f;
    f.pose = o.pose;
    f.aoa_deg = o.aoa_deg;
    f.weight = o.weight;
    f.toa_s = o.toa_s;
    f.has_toa = o.has_toa && std::isfinite(o.toa_s);
    fobs.push_back(f);
  }
  t = now_ns();
  if (grid.valid && cfg.localize.robust &&
      static_cast<int>(fobs.size()) >= cfg.localize.robust_min_aps) {
    const roarray::fusion::FusionReport report = roarray::fusion::fuse_robust(
        fobs, cfg.localize.room, grid.position, cfg.localize.fusion);
    st.fused = true;
    st.ransac = report.used_ransac;
    st.irls_iterations = report.iterations;
    st.inliers = report.inliers;
    st.observations = static_cast<int>(fobs.size());
    st.outcome.position = report.position;
  }
  stamp(st.fuse, t);
  stamp(st.localize, t_loc);
  return st;
}

}  // namespace

RoundStages replica_round(const roarray::io::ClientRound& round,
                          const serve::ServeConfig& cfg,
                          const roarray::runtime::EstimateContext& ctx) {
  RoundStages out;
  out.bursts.resize(round.bursts.size());
  const std::int64_t t = now_ns();
  auto one = [&](index_t i) {
    const auto k = static_cast<std::size_t>(i);
    out.bursts[k] = replica_estimate(round.bursts[k], cfg.estimator, cfg.array, ctx);
  };
  const auto n = static_cast<index_t>(round.bursts.size());
  if (ctx.pool != nullptr) {
    ctx.pool->parallel_for(n, one);
  } else {
    for (index_t i = 0; i < n; ++i) one(i);
  }
  stamp(out.batch, t);
  std::vector<ApOutcome> aps;
  for (const BurstStages& b : out.bursts) aps.push_back(b.outcome);
  out.localize = replica_localize(round, aps, cfg, ctx.pool);
  return out;
}

bool replica_agrees(const RoundStages& replica, const RoundOutcome& reference) {
  if (replica.bursts.size() != reference.aps.size()) return false;
  for (std::size_t i = 0; i < reference.aps.size(); ++i) {
    const ApOutcome& a = replica.bursts[i].outcome;
    const ApOutcome& b = reference.aps[i];
    if (!same_direct(a, b) || a.solver_iterations != b.solver_iterations) {
      return false;
    }
  }
  const RoundOutcome& loc = replica.localize.outcome;
  if (loc.status != reference.status) return false;
  return reference.status != serve::ResponseStatus::kOk ||
         (same_bits(loc.position.x, reference.position.x) &&
          same_bits(loc.position.y, reference.position.y));
}

}  // namespace perfbench
