// The two offline views of a round the benchmark checks against:
//   * the reference: the library's own offline pipeline
//     (core::roarray_estimate_batch over the round's bursts, then
//     loc::localize) — what every served response must equal bit for
//     bit;
//   * the stage replica: the same computation rebuilt from each layer's
//     public functions, so bench code can time every stage from the
//     outside. It must reproduce the reference's direct AoA/ToA and
//     solver iteration count exactly, or its timings are stale.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/geometry.hpp"
#include "core/roarray.hpp"
#include "helpers.hpp"
#include "io/trace_reader.hpp"
#include "runtime/context.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// One AP's estimate as the service reports it.
struct ApOutcome {
  bool valid = false;
  double aoa_deg = 0.0;
  double toa_s = 0.0;
  double power = 0.0;
  int solver_iterations = 0;  ///< not part of a served response.
};

/// A round's outcome, in the terms a served Response carries.
struct RoundOutcome {
  roarray::serve::ResponseStatus status = roarray::serve::ResponseStatus::kOk;
  roarray::channel::Vec2 position;
  std::vector<ApOutcome> aps;
};

/// Bitwise equality of every served field (status, position, per-AP
/// validity, AoA, ToA, power). Solver iterations are not compared.
[[nodiscard]] bool same_served_outcome(const RoundOutcome& a,
                                       const RoundOutcome& b);

/// The service's per-round tail of a batch: given the estimates of the
/// rounds' bursts (in round, then AP order), builds each round's
/// observations and localizes it. A non-null `done_ns` receives each
/// round's completion time (now_ns()).
[[nodiscard]] std::vector<RoundOutcome> localize_rounds(
    const std::vector<const roarray::io::ClientRound*>& rounds,
    const std::vector<roarray::core::RoArrayResult>& results,
    const roarray::serve::ServeConfig& cfg,
    const roarray::runtime::ThreadPool* pool,
    std::vector<std::int64_t>* done_ns = nullptr);

/// The offline pipeline for a batch of rounds: one estimate_batch over
/// all their bursts, then localize per round, exactly as the service
/// processes a batch. `ctx` may hold no pool (serial run).
[[nodiscard]] std::vector<RoundOutcome> offline_rounds(
    const std::vector<const roarray::io::ClientRound*>& rounds,
    const roarray::serve::ServeConfig& cfg,
    const roarray::runtime::EstimateContext& ctx);

/// Per-burst stage timestamps (ns) of one replica estimate.
struct BurstStages {
  std::int64_t core[2] = {0, 0};
  std::int64_t sanitize[2] = {0, 0};
  std::int64_t l1svd[2] = {0, 0};
  std::int64_t coarse_omp[2] = {0, 0};
  std::int64_t solve[2] = {0, 0};
  std::int64_t peaks[2] = {0, 0};
  int iterations = 0;
  int iteration_cap = 0;
  std::int64_t support_cells = 0;  ///< cells of the restricted solve.
  ApOutcome outcome;
};

/// Per-round stage timestamps of the replica localization.
struct LocalizeStages {
  std::int64_t localize[2] = {0, 0};
  std::int64_t grid[2] = {0, 0};
  std::int64_t fuse[2] = {0, 0};  ///< zero width when fusion is skipped.
  bool fused = false;
  bool ransac = false;
  int irls_iterations = 0;
  int inliers = 0;
  int observations = 0;
  RoundOutcome outcome;
};

/// Monotonic clock of the bench, ns since the first call.
[[nodiscard]] std::int64_t now_ns();

/// Stage pass output for one round.
struct RoundStages {
  std::int64_t batch[2] = {0, 0};  ///< fan-out of the round's bursts.
  std::vector<BurstStages> bursts;
  LocalizeStages localize;
};

/// Runs one round through the stage replica at the pool width of
/// `ctx` (bursts fan out over the pool like estimate_batch; the grid
/// scan uses the pool like the service does).
[[nodiscard]] RoundStages replica_round(const roarray::io::ClientRound& round,
                                        const roarray::serve::ServeConfig& cfg,
                                        const roarray::runtime::EstimateContext& ctx);

/// True when the replica reproduced the reference round: per-AP
/// validity, direct AoA/ToA and iteration count, and the position.
[[nodiscard]] bool replica_agrees(const RoundStages& replica,
                                  const RoundOutcome& reference);

}  // namespace perfbench
