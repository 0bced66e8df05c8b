// Workload inputs: the seeded round plan turned into simulated CSI,
// recorded into trace bytes and decoded back. The program under test
// only ever sees the decoded rounds; the generator's truth stays with
// the bench.
#pragma once

#include <vector>

#include "channel/geometry.hpp"
#include "dsp/constants.hpp"
#include "helpers.hpp"
#include "io/trace_reader.hpp"

namespace perfbench {

/// The deployment every workload runs in: the paper testbed.
struct Deployment {
  roarray::channel::Room room;
  std::vector<roarray::channel::ApPose> ap_poses;  ///< index = ap_id.
  roarray::dsp::ArrayConfig array;
};

/// One run's input. rounds[r] is planned round r (trace client id r).
struct WorkloadInput {
  Deployment deployment;
  std::vector<roarray::io::ClientRound> rounds;
  std::vector<roarray::channel::Vec2> truth;  ///< true client position per round.
  double decode_s = 0.0;  ///< time spent decoding the trace bytes.
};

/// Simulates every planned round (6 APs x `packets` packets, the
/// round's band and adversary), records it into trace bytes and decodes
/// it with io::read_client_rounds. Rounds go through the trace a few
/// dozen at a time, so the encoded copy never holds the whole input.
/// Throws when a decoded trace does not give back the recorded rounds.
[[nodiscard]] WorkloadInput make_input(const std::vector<RoundSpec>& plan,
                                       int packets);

}  // namespace perfbench
