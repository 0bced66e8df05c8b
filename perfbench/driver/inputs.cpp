#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <sstream>
#include <stdexcept>

#include "io/trace_writer.hpp"
#include "sim/recorder.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

namespace perfbench {

namespace rs = roarray::sim;

constexpr std::size_t kRoundsPerTrace = 32;

WorkloadInput make_input(const std::vector<RoundSpec>& plan, int packets) {
  const rs::Testbed tb = rs::make_paper_testbed();
  WorkloadInput in;
  in.deployment.room = tb.room;
  in.deployment.ap_poses = tb.aps;
  for (std::size_t first = 0; first < plan.size(); first += kRoundsPerTrace) {
    const std::size_t last = std::min(plan.size(), first + kRoundsPerTrace);
    std::ostringstream os(std::ios::binary);
    roarray::io::TraceWriter writer(os, in.deployment.array);
    std::uint64_t tick = 0;
    for (std::size_t r = first; r < last; ++r) {
      const RoundSpec& spec = plan[r];
      std::mt19937_64 rng(spec.seed);
      const auto client = rs::sample_client_locations(1, tb.room, rng).front();
      rs::ScenarioConfig scfg =
          rs::scenario_for_band(static_cast<rs::SnrBand>(spec.band));
      scfg.array = in.deployment.array;
      scfg.num_packets = packets;
      if (spec.adversary == Adversary::kBlockedAp) {
        scfg.adversarial.num_blocked_aps = 1;
      } else if (spec.adversary == Adversary::kWrongPeak) {
        scfg.adversarial.wrong_peak_probability = 0.35;
      }
      const auto ms = rs::generate_measurements(tb, client, scfg, rng);
      tick = rs::record_round(writer, ms, r, tick);
      in.truth.push_back(client);
    }
    writer.flush();
    const std::string bytes = std::move(os).str();

    const auto t0 = std::chrono::steady_clock::now();
    std::istringstream is(bytes, std::ios::binary);
    roarray::io::TraceReader reader(is);
    auto decoded = roarray::io::read_client_rounds(reader);
    in.decode_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (decoded.size() != last - first) {
      throw std::runtime_error("make_input: trace round count mismatch");
    }
    for (auto& round : decoded) {
      if (round.client_id != in.rounds.size()) {
        throw std::runtime_error("make_input: rounds out of order");
      }
      in.rounds.push_back(std::move(round));
    }
  }
  return in;
}

}  // namespace perfbench
