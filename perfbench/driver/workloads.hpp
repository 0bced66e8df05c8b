// One benchmark run: set-up, the workload (open-loop serving or the
// closed offline loop), the output check against the offline
// reference, and — in a traced run — the stage pass and the per-layer
// metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

/// What varies between workloads; run.py holds the named presets.
/// Every workload pins coarse-to-fine on, uses the same rounds, the
/// default max batch (the offline loop's chunk size too) and 6 APs x 15
/// packets; the burst shape, queue capacity and deadline are constants
/// of workloads.cpp.
struct RunOptions {
  std::string workload = "custom";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool open_loop = true;        ///< false: offline closed loop, no serve.
  double limit_ms = 1000.0;     ///< goodput latency limit.
  std::size_t window = 100;     ///< slots per window of the windowed medians.
  std::string spans_out;        ///< traced run: span CSV path ("" = none).
};

/// A run's outcome, ready for the JSON report.
struct RunReport {
  std::map<std::string, std::string> machine;  ///< provenance, JSON values.
  std::map<std::string, bool> checks;
  std::map<std::string, double> counts;
  std::map<std::string, double> e2e;      ///< from the untraced loop.
  std::map<std::string, double> layers;   ///< complete in a traced run only.
  std::map<std::string, double> extra;    ///< diagnostics outside the contract.
};

[[nodiscard]] RunReport run_workload(const RunOptions& opts);

}  // namespace perfbench
