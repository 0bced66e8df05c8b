// Serve-layer properties.
//
// Differential: BatchGroupingLeavesResultsBitIdentical — any generated
// workload pushed through LocalizationService{dispatchers = 0} in
// deterministic pump/drain mode produces per-submission responses
// bit-identical to a max_batch = 1, linger = 0 run of the same
// submissions, for max_batch in {1, 2, 4, 8} under the workload's
// linger. Batch grouping varies with both; results must not (DESIGN.md
// §10 replay-determinism contract).
//
// Concurrent: randomized submitter threads against a service with two
// dispatchers over a shared pool and operator cache — the leg the TSan
// build instruments. Accounting invariants (accepted + queue-full ==
// submitted, callbacks == completions == accepted) are checked after
// stop(); threads only touch atomics, never gtest asserts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "proptest.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"

namespace pt = roarray::proptest;

namespace roarray {
namespace {

/// Small configuration (mirrors tests/serve): coarse grids,
/// few iterations, two APs — one solve costs a few milliseconds.
serve::ServeConfig tiny_serve_config(int dispatchers) {
  serve::ServeConfig cfg;
  cfg.estimator.aoa_grid = dsp::Grid(0.0, 180.0, 19);
  cfg.estimator.toa_grid = dsp::Grid(0.0, 784e-9, 8);
  cfg.estimator.solver.max_iterations = 30;
  cfg.localize.grid_step_m = 0.5;
  cfg.ap_poses = {{{0.0, 6.0}, 90.0}, {{18.0, 6.0}, 90.0}};
  cfg.dispatchers = dispatchers;
  return cfg;
}

/// One clean-channel request; all case randomness is folded into
/// `seed` so the request can be re-synthesized identically in every
/// service run of the same case.
serve::Request seeded_request(std::uint64_t client_id, serve::Tick tick,
                              std::uint64_t seed) {
  channel::Path direct;
  direct.aoa_deg = 100.0;
  direct.toa_s = 60e-9;
  direct.gain = {1.0, 0.0};
  std::mt19937_64 rng(seed);
  serve::Request req;
  req.client_id = client_id;
  req.submit_tick = tick;
  for (std::uint32_t ap = 0; ap < 2; ++ap) {
    serve::ApSubmission sub;
    sub.ap_id = ap;
    linalg::CMat csi = channel::synthesize_csi({direct}, dsp::ArrayConfig{});
    (void)channel::add_noise(csi, 20.0, rng);
    sub.packets.push_back(std::move(csi));
    req.aps.push_back(std::move(sub));
  }
  return req;
}

/// Exact bit pattern of every numeric response field, in a fixed
/// order, so replays compare with operator==.
std::vector<std::uint64_t> response_bits(const serve::Response& r) {
  std::vector<std::uint64_t> bits;
  auto push_double = [&bits](double d) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    bits.push_back(u);
  };
  bits.push_back(static_cast<std::uint64_t>(r.status));
  bits.push_back(r.client_id);
  bits.push_back(r.location.valid ? 1u : 0u);
  push_double(r.location.position.x);
  push_double(r.location.position.y);
  push_double(r.location.cost);
  for (const serve::ApEstimate& ae : r.ap_estimates) {
    bits.push_back(ae.ap_id);
    bits.push_back(ae.valid ? 1u : 0u);
    push_double(ae.aoa_deg);
    push_double(ae.toa_s);
    push_double(ae.power);
    push_double(ae.weight);
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Differential: batch grouping vs one request per batch.

struct Submission {
  std::uint64_t client_id = 0;
  serve::Tick tick = 0;
  std::uint64_t seed = 0;
};

struct ServeWorkload {
  std::vector<Submission> subs;
  int pump_every = 2;            ///< pump() after every this-many submissions.
  serve::Tick linger_ticks = 0;  ///< batch linger of the grouped runs.
};

pt::Gen<ServeWorkload> workload_gen() {
  return [](pt::Rng& rng) {
    ServeWorkload w;
    std::uniform_int_distribution<int> n_dist(1, 9);
    std::uniform_int_distribution<std::uint64_t> client_dist(0, 7);
    std::uniform_int_distribution<serve::Tick> gap_dist(0, 3);
    std::uniform_int_distribution<int> pump_dist(1, 4);
    std::uniform_int_distribution<serve::Tick> linger_dist(0, 4);
    const int n = n_dist(rng);
    serve::Tick tick = 0;
    for (int i = 0; i < n; ++i) {
      tick += gap_dist(rng);  // non-decreasing logical time
      w.subs.push_back({client_dist(rng), tick, rng()});
    }
    w.pump_every = pump_dist(rng);
    w.linger_ticks = linger_dist(rng);
    return w;
  };
}

/// Shrink by dropping one submission at a time, then by pumping after
/// every submission (the simplest interleaving), then by dispatching
/// greedily.
pt::Shrinker<ServeWorkload> workload_shrinker() {
  return [](const ServeWorkload& w) {
    std::vector<ServeWorkload> out;
    for (std::size_t i = 0; i < w.subs.size(); ++i) {
      ServeWorkload c = w;
      c.subs.erase(c.subs.begin() + static_cast<std::ptrdiff_t>(i));
      if (!c.subs.empty()) out.push_back(std::move(c));
    }
    if (w.pump_every != 1) {
      ServeWorkload c = w;
      c.pump_every = 1;
      out.push_back(std::move(c));
    }
    if (w.linger_ticks != 0) {
      ServeWorkload c = w;
      c.linger_ticks = 0;
      out.push_back(std::move(c));
    }
    return out;
  };
}

pt::Show<ServeWorkload> workload_show() {
  return [](const ServeWorkload& w) {
    std::ostringstream os;
    os << "pump_every=" << w.pump_every << " linger=" << w.linger_ticks
       << " subs=[";
    for (const Submission& s : w.subs) {
      os << "(c" << s.client_id << ",t" << s.tick << ",s" << s.seed << ")";
    }
    os << "]";
    return os.str();
  };
}

/// Runs the workload through a fresh manual-mode service, pumping at the
/// workload's cadence, and fills the per-submission fingerprints. Every
/// submission must be accepted (the queue capacity is far above the
/// generated sizes).
std::optional<std::string> run_workload(
    linalg::index_t max_batch, serve::Tick linger,
    const ServeWorkload& w, std::vector<std::vector<std::uint64_t>>& slots) {
  serve::ServeConfig cfg = tiny_serve_config(0);
  cfg.max_batch = max_batch;
  cfg.batch_linger_ticks = linger;
  serve::LocalizationService svc(cfg);
  slots.assign(w.subs.size(), {});
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    const Submission& s = w.subs[i];
    auto* slot = &slots[i];
    const serve::SubmitStatus st = svc.submit(
        seeded_request(s.client_id, s.tick, s.seed),
        [slot](const serve::Response& r) { *slot = response_bits(r); });
    if (st != serve::SubmitStatus::kAccepted) {
      return std::string("submission ") + std::to_string(i) + " rejected: " +
             serve::submit_status_name(st);
    }
    if ((i + 1) % static_cast<std::size_t>(w.pump_every) == 0) {
      (void)svc.pump();
    }
  }
  svc.drain();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].empty()) {
      return std::string("submission ") + std::to_string(i) +
             " never completed";
    }
  }
  return std::nullopt;
}

TEST(ServeProperties, BatchGroupingLeavesResultsBitIdentical) {
  pt::CheckConfig cfg;
  cfg.cases = 6;  // each case runs 5 full service replays
  pt::check<ServeWorkload>(
      "pump/drain responses are bit-identical at every batch grouping",
      workload_gen(),
      [](const ServeWorkload& w) -> std::optional<std::string> {
        std::vector<std::vector<std::uint64_t>> reference;
        if (auto err = run_workload(1, 0, w, reference)) {
          return "max_batch=1 linger=0: " + *err;
        }
        for (const linalg::index_t max_batch : {1, 2, 4, 8}) {
          const std::string label = "max_batch=" + std::to_string(max_batch);
          std::vector<std::vector<std::uint64_t>> got;
          if (auto err = run_workload(max_batch, w.linger_ticks, w, got)) {
            return label + ": " + *err;
          }
          for (std::size_t i = 0; i < reference.size(); ++i) {
            if (got[i] != reference[i]) {
              return label + ": submission " + std::to_string(i) +
                     " differs bitwise from the one-per-batch result";
            }
          }
        }
        return std::nullopt;
      },
      workload_shrinker(), workload_show(), cfg);
}

// ---------------------------------------------------------------------------
// Concurrent submitters against a two-dispatcher service (TSan target).

struct ConcurrentPlan {
  int submitters = 2;  ///< 2..3 threads.
  int per_thread = 2;  ///< 2..4 submissions each.
  /// 1..4: small enough that contended submits also hit kQueueFull.
  linalg::index_t queue_capacity = 4;
  std::uint64_t seed = 1;
};

pt::Gen<ConcurrentPlan> concurrent_gen() {
  return [](pt::Rng& rng) {
    ConcurrentPlan p;
    std::uniform_int_distribution<int> threads_dist(2, 3);
    std::uniform_int_distribution<int> per_dist(2, 4);
    std::uniform_int_distribution<int> capacity_dist(1, 4);
    p.submitters = threads_dist(rng);
    p.per_thread = per_dist(rng);
    p.queue_capacity = capacity_dist(rng);
    p.seed = rng();
    return p;
  };
}

pt::Show<ConcurrentPlan> concurrent_show() {
  return [](const ConcurrentPlan& p) {
    std::ostringstream os;
    os << "submitters=" << p.submitters << " per_thread=" << p.per_thread
       << " queue_capacity=" << p.queue_capacity << " seed=" << p.seed;
    return os.str();
  };
}

TEST(ServeProperties, ConcurrentSubmitAccountsForEveryRequest) {
  pt::CheckConfig cfg;
  cfg.cases = 4;  // each case spawns submitter and dispatcher threads
  pt::check<ConcurrentPlan>(
      "concurrent submit: every request is accepted or shed, and every "
      "accepted one completes with exactly one callback",
      concurrent_gen(),
      [](const ConcurrentPlan& p) -> std::optional<std::string> {
        serve::ServeConfig scfg = tiny_serve_config(2);
        scfg.queue_capacity = p.queue_capacity;
        runtime::OperatorCache cache;
        runtime::ThreadPool pool(2);

        // Pre-synthesize every request so submitter threads only move
        // data and touch atomics.
        std::vector<std::vector<serve::Request>> plans(
            static_cast<std::size_t>(p.submitters));
        for (int t = 0; t < p.submitters; ++t) {
          for (int i = 0; i < p.per_thread; ++i) {
            const auto id =
                static_cast<std::uint64_t>(t * p.per_thread + i);
            plans[static_cast<std::size_t>(t)].push_back(seeded_request(
                id, static_cast<serve::Tick>(i), p.seed + id));
          }
        }

        std::atomic<std::uint64_t> accepted{0};
        std::atomic<std::uint64_t> queue_full{0};
        std::atomic<std::uint64_t> callbacks{0};
        std::atomic<std::uint64_t> unexpected{0};
        serve::LocalizationService svc(scfg, {&cache, &pool});
        {
          std::vector<std::thread> threads;
          for (int t = 0; t < p.submitters; ++t) {
            threads.emplace_back([&, t] {
              for (serve::Request& req : plans[static_cast<std::size_t>(t)]) {
                const auto st = svc.submit(
                    std::move(req), [&callbacks](const serve::Response&) {
                      callbacks.fetch_add(1, std::memory_order_relaxed);
                    });
                if (st == serve::SubmitStatus::kAccepted) {
                  accepted.fetch_add(1, std::memory_order_relaxed);
                } else if (st == serve::SubmitStatus::kQueueFull) {
                  queue_full.fetch_add(1, std::memory_order_relaxed);
                } else {
                  unexpected.fetch_add(1, std::memory_order_relaxed);
                }
              }
            });
          }
          for (auto& t : threads) t.join();
        }
        svc.stop();

        const auto total =
            static_cast<std::uint64_t>(p.submitters * p.per_thread);
        if (unexpected.load() != 0) {
          return "submit returned a status other than accepted/queue-full";
        }
        if (accepted.load() + queue_full.load() != total) {
          return "accepted + queue_full != submitted";
        }
        if (callbacks.load() != accepted.load()) {
          return "callbacks (" + std::to_string(callbacks.load()) +
                 ") != accepted (" + std::to_string(accepted.load()) + ")";
        }
        const serve::ServiceStats stats = svc.stats();
        if (stats.accepted != accepted.load() ||
            stats.rejected_queue_full != queue_full.load()) {
          return "service admission counters disagree with the submitters";
        }
        if (stats.completed_ok + stats.completed_no_observations !=
            accepted.load()) {
          return "completions != accepted";
        }
        return std::nullopt;
      },
      /*shrink=*/{}, concurrent_show(), cfg);
}
}  // namespace
}  // namespace roarray
