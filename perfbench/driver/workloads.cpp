#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "inputs.hpp"
#include "linalg/backend/backend.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "stage_pass.hpp"

namespace perfbench {

namespace core = roarray::core;
namespace runtime = roarray::runtime;
namespace serve = roarray::serve;
using roarray::io::ClientRound;

namespace {

constexpr double kNsPerMs = 1e6;
constexpr int kPackets = 15;          ///< packets per AP burst (the paper's).
constexpr int kSetupReps = 15;        ///< cold set-ups behind setup_s.
constexpr std::size_t kStageRounds = 240;  ///< rounds in the stage pass.
constexpr double kMaxLagP90Ms = 20.0;  ///< sender lag that invalidates a run.
constexpr double kMaxStealShare = 0.15;  ///< host CPU steal that invalidates a run.
constexpr std::size_t kRounds = 1000;  ///< distinct rounds in the input.

// burst_cf's on/off schedule: every 3 s, 100 requests within 250 ms —
// about 8x the 2-lane capacity at the peak and 2/3 of it on average.
constexpr std::int64_t kOnUs = 250'000;
constexpr std::int64_t kOffUs = 2'750'000;
constexpr std::size_t kPerBurst = 100;
// Sized so that no burst is refused or expires on working code.
constexpr long kQueueCapacity = 512;
constexpr serve::Tick kDeadlineUs = 10'000'000;

serve::ServeConfig make_config(const Deployment& d) {
  serve::ServeConfig cfg;
  cfg.array = d.array;
  cfg.localize.room = d.room;
  cfg.ap_poses = d.ap_poses;
  cfg.estimator.coarse_fine.enabled = true;
  cfg.queue_capacity = kQueueCapacity;
  cfg.deadline_ticks = kDeadlineUs;
  cfg.dispatchers = 1;
  cfg.validate();
  return cfg;
}

/// The service's request for one decoded round.
serve::Request make_request(const roarray::io::ClientRound& round,
                            std::uint64_t client_id, serve::Tick submit_tick) {
  serve::Request req;
  req.client_id = client_id;
  req.submit_tick = submit_tick;
  req.aps.reserve(round.ap_ids.size());
  for (std::size_t a = 0; a < round.ap_ids.size(); ++a) {
    req.aps.push_back({round.ap_ids[a], round.bursts[a]});
  }
  return req;
}

/// The served fields of a response.
RoundOutcome outcome_of(const serve::Response& r) {
  RoundOutcome out;
  out.status = r.status;
  out.position = r.location.position;
  for (const serve::ApEstimate& e : r.ap_estimates) {
    ApOutcome a;
    a.valid = e.valid;
    a.aoa_deg = e.aoa_deg;
    a.toa_s = e.toa_s;
    a.power = e.power;
    out.aps.push_back(a);
  }
  return out;
}

/// The pool and the operator cache one run shares.
struct Runtime {
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<runtime::OperatorCache> cache;

  [[nodiscard]] runtime::EstimateContext ctx() const {
    return {cache.get(), pool.get()};
  }
};

void warm(runtime::OperatorCache& cache, const serve::ServeConfig& cfg) {
  const core::RoArrayConfig& e = cfg.estimator;
  (void)cache.get(e.aoa_grid, e.toa_grid, cfg.array);
  (void)cache.get_coarse(e.aoa_grid, e.toa_grid, cfg.array, e.coarse_fine);
}

/// Times kSetupReps cold set-ups (pool start, operator-cache warm, service
/// construction on open-loop workloads) and keeps the last runtime.
Runtime set_up(const RunOptions& o, const serve::ServeConfig& cfg, int lanes,
               RunReport& rep) {
  std::vector<double> total_s, op_ms;
  Runtime keep;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    Runtime rt;
    rt.pool = std::make_unique<runtime::ThreadPool>(lanes);
    rt.cache = std::make_unique<runtime::OperatorCache>();
    const std::int64_t t1 = now_ns();
    warm(*rt.cache, cfg);
    const std::int64_t t2 = now_ns();
    std::unique_ptr<serve::LocalizationService> svc;
    if (o.open_loop) svc = std::make_unique<serve::LocalizationService>(cfg, rt.ctx());
    const std::int64_t t3 = now_ns();
    total_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    op_ms.push_back(static_cast<double>(t2 - t1) / kNsPerMs);
    svc.reset();
    keep = std::move(rt);
  }
  rep.e2e["setup_s"] = median(total_s);
  rep.layers["runtime.op_setup_ms"] = median(op_ms);
  return keep;
}

/// One request (open loop) or one round pass (offline) of a loop.
struct Slot {
  std::size_t round = 0;
  std::int64_t due_ns = 0;         ///< scheduled send (offline: batch start).
  std::int64_t send_ns = 0;        ///< actual send (offline: batch start).
  std::int64_t submit_ns[2] = {0, 0};
  std::int64_t done_ns = 0;
  double depth = 0.0;              ///< queue depth seen at submit.
  serve::SubmitStatus submit = serve::SubmitStatus::kAccepted;
  bool done = false;
  RoundOutcome outcome;

  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) / kNsPerMs;
  }
};

struct LoopResult {
  std::vector<Slot> slots;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double batches = 0.0;
  double batch_size_mean = 0.0;
};

/// Open loop: the calling thread is the only sender. It waits for each
/// due time (advancing the service clock, in microseconds since the
/// schedule origin, while it waits), submits once — a refusal is not
/// retried — and after the last send keeps the clock moving until every
/// accepted request has called back.
LoopResult run_open_loop(const serve::ServeConfig& cfg, const Runtime& rt,
                         const std::vector<ClientRound>& rounds,
                         const std::vector<std::int64_t>& schedule_us,
                         bool traced) {
  serve::LocalizationService svc(cfg, rt.ctx());
  LoopResult res;
  res.slots.resize(schedule_us.size());
  std::atomic<std::size_t> completed{0};
  auto on_done = [&res, &completed](const serve::Response& r) {
    Slot& s = res.slots[r.client_id];
    s.done_ns = now_ns();
    s.outcome = outcome_of(r);
    s.done = true;
    completed.fetch_add(1, std::memory_order_release);
  };
  const std::int64_t t0 = now_ns() + 20 * static_cast<std::int64_t>(kNsPerMs);
  res.start_ns = t0;
  auto tick_at = [t0](std::int64_t ns) -> serve::Tick {
    return ns <= t0 ? 0 : static_cast<serve::Tick>((ns - t0) / 1000);
  };
  auto wait_until = [&](std::int64_t due) {
    for (std::int64_t n = now_ns(); n < due; n = now_ns()) {
      svc.advance_time(tick_at(n));
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>(due - n, static_cast<std::int64_t>(kNsPerMs))));
    }
  };
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < schedule_us.size(); ++i) {
    Slot& s = res.slots[i];
    s.round = i % rounds.size();
    s.due_ns = t0 + schedule_us[i] * 1000;
    serve::Request req = make_request(rounds[s.round], i,
                                      static_cast<serve::Tick>(schedule_us[i]));
    wait_until(s.due_ns);
    s.send_ns = now_ns();
    if (traced) s.depth = static_cast<double>(svc.queue_depth());
    s.submit_ns[0] = now_ns();
    s.submit = svc.submit(std::move(req), on_done);
    s.submit_ns[1] = now_ns();
    if (s.submit == serve::SubmitStatus::kAccepted) ++accepted;
  }
  const std::int64_t give_up = now_ns() + 120'000 * static_cast<std::int64_t>(kNsPerMs);
  while (completed.load(std::memory_order_acquire) < accepted) {
    if (now_ns() > give_up) throw std::runtime_error("open loop: requests never completed");
    wait_until(now_ns() + static_cast<std::int64_t>(kNsPerMs));
  }
  svc.stop();
  const serve::ServiceStats st = svc.stats();
  res.batches = static_cast<double>(st.batches);
  if (st.batches > 0) {
    res.batch_size_mean =
        static_cast<double>(st.completed_ok + st.completed_no_observations) /
        static_cast<double>(st.batches);
  }
  for (const Slot& s : res.slots) res.end_ns = std::max(res.end_ns, s.done_ns);
  return res;
}

/// Offline closed loop: passes over the rounds in chunks of the
/// service's max batch — one estimate_batch per chunk, then localize per
/// round — until `seconds` have passed and every round was fixed once
/// (whole chunks).
/// Each round's latency runs from its chunk's start to its fix; its
/// "submission" is the copy of its bursts into the chunk.
LoopResult run_offline(const RunOptions& o, const serve::ServeConfig& cfg,
                       const Runtime& rt, const std::vector<ClientRound>& rounds) {
  LoopResult res;
  res.start_ns = now_ns();
  const std::int64_t stop_at =
      res.start_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  // Chunks run cyclically over the rounds, so every chunk is full and
  // windows of whole chunks stay aligned across the wrap.
  const auto n = static_cast<std::size_t>(cfg.max_batch);
  for (std::size_t c = 0;; c = (c + n) % rounds.size()) {
    std::vector<const ClientRound*> chunk;
    std::vector<core::CsiBurst> bursts;
    const std::int64_t start = now_ns();
    const std::size_t first = res.slots.size();
    for (std::size_t i = 0; i < n; ++i) {
      Slot s;
      s.round = (c + i) % rounds.size();
      s.due_ns = s.send_ns = start;
      s.depth = static_cast<double>(i);
      s.submit_ns[0] = now_ns();
      chunk.push_back(&rounds[s.round]);
      for (const auto& b : rounds[s.round].bursts) bursts.push_back(b);
      s.submit_ns[1] = now_ns();
      res.slots.push_back(std::move(s));
    }
    std::vector<std::int64_t> done;
    const auto outs = localize_rounds(
        chunk, core::roarray_estimate_batch(bursts, cfg.estimator, cfg.array, rt.ctx()),
        cfg, rt.pool.get(), &done);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = res.slots[first + i];
      s.done_ns = done[i];
      s.outcome = outs[i];
      s.done = true;
    }
    res.batches += 1.0;
    // Every round gets at least one fix, so the error metrics cover the
    // same rounds at any speed.
    if (now_ns() >= stop_at && res.slots.size() >= rounds.size()) break;
  }
  res.batch_size_mean = static_cast<double>(res.slots.size()) / res.batches;
  res.end_ns = res.slots.back().done_ns;
  return res;
}

/// The reference for every distinct round: the offline pipeline with
/// no pool inside a round (a serial run). It is not timed, so rounds
/// spread over every hardware thread.
std::vector<RoundOutcome> reference_outcomes(const std::vector<ClientRound>& rounds,
                                             std::size_t used,
                                             const serve::ServeConfig& cfg,
                                             const Runtime& rt, int threads) {
  std::vector<RoundOutcome> ref(used);
  const runtime::ThreadPool pool(threads);
  pool.parallel_for(static_cast<roarray::linalg::index_t>(used),
                    [&](roarray::linalg::index_t i) {
    const auto k = static_cast<std::size_t>(i);
    ref[k] = offline_rounds({&rounds[k]}, cfg, {rt.cache.get(), nullptr}).front();
  });
  return ref;
}

bool finite_fix(const RoundOutcome& o) {
  return std::isfinite(o.position.x) && std::isfinite(o.position.y);
}

/// Failure counts, the output check and the loc errors of one loop.
struct Tally {
  double refused = 0, expired = 0, no_observation = 0, invalid_fix = 0;
  double mismatches = 0, ok = 0;
  std::vector<char> good;          ///< per slot: a valid fix equal to its reference.
  std::vector<double> latency_ms;  ///< every callback.
  std::vector<double> loc_err_m;   ///< one per distinct round with a fix.
};

Tally tally(const LoopResult& res, const std::vector<RoundOutcome>& ref,
            const std::vector<roarray::channel::Vec2>& truth) {
  Tally t;
  t.good.assign(res.slots.size(), 0);
  std::vector<char> seen(ref.size(), 0);
  for (std::size_t i = 0; i < res.slots.size(); ++i) {
    const Slot& s = res.slots[i];
    if (s.submit != serve::SubmitStatus::kAccepted) {
      t.refused += 1;
      continue;
    }
    if (!s.done) continue;
    t.latency_ms.push_back(s.latency_ms());
    if (s.outcome.status == serve::ResponseStatus::kDeadlineExpired) {
      t.expired += 1;
      continue;
    }
    const bool match = same_served_outcome(s.outcome, ref[s.round]);
    if (!match) t.mismatches += 1;
    if (s.outcome.status == serve::ResponseStatus::kNoObservations) {
      t.no_observation += 1;
      continue;
    }
    if (!finite_fix(s.outcome)) {
      t.invalid_fix += 1;
      continue;
    }
    t.ok += 1;
    t.good[i] = match ? 1 : 0;
    if (seen[s.round] == 0) {
      seen[s.round] = 1;
      t.loc_err_m.push_back(
          roarray::channel::distance(s.outcome.position, truth[s.round]));
    }
  }
  return t;
}

/// Per-window figures of one loop. The slots are cut into consecutive
/// windows of `window` (one burst, or a run of whole chunks); only full
/// windows count. Reporting the median over windows keeps a transient
/// slowdown of the host out of the result unless it spans half the run.
struct Windows {
  std::vector<double> p50_ms, p90_ms;
  std::vector<double> fixes_per_s, goodput_per_s;  ///< over each window's span.
  bool tails_supported = true;
};

Windows window_stats(const LoopResult& res, const std::vector<char>& good,
                     std::size_t window, double limit_ms) {
  Windows w;
  window = std::max<std::size_t>(1, window);
  for (std::size_t first = 0; first + window <= res.slots.size(); first += window) {
    std::vector<double> lat;
    double fixes = 0, in_limit = 0;
    std::int64_t begin = res.slots[first].due_ns, end = begin;
    for (std::size_t i = first; i < first + window; ++i) {
      const Slot& s = res.slots[i];
      begin = std::min(begin, s.due_ns);
      if (!s.done) continue;
      end = std::max(end, s.done_ns);
      lat.push_back(s.latency_ms());
      if (good[i] != 0) {
        fixes += 1;
        if (s.latency_ms() <= limit_ms) in_limit += 1;
      }
    }
    w.tails_supported = w.tails_supported && percentile_supported(lat.size(), 0.9);
    w.p50_ms.push_back(percentile(lat, 0.5));
    w.p90_ms.push_back(percentile(lat, 0.9));
    const double span_s = std::max(1e-9, static_cast<double>(end - begin) * 1e-9);
    w.fixes_per_s.push_back(fixes / span_s);
    w.goodput_per_s.push_back(in_limit / span_s);
  }
  w.tails_supported = w.tails_supported && !w.p90_ms.empty();
  return w;
}

/// Machine-wide CPU time from /proc/stat, in clock ticks: the steal
/// counter and the sum of user, nice, system, idle, iowait, irq,
/// softirq and steal. ok is false where the counters cannot be read.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
  bool ok = false;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string label;
  if (!(f >> label) || label != "cpu") return t;
  double v = 0.0;
  int field = 0;
  for (; field < 8 && (f >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  t.ok = field == 8;
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void add_machine(RunReport& rep, const RunOptions& o, int hardware_threads,
                 int lanes) {
  const auto d = roarray::linalg::backend::dispatch_info();
  auto quoted = [](const std::string& s) { return "\"" + s + "\""; };
  rep.machine["hardware_threads"] = std::to_string(hardware_threads);
  rep.machine["pool_threads"] = std::to_string(lanes);
  rep.machine["backend_requested"] = quoted(d.requested);
  rep.machine["backend_selected"] = quoted(d.selected->name);
  rep.machine["simd_compiled"] = d.simd_compiled ? "true" : "false";
  rep.machine["simd_supported"] = d.simd_supported ? "true" : "false";
  rep.machine["cpu_features"] = quoted(roarray::linalg::backend::cpu_features());
  rep.machine["seed"] = std::to_string(o.seed);
}

/// Spans of one traced loop: a root `request` per request (due time to
/// callback) with its `serve.submit` child.
void add_request_spans(SpanLog& log, const LoopResult& res) {
  for (std::size_t i = 0; i < res.slots.size(); ++i) {
    const Slot& s = res.slots[i];
    if (!s.done) continue;
    const auto root = log.add("request", s.due_ns, s.done_ns, -1, i);
    log.add("serve.submit", s.submit_ns[0], s.submit_ns[1], root, i);
  }
}

/// Offsets the stage pass's request ids past every served request.
constexpr std::uint64_t kStageRequestBase = 1'000'000'000;

/// Runs the first `count` distinct rounds through the stage replica,
/// records their spans, and returns each one's standalone (estimate +
/// localize) ms.
std::vector<double> stage_pass(const std::vector<ClientRound>& rounds,
                               const std::vector<RoundOutcome>& ref,
                               std::size_t count, const serve::ServeConfig& cfg,
                               const Runtime& rt, SpanLog& log, RunReport& rep) {
  count = std::min(count, ref.size());
  std::vector<double> standalone_ms(count);
  double agree = 0, iters = 0, capped = 0, cells = 0, bursts = 0;
  double fused = 0, ransac = 0, irls = 0, inliers = 0, observations = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const RoundStages st = replica_round(rounds[r], cfg, rt.ctx());
    if (replica_agrees(st, ref[r])) agree += 1;
    const std::uint64_t id = kStageRequestBase + r;
    const auto batch = log.add("core.batch", st.batch[0], st.batch[1], -1, id);
    for (const BurstStages& b : st.bursts) {
      const auto est = log.add("core.estimate", b.core[0], b.core[1], batch, id);
      log.add("dsp.sanitize", b.sanitize[0], b.sanitize[1], est, id);
      log.add("sparse.l1svd", b.l1svd[0], b.l1svd[1], est, id);
      log.add("sparse.coarse_omp", b.coarse_omp[0], b.coarse_omp[1], est, id);
      log.add("sparse.solve", b.solve[0], b.solve[1], est, id);
      log.add("dsp.peaks", b.peaks[0], b.peaks[1], est, id);
      iters += b.iterations;
      capped += b.iterations >= b.iteration_cap ? 1 : 0;
      cells += static_cast<double>(b.support_cells);
      bursts += 1;
    }
    const LocalizeStages& l = st.localize;
    const auto loc = log.add("loc.localize", l.localize[0], l.localize[1], -1, id);
    log.add("loc.grid", l.grid[0], l.grid[1], loc, id);
    if (l.fused) {
      log.add("fusion.fuse", l.fuse[0], l.fuse[1], loc, id);
      fused += 1;
      ransac += l.ransac ? 1 : 0;
      irls += l.irls_iterations;
      inliers += l.inliers;
      observations += l.observations;
    }
    standalone_ms[r] =
        static_cast<double>((st.batch[1] - st.batch[0]) +
                            (l.localize[1] - l.localize[0])) / kNsPerMs;
  }
  auto& L = rep.layers;
  auto mean_ms = [&log](const char* name) { return mean(log.durations_ms(name)); };
  auto total = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  const double est_total = total(log.durations_ms("core.estimate"));
  L["core.estimate_ms"] = mean_ms("core.estimate");
  L["core.unattributed_share"] = total(log.self_times_ms("core.estimate")) / est_total;
  L["core.batch_parallel_eff"] =
      est_total / (total(log.durations_ms("core.batch")) * rt.pool->threads());
  L["dsp.sanitize_ms"] = mean_ms("dsp.sanitize");
  L["sparse.l1svd_ms"] = mean_ms("sparse.l1svd");
  L["sparse.coarse_omp_share"] = total(log.durations_ms("sparse.coarse_omp")) / est_total;
  rep.extra["sparse.coarse_omp_ms"] = mean_ms("sparse.coarse_omp");
  L["sparse.solve_ms"] = mean_ms("sparse.solve");
  L["sparse.solve_iters_mean"] = iters / bursts;
  L["sparse.solve_cap_share"] = capped / bursts;
  L["sparse.support_cells_mean"] = cells / bursts;
  L["dsp.peaks_ms"] = mean_ms("dsp.peaks");
  L["loc.localize_ms"] = mean_ms("loc.localize");
  L["loc.grid_ms"] = mean_ms("loc.grid");
  L["fusion.fuse_ms"] = mean_ms("fusion.fuse");
  L["fusion.ransac_share"] = fused > 0 ? ransac / fused : 0.0;
  L["fusion.irls_iters_mean"] = fused > 0 ? irls / fused : 0.0;
  L["fusion.inlier_share"] = observations > 0 ? inliers / observations : 0.0;
  L["stage.replica_agreement"] = agree / static_cast<double>(count);
  rep.checks["stage_replica_agrees"] = agree == static_cast<double>(count);
  return standalone_ms;
}

}  // namespace

RunReport run_workload(const RunOptions& o) {
  if (o.seconds <= 0.0) {
    throw std::invalid_argument("run_workload: seconds must be positive");
  }
  RunReport rep;
  // Half the hardware threads: on a shared VM a pool as wide as the
  // vCPU count drew more CPU steal and moved whole runs (README.md,
  // "Host noise").
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int lanes = std::max(1, hw / 2);
  add_machine(rep, o, hw, lanes);

  // Inputs: generated from the seed and passed through the trace
  // format; the program under test gets the decoded rounds only.
  const std::int64_t t_input = now_ns();
  const WorkloadInput input = make_input(plan_rounds(o.seed, kRounds), kPackets);
  const std::vector<ClientRound>& rounds = input.rounds;
  rep.extra["input_s"] = static_cast<double>(now_ns() - t_input) * 1e-9;
  rep.layers["io.decode_us_per_round"] =
      input.decode_s * 1e6 / static_cast<double>(kRounds);
  const serve::ServeConfig cfg = make_config(input.deployment);

  // CPU steal over set-up and the timed loop: a host that steals this
  // much cannot give a usable timing, so the run is marked invalid.
  const CpuTimes cpu0 = read_cpu_times();
  Runtime rt = set_up(o, cfg, lanes, rep);

  std::vector<std::int64_t> schedule;
  double schedule_s = 0.0;  // whole on/off periods
  if (o.open_loop) {
    const auto periods = static_cast<std::int64_t>(o.seconds * 1e6) / (kOnUs + kOffUs);
    schedule_s = static_cast<double>(periods * (kOnUs + kOffUs)) * 1e-6;
    schedule = onoff_schedule_us(o.seed, periods * (kOnUs + kOffUs), kOnUs, kOffUs,
                                 kPerBurst);
    if (schedule.empty()) {
      throw std::invalid_argument("run_workload: --seconds is shorter than one burst period");
    }
  }
  auto run_loop = [&](bool traced) {
    return o.open_loop ? run_open_loop(cfg, rt, rounds, schedule, traced)
                       : run_offline(o, cfg, rt, rounds);
  };

  const LoopResult main_loop = run_loop(false);
  const CpuTimes cpu1 = read_cpu_times();
  const bool steal_known = cpu0.ok && cpu1.ok && cpu1.total > cpu0.total;
  const double steal_share =
      steal_known ? (cpu1.steal - cpu0.steal) / (cpu1.total - cpu0.total) : 0.0;
  char steal_text[32];
  std::snprintf(steal_text, sizeof steal_text, "%.4f", steal_share);
  rep.machine["steal_share"] = steal_known ? steal_text : "null";
  LoopResult traced_loop;
  if (o.trace) traced_loop = run_loop(true);

  std::size_t used = 0;
  for (const Slot& s : main_loop.slots) used = std::max(used, s.round + 1);
  for (const Slot& s : traced_loop.slots) used = std::max(used, s.round + 1);
  const std::int64_t t_ref = now_ns();
  const std::vector<RoundOutcome> ref = reference_outcomes(rounds, used, cfg, rt, hw);
  rep.extra["reference_s"] = static_cast<double>(now_ns() - t_ref) * 1e-9;

  const Tally t = tally(main_loop, ref, input.truth);
  const auto attempted = static_cast<double>(main_loop.slots.size());
  auto& C = rep.counts;
  C["attempted"] = attempted;
  C["refused"] = t.refused;
  C["expired"] = t.expired;
  C["no_observation"] = t.no_observation;
  C["invalid_fix"] = t.invalid_fix;
  C["mismatches"] = t.mismatches;
  C["completed_ok"] = t.ok;
  C["distinct_rounds"] = static_cast<double>(used);
  const double failed =
      t.refused + t.expired + t.no_observation + t.invalid_fix + t.mismatches;
  C["failed"] = failed;

  std::vector<double> lag_ms;
  for (const Slot& s : main_loop.slots) {
    lag_ms.push_back(static_cast<double>(s.send_ns - s.due_ns) / kNsPerMs);
  }
  const double lag_p90 = percentile(lag_ms, 0.9);
  rep.extra["gen.lag_p90_ms"] = lag_p90;
  rep.checks["output_match"] = t.mismatches == 0;
  rep.checks["sender_on_time"] = !o.open_loop || lag_p90 <= kMaxLagP90Ms;
  rep.checks["host_quiet"] = steal_share <= kMaxStealShare;
  const Windows win = window_stats(main_loop, t.good, o.window, o.limit_ms);
  rep.checks["tail_supported"] =
      win.tails_supported && percentile_supported(t.loc_err_m.size(), 0.9);

  double in_limit = 0;
  for (std::size_t i = 0; i < main_loop.slots.size(); ++i) {
    if (t.good[i] != 0 && main_loop.slots[i].latency_ms() <= o.limit_ms) in_limit += 1;
  }
  const double wall_s = static_cast<double>(main_loop.end_ns - main_loop.start_ns) * 1e-9;
  auto& E = rep.e2e;
  E["latency_p50_ms"] = median(win.p50_ms);
  E["latency_p90_ms"] = median(win.p90_ms);
  // Open-loop goodput is per second of schedule. fixes_per_s is the
  // median over windows of fixes per window span; on burst_cf a window
  // is one burst, which keeps the service backlogged from its first
  // arrival to its last callback, so that rate is the service's.
  E["goodput_rps"] = o.open_loop ? in_limit / schedule_s : median(win.goodput_per_s);
  E["fixes_per_s"] = median(win.fixes_per_s);
  E["failed_share"] = failed / attempted;
  E["loc_err_p50_m"] = percentile(t.loc_err_m, 0.5);
  E["loc_err_p90_m"] = percentile(t.loc_err_m, 0.9);
  rep.extra["gen.lag_max_ms"] =
      lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end());
  rep.extra["wall_s"] = wall_s;

  if (o.trace) {
    // The traced loop is checked like the main one.
    const Tally tt = tally(traced_loop, ref, input.truth);
    rep.checks["output_match"] = rep.checks["output_match"] && tt.mismatches == 0;
    C["traced_mismatches"] = tt.mismatches;

    SpanLog log;
    add_request_spans(log, traced_loop);
    const std::int64_t t_stage = now_ns();
    const std::vector<double> standalone_ms =
        stage_pass(rounds, ref, kStageRounds, cfg, rt, log, rep);
    rep.extra["stage_pass_s"] = static_cast<double>(now_ns() - t_stage) * 1e-9;
    auto& L = rep.layers;
    L["serve.submit_us"] = mean(log.durations_ms("serve.submit")) * 1e3;
    std::vector<double> wait_ms, depth;
    for (const Slot& s : traced_loop.slots) {
      depth.push_back(s.depth);
      if (s.done && s.round < standalone_ms.size()) {
        wait_ms.push_back(s.latency_ms() - standalone_ms[s.round]);
      }
    }
    L["serve.wait_p50_ms"] = percentile(wait_ms, 0.5);
    L["serve.wait_p90_ms"] = percentile(wait_ms, 0.9);
    L["serve.queue_depth_p90"] = percentile(depth, 0.9);
    L["serve.batch_size_mean"] = traced_loop.batch_size_mean;
    L["serve.batches"] = traced_loop.batches;
    // A same-seed repeat: spans are built after the loop from timestamps
    // both loops take, so this shows run-to-run noise (plus one
    // queue_depth() call per submit on the open loop), not a span cost.
    const double traced_p50 =
        median(window_stats(traced_loop, tt.good, o.window, o.limit_ms).p50_ms);
    L["trace.overhead_share"] =
        (traced_p50 - E["latency_p50_ms"]) / E["latency_p50_ms"];
    if (!o.spans_out.empty() && !log.write_csv(o.spans_out)) {
      throw std::runtime_error("cannot write span log " + o.spans_out);
    }
  }
  E["peak_rss_mb"] = peak_rss_mb();
  return rep;
}

}  // namespace perfbench
