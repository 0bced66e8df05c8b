#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_driver from source, runs one
workload, checks its outputs, and prints every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json   # regenerate BENCHMARK.json
    python3 perfbench/run.py --self-test              # the helpers' unit tests

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit code is nonzero when an output check fails or
the program cannot be built. See perfbench/README.md for the workloads,
the metric definitions and which layer metric should move which
end-to-end metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_SECONDS = 30
RUN_TIMEOUT_S = 170

# Named workload presets: the driver flags, and why each was chosen.
# --window is the slots per window of the windowed medians (one burst;
# 13 chunks of 8). --limit-ms is the goodput latency limit; README.md
# says how each was chosen.
WORKLOADS = {
    "burst_cf": {
        "why": "Open-loop bursts of 100 requests at 8x capacity, mean 0.66x, coarse-to-fine, "
               "mixed SNR, 1/3 adversarial NLoS: deep queues, full batches; serve, grid and "
               "fusion show here. Goodput limit 800 ms.",
        "args": ["--mode", "open", "--window", "100", "--limit-ms", "800"],
    },
    "offline_cf": {
        "why": "Closed offline loop over burst_cf's rounds and config, no serve layer: the "
               "control for burst_cf (serve changes move burst_cf only) and figure traffic. "
               "Goodput limit 500 ms.",
        "args": ["--mode", "offline", "--window", "104", "--limit-ms", "500"],
    },
}

# (name, unit, better, bound) — reported by every workload with --trace 0.
# Timing bounds are wide because CPU steal on a shared VM moves whole
# runs (README.md, "Host noise").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("goodput_rps", "req/s", "higher", 0.25),
    ("fixes_per_s", "fix/s", "higher", 0.25),
    ("loc_err_p50_m", "m", "lower", 0.2),
    ("loc_err_p90_m", "m", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better) — reported by every workload with --trace 1.
PER_LAYER = [
    ("runtime.op_setup_ms", "ms", "lower"),
    ("io.decode_us_per_round", "us", "lower"),
    ("dsp.sanitize_ms", "ms", "lower"),
    ("sparse.l1svd_ms", "ms", "lower"),
    ("sparse.coarse_omp_share", "ratio", "lower"),
    ("sparse.support_cells_mean", "count", "lower"),
    ("sparse.solve_ms", "ms", "lower"),
    ("sparse.solve_iters_mean", "count", "lower"),
    ("sparse.solve_cap_share", "ratio", "lower"),
    ("dsp.peaks_ms", "ms", "lower"),
    ("core.estimate_ms", "ms", "lower"),
    ("core.unattributed_share", "ratio", "lower"),
    ("core.batch_parallel_eff", "ratio", "higher"),
    ("loc.localize_ms", "ms", "lower"),
    ("loc.grid_ms", "ms", "lower"),
    ("fusion.fuse_ms", "ms", "lower"),
    ("fusion.ransac_share", "ratio", "lower"),
    ("fusion.irls_iters_mean", "count", "lower"),
    ("fusion.inlier_share", "ratio", "higher"),
    ("serve.submit_us", "us", "lower"),
    ("serve.wait_p50_ms", "ms", "lower"),
    ("serve.wait_p90_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.queue_depth_p90", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("stage.replica_agreement", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no ROArray source tree next to perfbench/")
        return None
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        return None
    return os.path.join(out, target)


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(rep, metrics, stale):
    print(f"workload {rep['workload']}  trace {rep['trace']}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in rep["machine"].items()))
    print("checks   " + "  ".join(f"{k}={v}" for k, v in rep["checks"].items()))
    print("counts   " + "  ".join(f"{k}={fmt(v)}" for k, v in rep["counts"].items()))
    print("failed_share " + fmt(rep["e2e"]["failed_share"]) + " ratio")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if stale:
        print("  per-layer numbers are STALE: the stage replica no longer "
              "reproduces core::roarray_estimate")
    print("extra    " + "  ".join(f"{k}={fmt(v)}" for k, v in rep["extra"].items()))


def run(args):
    driver = build("perfbench_driver")
    if driver is None:
        return 2
    spans = os.path.join(build_dir(), f"spans-{args.workload}-{args.seed}.csv")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += WORKLOADS[args.workload]["args"]
    if args.trace:
        cmd += ["--spans-out", spans]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 3
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: driver failed with code {proc.returncode}")
        return 3
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    log(f"perfbench: driver ran {time.monotonic() - start:.1f} s")

    if args.trace:
        source = rep["layers"]
        table = [(n, u) for n, u, _ in PER_LAYER]
    else:
        source = rep["e2e"]
        table = [(n, u) for n, u, _, _ in END_TO_END]
    missing = [n for n, _ in table if n not in source]
    if missing:
        log("perfbench: driver did not report " + ", ".join(missing))
        return 3
    metrics = {n: {"value": source[n], "unit": u} for n, u in table}
    checks = rep["checks"]
    correct = bool(checks["output_match"] and checks["sender_on_time"]
                   and checks["tail_supported"] and checks["host_quiet"])
    stale = bool(args.trace) and not checks.get("stage_replica_agrees", False)
    print_report(rep, metrics, stale)
    if args.trace:
        print(f"spans written to {spans}")
    result = {
        "correct": correct,
        "attempted": int(rep["counts"]["attempted"]),
        "failed": int(rep["counts"]["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def self_test():
    test = build("perfbench_helpers_test")
    if test is None:
        return 2
    return subprocess.run([test]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the helpers' unit tests and exit")
    args = p.parse_args()
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
