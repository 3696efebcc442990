#!/usr/bin/env python3
"""DBRE benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `perfbench` binary (a
package of its own in this directory, built against the repository's
crates), generates the workload's inputs for the seed, and runs fresh
measured processes for S seconds. The last line of standard output is
one JSON object: with `--trace 0` every end-to-end metric of
BENCHMARK.json, with `--trace 1` every per-layer metric. The exit code
is 0 only when every session reproduced the reference answers.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("inmem_e8_20k", "flatfile_e8_20k", "service_e8_10k")
# A run measures at least this many fresh processes; each also times
# one set-up.
MIN_PROCESSES = 5
# A run must end within 180 s of its start once the program is built.
# No new process is started when, judged by the slowest so far, it
# would end after SOFT_LIMIT_S: a slow program then reports its numbers
# from fewer processes instead of failing. HANG_LIMIT_S only stops a
# process that hangs, before the run's 180 s are up.
SOFT_LIMIT_S = 150
HANG_LIMIT_S = 175
BUILD_LIMIT_S = 850
# What `perfbench calibrate` takes on the 2-vCPU host the baseline was
# measured on when its neighbours are quiet. Measured times are scaled
# by this over the calibration time around them, so they read as times
# on that host at that speed (see `calibrated`).
REFERENCE_CALIBRATION_S = 0.25


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DBRE_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        raise BenchError(f"no repository sources next to {HERE.name}/")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=BUILD_LIMIT_S)
    if done.returncode != 0:
        raise BenchError("build failed")
    target = Path(env["CARGO_TARGET_DIR"])
    return (target if target.is_absolute() else ROOT / target) / "release" / "perfbench"


class Runner:
    """Starts measuring processes one at a time and keeps track of time."""

    def __init__(self, binary, env, workload, work):
        self.binary, self.env, self.workload, self.work = binary, env, workload, work
        self.start = time.monotonic()
        self.slowest = {}

    def room_for_another(self, *commands):
        """Whether one more process of each command, as slow as its
        slowest so far, would end within the soft limit."""
        need = sum(self.slowest.get(c, 0.0) for c in commands)
        return time.monotonic() + need - self.start < SOFT_LIMIT_S

    def __call__(self, command, *extra):
        cmd = [str(self.binary), command, "--workload", self.workload,
               "--dir", str(self.work), *map(str, extra)]
        began = time.monotonic()
        left = self.start + HANG_LIMIT_S - began
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=max(left, 1),
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"`{command}` still running {HANG_LIMIT_S} s into the run")
        if done.returncode != 0:
            raise BenchError(f"`{command}` exited with {done.returncode}")
        took = time.monotonic() - began
        self.slowest[command] = max(self.slowest.get(command, 0.0), took)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def calibrate(self):
        return self("calibrate")["calibration_s"]


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def calibrated(proc, before, after):
    """The times of one measured process scaled to the reference host
    speed: on a shared host the program's own speed drifts with its
    neighbours' load, and the calibration kernel, timed just before and
    just after the process, drifts with it."""
    f = REFERENCE_CALIBRATION_S / ((before + after) / 2)
    proc = dict(proc)
    for key in ("setup_s", "wall_s"):
        proc[key] *= f
    for key in ("session_s", "latency_ms", "commit_ms"):
        proc[key] = [x * f for x in proc[key]]
    return proc


def measure(run, prep, seconds):
    """End-to-end metrics from untraced fresh processes, each between
    two calibrations."""
    start, raw, calib = time.monotonic(), [], [run.calibrate()]
    while not raw or run.room_for_another("run", "calibrate") and (
            len(raw) < MIN_PROCESSES or time.monotonic() - start < seconds):
        raw.append(run("run"))
        calib.append(run.calibrate())
    print(f"perfbench: median calibration {statistics.median(calib):.4f} s, "
          f"reference {REFERENCE_CALIBRATION_S} s", file=sys.stderr)
    procs = [calibrated(p, calib[i], calib[i + 1]) for i, p in enumerate(raw)]
    latencies = [x for p in procs for x in p["latency_ms"]]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "pipeline_s": statistics.median(x for p in procs for x in p["session_s"]),
        "sessions_per_s": sum(p["sessions"] for p in procs) / sum(p["wall_s"] for p in procs),
        "presumption_p50_ms": percentile(latencies, 50),
        "presumption_p90_ms": percentile(latencies, 90),
        "commit_p50_ms": statistics.median(x for p in procs for x in p["commit_ms"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "space_amp": statistics.median(p["store_bytes"] / p["csv_bytes"] for p in procs),
        "ind_f1": prep["ind_f1"],
        "fd_f1": prep["fd_f1"],
        "schema_f1": prep["schema_f1"],
    }
    return metrics, procs


def trace(run, seconds, workload, seed):
    """Per-layer metrics from traced processes, alternated with
    untraced ones that give the tracing overhead."""
    spans_dir = ROOT / ".bench_work" / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{workload}-seed{seed}.jsonl"
    start, plain, traced = time.monotonic(), [], []
    while not traced or run.room_for_another("run", "trace") and time.monotonic() - start < seconds:
        plain.append(run("run"))
        traced.append(run("trace", "--spans", spans))
    metrics = {}
    for name in traced[0]:
        if name not in ("sessions", "failed"):
            metrics[name] = statistics.median(t[name] for t in traced)
    untraced_ms = 1000 * statistics.median(x for p in plain for x in p["session_s"])
    metrics["trace.overhead_ms"] = metrics["trace.pipeline_ms"] - untraced_ms
    return metrics, plain + traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = child_env()
        binary = build(env)
        work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        run = Runner(binary, env, args.workload, work)
        try:
            prep = run("prepare", "--seed", args.seed)
            if args.trace:
                metrics, procs = trace(run, args.seconds, args.workload, args.seed)
                wanted = spec["per_layer"]
            else:
                metrics, procs = measure(run, prep, args.seconds)
                wanted = spec["end_to_end"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    attempted = int(sum(p["sessions"] for p in procs))
    failed = int(sum(p["failed"] for p in procs))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
