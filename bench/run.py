"""Benchmark runner: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Load model: batch, closed loop, one client.  One operation (a group, or a
witness command) runs at a time, and each pass of a workload runs in a
fresh interpreter started by this script (see worker.py).

--trace 0  Five set-up probes, then passes until --seconds would be
           overrun by another pass of the same length (at least one).
           Times are rescaled to a reference machine speed (speed.py).
           Every metric is the median over passes (set-up: over probes
           and passes).
--trace 1  One untraced pass, one traced pass and one cProfile pass.  The
           per-layer metrics come from the traced pass, plus the exact
           `autgroups.validate.calls` from the cProfile pass, and
           `trace.overhead_s` is traced minus untraced wall time.  These
           times are raw seconds, not rescaled.

Every answer is checked against expected.json.  The last line of standard
output is one JSON object; the exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170          # a run must end within 180 s; no pass may outlive this
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def tail(samples):
    """(label, value): the highest listed percentile with >= 10 samples beyond it.

    Nearest-rank percentiles; with fewer than 20 samples, the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def spawn(self, mode, spans_path=None) -> dict:
        """Run one worker process to completion and return its result."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.workload,
                str(self.seed)]
        spawned = time.monotonic()
        argv.append(repr(spawned))
        if spans_path:
            argv.append(spans_path)
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_metrics(result) -> dict:
    """End-to-end metrics of one plain pass, from its times at reference speed."""
    lat = result["scaled"]
    wall = sum(lat)
    return {
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail(lat)[1] * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }


END_TO_END_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def measure(runner, seconds):
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    setups = [p["setup_scaled_s"] for p in probes]
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(runner.spawn("plain"))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    setups += [p["setup_scaled_s"] for p in passes]
    per_pass = [pass_metrics(p) for p in passes]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["setup_s"] = statistics.median(setups)
    label, _ = tail(passes[0]["latencies"])
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    ref_ms = statistics.median(p["reference_ms"] for p in passes)
    notes = [f"passes: {len(passes)}; set-up samples: {len(setups)}",
             f"op_tail_ms is {label} of {len(passes[0]['latencies'])} operations per pass",
             f"unscaled wall_s {raw_wall:.6g} s; reference loop median {ref_ms:.4g} ms,"
             f" times scaled to {speed.REFERENCE_S * 1000:g} ms"]
    return passes, metrics, notes


def measure_traced(runner):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{runner.workload}-{runner.seed}.jsonl")
    plain = runner.spawn("plain")
    traced = runner.spawn("traced", spans_path)
    profiled = runner.spawn("profile")
    metrics = dict(traced["layers"])
    metrics.update(profiled["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - (plain["wall_s"] - plain["sampling_s"])
    notes = [f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s",
             f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    return [plain, traced, profiled], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gaschuetz", "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S)
    if args.trace:
        passes, metrics, notes = measure_traced(runner)
        units = spans.PER_LAYER
    else:
        passes, metrics, notes = measure(runner, args.seconds)
        units = END_TO_END_UNITS
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}")
    for line in notes:
        print(line)
    print(f"fail_ratio {len(failures) / attempted:g} ({len(failures)} of {attempted})")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
