"""Exact-count check: two traced runs at one seed must count the same work.

    python3 bench/check_counts.py [--seed N] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload, each in fresh processes,
and compares every count metric (perm.mult.calls, perm.mult.points,
group.close_set.calls, autgroups.validate.calls, complements.examined,
engine.verdict.computed, ...).  Exits 1 if any count differs.  Wall time
on a shared machine is noisy; these counts are what a speed claim can
rest on, so they must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload, seed) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in spans.EXACT}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    differ = 0
    for workload in args.workloads:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        for name in spans.EXACT:
            same = first[name] == second[name]
            differ += not same
            print(f"{workload} {name} {first[name]} {second[name]} {'ok' if same else 'DIFFERS'}")
    print(f"{differ} count(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
