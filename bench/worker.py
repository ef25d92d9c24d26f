"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py MODE WORKLOAD SEED SPAWNED [SPANS_PATH]

MODE is one of
  setup    import the program and build the inputs, nothing timed;
  plain    run every operation, timing each one, with the speed sampler
           of speed.py running from the start (set-up included);
  traced   the same with layer spans and work counters installed;
  profile  the same under cProfile, for counts no wrapper can reach.

SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start-up.  The result is one
JSON object on the last line of standard output.

A fresh interpreter per pass matters: ``engine._verdict_cache`` is
process-global and group objects cache Aut groups, derived subgroups and
normal lattices, so a second pass in one process would mostly time
dictionary lookups.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MODULES = ("perm", "group", "structure", "constructors", "lattice", "complements",
           "autgroups", "engine", "catalog", "witness", "isomorphism", "smallgen", "cli")


class Program:
    """The imported ``gaschuetz`` modules, as attributes."""

    def __init__(self):
        sys.path.insert(0, SRC)
        package = importlib.import_module("gaschuetz")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"gaschuetz imported from {package.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"gaschuetz.{name}"))
        self.modules = [package] + [getattr(self, name) for name in MODULES]


def run_pass(mode, workload, seed, spawned, spans_path=None) -> dict:
    sys.path.insert(0, HERE)
    import speed
    import workloads

    entered = time.perf_counter()
    sampler = None
    if mode in ("setup", "plain"):
        sampler = speed.Sampler()
        sampler.start()
    gz = Program()
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install(gz.modules)
    ops = workloads.build_ops(workload, seed, gz)
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s}
    if sampler is not None:
        setup_end = time.perf_counter()
        sampler.sample()
        result["setup_scaled_s"] = sampler.scaled(entered, setup_end, raw=setup_s)
    if mode == "setup":
        sampler.stop()
        return result

    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    spans_at, failures = [], []
    for request, op in enumerate(ops):
        # Collect the garbage earlier operations left, so that a full
        # collection they triggered is not charged to this one.
        gc.collect()
        if sampler is not None:
            sampler.sample()
        start = time.perf_counter()
        try:
            out = tracer.run_op(request, op.call) if tracer else op.call()
        except Exception as exc:  # a raising operation is a failed one
            spans_at.append((start, time.perf_counter()))
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        spans_at.append((start, time.perf_counter()))
        problem = op.check(out)
        if problem:
            failures.append(f"{op.label}: {problem}")
    if profiler is not None:
        profiler.disable()
    latencies = [end - start for start, end in spans_at]
    result.update(
        latencies=latencies,
        failures=failures,
        wall_s=sum(latencies),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if sampler is not None:
        sampler.sample()
        sampler.stop()
        result["scaled"] = [sampler.scaled(start, end) for start, end in spans_at]
        result["sampling_s"] = sum(sampler.inside(start, end) for start, end in spans_at)
        result["reference_ms"] = statistics.median(e - m for s, m, e in sampler.samples) * 1000
    if tracer is not None:
        tracer.counts["engine.verdict.computed"] = len(gz.engine._verdict_cache)
        result["layers"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    if profiler is not None:
        result["layers"] = {"autgroups.validate.calls": _closure_calls(profiler, gz.autgroups,
                                                                       "validate")}
    return result


def _closure_calls(profiler, module, name) -> int:
    """Exact call count of every function `name` defined in `module`'s file."""
    import pstats

    stats = pstats.Stats(profiler).stats
    path = os.path.abspath(module.__file__)
    return sum(
        entry[1]
        for (filename, _, funcname), entry in stats.items()
        if funcname == name and os.path.abspath(filename) == path
    )


def main(argv) -> int:
    mode, workload, seed, spawned = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    result = run_pass(mode, workload, int(seed), float(spawned), spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
