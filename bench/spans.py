"""Layer spans and exact work counts, installed from outside the program.

Every function named in LAYERS is replaced by a wrapper that records a
span (name, start, end, parent span, request id).  Modules import these
functions by name, so the wrapper goes into the defining module and into
every ``gaschuetz`` module holding the same function object; function-local
imports and module-global calls read the patched attribute at call time.
``perm.mult`` and ``perm.perm_order`` run millions of times, so they get
counters only, and their time stays in the enclosing span's self time.

Metric names: ``<layer>.<fn>.calls``; ``.s`` is inclusive time over the
outermost spans of that name (recursion is not counted twice); ``.self_s``
is span time minus the time covered by direct child spans.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = {
    "group": ("close_set",),
    "structure": ("derived_subgroup", "sylow", "center", "quotient"),
    "lattice": ("normal_subgroups_fast",),
    "autgroups": ("aut_group", "is_characteristic", "prop_special_search"),
    "complements": ("find_complement", "exhaustive_search"),
    "engine": ("verdict", "all_firings"),
    "constructors": ("wreath_cyclic", "central_product"),
    "witness": ("build_znthm", "verify_znthm", "baer_bundle"),
    "catalog": ("load_catalog",),
}
COUNTED = ("mult", "perm_order")

# The per-layer metrics every traced run reports, with their units.
PER_LAYER = {
    "perm.mult.calls": "count",
    "perm.mult.points": "count",
    "perm.perm_order.calls": "count",
    "group.close_set.calls": "count",
    "group.close_set.self_s": "s",
    "structure.derived_subgroup.calls": "count",
    "structure.derived_subgroup.self_s": "s",
    "structure.sylow.self_s": "s",
    "structure.center.self_s": "s",
    "structure.quotient.calls": "count",
    "structure.quotient.self_s": "s",
    "lattice.normal_subgroups_fast.calls": "count",
    "lattice.normal_subgroups_fast.self_s": "s",
    "autgroups.aut_group.calls": "count",
    "autgroups.aut_group.computed": "count",
    "autgroups.aut_group.self_s": "s",
    "autgroups.validate.calls": "count",
    "autgroups.is_characteristic.calls": "count",
    "autgroups.prop_special_search.self_s": "s",
    "complements.find_complement.calls": "count",
    "complements.find_complement.self_s": "s",
    "complements.exhaustive_search.self_s": "s",
    "complements.examined": "count",
    "complements.search_space": "count",
    "engine.verdict.calls": "count",
    "engine.verdict.computed": "count",
    "engine.verdict.self_s": "s",
    "engine.all_firings.s": "s",
    "witness.build_znthm.s": "s",
    "constructors.wreath_cyclic.s": "s",
    "constructors.central_product.s": "s",
    "witness.verify_znthm.s": "s",
    "witness.baer_bundle.s": "s",
    "catalog.load_catalog.s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Counts that must repeat exactly when a workload runs twice at one seed.
EXACT = tuple(k for k, unit in PER_LAYER.items() if unit == "count")

OP = "op"  # the root span of each request, opened by the benchmark itself


class Tracer:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, request id)
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        self.counts = {"perm.mult.points": 0, "perm.mult.calls": 0,
                       "perm.perm_order.calls": 0, "autgroups.aut_group.computed": 0,
                       "complements.examined": 0, "complements.search_space": 0,
                       "engine.verdict.computed": 0}  # set by the caller at the end
        self.request = -1        # -1 marks set-up work outside any request
        self._stack = []         # open span indices
        self._child = []         # time covered by direct children, per open span
        self._depth = {}

    def span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._child.append(0.0)
        self._depth[name] = self._depth.get(name, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            covered = self._child.pop()
            took = end - start
            if self._child:
                self._child[-1] += took
            self.spans[index] = (name, start, end, parent, self.request)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + took - covered
            self._depth[name] -= 1
            if self._depth[name] == 0:
                self.incl[name] = self.incl.get(name, 0.0) + took

    def run_op(self, request, call):
        """Run one request under a root span; its self time is unattributed."""
        self.request = request
        try:
            return self.span(OP, call, (), {})
        finally:
            self.request = -1

    def install(self, modules):
        """Patch every wrapped function in every module that holds it."""
        perm = sys.modules["gaschuetz.perm"]
        pairs = [(perm.mult, self._mult_wrapper(perm.mult)),
                 (perm.perm_order, self._order_wrapper(perm.perm_order))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"gaschuetz.{layer}"]
            for name in names:
                fn = getattr(home, name)
                pairs.append((fn, self._wrapper(f"{layer}.{name}", fn)))
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in pairs}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrapper(self, name, fn):
        span = self.span
        if name == "autgroups.aut_group":
            counts = self.counts

            def wrapper(*args, **kwargs):
                if args[0]._cache.get("aut") is None:
                    counts["autgroups.aut_group.computed"] += 1
                return span(name, fn, args, kwargs)
        elif name in ("complements.find_complement", "complements.exhaustive_search"):
            counts = self.counts

            def wrapper(*args, **kwargs):
                out = span(name, fn, args, kwargs)
                report = out[0] if isinstance(out, tuple) else out
                counts["complements.examined"] += report.examined
                counts["complements.search_space"] += report.search_space
                return out
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _mult_wrapper(self, fn):
        counts = self.counts

        def mult(p, q):
            counts["perm.mult.calls"] += 1
            counts["perm.mult.points"] += len(p)
            return fn(p, q)
        return mult

    def _order_wrapper(self, fn):
        counts = self.counts

        def perm_order(p):
            counts["perm.perm_order.calls"] += 1
            return fn(p)
        return perm_order

    def metrics(self) -> dict:
        """Per-layer values of the pass, 0 for layers it never entered."""
        out = {}
        for key in PER_LAYER:
            if key in self.counts:
                out[key] = self.counts[key]
                continue
            name, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = self.calls.get(name, 0)
            elif kind == "self_s":
                out[key] = self.self_s.get(name, 0.0)
            elif kind == "s":
                out[key] = self.incl.get(name, 0.0)
        out["trace.unattributed_s"] = self.self_s.get(OP, 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
