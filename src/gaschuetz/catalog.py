"""Group catalog: line-delimited records, name grammar, classification runs.

Catalog format: one JSON object per line with fields name / degree /
generators / tags.  Names resolve first through the constructor grammar
(C12, D8, Q8, S5, A6, SL23, products with x, powers with ^, canonical
semidirect products like C5^2:Q8, wreath products like S3wrC2), then
through catalog entries.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from importlib import resources

from . import config
from .constructors import (
    alternating,
    cyclic,
    dihedral,
    dihedral8_matrices,
    direct_power,
    direct_product,
    elementary_semidirect,
    quaternion8,
    quaternion_matrices,
    sl_2_3,
    symmetric,
    wreath_cyclic,
)
from .engine import FAILS, HOLDS, UNDECIDED, all_firings, verdict
from .errors import CatalogError, UnknownNameError
from .group import FiniteGroup
from .perm import perm_order
from .structure import prime_factors


@dataclass
class CatalogEntry:
    name: str
    degree: int
    generators: list[list[int]]
    tags: list[str] = field(default_factory=list)

    def group(self) -> FiniteGroup:
        return FiniteGroup(self.degree, [tuple(g) for g in self.generators])

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "degree": self.degree,
                "generators": self.generators,
                "tags": self.tags,
            },
            sort_keys=True,
        )


def load_catalog(path) -> list[CatalogEntry]:
    """Parse and validate a catalog file; errors carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise CatalogError(f"cannot read catalog {path}: {e}") from None
    entries = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CatalogError(f"line {lineno}: invalid JSON: {e}", line=lineno)
        try:
            degree, gens, tags = obj["degree"], obj["generators"], obj.get("tags", [])
            if type(degree) is not int or degree < 1:
                raise ValueError(f"degree must be an integer >= 1, not {degree!r}")
            if not (type(gens) is list and type(tags) is list and all(
                    type(g) is list and all(type(x) is int for x in g) for g in gens)):
                raise TypeError("generators must be lists of integers, tags a list")
            entry = CatalogEntry(
                name=str(obj["name"]),
                degree=degree,
                generators=[list(g) for g in gens],
                tags=[str(t) for t in tags],
            )
        except (KeyError, TypeError, ValueError) as e:
            raise CatalogError(f"line {lineno}: malformed entry: {e}", line=lineno)
        for g in entry.generators:
            if sorted(g) != list(range(entry.degree)):
                raise CatalogError(
                    f"line {lineno}: generator is not a permutation of "
                    f"0..{entry.degree - 1}",
                    line=lineno,
                )
        if entry.name in seen:
            raise CatalogError(
                f"line {lineno}: duplicate name {entry.name!r}", line=lineno
            )
        seen.add(entry.name)
        entries.append(entry)
    return entries


def save_catalog(entries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(e.to_json() + "\n")


def bundled_catalog_path():
    return resources.files("gaschuetz").joinpath("data/small_groups.jsonl")


def load_bundled_catalog() -> list[CatalogEntry]:
    with resources.as_file(bundled_catalog_path()) as p:
        return load_catalog(p)


# -- name grammar -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(wr|SL23|Q8|[CDSA]\d+|[x:^()]|\d+)")


class _Parser:
    def __init__(self, text):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise UnknownNameError(f"cannot tokenize group name at: {text[pos:]!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        g = self.expr()
        if self.peek() is not None:
            raise UnknownNameError(f"trailing input {self.peek()!r} in group name")
        return g

    def expr(self):
        node = self.term()
        while self.peek() == "x":
            self.take()
            node = ("x", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in (":", "wr"):
            op = self.take()
            node = (op, node, self.factor())
        return node

    def factor(self):
        tok = self.take()
        if tok is None:
            raise UnknownNameError("group name ended unexpectedly")
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise UnknownNameError("unbalanced parenthesis in group name")
        else:
            node = ("atom", tok)
        if self.peek() == "^":
            self.take()
            k = self.take()
            if not k or not k.isdigit():
                raise UnknownNameError("power must be an integer")
            if int(k) < 1:
                raise UnknownNameError("power must be at least 1")
            node = ("^", node, int(k))
        return node


_ATOM = re.compile(r"^(C|D|S|A)(\d+)$")


def _build_atom(tok: str) -> FiniteGroup:
    if tok == "Q8":
        return quaternion8()
    if tok == "SL23":
        return sl_2_3()
    m = _ATOM.match(tok)
    if not m:
        raise UnknownNameError(f"unknown group atom {tok!r}")
    family, n = m.group(1), int(m.group(2))
    if family == "C":
        return cyclic(n)
    if family == "D":
        return dihedral(n)
    if family == "S":
        return symmetric(n)
    return alternating(n)


def _canonical_semidirect(left_node, right_node) -> FiniteGroup:
    """Cp^2 : Q8 or Cp^2 : D8 with the fixed 2-dimensional matrix action."""
    ok = (
        left_node[0] == "^"
        and left_node[2] == 2
        and left_node[1][0] == "atom"
        and _ATOM.match(left_node[1][1])
        and left_node[1][1].startswith("C")
    )
    if not ok:
        raise UnknownNameError(
            "only Cp^2 : Q8 and Cp^2 : D8 carry a canonical action"
        )
    p = int(left_node[1][1][1:])
    if right_node != ("atom", "Q8") and right_node != ("atom", "D8"):
        raise UnknownNameError(
            "only Cp^2 : Q8 and Cp^2 : D8 carry a canonical action"
        )
    mats = (
        quaternion_matrices(p)
        if right_node == ("atom", "Q8")
        else dihedral8_matrices(p)
    )
    return elementary_semidirect(p, mats).group


def _eval_node(node) -> FiniteGroup:
    kind = node[0]
    if kind == "atom":
        return _build_atom(node[1])
    if kind == "^":
        return direct_power(_eval_node(node[1]), node[2])
    if kind == "x":
        return direct_product(_eval_node(node[1]), _eval_node(node[2]))
    if kind == ":":
        return _canonical_semidirect(node[1], node[2])
    if kind == "wr":
        right = node[2]
        if right[0] != "atom" or not right[1].startswith("C"):
            raise UnknownNameError("wreath tops must be cyclic: use AwrC<q>")
        q = int(right[1][1:])
        return wreath_cyclic(_eval_node(node[1]), q).group
    raise UnknownNameError(f"cannot evaluate group expression node {kind!r}")


def build_named_group(name: str) -> FiniteGroup:
    """Evaluate a constructor-grammar name."""
    return _eval_node(_Parser(name).parse())


def resolve_group(name: str, entries=None) -> FiniteGroup:
    """Constructor grammar first, catalog names second."""
    try:
        return build_named_group(name)
    except UnknownNameError:
        pass
    if entries is None:
        entries = load_bundled_catalog()
    for e in entries:
        if e.name == name:
            return e.group()
    raise UnknownNameError(f"cannot resolve group name {name!r}")


# -- classification reports -----------------------------------------------------


def classify(entries, *, max_order=None, check_exclusion=True) -> dict:
    """Verdict per entry plus summary; deterministic up to timing fields.

    The exclusion check asks whether a rule of the side opposite the
    verdict also fires: every rule is sound, so any firing there is a
    contradiction.  A HOLDS verdict needs only the FAILS rules, a FAILS
    verdict only the HOLDS rules.  An UNDECIDED verdict has run every
    rule of the chain with none firing, so it needs no second pass.

    A per-group wall-clock budget (GASCHUETZ_TIME_BUDGET seconds) is
    advisory: groups that ran over get flagged, never a changed status.
    The top-level ``timing`` block splits the summed per-group time into
    verdict and exclusion-check time (``exclusion_ms`` is None without
    the check).
    """
    budget = config.time_budget_per_group()
    per_group = []
    counts = {"holds": 0, "fails": 0, "undecided": 0}
    contradictions = 0
    verdict_s = exclusion_s = 0.0
    for e in entries:
        G = e.group()
        if max_order is not None and G.order > max_order:
            continue
        t0 = time.perf_counter()
        v = verdict(G)
        t1 = time.perf_counter()
        if check_exclusion and v.status != UNDECIDED:
            opposite = FAILS if v.status == HOLDS else HOLDS
            if any(all_firings(G, (opposite,)).values()):
                contradictions += 1
        t2 = time.perf_counter()
        verdict_s += t1 - t0
        exclusion_s += t2 - t1
        elapsed_ms = round((t2 - t0) * 1000, 3)
        counts[v.status] += 1
        record = {
            "name": e.name,
            "order": G.order,
            "status": v.status,
            "rule": v.rule,
            "evidence": list(v.evidence),
            "time_ms": elapsed_ms,
        }
        if budget is not None and elapsed_ms > budget * 1000:
            record["over_budget"] = True
        per_group.append(record)
    report = {
        "groups": per_group,
        "summary": {
            "holds": counts["holds"],
            "fails": counts["fails"],
            "undecided": counts["undecided"],
            "contradictions": contradictions if check_exclusion else None,
            "total": len(per_group),
        },
        "timing": {
            "verdict_ms": round(verdict_s * 1000, 3),
            "exclusion_ms": round(exclusion_s * 1000, 3) if check_exclusion else None,
        },
    }
    return report


def report_consistent(report: dict) -> bool:
    s = report["summary"]
    tallies = {"holds": 0, "fails": 0, "undecided": 0}
    for g in report["groups"]:
        tallies[g["status"]] += 1
    return (
        tallies["holds"] == s["holds"]
        and tallies["fails"] == s["fails"]
        and tallies["undecided"] == s["undecided"]
        and s["total"] == len(report["groups"])
    )


# -- naming generated groups -----------------------------------------------------


def abelian_invariants(G: FiniteGroup) -> list[int]:
    """Invariant factors d1 | d2 | ... of an abelian group, from order counts."""
    if G.order == 1:
        return [1]
    orders = [perm_order(t) for t in G.element_tuples]
    parts: dict[int, list[int]] = {}
    for p in prime_factors(G.order):
        # r_i = number of cyclic p-factors with exponent >= i
        ranks = []
        prev = 1
        i = 1
        while True:
            c = sum(1 for o in orders if (p ** i) % o == 0)
            if c == prev:
                break
            ratio, r = c // prev, 0
            while ratio > 1:
                ratio //= p
                r += 1
            ranks.append(r)
            prev = c
            i += 1
        factors = []
        for j, r in enumerate(ranks):
            nxt = ranks[j + 1] if j + 1 < len(ranks) else 0
            factors.extend([p ** (j + 1)] * (r - nxt))
        parts[p] = sorted(factors, reverse=True)
    depth = max(len(v) for v in parts.values())
    invariant = []
    for i in range(depth):
        d = 1
        for lst in parts.values():
            if i < len(lst):
                d *= lst[i]
        invariant.append(d)
    invariant.sort()
    return invariant


def abelian_name(G: FiniteGroup) -> str:
    """Invariant-factor name like C2xC6 for an abelian group."""
    return "x".join(f"C{d}" for d in abelian_invariants(G))
