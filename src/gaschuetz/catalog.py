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
from .errors import CatalogError, SizeLimitError, UnknownNameError, quoted
from .group import FiniteGroup, element_order
from .structure import is_prime, quotient


@dataclass
class CatalogEntry:
    name: str
    degree: int
    generators: list[list[int]]
    tags: list[str] = field(default_factory=list)

    def group(self) -> FiniteGroup:
        if self.degree > config.element_cap():
            raise SizeLimitError(f"catalog group of degree {self.degree} over element cap")
        return FiniteGroup(self.degree, self.generators)

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
        except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
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
# Each parenthesis costs the parser three stack frames and the evaluator
# one; no meaningful name comes near this depth.
MAX_NESTING = 100


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
        self.depth = 0

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
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise UnknownNameError(
                    f"group name nests parentheses deeper than {MAX_NESTING}"
                )
            node = self.expr()
            if self.take() != ")":
                raise UnknownNameError("unbalanced parenthesis in group name")
            self.depth -= 1
        else:
            _check_atom(tok)
            node = ("atom", tok)
        if self.peek() == "^":
            self.take()
            k = self.take()
            if not k or not k.isdigit():
                raise UnknownNameError("power must be an integer")
            power = numeral(k)
            if power < 1:
                raise UnknownNameError("power must be at least 1")
            node = ("^", node, power)
        return node


_ATOM = re.compile(r"^(C|D|S|A)(\d+)$")


def numeral(digits: str) -> int:
    """The value of a decimal numeral in a group name or a selector.

    Python refuses to convert a numeral of over 4,300 digits; that number
    is over every cap, so it is refused as a name that names no group.
    """
    try:
        return int(digits)
    except ValueError:
        raise UnknownNameError(f"numeral of {len(digits)} digits is too long") from None


def _check_atom(tok: str) -> None:
    """Refuse C<n>, S<n> for n < 1 and D<n> unless n is even and >= 4."""
    m = _ATOM.match(tok)
    if not m:
        return
    family, n = m.group(1), numeral(m.group(2))
    if family in "CS" and n < 1 or family == "D" and (n < 4 or n % 2):
        raise UnknownNameError(
            f"no group {tok}: C<n> and S<n> need n >= 1, D<n> an even n >= 4"
        )


def _build_atom(tok: str) -> FiniteGroup:
    if tok == "Q8":
        return quaternion8()
    if tok == "SL23":
        return sl_2_3()
    m = _ATOM.match(tok)
    if not m:
        raise UnknownNameError(f"unknown group atom {tok!r}")
    family, n = m.group(1), numeral(m.group(2))
    if family == "C":
        return cyclic(n)
    if family == "D":
        return dihedral(n)
    if family == "S":
        return symmetric(n)
    return alternating(n)


def _canonical_semidirect(left_node, right_node) -> FiniteGroup:
    """Cp^2 : Q8 or Cp^2 : D8 with the fixed 2-dimensional matrix action.

    p must be an odd prime: over F_2 neither matrix group acts
    faithfully.  The order 8p^2 is checked against the cap first, since
    the primality test and the matrix search take time growing with p.
    """
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
    p = numeral(left_node[1][1][1:])
    if right_node != ("atom", "Q8") and right_node != ("atom", "D8"):
        raise UnknownNameError(
            "only Cp^2 : Q8 and Cp^2 : D8 carry a canonical action"
        )
    order = 8 * p * p
    if order > config.element_cap():
        raise SizeLimitError(
            f"semidirect product of order 8*{p}^2 over element cap", required_order=order
        )
    if p == 2 or not is_prime(p):
        raise UnknownNameError(f"C{p}^2:{right_node[1]} needs p an odd prime")
    mats = (
        quaternion_matrices(p)
        if right_node == ("atom", "Q8")
        else dihedral8_matrices(p)
    )
    return elementary_semidirect(p, mats).group


def _eval_node(node) -> FiniteGroup:
    """The group a parsed name denotes.

    The left-deep chains that ``x`` and ``wr`` build are walked by a loop,
    so only parentheses, which the parser caps, deepen the recursion.  The
    walk down checks each wreath top, and the walk up evaluates each right
    operand, in the order a recursion down the left operands would.
    """
    steps = []  # (operator, right operand), from the top of the chain down
    while node[0] in ("x", "wr"):
        op, node, right = node
        if op == "wr":
            if right[0] != "atom" or not right[1].startswith("C"):
                raise UnknownNameError("wreath tops must be cyclic: use AwrC<q>")
            right = numeral(right[1][1:])
        steps.append((op, right))
    kind = node[0]
    if kind == "atom":
        group = _build_atom(node[1])
    elif kind == "^":
        group = direct_power(_eval_node(node[1]), node[2])
    elif kind == ":":
        group = _canonical_semidirect(node[1], node[2])
    else:
        raise UnknownNameError(f"cannot evaluate group expression node {kind!r}")
    for op, right in reversed(steps):
        if op == "x":
            group = direct_product(group, _eval_node(right))
        else:
            group = wreath_cyclic(group, right).group
    return group


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
    raise UnknownNameError(f"cannot resolve group name {quoted(name)}")


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
    """Invariant factors d1 | d2 | ... of an abelian group, largest first split off
    by quotients: a cyclic subgroup of largest order is a direct factor.
    """
    orders = []
    while G.order > 1:
        elements = G.element_tuples
        order = element_order(G)
        d, x = max((order(t), t) for t in elements)
        orders.append(d)
        G, _ = quotient(G, G.generated_subgroup([x]))
    return sorted(orders) or [1]


def abelian_name(G: FiniteGroup) -> str:
    """Invariant-factor name like C2xC6 for an abelian group."""
    return "x".join(f"C{d}" for d in abelian_invariants(G))
