"""Rule-based verdicts: does the splitting property hold for N?

The engine answers for a group N whether every embedding N <= H <= G
(N normal in G, index of H coprime to |N|, N complemented in H) forces
a complement of N in G.  The rule chain is the table RULES, cheapest
first; each rule is individually sound, so order only affects which rule
gets reported.  ``verdict``, ``all_firings`` and ``explain`` all read it.
Budget overruns degrade to UNDECIDED with a note, never a wrong status.

Rule identifiers (fixed interface strings):
  HOLDS: abelian | sylow-abelian | metabelian-trivial-ZcapD |
         perfect-split | rose | composite-2.8
  FAILS: ZNthm | perfect-no-split | prop-special
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .autgroups import aut_group, is_characteristic, prop_special_search, rose_criterion
from .complements import find_complement
from .errors import AutBudgetError, GroupError, SizeLimitError
from .group import FiniteGroup
from .lattice import normal_subgroups_fast
from .structure import (
    all_sylow_abelian,
    center,
    center_meet_derived,
    derived_subgroup,
    is_abelian,
    is_metabelian,
    is_perfect,
    quotient,
)

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"


@dataclass
class Verdict:
    status: str
    rule: str | None
    evidence: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.status == HOLDS and self.rule not in HOLDS_RULES:
            raise GroupError(f"invalid HOLDS rule {self.rule!r}")
        if self.status == FAILS and self.rule not in FAILS_RULES:
            raise GroupError(f"invalid FAILS rule {self.rule!r}")


_verdict_cache: dict = {}


def _rule_composite(N: FiniteGroup, evaluate) -> tuple[bool, list[str]]:
    """Direct-factor and characteristic-quotient reductions.

    (ii)  N = A x B with both factors characteristic and the property
          holding for each;
    (iii) characteristic M satisfying the splitting criterion on its
          automorphism group, property holding for N/M;
    (iv)  characteristic M, gcd(|M|, |Z(N)||Out(N)|) = 1, all Sylow
          subgroups of M abelian, M complemented in N, property holding
          for N/M.
    """
    evidence = []
    normals = normal_subgroups_fast(N)
    # (ii): direct decompositions with characteristic factors
    by_order = {}
    for A in normals:
        by_order.setdefault(A.order, []).append(A)
    for A in normals:
        if A.order in (1, N.order):
            continue
        want = N.order // A.order
        for B in by_order.get(want, []):
            if B.order in (1, N.order):
                continue
            if len(A.element_set & B.element_set) != 1:
                continue
            # fast gcd pre-filter for characteristic factors
            if gcd(A.order // derived_subgroup(A).order, center(B).order) != 1:
                continue
            if gcd(B.order // derived_subgroup(B).order, center(A).order) != 1:
                continue
            if not (is_characteristic(A, N) and is_characteristic(B, N)):
                continue
            va, vb = evaluate(A), evaluate(B)
            if va.status == HOLDS and vb.status == HOLDS:
                evidence.append(
                    f"N = A x B with characteristic factors of orders "
                    f"{A.order} and {B.order}, both holding"
                )
                return True, evidence
    # (iii) and (iv)
    chars = [M for M in normals if M.order not in (1, N.order) and is_characteristic(M, N)]
    z_order = center(N).order
    out_order = None
    try:
        out_order = aut_group(N).out_order
    except (AutBudgetError, SizeLimitError):
        pass
    for M in chars:
        Q, _ = quotient(N, M)
        vq = evaluate(Q)
        if vq.status != HOLDS:
            continue
        try:
            if rose_criterion(M):
                evidence.append(
                    f"characteristic M of order {M.order} splits off its inner "
                    f"automorphisms and N/M (order {Q.order}) holds"
                )
                return True, evidence
        except (AutBudgetError, SizeLimitError):
            pass
        if out_order is not None and gcd(M.order, z_order * out_order) == 1:
            if all_sylow_abelian(M) and find_complement(N, M).exists:
                evidence.append(
                    f"characteristic M of order {M.order} coprime to "
                    f"|Z(N)||Out(N)| = {z_order * out_order}, abelian Sylows, "
                    f"complemented; N/M (order {Q.order}) holds"
                )
                return True, evidence
    return False, evidence


# Exact facts several rules read, kept on N.
def _rose(N: FiniteGroup) -> bool:
    return N.cached("rose", rose_criterion)


def _prop_special(N: FiniteGroup):
    hit = center(N).is_trivial() and prop_special_search(N)
    return hit and [
        f"automorphism with power {hit[1]} inner-derived while "
        f"(inner shift)^{hit[1]} never trivial"
    ]


def _composite(N: FiniteGroup):
    fired, evidence = _rule_composite(N, verdict)
    return fired and evidence


# The rule chain, cheapest first: (side, rule, budget-note label, test).
# test(N) returns the evidence list when the rule fires, a falsy value
# otherwise.  Only labelled rules may be skipped for an Aut or element
# budget overrun; rules sharing a label read the same fact.  Each test
# looks its callees up as module globals when it runs, so a patched or
# wrapped function is the one called.
RULES = (
    (HOLDS, "abelian", None,
     lambda N: is_abelian(N) and [f"abelian of order {N.order}"]),
    (HOLDS, "sylow-abelian", None,
     lambda N: all_sylow_abelian(N) and ["every Sylow subgroup is abelian"]),
    (FAILS, "ZNthm", None,
     lambda N: center_meet_derived(N).order > 1
     and [f"Z(N) meet N' has order {center_meet_derived(N).order}"]),
    (HOLDS, "metabelian-trivial-ZcapD", None,
     lambda N: center_meet_derived(N).order == 1 and is_metabelian(N)
     and ["metabelian with Z(N) meet N' = 1"]),
    (HOLDS, "perfect-split", "perfect",
     lambda N: center(N).is_trivial() and is_perfect(N) and _rose(N)
     and ["perfect, centerless, inner automorphisms split off"]),
    (FAILS, "perfect-no-split", "perfect",
     lambda N: center(N).is_trivial() and is_perfect(N) and not _rose(N)
     and ["perfect, centerless, inner automorphisms do not split off"]),
    (HOLDS, "rose", "rose",
     lambda N: center(N).is_trivial() and _rose(N)
     and ["centerless, inner automorphisms split off"]),
    (FAILS, "prop-special", "special-pair", _prop_special),
    (HOLDS, "composite-2.8", "composite", _composite),
)
HOLDS_RULES = tuple(rule for side, rule, _, _ in RULES if side == HOLDS)
FAILS_RULES = tuple(rule for side, rule, _, _ in RULES if side == FAILS)


def _run(N: FiniteGroup, label, test, skipped: dict):
    """test(N), or None when a labelled rule ran over budget (kept in ``skipped``).

    Once a label has overrun, its other rules are not run again.
    """
    if label in skipped:
        return None
    try:
        return test(N)
    except (AutBudgetError, SizeLimitError) as e:
        if label is None:
            raise
        skipped[label] = e
        return None


def verdict(N: FiniteGroup) -> Verdict:
    """The first rule of RULES that fires; UNDECIDED is an honest output.

    A verdict reached after a rule was skipped for budget depends on the
    budget, so it is returned but not kept in the verdict cache.
    """
    key = N.element_set
    got = _verdict_cache.get(key)
    if got is not None:
        return got
    skipped = {}
    for side, rule, label, test in RULES:
        evidence = _run(N, label, test, skipped)
        if evidence:
            out = Verdict(side, rule, evidence)
            break
    else:
        notes = [f"{label} rule skipped: {e}" for label, e in skipped.items()]
        notes.append("no rule fired; the question is open for this group")
        out = Verdict(UNDECIDED, None, [], notes)
    if not skipped:
        _verdict_cache[key] = out
    return out


def all_firings(N: FiniteGroup, sides=(HOLDS, FAILS)) -> dict:
    """Evaluate every rule of the given sides independently (None = skipped for budget).

    Used by the mutual-exclusion soundness check: no group may fire both
    a HOLDS rule and a FAILS rule.  The result holds exactly the rules of
    ``sides``.
    """
    skipped = {}
    firings = {}
    for side, rule, label, test in RULES:
        if side in sides:
            fired = _run(N, label, test, skipped)
            firings[rule] = None if label in skipped else bool(fired)
    return firings


def fired_statuses(firings: dict) -> tuple[bool, bool]:
    holds = any(firings.get(r) for r in HOLDS_RULES)
    fails = any(firings.get(r) for r in FAILS_RULES)
    return holds, fails


def explain(v: Verdict) -> str:
    """Human-readable report: the rule, the facts, and for UNDECIDED the skips."""
    lines = [f"status: {v.status}"]
    if v.rule:
        lines.append(f"rule: {v.rule}")
    for fact in v.evidence:
        lines.append(f"  - {fact}")
    if v.status == UNDECIDED:
        skips = [n for n in v.notes if "skipped" in n]
        skipped = {n.split(" rule skipped", 1)[0] for n in skips}
        evaluated = [
            rule for want in (HOLDS, FAILS) for side, rule, label, _ in RULES
            if side == want and label not in skipped
        ]
        lines.append("rules evaluated without firing: " + ", ".join(evaluated))
        lines.append("rules skipped for budget:")
        if skips:
            lines.extend(f"  - {n}" for n in skips)
        else:
            lines.append("  - none")
    return "\n".join(lines)
