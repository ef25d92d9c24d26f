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


def _rule_composite(N: FiniteGroup) -> list[str]:
    """Direct-factor and characteristic-quotient reductions.

    (ii)  N = A x B with both factors characteristic and the property
          holding for each;
    (iii) characteristic M satisfying the splitting criterion on its
          automorphism group, property holding for N/M;
    (iv)  characteristic M, gcd(|M|, |Z(N)||Out(N)|) = 1, all Sylow
          subgroups of M abelian, M complemented in N, property holding
          for N/M.

    Returns the evidence when a reduction applies, an empty list otherwise.
    """
    chars = [
        M for M in normal_subgroups_fast(N)
        if M.order not in (1, N.order) and is_characteristic(M, N)
    ]
    if not chars:
        return []
    # (ii): direct decompositions with characteristic factors; such factors
    # have gcd(|A:A'|, |Z(B)|) = 1, as f: A -> Z(B) gives ab -> a f(a) b
    for A in chars:
        for B in chars:
            if A.order * B.order != N.order or len(A.element_set & B.element_set) != 1:
                continue
            va, vb = verdict(A), verdict(B)
            if va.status == HOLDS and vb.status == HOLDS:
                return [
                    f"N = A x B with characteristic factors of orders "
                    f"{A.order} and {B.order}, both holding"
                ]
    # (iii) and (iv); is_characteristic has built Aut(N) already
    z_out = center(N).order * aut_group(N).out_order
    for M in chars:
        Q, _ = quotient(N, M)
        if verdict(Q).status != HOLDS:
            continue
        try:
            if rose_criterion(M):
                return [
                    f"characteristic M of order {M.order} splits off its inner "
                    f"automorphisms and N/M (order {Q.order}) holds"
                ]
        except (AutBudgetError, SizeLimitError):
            pass
        if gcd(M.order, z_out) == 1 and all_sylow_abelian(M) and find_complement(N, M).exists:
            return [
                f"characteristic M of order {M.order} coprime to "
                f"|Z(N)||Out(N)| = {z_out}, abelian Sylows, "
                f"complemented; N/M (order {Q.order}) holds"
            ]
    return []


def _prop_special(N: FiniteGroup):
    hit = center(N).is_trivial() and prop_special_search(N)
    return hit and [
        f"automorphism with power {hit[1]} inner-derived while "
        f"(inner shift)^{hit[1]} never trivial"
    ]


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
     lambda N: center(N).is_trivial() and is_perfect(N) and rose_criterion(N)
     and ["perfect, centerless, inner automorphisms split off"]),
    (FAILS, "perfect-no-split", "perfect",
     lambda N: center(N).is_trivial() and is_perfect(N) and not rose_criterion(N)
     and ["perfect, centerless, inner automorphisms do not split off"]),
    (HOLDS, "rose", "rose",
     lambda N: center(N).is_trivial() and rose_criterion(N)
     and ["centerless, inner automorphisms split off"]),
    (FAILS, "prop-special", "special-pair", _prop_special),
    (HOLDS, "composite-2.8", "composite", lambda N: _rule_composite(N)),
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
    budget, so it is returned but not kept in the verdict cache.  The
    abelian rule reads only generators, so it runs before N is enumerated
    for the cache key, and its verdict is not cached.
    """
    side, rule, _, abelian = RULES[0]
    if evidence := abelian(N):
        return Verdict(side, rule, evidence)
    key = N.element_set
    got = _verdict_cache.get(key)
    if got is not None:
        return got
    skipped = {}
    for side, rule, label, test in RULES[1:]:
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
