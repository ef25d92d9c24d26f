"""Rule-based verdicts: does the splitting property hold for N?

The engine answers for a group N whether every embedding N <= H <= G
(N normal in G, index of H coprime to |N|, N complemented in H) forces
a complement of N in G.  Rules are evaluated cheapest first; each is
individually sound, so order only affects which rule gets reported.
Budget overruns degrade to UNDECIDED with a note, never a wrong status.

Rule identifiers (fixed interface strings):
  HOLDS: abelian | sylow-abelian | metabelian-trivial-ZcapD | rose |
         perfect-split | composite-2.8
  FAILS: ZNthm | perfect-no-split | prop-special
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import AutBudgetError, GroupError, SizeLimitError
from .group import FiniteGroup, intersection
from .structure import (
    all_sylow_abelian,
    center,
    derived_subgroup,
    is_abelian,
    is_metabelian,
    is_perfect,
    quotient,
)

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"

HOLDS_RULES = (
    "abelian",
    "sylow-abelian",
    "metabelian-trivial-ZcapD",
    "rose",
    "perfect-split",
    "composite-2.8",
)
FAILS_RULES = ("ZNthm", "perfect-no-split", "prop-special")


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


def _zn_meet(N: FiniteGroup) -> FiniteGroup:
    return intersection(center(N), derived_subgroup(N))


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
    from .autgroups import aut_group, is_characteristic, rose_criterion
    from .complements import find_complement
    from .lattice import normal_subgroups_fast

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


def verdict(N: FiniteGroup) -> Verdict:
    """Ordered rule chain; UNDECIDED is an honest output."""
    key = N.element_set
    got = _verdict_cache.get(key)
    if got is not None:
        return got
    out = _verdict_uncached(N, verdict)
    _verdict_cache[key] = out
    return out


def _verdict_uncached(N: FiniteGroup, evaluate) -> Verdict:
    from .autgroups import prop_special_search, rose_criterion

    notes = []
    if is_abelian(N):
        return Verdict(HOLDS, "abelian", [f"abelian of order {N.order}"])
    if all_sylow_abelian(N):
        return Verdict(
            HOLDS, "sylow-abelian", ["every Sylow subgroup is abelian"]
        )
    meet = _zn_meet(N)
    if meet.order > 1:
        return Verdict(
            FAILS,
            "ZNthm",
            [f"Z(N) meet N' has order {meet.order}"],
        )
    if is_metabelian(N):
        return Verdict(
            HOLDS,
            "metabelian-trivial-ZcapD",
            ["metabelian with Z(N) meet N' = 1"],
        )
    centerless = center(N).is_trivial()
    if is_perfect(N) and centerless:
        try:
            if rose_criterion(N):
                return Verdict(
                    HOLDS, "perfect-split",
                    ["perfect, centerless, inner automorphisms split off"],
                )
            return Verdict(
                FAILS, "perfect-no-split",
                ["perfect, centerless, inner automorphisms do not split off"],
            )
        except (AutBudgetError, SizeLimitError) as e:
            notes.append(f"perfect rule skipped: {e}")
    if centerless:
        try:
            if rose_criterion(N):
                return Verdict(
                    HOLDS, "rose", ["centerless, inner automorphisms split off"]
                )
        except (AutBudgetError, SizeLimitError) as e:
            notes.append(f"rose rule skipped: {e}")
        try:
            hit = prop_special_search(N)
            if hit is not None:
                gamma, k = hit
                return Verdict(
                    FAILS,
                    "prop-special",
                    [
                        f"automorphism with power {k} inner-derived while "
                        f"(inner shift)^{k} never trivial"
                    ],
                )
        except (AutBudgetError, SizeLimitError) as e:
            notes.append(f"special-pair rule skipped: {e}")
    try:
        fired, evidence = _rule_composite(N, evaluate)
        if fired:
            return Verdict(HOLDS, "composite-2.8", evidence)
    except (AutBudgetError, SizeLimitError) as e:
        notes.append(f"composite rule skipped: {e}")
    notes.append("no rule fired; the question is open for this group")
    return Verdict(UNDECIDED, None, [], notes)


def _budgeted(rule):
    """rule() or None when it ran over an Aut or element budget."""
    try:
        return rule()
    except (AutBudgetError, SizeLimitError):
        return None


def all_firings(N: FiniteGroup, sides=(HOLDS, FAILS)) -> dict:
    """Evaluate every rule of the given sides independently (None = skipped for budget).

    Used by the mutual-exclusion soundness check: no group may fire both
    a HOLDS rule and a FAILS rule.  The result holds exactly the rules of
    ``sides``; the facts several rules share are computed once, and the
    rose criterion only when a requested rule reads it.
    """
    from .autgroups import prop_special_search, rose_criterion

    meet_nontrivial = _zn_meet(N).order > 1
    centerless = center(N).is_trivial()
    perfect_centerless = centerless and is_perfect(N)
    rose = None
    if (HOLDS in sides and centerless) or (FAILS in sides and perfect_centerless):
        rose = _budgeted(lambda: rose_criterion(N))
    perfect_skipped = perfect_centerless and rose is None
    firings: dict = {}
    if HOLDS in sides:
        firings["abelian"] = is_abelian(N)
        firings["sylow-abelian"] = all_sylow_abelian(N)
        firings["metabelian-trivial-ZcapD"] = is_metabelian(N) and not meet_nontrivial
        firings["perfect-split"] = (
            None if perfect_skipped else bool(perfect_centerless and rose)
        )
        firings["rose"] = (
            None if (centerless and rose is None) else bool(centerless and rose)
        )
        firings["composite-2.8"] = _budgeted(lambda: _rule_composite(N, verdict)[0])
    if FAILS in sides:
        firings["ZNthm"] = meet_nontrivial
        firings["perfect-no-split"] = (
            None if perfect_skipped else bool(perfect_centerless and rose is False)
        )
        firings["prop-special"] = (
            _budgeted(lambda: prop_special_search(N) is not None)
            if centerless else False
        )
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
        skipped_rules = {
            n.split(" rule skipped", 1)[0] for n in skips if " rule skipped" in n
        }
        evaluated = [
            r for r in (*HOLDS_RULES, *FAILS_RULES)
            if not any(r.startswith(s) for s in skipped_rules)
        ]
        lines.append("rules evaluated without firing: " + ", ".join(evaluated))
        lines.append("rules skipped for budget:")
        if skips:
            lines.extend(f"  - {n}" for n in skips)
        else:
            lines.append("  - none")
    return "\n".join(lines)
