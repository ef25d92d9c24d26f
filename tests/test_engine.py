import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from gaschuetz import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    sl_2_3,
    symmetric,
    wreath_cyclic,
)
from gaschuetz import engine
from gaschuetz.constructors import elementary_semidirect, quaternion_matrices
from gaschuetz.engine import (
    FAILS,
    FAILS_RULES,
    HOLDS,
    RULES,
    UNDECIDED,
    Verdict,
    all_firings,
    explain,
    fired_statuses,
    verdict,
)
from gaschuetz.errors import GroupError, SizeLimitError


def test_verdict_rule_constants_enforced():
    with pytest.raises(GroupError):
        Verdict(HOLDS, "ZNthm")
    with pytest.raises(GroupError):
        Verdict(FAILS, "abelian")


def test_abelian_holds():
    v = verdict(cyclic(6))
    assert (v.status, v.rule) == (HOLDS, "abelian")


def test_sylow_abelian_holds():
    for G in [symmetric(3), alternating(4), dihedral(10)]:
        v = verdict(G)
        assert (v.status, v.rule) == (HOLDS, "sylow-abelian")


def test_zn_fails():
    for G in [quaternion8(), dihedral(8), sl_2_3()]:
        v = verdict(G)
        assert (v.status, v.rule) == (FAILS, "ZNthm")


def test_s4_holds_via_rose():
    v = verdict(symmetric(4))
    assert (v.status, v.rule) == (HOLDS, "rose")


def test_frobenius_200_fails():
    N = elementary_semidirect(5, quaternion_matrices(5)).group
    v = verdict(N)
    assert v.status == FAILS
    assert v.rule in ("prop-special", "composite-2.8") and v.rule in FAILS_RULES


def test_wreath_s3_c2_fails_special():
    v = verdict(wreath_cyclic(symmetric(3), 2).group)
    assert (v.status, v.rule) == (FAILS, "prop-special")


def test_a6_fails_perfect():
    v = verdict(alternating(6))
    assert (v.status, v.rule) == (FAILS, "perfect-no-split")


def test_a5_holds_before_perfect_rule():
    # all Sylow subgroups of A5 are abelian, so the cheaper rule fires
    v = verdict(alternating(5))
    assert (v.status, v.rule) == (HOLDS, "sylow-abelian")


def test_perfect_split_branch_psl27():
    from gaschuetz.constructors import matrix_group
    from gaschuetz.structure import center, quotient

    SL27 = matrix_group([((1, 1), (0, 1)), ((1, 0), (1, 1))], 7)
    PSL, _ = quotient(SL27, center(SL27))
    assert PSL.order == 168
    v = verdict(PSL)
    assert (v.status, v.rule) == (HOLDS, "perfect-split")


def test_open_problem_group_undecided():
    N = direct_product(
        elementary_semidirect(3, quaternion_matrices(3)).group, cyclic(2)
    )
    v = verdict(N)
    assert v.status == UNDECIDED
    assert v.rule is None


def test_metabelian_biconditional_never_undecided(small_catalog_groups):
    from gaschuetz.structure import is_metabelian

    for entry, G in small_catalog_groups:
        if G.order > 40:
            continue
        if is_metabelian(G):
            assert verdict(G).status != UNDECIDED, entry.name


def test_composite_rule_direct_factor():
    # S3 x S3 holds already at the Sylow rule; force composite on a
    # product whose factors hold for different reasons
    G = direct_product(symmetric(4), cyclic(5))
    v = verdict(G)
    assert v.status == HOLDS


def test_explain_mentions_facts():
    text = explain(verdict(quaternion8()))
    assert "ZNthm" in text and "order 2" in text
    text = explain(verdict(cyclic(6)))
    assert "abelian" in text
    N = direct_product(
        elementary_semidirect(3, quaternion_matrices(3)).group, cyclic(2)
    )
    text = explain(verdict(N))
    assert "undecided" in text


def test_mutual_exclusion_spot(small_catalog_groups):
    import random

    rng = random.Random(5)
    for entry, G in rng.sample(small_catalog_groups, 25):
        holds_fired, fails_fired = fired_statuses(all_firings(G))
        assert not (holds_fired and fails_fired), entry.name


def test_rules_two_and_three_disjoint(small_catalog_groups):
    from gaschuetz.structure import all_sylow_abelian, center_meet_derived

    for entry, G in small_catalog_groups:
        if G.order > 36:
            continue
        if all_sylow_abelian(G):
            assert center_meet_derived(G).order == 1, entry.name


# The verdict cache is process-global and keyed by element set: an
# UNDECIDED S4 or A6 computed under a small budget must not outlive the
# test that made it.
@pytest.fixture
def fresh_verdicts(monkeypatch):
    monkeypatch.setattr(engine, "_verdict_cache", {})


def test_explain_lists_skipped_rules_as_skipped(fresh_verdicts, monkeypatch):
    monkeypatch.setenv("GASCHUETZ_AUT_CAP", "10")
    text = explain(verdict(symmetric(4)))
    evaluated = next(line for line in text.splitlines() if line.startswith("rules evaluated"))
    assert evaluated.split(": ", 1)[1].split(", ") == [
        "abelian", "sylow-abelian", "metabelian-trivial-ZcapD", "perfect-split",
        "ZNthm", "perfect-no-split",
    ]
    assert "  - special-pair rule skipped: " in text


@pytest.mark.parametrize(
    "make, labels, unknown",
    [
        (lambda: symmetric(4), ["rose", "special-pair", "composite"],
         {"rose", "prop-special", "composite-2.8"}),
        (lambda: alternating(6), ["perfect", "rose", "special-pair"],
         {"perfect-split", "perfect-no-split", "rose", "prop-special"}),
    ],
    ids=["S4", "A6"],
)
def test_budget_overrun_notes_and_firings(fresh_verdicts, monkeypatch, make, labels, unknown):
    monkeypatch.setenv("GASCHUETZ_AUT_CAP", "10")
    N = make()
    v = verdict(N)
    assert (v.status, v.rule, v.evidence) == (UNDECIDED, None, [])
    assert [n.split(" rule skipped: ", 1)[0] for n in v.notes[:-1]] == labels
    assert v.notes[-1] == "no rule fired; the question is open for this group"
    firings = all_firings(N)
    assert {r for r, fired in firings.items() if fired is None} == unknown
    assert not any(firings.values())


def test_cheap_rules_propagate_size_limit(fresh_verdicts, monkeypatch):
    A6 = alternating(6)
    monkeypatch.setenv("GASCHUETZ_ELEMENT_CAP", "300")
    with pytest.raises(SizeLimitError):
        all_firings(A6)


def test_verdict_is_first_firing_rule(small_catalog_groups):
    for entry, G in small_catalog_groups:
        if G.order > 24:
            continue
        firings = all_firings(G)
        first = next(
            ((side, rule) for side, rule, _, _ in RULES if firings[rule] is True),
            (UNDECIDED, None),
        )
        v = verdict(G)
        assert (v.status, v.rule) == first, entry.name


def test_budget_skipped_verdict_is_not_cached(fresh_verdicts, monkeypatch):
    monkeypatch.setenv("GASCHUETZ_AUT_CAP", "10")
    assert verdict(symmetric(4)).status == UNDECIDED
    monkeypatch.delenv("GASCHUETZ_AUT_CAP")
    v = verdict(symmetric(4))
    assert (v.status, v.rule) == (HOLDS, "rose")


def test_verdicts_agree_across_threads_on_shared_groups(
    fresh_verdicts, monkeypatch, catalog_entries
):
    entries = [e for e in catalog_entries if e.group().order <= 24]
    expected = [(v.status, v.rule) for v in map(verdict, (e.group() for e in entries))]
    monkeypatch.setattr(engine, "_verdict_cache", {})
    shared = [e.group() for e in entries]  # cold caches, read by every thread

    def run(_):
        return [(v.status, v.rule) for v in map(verdict, shared)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so cache checks and stores interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(run, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [expected] * 4
