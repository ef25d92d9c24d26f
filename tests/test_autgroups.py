import itertools

import pytest

from gaschuetz import (
    alternating,
    center,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    quaternion8,
    symmetric,
    wreath_cyclic,
)
from gaschuetz.autgroups import (
    aut_group,
    is_characteristic,
    is_complete,
    prop_special_search,
    rose_criterion,
)
from gaschuetz.errors import AutBudgetError, PreconditionError
from gaschuetz.group import is_normal
from gaschuetz.perm import mult, perm_order


def oracle_aut_order(G):
    """All identity-fixing, order-preserving bijections that respect the
    full multiplication table."""
    elems = list(G.element_tuples)
    n = len(elems)
    idx = {t: i for i, t in enumerate(elems)}
    table = [[idx[mult(a, b)] for b in elems] for a in elems]
    by_order = {}
    for i, t in enumerate(elems):
        by_order.setdefault(perm_order(t), []).append(i)
    orders = sorted(by_order)
    count = 0
    pools = [by_order[o] for o in orders]
    for assignment in itertools.product(*(itertools.permutations(p) for p in pools)):
        phi = [0] * n
        for pool, images in zip(pools, assignment):
            for src, dst in zip(pool, images):
                phi[src] = dst
        ok = True
        for a in range(n):
            row = table[a]
            pa = phi[a]
            for b in range(n):
                if phi[row[b]] != table[pa][phi[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_aut_q8():
    a = aut_group(quaternion8())
    assert a.carrier.order == 24
    assert a.inn.order == 4
    assert a.out_order == 6


def test_aut_c5():
    assert aut_group(cyclic(5)).carrier.order == 4


def test_aut_wreath_s3_c2():
    a = aut_group(wreath_cyclic(symmetric(3), 2).group)
    assert a.carrier.order == 144
    assert a.inn.order == 72


def test_inn_index_formula(small_catalog_groups):
    import random

    rng = random.Random(3)
    for _, G in rng.sample(small_catalog_groups, 15):
        try:
            a = aut_group(G)
        except AutBudgetError:
            continue
        assert a.inn.order == G.order // center(G).order
        assert is_normal(a.inn, a.carrier)
        assert a.out_order * a.inn.order == a.carrier.order


def test_every_carrier_element_is_automorphism():
    # exhaustive product preservation for small bases
    for G in [symmetric(3), quaternion8(), dihedral(12)]:
        a = aut_group(G)
        elems = G.element_tuples
        idx = {t: i for i, t in enumerate(elems)}
        for gamma in a.carrier.element_tuples:
            for x in elems:
                for y in elems:
                    assert (
                        gamma[idx[mult(x, y)]]
                        == idx[mult(elems[gamma[idx[x]]], elems[gamma[idx[y]]])]
                    )


def test_aut_agrees_with_bijection_oracle(small_catalog_groups):
    for entry, G in small_catalog_groups:
        if G.order > 12:
            continue
        assert aut_group(G).carrier.order == oracle_aut_order(G), entry.name


def test_aut_budget_refusal():
    C2_5 = direct_product(
        direct_product(cyclic(2), cyclic(2)),
        direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
    )
    with pytest.raises(AutBudgetError):
        aut_group(C2_5)  # |Aut| = |GL(5,2)| is far over the carrier cap


def test_is_characteristic():
    for G in [quaternion8(), symmetric(4), dihedral(12)]:
        assert is_characteristic(center(G), G)
        assert is_characteristic(derived_subgroup(G), G)
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    assert is_characteristic(A4, S4)
    V = direct_product(cyclic(2), cyclic(2))
    F = V.generated_subgroup([V.generators[0]])
    assert not is_characteristic(F, V)


def test_rose_and_completeness():
    assert rose_criterion(symmetric(3)) and is_complete(symmetric(3))
    assert rose_criterion(symmetric(4)) and is_complete(symmetric(4))
    assert not rose_criterion(quaternion8())  # center nontrivial
    assert rose_criterion(alternating(5))
    assert not is_complete(alternating(5))  # outer automorphism exists
    # completeness implies the criterion (trivial complement)
    assert rose_criterion(symmetric(5))


def test_rose_direct_product_reduction():
    # criterion passes to direct products of criterion groups
    S3 = symmetric(3)
    assert rose_criterion(direct_product(S3, S3)) == rose_criterion(S3)


def test_prop_special_s3_none():
    assert prop_special_search(symmetric(3)) is None


def test_prop_special_wreath_hit_verified():
    N = wreath_cyclic(symmetric(3), 2).group
    hit = prop_special_search(N)
    assert hit is not None
    gamma, k = hit
    a = aut_group(N)
    assert gamma.images not in a.inn.element_set
    assert (gamma ** k).images in derived_subgroup(a.inn).element_set
    for d in a.inn.element_tuples:
        assert k % perm_order(mult(d, gamma.images)) != 0


def test_prop_special_requires_centerless():
    with pytest.raises(PreconditionError):
        prop_special_search(quaternion8())


def test_baer_completeness_direction():
    # a complete group embedded normally splits off its centralizer
    from gaschuetz.complements import find_complement
    from gaschuetz.structure import centralizer_of_subgroup

    S4 = symmetric(4)
    G = direct_product(S4, cyclic(5))
    emb = G.generated_subgroup(
        [g.images[:4] + tuple(range(4, 9)) for g in S4.generators]
    )
    assert is_normal(emb, G)
    r = find_complement(G, emb)
    assert r.exists
    cent = centralizer_of_subgroup(G, emb)
    assert cent.order == 5
    assert len(cent.element_set & emb.element_set) == 1
