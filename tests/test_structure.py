import itertools

import pytest

from gaschuetz import (
    alternating,
    center,
    cyclic,
    derived_series,
    derived_subgroup,
    dihedral,
    exponent,
    is_abelian,
    is_metabelian,
    is_normal,
    is_perfect,
    quaternion8,
    quotient,
    sl_2_3,
    sylow,
    symmetric,
)
from gaschuetz.errors import NotNormalError, NotPrimeError
from gaschuetz.group import close_set, orbit
from gaschuetz.lattice import all_subgroups, normal_subgroups_fast
from gaschuetz.perm import inverse, mult, perm_order
from gaschuetz.structure import (
    all_sylow_abelian,
    commutator_subgroup,
    conjugacy_classes,
    cosets,
    element_fingerprints,
    is_solvable,
    prime_factors,
)


# -- oracles -----------------------------------------------------------------


def oracle_center(G):
    return {
        t
        for t in G.element_tuples
        if all(mult(t, x) == mult(x, t) for x in G.element_tuples)
    }


def oracle_derived(G):
    comms = set()
    for x in G.element_tuples:
        for y in G.element_tuples:
            comms.add(mult(mult(x, y), mult(inverse(x), inverse(y))))
    # close the commutator set
    sub = G.generated_subgroup(comms)
    return sub.element_set


def oracle_sylow_order(G, p):
    best = 1
    for S in all_subgroups(G):
        n = S.order
        while n % p == 0:
            n //= p
        if n == 1 and S.order > best:
            best = S.order
    return best


# -- center / derived ----------------------------------------------------------


def test_center_q8():
    Q8 = quaternion8()
    assert center(Q8).order == 2
    assert center(Q8).element_set == frozenset(oracle_center(Q8))
    d = derived_subgroup(Q8)
    assert d.order == 2 and d.element_set == center(Q8).element_set
    assert d.element_set == frozenset(oracle_derived(Q8))


def test_center_s4_trivial():
    S4 = symmetric(4)
    assert center(S4).order == 1
    assert oracle_center(S4) == {S4.identity.images}


def test_derived_series_s4():
    # S4 > A4 > V4 > 1, with the stable repeat included
    orders = [g.order for g in derived_series(symmetric(4))]
    assert orders == [24, 12, 4, 1, 1]


def oracle_derived(G):
    """All-pairs oracle: the closure of every commutator [x, y] of G."""
    elems = G.element_tuples
    comms = {mult(mult(x, y), mult(inverse(x), inverse(y))) for x in elems for y in elems}
    return frozenset(close_set(list(comms), G.degree))


def test_derived_dual_path_agreement(catalog_groups):
    # the generator-commutator normal closure must agree with all pairs
    groups = [symmetric(4), quaternion8(), sl_2_3(), alternating(5)]
    groups += [G for _, G in catalog_groups if G.order in (54, 56)]
    assert len(groups) > 4
    for G in groups:
        assert derived_subgroup(G).element_set == oracle_derived(G)


def oracle_is_solvable(G):
    # each term [H, H] closed under the ambient G's generators
    H = G
    while True:
        nxt = commutator_subgroup(G, H, H)
        if nxt.order == 1:
            return True
        if nxt.order == H.order:
            return False
        H = nxt


def test_is_solvable_matches_ambient_walk(catalog_groups):
    groups = [symmetric(4), sl_2_3(), alternating(5)]
    groups += [G for _, G in catalog_groups if G.order == 60]
    assert len(groups) > 3
    for G in groups:
        assert is_solvable(G) == oracle_is_solvable(G)


# -- sylow -----------------------------------------------------------------


def test_sylow_s4():
    S4 = symmetric(4)
    P2 = sylow(S4, 2)
    assert P2.order == 8 and not is_abelian(P2)
    assert oracle_sylow_order(S4, 2) == 8
    assert sylow(S4, 3).order == 3
    assert sylow(cyclic(6), 5).order == 1


def test_sylow_rejects_composite():
    with pytest.raises(NotPrimeError):
        sylow(symmetric(3), 4)


def test_sylow_oracle_various(small_catalog_groups):
    import random

    rng = random.Random(7)
    sample = rng.sample(small_catalog_groups, 12)
    for _, G in sample:
        for p in prime_factors(G.order):
            assert sylow(G, p).order == oracle_sylow_order(G, p)


# -- quotients -----------------------------------------------------------------


def test_quotient_q8_center():
    Q8 = quaternion8()
    Q, proj = quotient(Q8, center(Q8))
    assert Q.order == 4 and is_abelian(Q) and exponent(Q) == 2
    assert proj.kernel().element_set == center(Q8).element_set


def test_quotient_s4_a4():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    Q, proj = quotient(S4, A4)
    assert Q.order == 2
    assert proj.kernel().element_set == A4.element_set


def test_quotient_degenerate():
    S3 = symmetric(3)
    Q, proj = quotient(S3, S3)
    assert Q.order == 1
    assert proj.kernel().order == 6


def test_quotient_requires_normal():
    S4 = symmetric(4)
    flip = S4.generated_subgroup([S4.elements[1]])
    from gaschuetz.perm import Permutation

    flip = S4.generated_subgroup([Permutation([1, 0, 2, 3])])
    with pytest.raises(NotNormalError):
        quotient(S4, flip)


def test_quotient_projection_is_homomorphism():
    S4 = symmetric(4)
    V4 = S4.generated_subgroup(
        [t for t in S4.element_tuples if perm_order(t) == 2
         and all(t[i] != i for i in range(4))]
    )
    Q, proj = quotient(S4, V4)
    assert Q.order == 6
    for a, b in itertools.product(S4.elements[:8], S4.elements[-8:]):
        assert proj(a * b) == proj(a) * proj(b)


def _orbit_walk_cosets(G, N):
    """The cosets of N as orbits of N's generators, numbered by least member."""
    coset_of = {}
    for t in G.element_tuples:
        if t not in coset_of:
            members = orbit(t, N._raw_gens, mult)
            rep = min(members)
            for x in members:
                coset_of[x] = rep
    reps = sorted(set(coset_of.values()))
    members = [tuple(sorted(x for x in coset_of if coset_of[x] == r)) for r in reps]
    index_of = {r: i for i, r in enumerate(reps)}
    images = [
        tuple(index_of[coset_of[mult(g, r)]] for r in reps) for g in G._raw_gens
    ]
    return members, images


def test_cosets_match_orbit_walk(small_catalog_groups):
    for entry, G in small_catalog_groups:
        if G.order > 24:
            continue
        for N in normal_subgroups_fast(G):
            members, images = _orbit_walk_cosets(G, N)
            assert list(cosets(G, N)) == members, entry.name
            Q, proj = quotient(G, N)
            if len(members) == 1:
                assert Q.order == 1 and Q._raw_gens == ()
            else:
                assert list(Q._raw_gens) == images, entry.name
            for q in Q._raw_gens:
                assert proj.fiber(q) == members[q[0]]
            K, oracle = proj.kernel(), G.subgroup(members[0])
            assert K.element_tuples == oracle.element_tuples == N.element_tuples
            assert K._raw_gens == oracle._raw_gens


def test_element_fingerprints_match_direct_count(small_catalog_groups):
    for entry, G in small_catalog_groups:
        if G.order > 24:
            continue
        elems = G.element_tuples
        direct = {
            t: (perm_order(t), sum(mult(t, x) == mult(x, t) for x in elems))
            for t in elems
        }
        assert element_fingerprints(G) == direct, entry.name


# -- predicates -----------------------------------------------------------------


def test_predicates():
    assert is_metabelian(alternating(4))
    assert not is_metabelian(symmetric(4))
    assert all_sylow_abelian(symmetric(3))
    assert not all_sylow_abelian(symmetric(4))
    assert is_perfect(alternating(5))
    assert not is_perfect(symmetric(4))
    assert is_solvable(symmetric(4))
    assert not is_solvable(alternating(5))


def test_element_order_and_exponent():
    S4 = symmetric(4)
    assert sorted({g.order() for g in S4.elements}) == [1, 2, 3, 4]
    assert exponent(S4) == 12


def test_conjugacy_classes_s4():
    sizes = sorted(len(c) for c in conjugacy_classes(symmetric(4)))
    assert sizes == [1, 3, 6, 6, 8]


def test_center_is_characteristic_ish_normal():
    for G in [symmetric(4), quaternion8(), dihedral(12)]:
        assert is_normal(center(G), G)
        assert is_normal(derived_subgroup(G), G)
