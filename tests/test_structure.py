import itertools
import random
from math import lcm

import pytest

from gaschuetz import (
    alternating,
    center,
    cyclic,
    derived_series,
    derived_subgroup,
    dihedral,
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
from gaschuetz import structure
from gaschuetz.errors import GroupError, NotNormalError, NotPrimeError, PreconditionError
from gaschuetz.group import (
    FiniteGroup, ProductTable, close_set, conjugation_perm, orbit, product,
)
from gaschuetz.lattice import all_subgroups, normal_subgroups_fast
from gaschuetz.perm import inverse, mult, perm_order
from gaschuetz.structure import (
    all_sylow_abelian,
    commutator_subgroup,
    conjugacy_classes,
    cosets,
    element_fingerprints,
    is_prime,
    is_solvable,
    prime_factors,
)
from gaschuetz.witness import build_znthm


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
    Q8 = quaternion8()
    assert sylow(Q8, 2).element_set == Q8.element_set


def test_sylow_pass_ending_below_the_p_part_is_an_internal_error(monkeypatch):
    # every closure refused: the pass ends at the trivial group
    monkeypatch.setattr(structure, "close_set", lambda *args, **kwargs: None)
    with pytest.raises(GroupError, match="internal invariant"):
        sylow(symmetric(4), 2)


def test_sylow_of_relabelled_groups(small_catalog_groups, relabelled):
    """Every catalog group of order <= 63 under seeds 1 and 2: P = sylow(G, p)
    has order |G|_p, is the group of its own generators, holds the least
    nontrivial element of G whose order divides |G|_p, and all_sylow_abelian
    agrees with the bundled group."""
    cases = 0
    for entry, bundled in small_catalog_groups:
        for seed in (1, 2):
            G = relabelled(bundled, seed)
            for p in prime_factors(G.order):
                target = p
                while G.order % (target * p) == 0:
                    target *= p
                P = sylow(G, p)
                assert P.order == target, (entry.name, seed, p)
                assert FiniteGroup(G.degree, P._raw_gens).element_set == P.element_set
                least = next(t for t in G.element_tuples[1:] if target % perm_order(t) == 0)
                assert least in P.element_set, (entry.name, seed, p)
                cases += 1
            assert all_sylow_abelian(G) == all_sylow_abelian(bundled), (entry.name, seed)
    print(f"\n[sylow] {cases} (group, seed, prime) cases")
    assert cases == 1116


def test_sylow_rejects_composite():
    with pytest.raises(NotPrimeError):
        sylow(symmetric(3), 4)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# The least strong pseudoprimes to the first k prime bases, k = 1, 2, 4,
# 5, 7, 9 and 12: the last passes every base but 41.
_PSEUDOPRIMES = [
    2047, 1373653, 3215031751, 2152302898747, 341550071728321,
    3825123056546413051, 318665857834031151167461,
]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _prime_by_trial_division(n) for n in range(-2, 20000))
    assert not any(is_prime(n) for n in _PSEUDOPRIMES)
    # the largest prime below 10^12 and two Mersenne primes
    assert all(is_prime(p) for p in (10 ** 12 - 11, 2 ** 31 - 1, 2 ** 61 - 1))


def test_is_prime_refuses_past_its_bound():
    # the least strong pseudoprime to all 13 bases: no longer a proof
    with pytest.raises(PreconditionError, match="primality is decided below"):
        is_prime(3317044064679887385961981)
    # a base that divides decides at any size
    assert not is_prime(10 ** 5000)
    assert not is_prime(41 * 10 ** 30)


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
    assert Q.order == 4 and is_abelian(Q)
    assert {g.order() for g in Q.elements} == {1, 2}
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


def _projection_by_mult(walk):
    """g -> g's image by the plain coset action on the cosets ``walk``: g r by
    mult, looked up in a table of every element's coset, for each coset
    representative r."""
    index_of = {x: i for i, coset in enumerate(walk) for x in coset}
    return lambda g: tuple(index_of[mult(g, coset[0])] for coset in walk)


def test_projection_gathers_match_mult(small_catalog_groups, catalog_groups):
    """Images by one gather per base point equal the plain coset action: every
    element of each catalog group of order <= 63 over each of its normal
    subgroups, and a seeded sample of the D8, q = 3 bundle's P (a base of
    four points) over the preimages of N and H, over R, and over P itself."""
    rng = random.Random(24)
    cases = [(G, N, G.element_tuples) for _, G in small_catalog_groups
             for N in normal_subgroups_fast(G)]
    D8 = next(G for e, G in catalog_groups if e.name == "D8")
    world = build_znthm(D8, 3).construction
    P = world.P
    r_hat = world.saturated(derived_subgroup(
        FiniteGroup(P.degree, world.d_pairs, order=D8.order ** 3))._raw_gens)
    sample = list(P._raw_gens) + rng.sample(P.element_tuples, 64)
    for N in (world.saturated(world.n_pairs),
              world.saturated(world.n_pairs + world.d_pairs), r_hat, P):
        cases.append((P, N, sample))
    coset_counts = set()
    for G, N, elements in cases:
        _, proj = quotient(G, N)
        walk = list(cosets(G, N))
        plain = _projection_by_mult(walk)
        for g in elements:
            assert proj._image_raw(g) == plain(g)
        coset_counts.add(len(walk))
    assert {1, 3, 63}.issubset(coset_counts)


def _orbit_walk_cosets(G, N):
    """The cosets of N as orbits of N's generators, numbered by least member."""
    coset_of = {}
    for t in G.element_tuples:
        if t not in coset_of:
            members = orbit(t, [lambda x, g=g: mult(x, g) for g in N._raw_gens])
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
                assert tuple(map(G.element_tuples.__getitem__, proj.fiber(q[0]))) == members[q[0]]
            K, oracle = proj.kernel(), G.subgroup(members[0])
            assert K.element_tuples == oracle.element_tuples == N.element_tuples
            assert K._raw_gens == oracle._raw_gens


def _tuple_walk_cosets(G, N):
    """The coset walk on raw tuples, one member at a time: t N for each t of
    G not yet seen, in canonical order, its members sorted as tuples."""
    nelems = N.element_tuples
    mul = product(G)
    seen = set()
    walk = []
    for t in G.element_tuples:
        if t not in seen:
            coset = tuple(sorted(mul(t, n) for n in nelems))
            seen.update(coset)
            walk.append(coset)
    return walk


def _check_index_walk(G, N, sample=None):
    """The index walk and the projection built from it against the raw-tuple
    walk: the cosets, the numbering of every element, Q's generators, the
    kernel, and the fiber of every quotient element (of the images of
    ``sample`` instead, where Q is too large to enumerate)."""
    walk = _tuple_walk_cosets(G, N)
    assert list(cosets(G, N)) == walk
    number = {x: c for c, coset in enumerate(walk) for x in coset}
    Q, proj = quotient(G, N)
    assert proj._coset_of == [number[t] for t in G.element_tuples]
    mul = product(G)
    if len(walk) == 1:
        assert Q.order == 1 and Q._raw_gens == ()
    else:
        assert list(Q._raw_gens) == [
            tuple(number[mul(g, coset[0])] for coset in walk) for g in G._raw_gens]
    K = proj.kernel()
    assert K.element_tuples == N.element_tuples
    assert K._raw_gens == G.subgroup(walk[0])._raw_gens
    qs = Q.element_tuples if sample is None else [proj._image_raw(g) for g in sample]
    for q in qs:
        assert tuple(map(G.element_tuples.__getitem__, proj.fiber(q[0]))) == walk[q[0]]
    return len(walk)


@pytest.fixture(scope="module")
def small_normal_pairs(small_catalog_groups, relabelled):
    """(G, N) for every catalog group of order <= 63 and a relabelled copy
    of each, N over each of its normal subgroups (N = 1, N = G and the
    order-1 group among them)."""
    return [(G, N) for _, bundled in small_catalog_groups
            for G in (bundled, relabelled(bundled, 11)) for N in normal_subgroups_fast(G)]


def test_index_walk_matches_tuple_walk(small_normal_pairs, catalog_groups):
    """Every pair of ``small_normal_pairs``; the D8, q = 3 bundle's P (a base
    of four points) over Z0, the preimages of N and H, R, 1 and P; and G/R
    (a base of one point, degree 768) over the image of N."""
    counts = {_check_index_walk(G, N) for G, N in small_normal_pairs}
    D8 = next(G for e, G in catalog_groups if e.name == "D8")
    world = build_znthm(D8, 3).construction
    P = world.P
    r_hat = world.saturated(derived_subgroup(
        FiniteGroup(P.degree, world.d_pairs, order=D8.order ** 3))._raw_gens)
    sample = list(P._raw_gens) + random.Random(25).sample(P.element_tuples, 32)
    for N in (world.saturated(world.n_pairs),
              world.saturated(world.n_pairs + world.d_pairs), r_hat, P):
        counts.add(_check_index_walk(P, N))
    for N in (world.z0, FiniteGroup.trivial(P.degree)):
        counts.add(_check_index_walk(P, N, sample))
    gbar, proj = quotient(P, r_hat)
    nbar = gbar.generated_subgroup([proj(g) for g in world.n_pairs])
    counts.add(_check_index_walk(gbar, nbar))
    assert {1, 3, 63, 192, 768, 6144, 12288}.issubset(counts)


def _check_quotient_table(G, R, rng):
    """G/R's table on coset numbers (``QuotientProjection.table``) against
    the table of the enumerated quotient group, under c -> the index of the
    image of coset c's representative: every order, the product and column
    of every element by a sample of right factors, and the closures of
    pairs from the first four of them."""
    Q, proj = quotient(G, R)
    table, full = proj.table, ProductTable(Q)
    n = len(table.elements)
    phi = [Q.element_index[proj._image_raw(t)] for t in table.elements]
    assert sorted(phi) == list(range(n)) and phi[0] == 0
    sample = list(range(n)) if n <= 8 else rng.sample(range(n), 8)
    reps, quots = table.elements, Q.element_tuples
    for h in sample:
        assert [phi[v] for v in table.col(h)] == [full.col(phi[h])[phi[y]] for y in range(n)]
        for x in range(n):
            got = table.index(table.product(reps[x], reps[h]))
            assert phi[got] == full.index(full.product(quots[phi[x]], quots[phi[h]]))
    assert [full.order(phi[x]) for x in range(n)] == [table.order(x) for x in range(n)]
    for x, y in itertools.combinations(sample[:4], 2):
        assert {phi[c] for c in table.close([x, y])} == full.close([phi[x], phi[y]])
    return n


def test_quotient_table_matches_the_quotient_group(small_normal_pairs, catalog_groups):
    """Every pair of ``small_normal_pairs``; and the D8, q = 3 bundle's P (a
    base of four points) over R and over the preimage of NR, which the
    witness's certificate searches modulo R."""
    rng = random.Random(29)
    counts = {_check_quotient_table(G, R, rng) for G, R in small_normal_pairs}
    D8 = next(G for e, G in catalog_groups if e.name == "D8")
    world = build_znthm(D8, 3).construction
    d_derived = derived_subgroup(FiniteGroup(world.P.degree, world.d_pairs, order=D8.order ** 3))
    for gens in (d_derived._raw_gens, world.n_pairs + list(d_derived._raw_gens)):
        counts.add(_check_quotient_table(world.P, world.saturated(gens), rng))
    assert {1, 3, 63, 192, 768}.issubset(counts)


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
    orders = {g.order() for g in S4.elements}
    assert sorted(orders) == [1, 2, 3, 4]
    assert lcm(*orders) == 12


def test_conjugacy_classes_s4():
    sizes = sorted(len(c) for c in conjugacy_classes(symmetric(4)))
    assert sizes == [1, 3, 6, 6, 8]


def _conjugate(g, x):
    return mult(mult(g, x), inverse(g))


def test_conjugation_matches_composed_permutations(small_catalog_groups, relabelled):
    """Classes, in order, and conjugation permutations against g x g^-1
    composed by ``perm.mult``, on each group and one relabelled copy."""
    checked = 0
    for entry, bundled in small_catalog_groups:
        for G in (bundled, relabelled(bundled, 1)):
            elements = G.element_tuples
            classes, seen = [], set()
            for t in elements:
                if t not in seen:
                    cls = {_conjugate(g, t) for g in elements}
                    seen |= cls
                    classes.append(tuple(sorted(cls)))
            assert conjugacy_classes(G) == classes, entry.name
            index = G.element_index
            for g in G._raw_gens:
                expected = tuple(index[_conjugate(g, x)] for x in elements)
                assert conjugation_perm(G, g) == expected, entry.name
            checked += 1
    print(f"conjugation checked on {checked} groups")
    C3 = FiniteGroup(4, [(1, 2, 0, 3)])
    with pytest.raises(GroupError):
        conjugation_perm(C3, (1, 0, 2, 3))


def test_center_is_characteristic_ish_normal():
    for G in [symmetric(4), quaternion8(), dihedral(12)]:
        assert is_normal(center(G), G)
        assert is_normal(derived_subgroup(G), G)
