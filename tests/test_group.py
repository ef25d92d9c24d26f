import random

import pytest
from hypothesis import given, settings, strategies as st

from gaschuetz import (
    FiniteGroup,
    alternating,
    intersection,
    is_normal,
    is_subgroup,
    normal_closure,
    quaternion8,
    symmetric,
)
from gaschuetz.errors import (
    GroupError,
    MalformedPermutationError,
    NotNormalError,
    PreconditionError,
    SizeLimitError,
)
from gaschuetz import group, lattice
from gaschuetz.autgroups import aut_group
from gaschuetz.complements import find_complement
from gaschuetz.constructors import cyclic
from gaschuetz.group import (
    ProductTable, base, close_set, element_order, product, reduce_generators,
)
from gaschuetz.perm import Permutation, identity_images, inverse, mult, perm_order
from gaschuetz.structure import quotient
from gaschuetz.witness import build_znthm


def brute_closure(gens, degree):
    """Oracle: repeated full multiplication until no growth."""
    elems = {tuple(range(degree))}
    elems.update(g.images for g in gens)
    while True:
        new = set()
        for a in elems:
            for b in elems:
                c = tuple(a[i] for i in b)
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems |= new


def test_closure_cyclic():
    G = FiniteGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    assert G.order == 3


def test_closure_empty_generators():
    G = FiniteGroup(4, [])
    assert G.order == 1


def test_closure_s4_oracle():
    gens = [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])]
    oracle = brute_closure(gens, 4)
    assert len(oracle) == 24
    G = FiniteGroup(4, gens)
    assert G.element_set == frozenset(oracle)


def test_malformed_generator_rejected():
    with pytest.raises(MalformedPermutationError):
        FiniteGroup(3, [Permutation([0, 0, 1])])
    with pytest.raises(MalformedPermutationError):
        FiniteGroup(3, [(0, 0, 1)])


def test_degree_zero_is_refused():
    """The order-1 group's base is the point 0, so a group acts on at least one point."""
    for build in (lambda: FiniteGroup(0, []), lambda: FiniteGroup.trivial(0)):
        with pytest.raises(PreconditionError, match="degree at least 1"):
            build()


def test_size_limit(monkeypatch):
    monkeypatch.setenv("GASCHUETZ_ELEMENT_CAP", "10")
    with pytest.raises(SizeLimitError):
        symmetric(4).element_tuples


@settings(deadline=None, max_examples=25)
@given(st.permutations(list(range(4))), st.permutations(list(range(4))), st.randoms())
def test_closure_order_independent(g1, g2, rng):
    gens = [Permutation(list(g1)), Permutation(list(g2))]
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert (
        FiniteGroup(4, gens).element_set == FiniteGroup(4, shuffled).element_set
    )


def test_is_subgroup_order_comparison():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    assert is_subgroup(A4, S4)
    assert not is_subgroup(S4, A4)


def test_is_normal_spec_examples():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    assert is_normal(A4, S4)  # index 2
    flip = S4.generated_subgroup([Permutation([1, 0, 2, 3])])
    assert not is_normal(flip, S4)  # conjugate by (0 2) leaves it
    # G normalizes N but does not contain it: not normal, and both consumers refuse
    G = FiniteGroup(4, [Permutation([1, 0, 2, 3])])
    N = FiniteGroup(4, [Permutation([0, 1, 3, 2])])
    assert not is_normal(N, G)
    with pytest.raises(NotNormalError):
        quotient(G, N)
    with pytest.raises(NotNormalError):
        find_complement(G, N)


def test_lagrange_on_subgroups():
    S4 = symmetric(4)
    for t in S4.element_tuples:
        sub = S4.generated_subgroup([t])
        assert S4.order % sub.order == 0


def test_intersection():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    D8 = S4.generated_subgroup(
        [Permutation([1, 2, 3, 0]), Permutation([1, 0, 3, 2])]
    )
    meet = intersection(A4, D8)
    assert meet.order == 4


def test_normal_closure_of_transposition_is_whole_s4():
    S4 = symmetric(4)
    N = normal_closure(S4, [Permutation([1, 0, 2, 3])])
    assert N.order == 24


def test_normal_closure_of_double_transposition_is_v4():
    S4 = symmetric(4)
    N = normal_closure(S4, [Permutation([1, 0, 3, 2])])
    assert N.order == 4


def test_reduce_generators_small():
    Q8 = quaternion8()
    gens = reduce_generators(set(Q8.element_tuples), 8, within=Q8)
    assert len(close_set(gens, 8)) == 8
    assert len(gens) == 2


def test_declared_order_cross_check():
    with pytest.raises(GroupError):
        FiniteGroup(3, [Permutation([1, 2, 0])], order=5).element_tuples


def test_close_set_matches_naive_closure(small_catalog_groups):
    """close_set against brute_closure: the set, None or SizeLimitError."""

    def naive(gens, degree):
        return brute_closure([Permutation(g) for g in gens], degree)

    for entry, G in small_catalog_groups:
        # the order comes from the catalog tag, not from close_set itself
        n, d = int(entry.tags[0].removeprefix("order=")), G.degree
        if not 2 <= n <= 24:
            continue
        gens = list(G._raw_gens)
        full = naive(gens, d)
        assert len(full) == n
        assert close_set(gens, d) == full
        # a closed subgroup seed plus one extra element
        ident = identity_images(d)
        h = min(full - {ident})
        seed = naive([h], d)
        for x in sorted(full - seed):
            assert close_set([h, x], d, seed=seed) == naive([h, x], d)
        # forbidden: touched by a generator, or only by a product
        assert close_set(gens, d, forbidden={gens[0]}) is None
        products = sorted(full - set(gens) - {ident})
        if products:
            assert close_set(gens, d, forbidden={products[0]}) is None
        # limits just below and at the order
        assert close_set(gens, d, abort_over=n - 1) is None
        assert close_set(gens, d, abort_over=n) == full
        with pytest.raises(SizeLimitError) as ei:
            close_set(gens, d, cap=n - 1)
        assert ei.value.required_order == n
        assert close_set(gens, d, cap=n) == full


def bfs_close_set(gens, degree, *, seed=None, cap=None, forbidden=None, abort_over=None):
    """Oracle: the breadth-first closure close_set replaced.  It multiplies
    every element, the seed's included, by every generator."""
    ident = identity_images(degree)
    gens = [g for g in gens if g != ident]
    elements = set(seed or ())
    elements.add(ident)
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = mult(x, g)
                if y in elements:
                    continue
                if forbidden is not None and y in forbidden:
                    return None
                elements.add(y)
                new_frontier.append(y)
                if cap is not None and len(elements) > cap:
                    raise SizeLimitError("cap", required_order=len(elements))
                if abort_over is not None and len(elements) > abort_over:
                    return None
        frontier = new_frontier
    return elements


def assert_same_closure(gens, degree, **kw):
    """close_set and the breadth-first oracle agree: the set, None, or the
    SizeLimitError with its required order."""
    try:
        want = bfs_close_set(gens, degree, **kw)
    except SizeLimitError as e:
        with pytest.raises(SizeLimitError) as ei:
            close_set(gens, degree, **kw)
        assert ei.value.required_order == e.required_order == kw["cap"] + 1
        return None
    assert close_set(gens, degree, **kw) == want
    return want


def _breadth_first_cases(G, same):
    """The closure cases on G's generators: skipped stages, prefix and
    non-prefix seeds, forbidden elements met inside a coset, and abort_over.
    ``same(gens, **kw)`` checks one walk against ``bfs_close_set`` and
    returns the oracle's answer; the full closure is returned."""
    d, gens = G.degree, list(G._raw_gens)
    ident = identity_images(d)
    full = same(gens)
    n = len(full)
    if n == 1:
        return full
    # an identity, a repeated and a redundant generator: skipped stages
    a = gens[0]
    same([ident] + gens + [a])
    same([a, mult(a, a)] + gens[1:] + [mult(gens[-1], a)])
    # seeds generated by every prefix
    for k in range(len(gens) + 1):
        seed = bfs_close_set(gens[:k], d)
        assert same(gens, seed=seed) == full
    # a closed seed <h> not generated by a prefix of [a, h]
    for h in sorted(full - {ident})[::7]:
        seed = bfs_close_set([h], d)
        both = same([a, h], seed=seed)
        assert both == bfs_close_set([a, h], d)
        if a not in seed:
            # h a lies in the coset <h> a, not among the generators
            inside = mult(next(x for x in sorted(seed) if x != ident), a)
            assert same([a, h], seed=seed, forbidden={inside}) is None
    if len(gens) > 1 and n > 2:
        # g0 g1 is first met filling the coset <g0> g1
        assert same(gens, forbidden={mult(gens[0], gens[1])}) is None
    for limit in (n - 1, n):
        same(gens, abort_over=limit)
        same(gens, seed=bfs_close_set(gens[:1], d), abort_over=limit)
    return full


def test_close_set_matches_breadth_first_closure(small_catalog_groups):
    """The coset walk against the breadth-first closure on every group of
    order <= 63: the cases above, and the cap."""
    for _, G in small_catalog_groups:
        d, gens = G.degree, list(G._raw_gens)
        n = len(_breadth_first_cases(G, lambda gens, **kw: assert_same_closure(gens, d, **kw)))
        for cap in {1, n // 2, n - 1}:
            if cap < n:
                assert_same_closure(gens, d, cap=cap)


def test_index_closure_matches_breadth_first_closure(small_catalog_groups, named_large_groups):
    """``ProductTable.close``, the walk on element indices, against the
    breadth-first closure on tuples, in the same cases: on every group of
    order <= 63 (A5's base has three points, every other's one) and on the
    named larger groups up to order 200, whose bases have two to four."""
    groups = small_catalog_groups + [(e, G) for e, G in named_large_groups if G.order <= 200]
    for _, G in groups:
        table, idx = ProductTable.of(G), G.element_index

        def on(tuples):
            return None if tuples is None else {idx[t] for t in tuples}

        def same(gens, *, seed=None, forbidden=None, abort_over=None):
            want = bfs_close_set(gens, G.degree, seed=seed, forbidden=forbidden,
                                 abort_over=abort_over)
            got = table.close([idx[g] for g in gens], seed=on(seed),
                              forbidden=on(forbidden), abort_over=abort_over)
            assert got == on(want)
            return want

        _breadth_first_cases(G, same)


@pytest.mark.parametrize("name, products, seeded", [("S3wrC2", 106, 250), ("G48_51", 68, 93)])
def test_close_set_products_are_pinned(catalog_groups, monkeypatch, name, products, seeded):
    """The coset walk makes about |K| + |K:H| |gens| products, from 1 and
    from the seed <g0>; a coset of H = 1 is the product y itself, with no
    second product 1 y.  The breadth-first closure made |K| |gens| either
    way, 360 on S3wrC2 and 144 on G48_51."""
    G = next(G for e, G in catalog_groups if e.name == name)
    gens, d, n = list(G._raw_gens), G.degree, G.order
    assert len(gens) >= 3
    seed = close_set(gens[:1], d)
    seen = []

    def counted(x, y):
        seen.append(None)
        return mult(x, y)

    monkeypatch.setattr(group, "mult", counted)
    assert len(close_set(gens, d)) == n
    unseeded = len(seen)
    assert len(close_set(gens, d, seed=seed)) == n
    assert (unseeded, len(seen) - unseeded) == (products, seeded)
    assert max(unseeded, seeded) < n * len(gens)


# -- products by lookup ----------------------------------------------------------


# the catalog groups where some non-identity element fixes point 0, with the
# length of the base the stabilizer descent finds for each
IRREGULAR_BASES = {
    "A5": 3, "S5": 4, "A6": 4, "S3wrC2": 4,
    "C3^2:Q8": 2, "C5^2:Q8": 2, "C5^2:D8": 3, "(C3^2:Q8)xC2": 3,
}


def test_product_by_base_images_agrees_with_mult(catalog_groups, relabelled):
    """In every enumerated group the product is a lookup by base images,
    equal to mult on every element times every generator and on a seeded
    sample of pairs: all catalog groups, bundled and relabelled, the Aut
    carriers of Q8 and C5^2:Q8, the direct product P behind the D8, q = 3
    witness, and an order-1 group.  A regular group's base is [0], and so
    is the order-1 group's."""
    by_name = {e.name: G for e, G in catalog_groups}
    extra = [aut_group(by_name[n]).carrier for n in ("Q8", "C5^2:Q8")]
    extra.append(build_znthm(by_name["D8"], 3).construction.P)
    extra.append(FiniteGroup.trivial(3))
    rng = random.Random(21)
    irregular = {}
    cases = [(e.name, G) for e, bundled in catalog_groups
             for G in (bundled, relabelled(bundled, 3))]
    for name, G in cases + [(None, G) for G in extra]:
        elements = G.element_tuples
        mul = product(G)
        assert mul is not mult
        if len({t[0] for t in elements}) == len(elements):
            assert base(G) == [0]
        elif name is not None:
            irregular.setdefault(name, len(base(G)))
        for x in elements:
            for g in G._raw_gens:
                assert mul(x, g) == mult(x, g)
        for _ in range(64):
            x, y = rng.choice(elements), rng.choice(elements)
            assert mul(x, y) == mult(x, y)
    assert irregular == IRREGULAR_BASES
    assert base(extra[3]) == [0]
    assert [len(base(G)) for G in extra] == [2, 2, 4, 1]


def _base_table_reference(G, points):
    """The base table keyed one element at a time: a list over the image of
    a one-point base, else a dict from the tuple of images."""
    if len(points) == 1:
        at = [None] * G.degree
        for i, t in enumerate(G.element_tuples):
            at[t[points[0]]] = i
        return at
    return {tuple(t[b] for b in points): i for i, t in enumerate(G.element_tuples)}


def test_base_table_matches_reference(catalog_groups, relabelled):
    """``at`` equals the table keyed element by element, on a base of every
    length met: one point (the regular catalog groups, and the order-1
    group, whose table names its only element at its one point), two to
    four points (the eight non-regular catalog groups, the
    Aut carriers of Q8 and C5^2:Q8, the D8, q = 3 bundle's P and relabelled
    copies), and eight points (C2^8 acting on 16 points, one transposition
    per factor)."""
    by_name = {e.name: G for e, G in catalog_groups}
    groups = [G for _, G in catalog_groups]
    groups += [relabelled(by_name[n], 9) for n in IRREGULAR_BASES]
    groups += [aut_group(by_name[n]).carrier for n in ("Q8", "C5^2:Q8")]
    groups.append(build_znthm(by_name["D8"], 3).construction.P)
    groups.append(FiniteGroup(16, [[p ^ 1 if p // 2 == i else p for p in range(16)]
                                   for i in range(8)]))
    lengths = set()
    for G in groups:
        table = ProductTable(G)
        assert table.at == _base_table_reference(G, table.points)
        lengths.add(len(table.points))
    trivial = ProductTable(FiniteGroup.trivial(3))
    assert trivial.points == (0,) and trivial.at == [0, None, None]
    assert lengths == {1, 2, 3, 4, 8}


def test_product_table_never_calls_mult(catalog_groups, monkeypatch):
    """Once a group's elements are known, its product-table columns come
    from lookups alone, in regular and non-regular groups alike."""
    by_name = {e.name: G for e, G in catalog_groups}
    groups = [FiniteGroup(G.degree, G._raw_gens) for G in
              [by_name[n] for n in [*IRREGULAR_BASES, "Q8", "G48_51"]]
              + [aut_group(by_name["Q8"]).carrier]]
    for G in groups:
        assert G.element_tuples
    calls = []

    def counted(x, y):
        calls.append(None)
        return mult(x, y)

    monkeypatch.setattr(group, "mult", counted)
    for G in groups:
        table = ProductTable(G)
        for h in range(len(G.element_tuples)):
            table.col(h)
    assert calls == []


def test_product_table_columns_match_mult(small_catalog_groups, named_large_groups, relabelled):
    """Each column, one gather of G's elements at the right factor's base
    images read through the base table, equals the column of indices of
    products by mult: every column of each catalog group of order <= 63 and
    of a relabelled copy, the order-1 group (a one-point base), and a seeded
    sample of columns of the Aut carriers of A6 and C5^2:Q8, whose bases
    have several points.  The order-1 group's map extension, read out by
    index, is a tuple too."""
    by_name = {e.name: G for e, G in named_large_groups}
    carriers = [aut_group(by_name[n]).carrier for n in ("A6", "C5^2:Q8")]
    assert [len(base(C)) for C in carriers] == [3, 2]
    rng = random.Random(24)
    cases = [(G, range(G.order)) for _, bundled in small_catalog_groups
             for G in (bundled, relabelled(bundled, 7))]
    cases.append((FiniteGroup.trivial(2), range(1)))
    cases += [(C, rng.sample(range(C.order), 24)) for C in carriers]
    columns = 0
    for G, hs in cases:
        elements, index = G.element_tuples, G.element_index
        table = ProductTable(G)
        for h in hs:
            g = elements[h]
            assert table.col(h) == [index[mult(y, g)] for y in elements]
            columns += 1
    assert columns > 20_000
    trivial = ProductTable(FiniteGroup.trivial(2))  # extend's one-index gather would give a bare 0
    assert trivial.extend([], trivial, []) == (0,)


def test_joins_within_the_group_match_plain_closures(
    small_catalog_groups, relabelled, monkeypatch
):
    """Every join normal_subgroups_fast makes (its cache bypassed), closed
    inside G by lookups, equals the same closure by mult."""
    joins = []

    def checked(gens, degree, *, within, **kw):
        got = close_set(gens, degree, within=within, **kw)
        assert got == close_set(gens, degree, **kw)
        joins.append(within)
        return got

    monkeypatch.setattr(lattice, "close_set", checked)
    for _, bundled in small_catalog_groups:
        for G in (bundled, relabelled(bundled, 3)):
            before = len(joins)
            normals = lattice._joins(G, lattice._class_closures(G))
            assert all(J is G for J in joins[before:])
            assert len(joins) - before >= len(normals) - 1
    assert joins


def test_is_normal_agrees_with_conjugation_by_mult(small_catalog_groups):
    """is_normal conjugates by G's product; the same test by mult agrees on
    every catalog group of order <= 63 for: each normal subgroup N in G
    (normal), G in N (outside unless N = G), and each cyclic subgroup in G."""
    def by_mult(N, G):
        return all(n in G.element_set for n in N._raw_gens) and all(
            mult(mult(g, n), inverse(g)) in N.element_set
            for g in G._raw_gens for n in N._raw_gens
        )

    seen = {True: 0, False: 0}
    for _, G in small_catalog_groups:
        cyclics = {frozenset(close_set([t], G.degree)) for t in G.element_tuples}
        cases = [(N, G) for N in lattice.normal_subgroups_fast(G)]
        cases += [(G, N) for N, _ in cases]
        cases += [(G.subgroup(C), G) for C in cyclics]
        for N, M in cases:
            got = is_normal(N, M)
            assert got == by_mult(N, M)
            seen[got] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_product_of_an_unenumerated_group_runs_no_closure(monkeypatch):
    calls = []
    real = group.close_set

    def counted(*args, **kw):
        calls.append(None)
        return real(*args, **kw)

    monkeypatch.setattr(group, "close_set", counted)
    G = cyclic(6)
    assert product(G) is mult
    assert calls == [] and G._element_tuples is None
    assert len(G.element_tuples) == 6 and len(calls) == 1
    assert product(G) is not mult and len(calls) == 1


def test_close_set_within_refuses_outside_generators():
    """A generator outside the ambient would be named wrongly by a lookup."""
    r = cyclic(6)._raw_gens[0]
    r2 = mult(r, r)
    C3 = FiniteGroup(6, [r2])
    assert len(C3.element_tuples) == 3
    with pytest.raises(GroupError):
        close_set([r], 6, within=C3)
    with pytest.raises(GroupError):
        C3.generated_subgroup([r])
    assert close_set([r2], 6, within=C3) == C3.element_set
    # an ambient whose elements are unknown is not enumerated: mult closes
    unknown = FiniteGroup(6, [r2])
    assert len(close_set([r], 6, within=unknown)) == 6
    assert unknown._element_tuples is None


def test_element_order_matches_perm_order(small_catalog_groups, named_large_groups, relabelled):
    """Orders by power walks over lookups equal perm_order on every element of
    each catalog group of order <= 63, of a relabelled copy (asked in reverse
    order, so later walks meet powers recorded by earlier ones differently),
    and of the Aut carriers of A6 and C5^2:Q8, whose bases have several points."""
    by_name = {e.name: G for e, G in named_large_groups}
    carriers = [aut_group(by_name[n]).carrier for n in ("A6", "C5^2:Q8")]
    assert all(len(base(C)) > 1 for C in carriers)
    checked = 0
    for _, bundled in small_catalog_groups:
        copy = relabelled(bundled, 5)
        for G, elements in ((bundled, bundled.element_tuples),
                            (copy, copy.element_tuples[::-1])):
            order = element_order(G)
            assert [order(t) for t in elements] == [perm_order(t) for t in elements]
            checked += len(elements)
    for C in carriers:
        order = element_order(C)
        assert [order(t) for t in C.element_tuples] == [perm_order(t) for t in C.element_tuples]
        checked += C.order
    assert checked > 10_000


def test_element_order_refuses_outside_elements():
    """An outside element would be walked by wrong lookups, maybe for ever."""
    r = cyclic(6)._raw_gens[0]
    C3 = FiniteGroup(6, [mult(r, r)])
    assert element_order(C3) is perm_order  # elements unknown: nothing enumerated
    assert C3._element_tuples is None
    assert len(C3.element_tuples) == 3
    order = element_order(C3)
    assert order is element_order(C3) and order is not perm_order
    with pytest.raises(GroupError):
        order(r)
    assert order(mult(r, r)) == 3


def test_projection_refuses_outside_elements():
    G = cyclic(6)
    r = G._raw_gens[0]
    _, proj = quotient(G, G.generated_subgroup([mult(r, mult(r, r))]))
    assert proj(r).order() == 3
    with pytest.raises(GroupError):
        proj((1, 0, 2, 3, 4, 5))
