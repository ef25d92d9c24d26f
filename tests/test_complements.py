import functools

import pytest

from gaschuetz import (
    alternating,
    center,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric,
)
from gaschuetz.catalog import resolve_group
from gaschuetz.complements import (
    Embedding,
    all_complements,
    complements_conjugate,
    exhaustive_search,
    find_complement,
    small_generating_set,
)
from gaschuetz.errors import NotNormalError, PreconditionError
from gaschuetz.group import ProductTable, close_set, is_normal, pick_generators
from gaschuetz.lattice import all_subgroups, normal_subgroups_fast
from gaschuetz.perm import Permutation, identity_images, perm_order
from gaschuetz.structure import quotient, sylow


def tuple_pick(G):
    """``pick_generators`` on G's element tuples, closing by mult and ranking by
    ``perm_order``: no table involved."""
    return pick_generators(set(G.element_tuples), perm_order,
                           functools.partial(close_set, degree=G.degree))


def oracle_has_complement(G, N):
    """Independent decision: scan subgroups of the right order."""
    index = G.order // N.order
    for K in all_subgroups(G):
        if K.order == index and len(K.element_set & N.element_set) == 1:
            return True
    return False


def _v4_in(G):
    return G.generated_subgroup(
        [
            t
            for t in G.element_tuples
            if perm_order(t) == 2 and all(t[i] != i for i in range(G.degree))
        ]
    )


def test_a4_v4_split():
    A4 = alternating(4)
    V4 = _v4_in(A4)
    r = find_complement(A4, V4)
    assert r.exists and r.complement.order == 3
    # complement re-verified: K N = G and trivial intersection
    assert len(r.complement.element_set & V4.element_set) == 1


def test_q8_center_no_complement():
    Q8 = quaternion8()
    r = find_complement(Q8, center(Q8))
    assert not r.exists
    assert r.search_space == 4  # |N|^m with m = 2 quotient generators


def test_s4_a4_split():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    r = find_complement(S4, A4)
    assert r.exists and r.complement.order == 2


def test_trivial_edges():
    S3 = symmetric(3)
    r = find_complement(S3, S3)
    assert r.exists and r.complement.order == 1
    one = S3.subgroup([S3.identity])
    r = find_complement(S3, one)
    assert r.exists and r.complement.order == 6


def test_requires_normal():
    S4 = symmetric(4)
    C2 = S4.generated_subgroup([Permutation([1, 0, 2, 3])])
    with pytest.raises(NotNormalError):
        find_complement(S4, C2)


def test_find_complement_in_baer_style():
    # inside S4: the Sylow 2-subgroup contains V4 with a complement
    S4 = symmetric(4)
    V4 = _v4_in(S4)
    P = sylow(S4, 2)
    r = find_complement(P, V4)
    assert r.exists and r.complement.order == 2


def test_all_complements_a4():
    A4 = alternating(4)
    V4 = _v4_in(A4)
    comps = all_complements(A4, V4)
    assert len(comps) == 4
    assert complements_conjugate(A4, V4)


def test_all_complements_s3():
    S3 = symmetric(3)
    C3 = S3.generated_subgroup([Permutation([1, 2, 0])])
    comps = all_complements(S3, C3)
    assert len(comps) == 3
    assert complements_conjugate(S3, C3)


def test_all_complements_v4_factor_not_conjugate():
    V = direct_product(cyclic(2), cyclic(2))
    F = V.generated_subgroup([V.generators[0]])
    comps = all_complements(V, F)
    assert len(comps) == 2
    assert not complements_conjugate(V, F)


def test_no_complement_empty_list():
    Q8 = quaternion8()
    assert all_complements(Q8, center(Q8)) == []
    assert not complements_conjugate(Q8, center(Q8))


def test_exhaustive_search_report_counts():
    A4 = alternating(4)
    V4 = _v4_in(A4)
    report, found = exhaustive_search(A4, V4)
    assert report.exists and len(found) == 4
    assert report.search_space == 4 ** 1  # one generator of C3, fibers of size 4


def test_small_generating_set_sizes():
    # five irredundant declared generators: only the rebuild gets to one
    c2310 = cyclic(2)
    for n in (3, 5, 7, 11):
        c2310 = direct_product(c2310, cyclic(n))
    for G, bound in [(symmetric(4), 2), (quaternion8(), 2), (cyclic(12), 1), (c2310, 1)]:
        table = ProductTable.of(G)
        gens = small_generating_set(table, map(table.index, G._raw_gens))
        assert len(gens) <= bound
        assert len(close_set([G.element_tuples[g] for g in gens], G.degree)) == G.order


def restart_prune_generating_set(Q):
    """small_generating_set, its prune rescanning from the start after each drop."""
    if Q.order == 1:
        return []
    ident = identity_images(Q.degree)
    gens = []
    for g in Q._raw_gens:
        if g != ident and g not in gens:
            gens.append(g)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for g in list(gens):
            rest = [x for x in gens if x != g]
            if rest and len(close_set(rest, Q.degree)) == Q.order:
                gens = rest
                changed = True
                break
    if len(gens) > 4:
        rebuilt = tuple_pick(Q)
        if len(rebuilt) < len(gens):
            gens = rebuilt
    return gens


def test_drop_pass_matches_restart_prune(small_catalog_groups):
    """The pick on G/N's table, on coset numbers, against the tuple pick in
    the permutation group G/N, whose element c starts with c.  No catalog
    group of order <= 24 reaches the fallback; C2xC3xC5xC7xC11xS3 modulo
    its Sylow 3-subgroup keeps five declared generators, and the fallback
    wins with two."""
    big = resolve_group("C2xC3xC5xC7xC11xS3")
    pairs = [(entry.name, G, N) for entry, G in small_catalog_groups if G.order <= 24
             for N in normal_subgroups_fast(G)]
    pairs.append(("C2xC3xC5xC7xC11xS3", big, sylow(big, 3)))
    for name, G, N in pairs:
        Q, proj = quotient(G, N)
        table = proj.table
        got = small_generating_set(table, map(table.index, G._raw_gens))
        assert got == [q[0] for q in restart_prune_generating_set(Q)], (name, N.order)
    assert len(pairs) > 300 and len(got) == 2


def test_index_picks_match_tuple_picks(small_catalog_groups):
    """``pick_generators`` on a table's indices picks, in index form, what it
    picks on the element tuples by mult; and ``FiniteGroup.subgroup`` keeps
    those picks."""
    for entry, G in small_catalog_groups:
        t = ProductTable.of(G)
        got = [G.element_tuples[i] for i in pick_generators(range(G.order), t.order, t.close)]
        assert got == tuple_pick(G), entry.name
        assert list(G.subgroup(G.element_tuples)._raw_gens) == got, entry.name


def test_agreement_with_oracle_on_small_groups():
    for G in [symmetric(4), alternating(4), quaternion8(), dihedral(12),
              direct_product(symmetric(3), cyclic(4))]:
        for N in all_subgroups(G):
            if not is_normal(N, G):
                continue
            assert find_complement(G, N).exists == oracle_has_complement(G, N), (
                G, N.order
            )


def test_embedding_validation():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    V4 = _v4_in(S4)
    Embedding(S4, A4, V4).validate()
    with pytest.raises(PreconditionError):
        Embedding(S4, V4, A4).validate()  # A4 not inside V4


def test_embedding_refuses_a_non_normal_n():
    S4 = symmetric(4)
    two = S4.generated_subgroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(PreconditionError, match="N normal in G"):
        Embedding(S4, S4, two).validate()


def test_schur_zassenhaus_small():
    # coprime order and index always split
    S3 = symmetric(3)
    C3 = S3.generated_subgroup([Permutation([1, 2, 0])])
    assert find_complement(S3, C3).exists
    C6 = cyclic(6)
    r = find_complement(C6, C6.generated_subgroup([C6.generators[0] ** 3]))
    assert r.exists and r.complement.order == 3
    G = direct_product(cyclic(5), symmetric(3))
    for N in all_subgroups(G):
        if is_normal(N, G) and N.order in (5, 15):
            from math import gcd

            if gcd(N.order, G.order // N.order) == 1:
                assert find_complement(G, N).exists


def test_exhaustive_search_matches_the_subgroup_lattice(small_catalog_groups):
    # every complement exactly once: no duplicate and no dropped subgroup
    pairs = 0
    for entry, G in small_catalog_groups:
        if G.order > 24:
            continue
        for N in normal_subgroups_fast(G):
            index = G.order // N.order
            expected = sorted(
                K.element_tuples for K in all_subgroups(G)
                if K.order == index and len(K.element_set & N.element_set) == 1
            )
            _, found = exhaustive_search(G, N)
            assert [K.element_tuples for K in found] == expected, (entry.name, N.order)
            pairs += 1
    assert pairs == 618


def test_search_modulo_r_matches_the_search_in_the_quotient(small_catalog_groups):
    """For every normal pair R <= M of the groups above, the search on G/R's
    coset numbers (``modulo``) against the search in the enumerated G/R
    over the image of M: the same (exists, search_space, examined, count),
    and the same complements under c -> the index of the image of coset
    c's representative."""
    pairs = 0
    for entry, G in small_catalog_groups:
        if G.order > 24:
            continue
        normals = normal_subgroups_fast(G)
        for R in normals:
            Q, proj = quotient(G, R)
            phi = [Q.element_index[proj._image_raw(t)] for t in proj.table.elements]
            for M in normals:
                if not R.element_set <= M.element_set:
                    continue
                report, found = exhaustive_search(G, M, modulo=proj)
                want, expected = exhaustive_search(
                    Q, Q.generated_subgroup([proj(g) for g in M._raw_gens]))
                got = (report.exists, report.search_space, report.examined, len(found))
                assert got == (want.exists, want.search_space, want.examined, len(expected)), (
                    entry.name, R.order, M.order)
                assert ({frozenset(phi[c] for c in K) for K in found}
                        == {frozenset(map(Q.element_index.__getitem__, K.element_tuples))
                            for K in expected}), (entry.name, R.order, M.order)
                first = find_complement(G, M, modulo=proj)
                assert (first.exists, first.search_space) == (want.exists, want.search_space)
                assert first.complement is None or first.complement in found
                pairs += 1
    assert pairs == 2683


def _normals_of_order(G, m):
    return [N for N in normal_subgroups_fast(G) if N.order == m]


def test_search_counts_are_pinned():
    # find: first complement after orbit representatives; exhaustive: every tuple
    S4 = symmetric(4)
    (V4,) = _normals_of_order(S4, 4)
    r = find_complement(S4, V4)
    assert (r.exists, r.search_space, r.examined) == (True, 16, 1)
    report, found = exhaustive_search(S4, V4)
    assert report.examined == 4 and len(found) == 4

    G = resolve_group("G32_17")
    counts = sorted(
        (r.search_space, r.examined)
        for r in (find_complement(G, N) for N in _normals_of_order(G, 8))
    )
    assert counts == [(64, 0)] * 6 + [(64, 16)]

    E = resolve_group("C2xC2xC2xC2xC2")
    for N in _normals_of_order(E, 2):
        r = find_complement(E, N)
        assert (r.exists, r.search_space, r.examined) == (True, 16, 1)
        report, found = exhaustive_search(E, N)
        assert report.examined == 16 and len(found) == 16
