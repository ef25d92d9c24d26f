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
from gaschuetz.complements import (
    Embedding,
    all_complements,
    complements_conjugate,
    exhaustive_search,
    find_complement,
    small_generating_set,
)
from gaschuetz.errors import NotNormalError, PreconditionError
from gaschuetz.group import FiniteGroup, close_set, is_normal, reduce_generators
from gaschuetz.lattice import all_subgroups, normal_subgroups_fast
from gaschuetz.perm import Permutation, identity_images, perm_order
from gaschuetz.structure import quotient, sylow


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
        gens = small_generating_set(G)
        assert len(gens) <= bound
        assert len(close_set([g.images for g in gens], G.degree)) == G.order


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
        rebuilt = reduce_generators(set(Q.element_tuples), Q.degree)
        if len(rebuilt) < len(gens):
            gens = rebuilt
    return gens


def test_drop_pass_matches_restart_prune(small_catalog_groups):
    checked = 0
    for entry, G in small_catalog_groups:
        if G.order > 24:
            continue
        for N in normal_subgroups_fast(G):
            Q, _ = quotient(G, N)
            got = [g.images for g in small_generating_set(Q)]
            assert got == restart_prune_generating_set(Q), (entry.name, N.order)
            checked += 1
    assert checked > 300


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


def test_hinted_search_positive():
    # in C6, every complement of the C2 part contains the C3 part
    C6 = cyclic(6)
    N = C6.generated_subgroup([(C6.generators[0]) ** 3])
    R = C6.generated_subgroup([(C6.generators[0]) ** 2])
    r = find_complement(C6, N, contained_in_hint=R)
    assert r.exists and r.complement.order == 3
    assert r.method == "quotient-reduced lift-search"
    assert find_complement(C6, N).exists  # agrees with the plain search


def test_hinted_search_negative_when_hint_meets_n():
    # center of Q8 lies in every maximal subgroup; any complement would
    # have to contain it while avoiding it
    Q8 = quaternion8()
    Z = center(Q8)
    r = find_complement(Q8, Z, contained_in_hint=Z)
    assert not r.exists
    assert find_complement(Q8, Z).exists is False  # plain search agrees


def test_hinted_search_builds_no_pullback_when_hint_meets_n(monkeypatch):
    # every pullback contains R, and R meets N: none can avoid N, so no
    # subgroup of Q8 itself is closed
    Q8 = quaternion8()
    Z = center(Q8)
    receivers = []
    generated_subgroup = FiniteGroup.generated_subgroup

    def recording(self, gens):
        receivers.append(self)
        return generated_subgroup(self, gens)

    monkeypatch.setattr(FiniteGroup, "generated_subgroup", recording)
    r = find_complement(Q8, Z, contained_in_hint=Z)
    assert not r.exists
    assert r.evidence == [
        "the hinted subgroup meets N, so no complement can contain it",
        "1 quotient complement(s), none pulling back clear of N",
    ]
    assert receivers and all(G is not Q8 for G in receivers)


def test_hinted_search_trivial_hint_is_plain():
    A4 = alternating(4)
    V4 = _v4_in(A4)
    one = A4.subgroup([A4.identity])
    r = find_complement(A4, V4, contained_in_hint=one)
    assert r.exists and r.method == "lift-search"


def test_schur_zassenhaus_small():
    # coprime order and index always split
    S3 = symmetric(3)
    C3 = S3.generated_subgroup([Permutation([1, 2, 0])])
    assert find_complement(S3, C3).exists
    G = direct_product(cyclic(5), symmetric(3))
    for N in all_subgroups(G):
        if is_normal(N, G) and N.order in (5, 15):
            from math import gcd

            if gcd(N.order, G.order // N.order) == 1:
                assert find_complement(G, N).exists
