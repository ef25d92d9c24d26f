import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gaschuetz import (
    FiniteGroup,
    Homomorphism,
    alternating,
    cyclic,
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
    SizeLimitError,
)
from gaschuetz.complements import find_complement
from gaschuetz.group import close_set, reduce_generators
from gaschuetz.perm import Permutation, identity_images
from gaschuetz.structure import quotient


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
    gens = reduce_generators(set(Q8.element_tuples), 8)
    assert len(close_set(gens, 8)) == 8
    assert len(gens) == 2


def test_declared_order_cross_check():
    with pytest.raises(GroupError):
        FiniteGroup(3, [Permutation([1, 2, 0])], order=5).element_tuples


def test_homomorphism_verification_accepts_and_rejects():
    C6 = cyclic(6)
    C3 = cyclic(3)
    # x -> x^2 reduction: valid
    h = Homomorphism(C6, C3, [C3.generators[0]])
    assert h.kernel().order == 2
    assert h.image().order == 3
    # C3 has no element of order 6 to receive the generator faithfully:
    C2 = cyclic(2)
    with pytest.raises(GroupError):
        Homomorphism(C3, C2, [C2.generators[0]])


def test_homomorphism_respects_all_products():
    S3 = symmetric(3)
    C2 = cyclic(2)
    sign = Homomorphism(S3, C2, [C2.generators[0], C2.identity])
    for a, b in itertools.product(S3.elements, repeat=2):
        assert sign(a * b) == sign(a) * sign(b)
    assert sign.kernel().order == 3


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
