import pytest
from hypothesis import given, strategies as st

from gaschuetz.errors import DegreeMismatchError, MalformedPermutationError
from gaschuetz.perm import Permutation, cycles_of, identity_images, mult, perm_order, power


def perms(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation)
    )


def same_degree_pairs(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(Permutation),
            st.permutations(list(range(n))).map(Permutation),
        )
    )


def same_degree_triples(max_degree=7):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.tuples(
            *(st.permutations(list(range(n))).map(Permutation) for _ in range(3))
        )
    )


def test_rejects_non_bijections():
    with pytest.raises(MalformedPermutationError):
        Permutation([0, 0, 1])
    with pytest.raises(MalformedPermutationError):
        Permutation([0, 2])
    with pytest.raises(MalformedPermutationError):
        Permutation([1, 2, 3])


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        Permutation([1, 0]) * Permutation([1, 2, 0])


def test_composition_applies_right_first():
    p = Permutation([1, 2, 0])   # 0->1->2->0
    q = Permutation([1, 0, 2])   # swap 0,1
    assert (p * q)(0) == p(q(0)) == 2


@given(same_degree_triples())
def test_associativity(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)


@given(perms())
def test_inverse(p):
    assert (p * p.inv()).is_identity()
    assert (p.inv() * p).is_identity()


@given(perms())
def test_order_annihilates(p):
    o = p.order()
    assert (p ** o).is_identity()
    for d in range(1, o):
        if o % d == 0 and d < o:
            assert not (p ** d).is_identity() or d == o


@given(same_degree_pairs())
def test_product_order_conjugation_invariant(pair):
    p, q = pair
    assert perm_order((q * p * q.inv()).images) == p.order()


def test_from_cycles_and_back():
    p = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p.order() == 6
    assert cycles_of(p.images) == [(0, 1, 2), (3, 4)]


def test_canonical_ordering_is_lexicographic():
    a = Permutation([0, 1, 2])
    b = Permutation([1, 0, 2])
    assert a < b
    assert sorted([b, a])[0] == a


def test_identity():
    e = Permutation.identity(4)
    assert e.is_identity() and e.order() == 1 and e.degree == 4


@given(perms())
def test_power_matches_repeated_products(p):
    raw, raw_inv = p.images, p.inv().images
    expected = expected_inv = identity_images(len(raw))
    for k in range(2 * p.order() + 1):
        assert power(raw, k) == expected
        assert (p ** k).images == expected
        assert (p ** -k).images == expected_inv
        expected = mult(expected, raw)
        expected_inv = mult(expected_inv, raw_inv)
