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
from gaschuetz.errors import PreconditionError, SizeLimitError
from gaschuetz.group import is_subgroup
from gaschuetz.lattice import (
    all_subgroups,
    frattini,
    maximal_subgroups,
    minimal_supplement,
    normal_subgroups,
    normal_subgroups_fast,
    subgroups_of_order,
)
from gaschuetz.perm import perm_order


# Known subgroup counts (standard values).
KNOWN_SUBGROUP_COUNTS = {
    "S3": 6,
    "S4": 30,
    "Q8": 6,
    "D8": 10,
    "A4": 10,
    "C12": 6,
    "C2^4": 67,
}


def _builders():
    return {
        "S3": symmetric(3),
        "S4": symmetric(4),
        "Q8": quaternion8(),
        "D8": dihedral(8),
        "A4": alternating(4),
        "C12": cyclic(12),
        "C2^4": direct_product(
            direct_product(cyclic(2), cyclic(2)),
            direct_product(cyclic(2), cyclic(2)),
        ),
    }


def brute_subgroups(G):
    """Oracle at tiny scale: closures of all generator subsets of size <= 3."""
    import itertools

    found = set()
    elems = G.element_tuples
    for k in range(4):
        for combo in itertools.combinations(elems, k):
            S = G.generated_subgroup(combo)
            found.add(S.element_set)
    return found


def test_counts_match_known_values():
    built = _builders()
    for name, want in KNOWN_SUBGROUP_COUNTS.items():
        assert len(all_subgroups(built[name])) == want, name


def test_exhaustive_against_brute_oracle():
    for G in [symmetric(3), quaternion8(), dihedral(8), cyclic(12)]:
        got = {S.element_set for S in all_subgroups(G)}
        assert got == brute_subgroups(G)


def test_every_listed_subgroup_is_one():
    S4 = symmetric(4)
    for S in all_subgroups(S4):
        assert is_subgroup(S, S4)
        assert S4.order % S.order == 0  # Lagrange


def test_subgroups_of_order():
    S4 = symmetric(4)
    assert len(subgroups_of_order(S4, 12)) == 1
    assert len(subgroups_of_order(quaternion8(), 4)) == 3
    assert subgroups_of_order(cyclic(6), 4) == []


def test_size_cap(monkeypatch):
    monkeypatch.setenv("GASCHUETZ_LATTICE_CAP", "10")
    with pytest.raises(SizeLimitError):
        all_subgroups(symmetric(4))


def test_normal_subgroup_paths_agree(small_catalog_groups):
    import random

    rng = random.Random(11)
    for _, G in rng.sample(small_catalog_groups, 20):
        slow = {S.element_set for S in normal_subgroups(G)}
        fast = {S.element_set for S in normal_subgroups_fast(G)}
        assert slow == fast


def test_frattini():
    Q8 = quaternion8()
    assert frattini(Q8).element_set == center(Q8).element_set
    assert frattini(symmetric(4)).order == 1
    assert frattini(cyclic(4)).order == 2


def test_maximal_subgroups_s4():
    orders = sorted(M.order for M in maximal_subgroups(symmetric(4)))
    assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


def test_minimal_supplement_s4():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    H1 = minimal_supplement(S4, A4, S4)
    assert H1.order == 2


def test_minimal_supplement_trivial_n():
    S4 = symmetric(4)
    one = S4.subgroup([S4.identity])
    assert minimal_supplement(S4, one, S4).order == 24


def test_minimal_supplement_frattini_case():
    Q8 = quaternion8()
    assert minimal_supplement(Q8, center(Q8), Q8).order == 8


def test_minimal_supplement_precondition():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    C2 = S4.generated_subgroup(
        [next(t for t in S4.element_tuples if perm_order(t) == 2)]
    )
    with pytest.raises(PreconditionError):
        minimal_supplement(S4, C2, C2)  # C2 not normal / product too small
