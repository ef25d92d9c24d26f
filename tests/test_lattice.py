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
from gaschuetz import lattice
from gaschuetz.errors import PreconditionError, SizeLimitError
from gaschuetz.group import FiniteGroup, close_set, is_subgroup
from gaschuetz.lattice import (
    _class_closures,
    _cyclic_generators,
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


def test_cyclic_generators_are_the_least_generators(small_catalog_groups):
    for entry, G in small_catalog_groups:
        generators_of = {}
        for t in G.element_tuples:
            generators_of.setdefault(G.generated_subgroup([t]).element_set, []).append(t)
        least = sorted(min(ts) for key, ts in generators_of.items() if len(key) > 1)
        atoms = _cyclic_generators(G)
        assert [gens for _, gens in atoms] == [[t] for t in least], entry.name
        assert all(key == G.generated_subgroup(gens).element_set for key, gens in atoms)


def plain_joins(G, atoms):
    """The join walk without the order test: every join of a found subgroup
    with an atom it does not contain is closed."""
    degree = G.degree
    trivial = FiniteGroup.trivial(degree)
    found = {trivial.element_set: trivial}
    queue = [trivial]
    for X in queue:
        if X.order == G.order:
            continue
        xset = X.element_set
        for aset, agens in atoms:
            if aset <= xset:
                continue
            gens = list(X._raw_gens) + list(agens)
            elems = close_set(gens, degree, seed=xset, within=G)
            key = frozenset(elems)
            if key not in found:
                found[key] = J = FiniteGroup(degree, gens, elements=elems)
                queue.append(J)
    return sorted(found.values(), key=lambda s: (s.order, s.element_tuples))


def test_join_shortcut_matches_the_plain_walk(catalog_groups, small_catalog_groups, monkeypatch):
    """Skipping a join a found subgroup of order |X||A|/|X meet A| already
    is changes nothing: equal element sets and generator lists, in order,
    for the normal lattice of every catalog group and the full lattice of
    every group of order <= 63, S5 and C3^2:Q8.  With normal atoms every
    repeat is skipped, so each closure the walk runs finds a new subgroup."""
    def listing(subgroups):
        return [(S.element_tuples, S._raw_gens) for S in subgroups]

    closures = []

    def counted(*args, **kw):
        closures.append(None)
        return close_set(*args, **kw)

    monkeypatch.setattr(lattice, "close_set", counted)
    by_name = {e.name: G for e, G in catalog_groups}
    for entry, G in catalog_groups:
        atoms = _class_closures(G)
        closures.clear()
        normals = lattice._joins(G, atoms)  # the cache bypassed, to count closures
        assert len(closures) == len(normals) - 1, entry.name
        assert listing(normals) == listing(plain_joins(G, atoms)), entry.name
        assert listing(normal_subgroups_fast(G)) == listing(normals), entry.name
    full = [(e.name, G) for e, G in small_catalog_groups]
    full += [(name, by_name[name]) for name in ("S5", "C3^2:Q8")]
    for name, G in full:
        assert listing(all_subgroups(G)) == listing(
            plain_joins(G, _cyclic_generators(G))), name


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


def test_minimal_supplement_refuses_when_hn_is_not_g():
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    with pytest.raises(PreconditionError, match="H N = G"):
        minimal_supplement(S4, A4, A4)


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
