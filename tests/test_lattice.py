import hashlib

import pytest

from gaschuetz import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric,
)
from gaschuetz import lattice
from gaschuetz.errors import PreconditionError, SizeLimitError
from gaschuetz.group import FiniteGroup, ProductTable, close_set, is_subgroup
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
from gaschuetz.structure import (
    center, conjugacy_classes, derived_subgroup, prime_factors, sylow,
)


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


def on_tuples(G, atoms):
    """Atoms on G's element indices as (element set, generators) on tuples."""
    elements = G.element_tuples
    return [(frozenset(elements[x] for x in key), [elements[g] for g in gens])
            for key, gens in atoms]


def test_cyclic_generators_are_the_least_generators(small_catalog_groups):
    for entry, G in small_catalog_groups:
        generators_of = {}
        for t in G.element_tuples:
            generators_of.setdefault(frozenset(close_set([t], G.degree)), []).append(t)
        least = sorted(min(ts) for key, ts in generators_of.items() if len(key) > 1)
        atoms = on_tuples(G, _cyclic_generators(G))
        assert [gens for _, gens in atoms] == [[t] for t in least], entry.name
        assert all(key == close_set(gens, G.degree) for key, gens in atoms)


def plain_joins(G, atoms):
    """The join walk without the order test, on G's element indices: every
    join of a found subgroup with an atom it does not contain is closed."""
    table = ProductTable.of(G)
    elements = table.elements
    trivial = frozenset([0])
    found = {trivial: []}
    queue = [trivial]
    for xset in queue:
        if len(xset) == G.order:
            continue
        for aset, agens in atoms:
            if aset <= xset:
                continue
            gens = found[xset] + list(agens)
            key = frozenset(table.close(gens, seed=xset))
            if key not in found:
                found[key] = gens
                queue.append(key)
    subgroups = [FiniteGroup(G.degree, [elements[g] for g in gens],
                             elements=[elements[x] for x in key])
                 for key, gens in found.items()]
    return sorted(subgroups, key=lambda s: (s.order, s.element_tuples))


def test_join_shortcut_matches_the_plain_walk(catalog_groups, small_catalog_groups, monkeypatch):
    """Skipping a join a found subgroup of order |X||A|/|X meet A| already
    is changes nothing: equal element sets and generator lists, in order,
    for the normal lattice of every catalog group and the full lattice of
    every group of order <= 63, S5 and C3^2:Q8.  With normal atoms every
    repeat is skipped, so each closure the walk runs finds a new subgroup."""
    def listing(subgroups):
        return [(S.element_tuples, S._raw_gens) for S in subgroups]

    closures = []
    real = ProductTable.close

    def counted(*args, **kw):
        closures.append(None)
        return real(*args, **kw)

    by_name = {e.name: G for e, G in catalog_groups}
    for entry, G in catalog_groups:
        atoms = _class_closures(G)
        closures.clear()
        with monkeypatch.context() as m:
            m.setattr(ProductTable, "close", counted)
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


# SHA-256 of the listings below, as computed before subgroups moved onto
# ProductTable indices: the subgroups' element sets and generators must not
# change with the form the walks run on.
LISTING_DIGEST = "6ce5adaa148b8328fe6b425fc864a0827870fde1fe608abf0000c0951cc8e6e5"


def test_subgroup_listings_are_pinned(catalog_entries):
    """One digest over every catalog group, freshly built, of each listed
    subgroup's (element_tuples, _raw_gens): the normal lattice, a Sylow
    subgroup at each prime, G' and Z(G), and the full lattice up to order
    24; and of the conjugacy classes."""
    h = hashlib.sha256()
    for e in catalog_entries:
        G = e.group()
        subs = [("normal", S) for S in normal_subgroups_fast(G)]
        subs += [(("sylow", p), sylow(G, p)) for p in prime_factors(G.order)]
        subs += [("derived", derived_subgroup(G)), ("center", center(G))]
        if G.order <= 24:
            subs += [("all", S) for S in all_subgroups(G)]
        for label, S in subs:
            h.update(repr((e.name, label, S.element_tuples, S._raw_gens)).encode())
        h.update(repr((e.name, conjugacy_classes(G))).encode())
    assert len(catalog_entries) == 326
    assert h.hexdigest() == LISTING_DIGEST
