import json

import pytest

from gaschuetz import (
    alternating,
    cyclic,
    dihedral,
    quaternion8,
    symmetric,
)
from gaschuetz.constructors import ActionSpec, binary_tetrahedral_matrices
from gaschuetz.errors import GroupError, PreconditionError, SizeLimitError
from gaschuetz.group import FiniteGroup
from gaschuetz.witness import (
    baer_bundle,
    blow_up,
    build_perfect,
    build_znthm,
    verify_znthm,
)


def test_baer_bundle_orders_and_searches():
    b = baer_bundle()
    assert (b.embedding.G.order, b.embedding.H.order, b.embedding.N.order) == (48, 16, 8)
    assert b.complement_in_h.order == 2
    assert b.nonexistence.exists is False
    assert b.q == 3
    assert b.z is not None and b.z.order() == 2
    assert b.verified


def test_baer_json_roundtrip():
    b = baer_bundle()
    data = json.loads(b.to_json())
    G = FiniteGroup(data["G"]["degree"], [tuple(g) for g in data["G"]["generators"]])
    assert G.order == 48
    N = FiniteGroup(data["N"]["degree"], [tuple(g) for g in data["N"]["generators"]])
    assert N.order == 8
    assert data["q"] == 3 and data["nonexistence"]["exists"] is False


def test_build_znthm_hypothesis_checks():
    with pytest.raises(PreconditionError):
        build_znthm(symmetric(3), 2)  # trivial meet of center and derived
    with pytest.raises(PreconditionError):
        build_znthm(quaternion8(), 2)  # q not coprime to |N|
    with pytest.raises(PreconditionError):
        build_znthm(quaternion8(), 1)
    with pytest.raises(SizeLimitError) as ei:
        build_znthm(quaternion8(), 5)  # 8^6 * 5 far over the cap
    assert ei.value.required_order == 8 ** 6 * 5 // 2


def test_build_znthm_d8_structure():
    b = build_znthm(dihedral(8), 3)
    assert b.embedding.G.order == 6144
    assert b.embedding.H.order == 2048
    assert b.q == 3
    assert b.z.order() == 2
    assert not b.verified


def test_tampered_bundle_rejected():
    b = build_znthm(dihedral(8), 3)
    # swap the complement for a subgroup that meets N: the core itself
    b.construction.k_pairs = b.construction.n_pairs
    with pytest.raises(GroupError):
        verify_znthm(b)


def test_verify_refuses_bundle_without_construction():
    with pytest.raises(PreconditionError, match="bundle lacks construction handles"):
        verify_znthm(baer_bundle())


def test_blow_up_gcd_violation():
    b = baer_bundle()
    with pytest.raises(PreconditionError):
        blow_up(cyclic(3), b, None)  # |L| = 3 shares the index 3


def test_blow_up_trivial_returns_original():
    b = baer_bundle()
    assert blow_up(cyclic(1), b, None) is b


def test_blow_up_baer_to_frobenius():
    """The order-48 example acts on the 5x5 translation plane; blowing up
    yields the order-1200 group over the order-200 Frobenius core."""
    b = baer_bundle()
    G = b.embedding.G
    L = None
    from gaschuetz.constructors import cyclic as _c, direct_product

    L = direct_product(_c(5), _c(5))
    # matrix images over F5 for the three binary-tetrahedral generators
    # and the scalar 2, matching the construction of the bundle's G
    mats5 = binary_tetrahedral_matrices(5) + [((2, 0), (0, 2))]
    e1, e2 = L.generators

    def vec(a, c):
        return (e1 ** a) * (e2 ** c)

    images = [
        [vec(m[0][0], m[1][0]), vec(m[0][1], m[1][1])]
        for m in mats5
    ]
    spec = ActionSpec(G, L, images)
    big = blow_up(L, b, spec)
    assert big.embedding.G.order == 1200
    assert big.embedding.N.order == 200
    assert big.embedding.G.order // big.embedding.H.order == 3
    assert big.nonexistence.exists is False
    assert big.verified
    # the extended core is the order-200 Frobenius group: centerless
    from gaschuetz.structure import center

    assert center(big.embedding.N).order == 1


def test_build_perfect_error_paths():
    with pytest.raises(PreconditionError):
        build_perfect(symmetric(4), 7)  # not perfect
    with pytest.raises(PreconditionError):
        build_perfect(alternating(5), 2)  # gcd(2, |Aut|) != 1
    with pytest.raises(SizeLimitError) as ei:
        build_perfect(alternating(5), 7)
    assert ei.value.required_order == 7 * 60 ** 7 * 120


def test_witness_bundle_serialization_shape():
    b = baer_bundle()
    data = json.loads(b.to_json())
    assert set(data) >= {"G", "H", "N", "K", "q", "z", "verified", "nonexistence"}


def test_znthm_bundle_external_replay():
    # the serialized generators alone must reproduce the split-in-H side
    b = build_znthm(dihedral(8), 3)
    data = json.loads(b.to_json())
    N = FiniteGroup(data["N"]["degree"], [tuple(g) for g in data["N"]["generators"]])
    K = FiniteGroup(data["K"]["degree"], [tuple(g) for g in data["K"]["generators"]])
    assert N.degree == 6144 and N.order == 8
    assert K.order == 256
    assert len(K.element_set & N.element_set) == 1
    z = tuple(data["z"])
    assert z in N.element_set
