from functools import partial

import pytest

from gaschuetz import (
    ActionSpec,
    alternating,
    center,
    central_product,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    is_abelian,
    is_normal,
    quaternion8,
    semidirect_product,
    sl_2_3,
    symmetric,
    wreath_cyclic,
)
from gaschuetz.constructors import (
    dihedral8_matrices,
    direct_power,
    elementary_semidirect,
    matrix_group,
    quaternion_matrices,
)
from gaschuetz.errors import GroupError, PreconditionError, SizeLimitError
from gaschuetz.group import intersection, normal_closure
from gaschuetz.perm import identity_images, mult, perm_order
from gaschuetz.structure import conjugacy_classes


def test_cyclic_and_dihedral():
    assert cyclic(12).order == 12
    assert dihedral(8).order == 8
    assert dihedral(10).order == 10
    assert not is_abelian(dihedral(8))
    assert is_abelian(dihedral(4))
    with pytest.raises(GroupError):
        dihedral(7)


def test_quaternion8():
    Q8 = quaternion8()
    assert Q8.order == 8
    assert sum(1 for g in Q8.elements if g.order() == 2) == 1


def test_symmetric_alternating():
    assert symmetric(5).order == 120
    assert alternating(4).order == 12
    assert alternating(6).order == 360


def test_a6_simple_by_normal_closure_scan():
    A6 = alternating(6)
    for cls in conjugacy_classes(A6):
        if perm_order(cls[0]) == 1:
            continue
        assert normal_closure(A6, [cls[0]]).order == 360


def test_sl_2_3():
    G = sl_2_3()
    assert G.order == 24
    assert center(G).order == 2
    assert derived_subgroup(G).order == 8


def test_direct_product():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.order == 6 and is_abelian(G)
    assert max(g.order() for g in G.elements) == 6  # iso to C6
    for k in (0, -2):
        with pytest.raises(PreconditionError):
            direct_power(cyclic(3), k)


def test_semidirect_frobenius_200():
    sd = elementary_semidirect(5, quaternion_matrices(5))
    G = sd.group
    assert G.order == 200
    assert center(G).order == 1
    assert is_normal(sd.n_image, G)
    # Frobenius: the complement acts without fixed points on the kernel
    for h in sd.h_image.element_tuples:
        if perm_order(h) == 1:
            continue
        fixed = sum(
            1
            for n in sd.n_image.element_tuples
            if mult(h, n) == mult(n, h)
        )
        assert fixed == 1  # only the identity of the kernel commutes
    # the automorphisms are index permutations of the target's elements;
    # the acting generators carry the prescribed ones
    spec = sd.spec
    elems = spec.target.element_tuples
    for hgen, aut in zip(spec.acting._raw_gens, spec._aut_maps):
        assert spec.automorphism_of(hgen) == aut
    # embed_h is a homomorphism, and conjugation by every embedded acting
    # element realizes that element's automorphism
    acting = spec.acting.element_tuples
    for g in spec.acting._raw_gens:
        for x in acting:
            assert sd.embed_h(mult(g, x)) == sd.embed_h(g) * sd.embed_h(x)
    for x in acting:
        h = sd.embed_h(x)
        aut = spec.automorphism_of(x)
        for i, t in enumerate(elems):
            assert h * sd.embed_n(t) * h.inv() == sd.embed_n(elems[aut[i]])


def test_semidirect_degenerate_trivial_acting():
    N = symmetric(3)
    H = cyclic(1)
    spec = ActionSpec.trivial(H, N)
    sd = semidirect_product(N, H, spec)
    assert sd.group.order == 6


def _closed_map(gens, images, identity, image_identity):
    """{x: f(x)} for the map gens[i] -> images[i], closed breadth-first over
    tuple products and checked on every edge: the tuple-level reference
    for the product-table certificate of ``ActionSpec``."""
    f = {identity: image_identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g, h in zip(gens, images):
                y, fy = mult(x, g), mult(f[x], h)
                if y not in f:
                    f[y] = fy
                    new.append(y)
                assert f[y] == fy, "the images do not extend to a homomorphism"
        frontier = new
    return f


def _assert_matches_tuple_oracle(spec):
    """Every automorphism of spec equals the tuple-level map closed from its
    generator images, then re-indexed on the target's elements."""
    T, A = spec.target, spec.acting
    idx, ident = T.element_index, identity_images(T.degree)
    auts = []
    for row in spec.images:
        f = _closed_map(T._raw_gens, [e.images for e in row], ident, ident)
        auts.append(tuple(idx[f[t]] for t in T.element_tuples))
        assert sorted(auts[-1]) == list(range(T.order))
    assert spec._aut_maps == auts
    on_acting = _closed_map(
        A._raw_gens, auts, identity_images(A.degree), identity_images(T.order)
    )
    assert len(on_acting) == A.order
    for h in A.element_tuples:
        assert spec.automorphism_of(h) == on_acting[h]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("helper", [quaternion_matrices, dihedral8_matrices])
def test_action_spec_matches_tuple_oracle(helper, p):
    _assert_matches_tuple_oracle(elementary_semidirect(p, helper(p)).spec)


def test_trivial_and_blow_up_actions_match_tuple_oracle(baer_blow_up):
    _assert_matches_tuple_oracle(ActionSpec.trivial(cyclic(4), symmetric(3)))
    _assert_matches_tuple_oracle(ActionSpec.trivial(dihedral(8), quaternion8()))
    _assert_matches_tuple_oracle(baer_blow_up[1])


def test_action_spec_rejects_non_automorphism():
    N = cyclic(4)
    H = cyclic(2)
    # sending the generator to an order-2 element is not bijective
    sq = (N.generators[0] ** 2)
    with pytest.raises(PreconditionError):
        ActionSpec(H, N, [[sq]])


def test_action_spec_names_the_non_bijective_map():
    # a non-bijective map e never has e^k = 1, so the acting-side
    # certificate refuses it as well; the message tells which check ran
    N, H = cyclic(4), cyclic(2)
    with pytest.raises(PreconditionError) as ei:
        ActionSpec(H, N, [[N.generators[0] ** 2]])
    assert str(ei.value) == "generator images define a non-bijective map"


def test_action_spec_rejects_non_homomorphism():
    N = cyclic(5)
    H = cyclic(3)
    # inversion has order 2, which does not fit a C3 action
    inv_image = N.generators[0] ** 4
    with pytest.raises(PreconditionError):
        ActionSpec(H, N, [[inv_image]])


def test_action_spec_rejects_wrong_row_length():
    N = symmetric(3)
    H = cyclic(2)
    with pytest.raises(GroupError) as ei:
        ActionSpec(H, N, [[N.generators[0]]])
    assert type(ei.value) is GroupError
    assert str(ei.value) == "one image required per source generator"


def test_action_spec_rejects_images_that_do_not_extend():
    N = symmetric(3)
    H = cyclic(2)
    three_cycle = N.generators[1]  # the generators are (0 1) and (0 1 2)
    with pytest.raises(GroupError) as ei:
        ActionSpec(H, N, [[three_cycle, three_cycle]])
    assert type(ei.value) is GroupError
    assert str(ei.value) == "generator images do not extend to a homomorphism"


def test_central_product_baer_group():
    sl = sl_2_3()
    z = next(t for t in center(sl).elements if t.order() == 2)
    c4 = cyclic(4)
    cp = central_product(sl, c4, z, c4.generators[0] ** 2)
    G = cp.group
    assert G.order == 48
    # embedded images commute and meet in <z>
    meet = intersection(cp.embedded_left, cp.embedded_right)
    assert meet.order == 2
    for a in cp.embedded_left.generators:
        for b in cp.embedded_right.generators:
            assert a * b == b * a


def test_central_product_collapse():
    Q8 = quaternion8()
    z = next(t for t in center(Q8).elements if t.order() == 2)
    c2 = cyclic(2)
    cp = central_product(Q8, c2, z, c2.generators[0])
    assert cp.group.order == 8
    assert sum(1 for g in cp.group.elements if g.order() == 2) == 1  # still Q8


def test_central_product_q8_c4():
    Q8 = quaternion8()
    z = next(t for t in center(Q8).elements if t.order() == 2)
    c4 = cyclic(4)
    cp = central_product(Q8, c4, z, c4.generators[0] ** 2)
    assert cp.group.order == 16
    assert center(cp.group).order == 4


def test_central_product_rejects_bad_identification():
    Q8 = quaternion8()
    c4 = cyclic(4)
    i_elem = next(t for t in Q8.elements if t.order() == 4)
    with pytest.raises(PreconditionError):
        central_product(Q8, c4, i_elem, c4.generators[0] ** 2)  # not central
    z = next(t for t in center(Q8).elements if t.order() == 2)
    with pytest.raises(PreconditionError):
        central_product(Q8, c4, z, c4.generators[0])  # order mismatch


def test_wreath_orders():
    w = wreath_cyclic(cyclic(2), 3)
    assert w.group.order == 24
    w = wreath_cyclic(dihedral(8), 3)
    assert w.group.order == 1536 and w.base.order == 512
    w1 = wreath_cyclic(symmetric(3), 1)
    assert w1.group.order == 6 and w1.alpha.is_identity()


def test_wreath_rotation_convention():
    N = symmetric(3)
    w = wreath_cyclic(N, 3)
    a = w.alpha
    for c in range(3):
        for g in N.generators:
            lhs = a * w.embed(c, g) * a.inv()
            assert lhs == w.embed((c + 1) % 3, g)


def test_wreath_diagonal_is_product_of_embeddings():
    N = symmetric(3)
    w = wreath_cyclic(N, 3)
    for x in N.elements:
        product = w.embed(0, x)
        for c in range(1, 3):
            product = product * w.embed(c, x)
        assert w.diagonal(x) == product
        assert w.diagonal(x.images) == product


def test_wreath_size_gate():
    with pytest.raises(SizeLimitError) as ei:
        wreath_cyclic(symmetric(4), 3)
    assert ei.value.required_order == 24 ** 3 * 3


def _semidirect_call():
    N, H = cyclic(5), cyclic(4)
    return partial(semidirect_product, N, H, ActionSpec.trivial(H, N))


def _central_call():
    A, B = cyclic(4), cyclic(4)
    return partial(central_product, A, B, A.generators[0] ** 2, B.generators[0] ** 2)


# Each constructor's refusal over the element cap: (inputs built under
# the default cap, message, required order).
_OVER_CAP = {
    "cyclic": (lambda: partial(cyclic, 13), "cyclic(13) over element cap", 13),
    "symmetric": (lambda: partial(symmetric, 4), "symmetric(4) over element cap", 24),
    "alternating": (lambda: partial(alternating, 5), "alternating(5) over element cap", 60),
    "direct_product": (
        lambda: partial(direct_product, cyclic(3), cyclic(5)),
        "direct product of order 15 over element cap",
        15,
    ),
    "semidirect_product": (
        _semidirect_call, "semidirect product of order 20 over element cap", 20
    ),
    "central_product": (
        _central_call, "central product needs a direct product of order 16", 16
    ),
    "wreath_cyclic": (
        lambda: partial(wreath_cyclic, cyclic(2), 3), "wreath product would have order 24", 24
    ),
}


@pytest.mark.parametrize("name", list(_OVER_CAP))
def test_constructors_refuse_over_element_cap(monkeypatch, name):
    build, message, required = _OVER_CAP[name]
    call = build()
    monkeypatch.setenv("GASCHUETZ_ELEMENT_CAP", "12")
    with pytest.raises(SizeLimitError) as ei:
        call()
    assert str(ei.value) == message
    assert ei.value.required_order == required


def test_direct_power_is_the_wreath_base():
    A = symmetric(3)
    power = direct_power(A, 3)
    assert power.generators == wreath_cyclic(A, 3).base.generators
    assert power.degree == 9 and len(power.element_tuples) == 216


def test_astronomical_sizes_refused_before_computing():
    for call in (
        partial(symmetric, 10 ** 6),
        partial(alternating, 10 ** 6),
        partial(wreath_cyclic, cyclic(3), 10 ** 8),
    ):
        with pytest.raises(SizeLimitError) as ei:
            call()
        assert ei.value.required_order is None
    with pytest.raises(SizeLimitError, match="direct power of degree 100000"):
        direct_power(cyclic(1), 10 ** 5)


@pytest.mark.parametrize("helper", [quaternion_matrices, dihedral8_matrices])
@pytest.mark.parametrize("p", [1, 2, 4, 9])
def test_matrix_helpers_refuse_p_not_an_odd_prime(helper, p):
    # over F_2 both copies collapse, and Z/4, Z/9 are not fields
    with pytest.raises(PreconditionError, match="odd prime"):
        helper(p)


def test_matrix_group_d8_over_f5():
    D = matrix_group(dihedral8_matrices(5), 5)
    assert D.order == 8
    assert not is_abelian(D)


def test_product_order_invariants():
    A, B = symmetric(3), cyclic(4)
    assert direct_product(A, B).order == 24
    w = wreath_cyclic(cyclic(3), 2)
    assert w.group.order == 3 ** 2 * 2
