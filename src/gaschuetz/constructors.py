"""Constructors for named groups and group products.

Realization choices:
  * direct products act on the disjoint union of the factors' points;
  * semidirect products act on (elements of N) + (points of H), with H
    acting on the first part through the prescribed automorphisms;
  * central products are coset actions of the direct product modulo the
    identified central cyclic subgroup;
  * wreath products N wr C_q act on q disjoint copies of N's points
    extended by the coordinate rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from . import config
from .errors import GroupError, PreconditionError, SizeLimitError, order_text
from .group import FiniteGroup, ProductTable, element_order, extend_images
from .perm import (
    Permutation, direct_sum, identity_images, images_of, inverse, mult, power,
)
from .structure import center, is_prime, quotient


def _refuse_over_cap(order, message: str) -> None:
    """Raise SizeLimitError(message) when order exceeds the element cap.

    order None stands for an order already known to exceed the cap and
    too large to compute; the error then carries no required_order.
    """
    if order is None or order > config.element_cap():
        raise SizeLimitError(message, required_order=order)


# -- named groups -----------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    if n == 1:
        return FiniteGroup.trivial(1)
    _refuse_over_cap(n, f"cyclic({n}) over element cap")
    rot = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [rot], order=n)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order n (n even, n >= 4)."""
    if n < 4 or n % 2:
        raise GroupError("dihedral order must be an even integer >= 4")
    if n == 4:
        return FiniteGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], order=4)
    k = n // 2
    rot = tuple((i + 1) % k for i in range(k))
    refl = tuple((k - i) % k for i in range(k))
    return FiniteGroup(k, [rot, refl], order=n)


_Q8_TABLE = "1 -1 i -i j -j k -k".split()


def quaternion8() -> FiniteGroup:
    """Q8 in its regular representation on the 8 quaternion units."""

    def q_mul(a, b):
        sa, ua = (a[0] == "-", a.lstrip("-"))
        sb, ub = (b[0] == "-", b.lstrip("-"))
        table = {
            ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
            ("j", "1"): "j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
            ("k", "1"): "k", ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1",
        }
        prod = table[(ua, ub)] if ua != "1" or ub != "1" else "1"
        sp, up = (prod[0] == "-", prod.lstrip("-"))
        neg = sa ^ sb ^ sp
        return ("-" if neg else "") + up

    idx = {u: i for i, u in enumerate(_Q8_TABLE)}

    def left_mult(g):
        return tuple(idx[q_mul(g, x)] for x in _Q8_TABLE)

    return FiniteGroup(8, [left_mult("i"), left_mult("j")], order=8)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric degree must be positive")
    if n == 1:
        return FiniteGroup.trivial(1)
    order = factorial(n) if n <= config.element_cap() else None  # n! >= n
    _refuse_over_cap(order, f"symmetric({n}) over element cap")
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return FiniteGroup(n, gens, order=order)


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        return FiniteGroup.trivial(max(n, 1))
    order = factorial(n) // 2 if n <= config.element_cap() else None  # n!/2 >= n
    _refuse_over_cap(order, f"alternating({n}) over element cap")
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cyc]))
    return FiniteGroup(n, gens, order=order)


# -- matrix groups over small prime fields ----------------------------------


def _vec_points(p):
    return [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]


def matrix_perm(mat, p) -> Permutation:
    """Action of a 2x2 matrix over F_p on the nonzero column vectors."""
    pts = _vec_points(p)
    idx = {v: i for i, v in enumerate(pts)}
    (a, b), (c, d) = mat
    if (a * d - b * c) % p == 0:
        raise GroupError("singular matrix")
    images = []
    for (x, y) in pts:
        images.append(idx[((a * x + b * y) % p, (c * x + d * y) % p)])
    return Permutation(images)


def matrix_group(mats, p) -> FiniteGroup:
    return FiniteGroup(p * p - 1, [matrix_perm(m, p) for m in mats])


def _require_odd_prime(p):
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"p = {p} must be an odd prime")


def quaternion_matrices(p):
    """Generators i, j of a Q8 copy inside SL(2, p), p an odd prime."""
    _require_odd_prime(p)
    for a in range(p):
        for b in range(p):
            if (a * a + b * b) % p == (p - 1):
                return [((0, p - 1), (1, 0)), ((a, b), (b, (p - a) % p))]
    raise GroupError(f"no quaternion embedding over F_{p}")


def dihedral8_matrices(p):
    """Rotation and reflection generating a D8 copy in GL(2, p), p an odd prime."""
    _require_odd_prime(p)
    return [((0, p - 1), (1, 0)), ((1, 0), (0, p - 1))]


def _mat_mul(m1, m2, p):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return (
        ((a * e + b * g) % p, (a * f + b * h) % p),
        ((c * e + d * g) % p, (c * f + d * h) % p),
    )


def binary_tetrahedral_matrices(p):
    """Generators i, j, w of an SL(2, 3) copy inside SL(2, p), p odd.

    w = (1 + i + j + ij) / 2 rotates i -> j -> ij by conjugation, the
    same relations over every field, so generator-matched copies over
    different primes are isomorphic.
    """
    mi, mj = quaternion_matrices(p)
    mk = _mat_mul(mi, mj, p)
    half = pow(2, -1, p)
    w = tuple(
        tuple(
            (half * ((r == c) + mi[r][c] + mj[r][c] + mk[r][c])) % p
            for c in range(2)
        )
        for r in range(2)
    )
    return [mi, mj, w]


def sl_2_3() -> FiniteGroup:
    """SL(2, 3) on the 8 nonzero vectors of the plane over F_3."""
    return matrix_group(binary_tetrahedral_matrices(3), 3)


# -- direct products ---------------------------------------------------------


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    ida, idb = identity_images(A.degree), identity_images(B.degree)
    gens = [direct_sum((g, idb)) for g in A._raw_gens]
    gens += [direct_sum((ida, g)) for g in B._raw_gens]
    known = None
    if A._order is not None and B._order is not None:
        known = A._order * B._order
        text = order_text(known, f"{A._order}*{B._order}")
        _refuse_over_cap(known, f"direct product of order {text} over element cap")
    return FiniteGroup(A.degree + B.degree, gens, order=known)


def _in_coordinate(raw, c: int, q: int):
    """(1, ..., raw, ..., 1) in N^q, raw in coordinate c."""
    ident = identity_images(len(raw))
    return direct_sum(raw if i == c else ident for i in range(q))


def direct_power(A: FiniteGroup, k: int) -> FiniteGroup:
    """A^k on k disjoint copies of A's points, coordinate c on copy c.

    The refusal names the first partial power over the cap, which a
    nontrivial A reaches within cap.bit_length() factors; a trivial A
    is refused once its k copies of points exceed the cap.
    """
    if k < 1:
        raise PreconditionError(f"direct power exponent must be >= 1, got {k}")
    order = A.order
    if order > 1:
        for j in range(2, k + 1):
            order *= A.order
            text = order_text(order, f"{A.order}^{j}")
            _refuse_over_cap(order, f"direct product of order {text} over element cap")
    degree = A.degree * k
    if degree > config.element_cap():
        raise SizeLimitError(f"direct power of degree {degree} over element cap")
    gens = [_in_coordinate(g, c, k) for c in range(k) for g in A._raw_gens]
    return FiniteGroup(degree, gens, order=order)


# -- actions and semidirect products -----------------------------------------


@dataclass
class ActionSpec:
    """A homomorphism acting -> Aut(target), one automorphism per generator.

    Each automorphism is given by its images of the target's generators,
    extended over the target's product table by ``ProductTable.extend``
    as in the automorphism search, refused unless bijective, and kept as
    the permutation it induces on the target's element indices; the
    homomorphism acting -> Aut(target) is certified at construction too.
    """

    acting: FiniteGroup
    target: FiniteGroup
    images: tuple  # per acting generator: tuple of target elements

    def __init__(self, acting, target, images):
        self.acting = acting
        self.target = target
        norm = []
        for img_list in images:
            row = []
            for e in img_list:
                raw = images_of(e)
                if raw not in target.element_set:
                    raise PreconditionError("automorphism image outside target")
                row.append(Permutation._wrap(raw))
            norm.append(tuple(row))
        self.images = tuple(norm)
        if len(self.images) != len(acting.generators):
            raise PreconditionError("one automorphism required per acting generator")
        self._aut_maps = [self._as_automorphism(row) for row in self.images]
        table = ProductTable.of(acting)
        steps = [
            (table.col(acting.element_index[g]).__getitem__, lambda y, aut=aut: mult(y, aut))
            for g, aut in zip(acting._raw_gens, self._aut_maps)
        ]
        self._table = extend_images(steps, 0, identity_images(target.order), acting.order)
        if self._table is None:
            raise PreconditionError(
                "automorphism assignment does not extend to the acting group"
            )

    def _as_automorphism(self, row):
        """Turn generator images into the element index permutation; verify bijectivity."""
        if len(row) != len(self.target.generators):
            raise GroupError("one image required per source generator")
        table, idx = ProductTable.of(self.target), self.target.element_index
        gens = [idx[g] for g in self.target._raw_gens]
        aut = table.extend(gens, table, [idx[e.images] for e in row])
        if aut is None:
            raise GroupError("generator images do not extend to a homomorphism")
        if len(set(aut)) != len(aut):
            raise PreconditionError("generator images define a non-bijective map")
        return aut

    def automorphism_of(self, h):
        """Index permutation of the automorphism attached to an arbitrary element."""
        return self._table[self.acting.element_index[images_of(h)]]

    @classmethod
    def trivial(cls, acting, target):
        return cls(acting, target, [target.generators for _ in acting.generators])


class SemidirectProduct:
    """N x| H on (elements of N) + (points of H).

    The embedded copy of N is normal, and conjugation by embedded
    H-elements realizes exactly the prescribed automorphisms.
    """

    def __init__(self, N: FiniteGroup, H: FiniteGroup, action: ActionSpec):
        if action.target is not N or action.acting is not H:
            raise PreconditionError("action does not match the given factors")
        order = N.order * H.order
        _refuse_over_cap(order, f"semidirect product of order {order} over element cap")
        self.spec = action
        self._N = N
        self._h_identity = identity_images(H.degree)
        n_gens = [self._n_point_perm(g) for g in N._raw_gens]
        h_gens = [direct_sum((aut, g)) for g, aut in zip(H._raw_gens, action._aut_maps)]
        degree = N.order + H.degree
        self.group = FiniteGroup(degree, n_gens + h_gens, order=order)
        self.n_image = FiniteGroup(degree, n_gens, order=N.order)
        self.h_image = FiniteGroup(degree, h_gens, order=H.order)

    def _n_point_perm(self, raw):
        table = ProductTable.of(self._N)
        return direct_sum((table.col(self._N.element_index[inverse(raw)]), self._h_identity))

    def embed_n(self, x) -> Permutation:
        return Permutation._wrap(self._n_point_perm(images_of(x)))

    def embed_h(self, h) -> Permutation:
        raw = images_of(h)
        return Permutation._wrap(direct_sum((self.spec.automorphism_of(raw), raw)))


def semidirect_product(N: FiniteGroup, H: FiniteGroup, action: ActionSpec) -> SemidirectProduct:
    return SemidirectProduct(N, H, action)


# -- central products ---------------------------------------------------------


class CentralProduct:
    """(A x B) / <(z, zbar)>, realized by the coset action.

    z and zbar must be central in A and B and of equal order.  The
    quotient identifies the image of z with the image of zbar^-1; the
    embedded images of A and B commute elementwise and intersect in
    <image of z>.  The ambient direct product, the pairings into it and
    the projection stay accessible so computations can run at the small
    ambient degree.
    """

    def __init__(self, A: FiniteGroup, B: FiniteGroup, z, zbar):
        z, zbar = images_of(z), images_of(zbar)
        if z not in center(A).element_set:
            raise PreconditionError("left element is not central")
        if zbar not in center(B).element_set:
            raise PreconditionError("right element is not central")
        if element_order(A)(z) != element_order(B)(zbar):
            raise PreconditionError("identified elements must have equal order")
        order = A.order * B.order
        _refuse_over_cap(order, f"central product needs a direct product of order {order}")
        self._ida, self._idb = identity_images(A.degree), identity_images(B.degree)
        self.product = direct_product(A, B)
        self.identified = self.product.generated_subgroup([direct_sum((z, zbar))])
        self.group, self.projection = quotient(self.product, self.identified)
        left_gens = [self.embed_left(g) for g in A._raw_gens]
        right_gens = [self.embed_right(g) for g in B._raw_gens]
        self.embedded_left = FiniteGroup(self.group.degree, left_gens, order=A.order)
        self.embedded_right = FiniteGroup(self.group.degree, right_gens, order=B.order)

    def pair_left(self, raw):
        """(x, 1) in A x B, before projection."""
        return direct_sum((raw, self._idb))

    def pair_right(self, raw):
        """(1, y) in A x B, before projection."""
        return direct_sum((self._ida, raw))

    def embed_left(self, x) -> Permutation:
        return self.projection(self.pair_left(images_of(x)))

    def embed_right(self, y) -> Permutation:
        return self.projection(self.pair_right(images_of(y)))


def central_product(A: FiniteGroup, B: FiniteGroup, z, zbar) -> CentralProduct:
    return CentralProduct(A, B, z, zbar)


# -- wreath products -----------------------------------------------------------


@dataclass
class WreathProduct:
    group: FiniteGroup             # W = D x| <alpha>
    base: FiniteGroup              # D = N^q
    alpha: Permutation             # coordinate rotation of order q
    copies: int

    def embed(self, c: int, x) -> Permutation:
        """The element of the base carrying x in coordinate c."""
        return Permutation._wrap(_in_coordinate(images_of(x), c, self.copies))

    def diagonal(self, x) -> Permutation:
        """(x, x, ..., x) in the base."""
        return Permutation._wrap(direct_sum((images_of(x),) * self.copies))


def wreath_cyclic(N: FiniteGroup, q: int) -> WreathProduct:
    """N wr C_q on q disjoint copies of N's points plus the rotation.

    Conjugation by the rotation shifts base coordinates forward by one,
    i.e. it maps (x_1, ..., x_q) to (x_q, x_1, ..., x_{q-1}).
    """
    if q < 1:
        raise PreconditionError("wreath power must be >= 1")
    cap = config.element_cap()
    # |N|^q q is at least q, and at least 2^q unless N is trivial: an
    # order that large is refused before it is computed or printed
    small = q <= cap and (N.order == 1 or q < cap.bit_length())
    order = N.order ** q * q if small else None
    text = order_text(order, f"{N.order}^{q}*{q}")
    _refuse_over_cap(order, f"wreath product would have order {text}")
    D = direct_power(N, q)
    d = N.degree
    gens = D._raw_gens
    if q == 1:
        alpha = identity_images(D.degree)  # no generator: each q = 1 level would add one
    else:
        alpha = tuple(((c + 1) % q) * d + i for c in range(q) for i in range(d))
        gens += (alpha,)
    W = FiniteGroup(D.degree, gens, order=order)
    return WreathProduct(
        group=W,
        base=D,
        alpha=Permutation._wrap(alpha),
        copies=q,
    )


def elementary_semidirect(p: int, mats) -> SemidirectProduct:
    """(C_p x C_p) x| <mats>, the matrices acting as written on column vectors.

    The acting group is realized on the p^2 - 1 nonzero vectors; the
    target generators are the two coordinate translations.
    """
    target = direct_product(cyclic(p), cyclic(p))
    acting = matrix_group(mats, p)
    e1, e2 = target._raw_gens

    def vec_elem(a, b):
        return Permutation._wrap(mult(power(e1, a % p), power(e2, b % p)))

    images = []
    for M in mats:
        (ma, mb), (mc, md) = M
        images.append([vec_elem(ma, mc), vec_elem(mb, md)])
    spec = ActionSpec(acting, target, images)
    return SemidirectProduct(target, acting, spec)
