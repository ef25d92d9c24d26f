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
from functools import partial
from math import factorial

from . import config
from .errors import GroupError, PreconditionError, SizeLimitError
from .group import FiniteGroup, element_perm, extend_images
from .perm import Permutation, identity_images, inverse, mult, power
from .structure import center, quotient


# -- raw helpers ------------------------------------------------------------


def pad_perm(raw, offset, total):
    """Place a raw permutation at the given offset inside a larger identity."""
    out = list(range(total))
    for i, x in enumerate(raw):
        out[offset + i] = offset + x
    return tuple(out)


def pair_perm(a_raw, b_raw):
    """Direct-sum permutation acting as a on the first block, b on the second."""
    da = len(a_raw)
    return tuple(a_raw) + tuple(x + da for x in b_raw)


def _refuse_over_cap(order: int, message: str) -> None:
    """Raise SizeLimitError(message) when order exceeds the element cap."""
    if order > config.element_cap():
        raise SizeLimitError(message, required_order=order)


# -- named groups -----------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    if n == 1:
        return FiniteGroup.trivial(1)
    _refuse_over_cap(n, f"cyclic({n}) over element cap")
    rot = tuple((i + 1) % n for i in range(n))
    return FiniteGroup.from_raw(n, [rot], order=n)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order n (n even, n >= 4)."""
    if n < 4 or n % 2:
        raise GroupError("dihedral order must be an even integer >= 4")
    if n == 4:
        return FiniteGroup.from_raw(4, [(1, 0, 2, 3), (0, 1, 3, 2)], order=4)
    k = n // 2
    rot = tuple((i + 1) % k for i in range(k))
    refl = tuple((k - i) % k for i in range(k))
    return FiniteGroup.from_raw(k, [rot, refl], order=n)


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

    return FiniteGroup.from_raw(8, [left_mult("i"), left_mult("j")], order=8)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric degree must be positive")
    if n == 1:
        return FiniteGroup.trivial(1)
    order = factorial(n)
    _refuse_over_cap(order, f"symmetric({n}) over element cap")
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return FiniteGroup(n, gens, _order=order)


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        return FiniteGroup.trivial(max(n, 1))
    order = factorial(n) // 2
    _refuse_over_cap(order, f"alternating({n}) over element cap")
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cyc]))
    return FiniteGroup(n, gens, _order=order)


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


def quaternion_matrices(p):
    """Generators i, j of a Q8 copy inside SL(2, p), p an odd prime."""
    for a in range(p):
        for b in range(p):
            if (a * a + b * b) % p == (p - 1):
                return [((0, p - 1), (1, 0)), ((a, b), (b, (p - a) % p))]
    raise GroupError(f"no quaternion embedding over F_{p}")


def dihedral8_matrices(p):
    """Generators of a D8 copy inside GL(2, p): rotation and reflection."""
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
    total = A.degree + B.degree
    gens = [pad_perm(g, 0, total) for g in A._raw_gens]
    gens += [pad_perm(g, A.degree, total) for g in B._raw_gens]
    known = None
    if A._order is not None and B._order is not None:
        known = A._order * B._order
        _refuse_over_cap(known, f"direct product of order {known} over element cap")
    return FiniteGroup.from_raw(total, gens, order=known)


def direct_power(A: FiniteGroup, k: int) -> FiniteGroup:
    out = A
    for _ in range(k - 1):
        out = direct_product(out, A)
    return out


# -- actions and semidirect products -----------------------------------------


@dataclass
class ActionSpec:
    """A homomorphism acting -> Aut(target), one automorphism per generator.

    Each automorphism is given by its images of the target's generators
    and kept as the permutation it induces on the target's element
    indices; both the automorphism property and the homomorphism
    property are certified at construction.
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
                raw = e.images if isinstance(e, Permutation) else tuple(e)
                if raw not in target.element_set:
                    raise PreconditionError("automorphism image outside target")
                row.append(Permutation._wrap(raw))
            norm.append(tuple(row))
        self.images = tuple(norm)
        if len(self.images) != len(acting.generators):
            raise PreconditionError("one automorphism required per acting generator")
        self._aut_maps = [self._as_automorphism(row) for row in self.images]
        self._table = extend_images(
            acting._raw_gens,
            self._aut_maps,
            identity_images(acting.degree),
            identity_images(target.order),
            acting.order,
        )
        if self._table is None:
            raise PreconditionError(
                "automorphism assignment does not extend to the acting group"
            )

    def _as_automorphism(self, row):
        """Turn generator images into the element index permutation; verify bijectivity."""
        t = self.target
        if len(row) != len(t.generators):
            raise GroupError("one image required per source generator")
        ident = identity_images(t.degree)
        table = extend_images(t._raw_gens, [p.images for p in row], ident, ident, t.order)
        if table is None:
            raise GroupError("generator images do not extend to a homomorphism")
        if len(set(table.values())) != len(table):
            raise PreconditionError("generator images define a non-bijective map")
        return element_perm(t, table.__getitem__)

    def automorphism_of(self, h):
        """Index permutation of the automorphism attached to an arbitrary element."""
        raw = h.images if isinstance(h, Permutation) else tuple(h)
        return self._table[raw]

    @classmethod
    def trivial(cls, acting, target):
        tgens = [Permutation._wrap(g) for g in target._raw_gens]
        return cls(acting, target, [tgens for _ in acting.generators])


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
        self._total = N.order + H.degree
        n_gens = [self._n_point_perm(g) for g in N._raw_gens]
        h_gens = [
            self._h_point_perm(g, aut)
            for g, aut in zip(H._raw_gens, action._aut_maps)
        ]
        self.group = FiniteGroup.from_raw(self._total, n_gens + h_gens, order=order)
        self.n_image = FiniteGroup.from_raw(self._total, n_gens, order=N.order)
        self.h_image = FiniteGroup.from_raw(self._total, h_gens, order=H.order)

    def _n_point_perm(self, raw):
        rinv = inverse(raw)
        n_part = element_perm(self._N, lambda t: mult(t, rinv))
        return n_part + tuple(range(self._N.order, self._total))

    def _h_point_perm(self, raw, aut):
        n = self._N.order
        return aut + tuple(n + x for x in raw)

    def embed_n(self, x) -> Permutation:
        raw = x.images if isinstance(x, Permutation) else tuple(x)
        return Permutation._wrap(self._n_point_perm(raw))

    def embed_h(self, h) -> Permutation:
        raw = h.images if isinstance(h, Permutation) else tuple(h)
        return Permutation._wrap(self._h_point_perm(raw, self.spec.automorphism_of(raw)))


def semidirect_product(N: FiniteGroup, H: FiniteGroup, action: ActionSpec) -> SemidirectProduct:
    return SemidirectProduct(N, H, action)


# -- central products ---------------------------------------------------------


@dataclass(frozen=True)
class CentralIdentification:
    """Central elements of equal order, one per factor, to be identified."""

    left: Permutation
    right: Permutation
    order: int

    @classmethod
    def check(cls, A, B, z, zbar):
        z = z if isinstance(z, Permutation) else Permutation(z)
        zbar = zbar if isinstance(zbar, Permutation) else Permutation(zbar)
        if z.images not in center(A).element_set:
            raise PreconditionError("left element is not central")
        if zbar.images not in center(B).element_set:
            raise PreconditionError("right element is not central")
        if z.order() != zbar.order():
            raise PreconditionError("identified elements must have equal order")
        return cls(z, zbar, z.order())


class CentralProduct:
    """(A x B) / <(z, zbar)>, realized by the coset action.

    The quotient identifies the image of z with the image of zbar^-1;
    the embedded images of A and B commute elementwise and intersect in
    <image of z>.  The ambient direct product and the projection stay
    accessible so computations can run at the small ambient degree.
    """

    def __init__(self, A: FiniteGroup, B: FiniteGroup, z, zbar):
        self.ident = CentralIdentification.check(A, B, z, zbar)
        order = A.order * B.order
        _refuse_over_cap(order, f"central product needs a direct product of order {order}")
        self._da, self._db = A.degree, B.degree
        self.product = direct_product(A, B)
        diag = pair_perm(self.ident.left.images, self.ident.right.images)
        self.identified = self.product.generated_subgroup([diag])
        self.group, self.projection = quotient(self.product, self.identified)
        left_gens = [self.embed_left(g) for g in A._raw_gens]
        right_gens = [self.embed_right(g) for g in B._raw_gens]
        self.embedded_left = FiniteGroup(self.group.degree, left_gens, _order=A.order)
        self.embedded_right = FiniteGroup(self.group.degree, right_gens, _order=B.order)

    def embed_left(self, x) -> Permutation:
        raw = x.images if isinstance(x, Permutation) else tuple(x)
        return self.projection(pair_perm(raw, identity_images(self._db)))

    def embed_right(self, y) -> Permutation:
        raw = y.images if isinstance(y, Permutation) else tuple(y)
        return self.projection(pair_perm(identity_images(self._da), raw))


def central_product(A: FiniteGroup, B: FiniteGroup, z, zbar) -> CentralProduct:
    return CentralProduct(A, B, z, zbar)


# -- wreath products -----------------------------------------------------------


@dataclass
class WreathProduct:
    group: FiniteGroup             # W = D x| <alpha>
    base: FiniteGroup              # D = N^q
    alpha: Permutation             # coordinate rotation of order q
    copies: int
    inner_degree: int

    def embed(self, c: int, x) -> Permutation:
        """The element of the base carrying x in coordinate c."""
        raw = x.images if isinstance(x, Permutation) else tuple(x)
        return Permutation._wrap(
            pad_perm(raw, c * self.inner_degree, self.group.degree)
        )

    def diagonal(self, x) -> Permutation:
        """(x, x, ..., x) in the base."""
        raw = x.images if isinstance(x, Permutation) else tuple(x)
        out = []
        for c in range(self.copies):
            out.extend(c * self.inner_degree + i for i in raw)
        return Permutation._wrap(tuple(out))


def wreath_cyclic(N: FiniteGroup, q: int) -> WreathProduct:
    """N wr C_q on q disjoint copies of N's points plus the rotation.

    Conjugation by the rotation shifts base coordinates forward by one,
    i.e. it maps (x_1, ..., x_q) to (x_q, x_1, ..., x_{q-1}).
    """
    if q < 1:
        raise PreconditionError("wreath power must be >= 1")
    order = N.order ** q * q
    _refuse_over_cap(order, f"wreath product would have order {order}")
    d = N.degree
    total = d * q
    base_gens = []
    for c in range(q):
        for g in N._raw_gens:
            base_gens.append(pad_perm(g, c * d, total))
    if q == 1:
        alpha = identity_images(total)
    else:
        alpha = tuple(((c + 1) % q) * d + i for c in range(q) for i in range(d))
    W = FiniteGroup.from_raw(total, base_gens + [alpha], order=order)
    D = FiniteGroup.from_raw(total, base_gens, order=N.order ** q)
    return WreathProduct(
        group=W,
        base=D,
        alpha=Permutation._wrap(alpha),
        copies=q,
        inner_degree=d,
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


# -- regular representation ------------------------------------------------------


def regular_representation(G: FiniteGroup) -> FiniteGroup:
    """Left-regular action on the element set; degree |G|."""
    n = G.order
    _refuse_over_cap(n, f"regular representation of order {n}")
    gens = [element_perm(G, partial(mult, g)) for g in G._raw_gens]
    if not gens:
        return FiniteGroup.trivial(1)
    return FiniteGroup.from_raw(n, gens, order=n)
