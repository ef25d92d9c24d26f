"""Characteristic subgroups, Sylow theory, quotients, and predicates.

Commutator convention: [x, y] = x y x^-1 y^-1.
"""

from __future__ import annotations

from math import lcm

from .errors import GroupError, NotNormalError, NotPrimeError
from .group import (
    FiniteGroup, conjugate_by, intersection, is_normal, normal_closure, normalizes, orbit,
)
from .perm import Permutation, images_of, inverse, mult, perm_order, power


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def exponent(G: FiniteGroup) -> int:
    return lcm(*(perm_order(t) for t in G.element_tuples))


def center(G: FiniteGroup) -> FiniteGroup:
    """Z(G), the centralizer of G in itself; cached on G."""
    return G.cached("center", lambda G: centralizer_of_subgroup(G, G))


def _commutator(x, y):
    return mult(mult(x, y), mult(inverse(x), inverse(y)))


def commutator_subgroup(G: FiniteGroup, A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """[A, B] inside G as the normal closure of generator commutators.

    Correct whenever [A, B] is normal in G (true for A, B normal in G,
    which is how this is used).
    """
    comms = [_commutator(a, b) for a in A._raw_gens for b in B._raw_gens]
    if not comms:
        return FiniteGroup.trivial(G.degree)
    return normal_closure(G, comms)


def derived_subgroup(G: FiniteGroup) -> FiniteGroup:
    """[G, G], the normal closure of the generator commutators; cached on G."""
    return G.cached("derived", lambda G: commutator_subgroup(G, G, G))


def center_meet_derived(G: FiniteGroup) -> FiniteGroup:
    """Z(G) meet G'; cached on G."""
    return G.cached("zn_meet", lambda G: intersection(center(G), derived_subgroup(G)))


def derived_series(G: FiniteGroup) -> list[FiniteGroup]:
    """G, G', G'', ... including the first repeated (stable) term."""
    series = [G]
    while True:
        nxt = derived_subgroup(series[-1])
        series.append(nxt)
        if nxt.order == series[-2].order:
            return series


def _p_part(t, p):
    """The p-element power of a raw tuple (identity if order is coprime to p)."""
    o = perm_order(t)
    m = o
    while m % p == 0:
        m //= p
    return power(t, m)


def sylow(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup; cached on G."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return G.cached(("sylow", p), lambda G: _grow_sylow(G, p))


def _grow_sylow(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup, grown from a p-element through normalizers.

    While P is not yet full, its normalizer contains a p-element outside
    P (standard Sylow theory), and adjoining it keeps a p-group.
    """
    n = G.order
    target = 1
    while n % p == 0:
        target *= p
        n //= p
    if target == 1:
        return FiniteGroup.trivial(G.degree)
    seed = None
    for t in G.element_tuples:
        if perm_order(t) % p == 0:
            seed = _p_part(t, p)
            break
    P = G.generated_subgroup([seed])
    while P.order < target:
        pset = P.element_set
        found = None
        for t in G.element_tuples:
            if not normalizes(t, P):
                continue
            u = _p_part(t, p)
            if u not in pset:
                found = u
                break
        if found is None:
            raise GroupError("sylow growth stalled (internal invariant violated)")
        P = G.generated_subgroup(list(P._raw_gens) + [found])
    return P


def centralizer_of_subgroup(G: FiniteGroup, A: FiniteGroup) -> FiniteGroup:
    agens = A._raw_gens
    return G.subgroup(
        {t for t in G.element_tuples if all(mult(t, a) == mult(a, t) for a in agens)}
    )


def conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    """Classes as sorted tuples of raw tuples, ordered by minimal member; cached."""
    return G.cached("classes", _conjugacy_classes)


def _conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    gens = [(g, inverse(g)) for g in G._raw_gens]
    seen = set()
    classes = []
    for t in G.element_tuples:
        if t in seen:
            continue
        cls = orbit(t, gens, conjugate_by)
        seen |= cls
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: c[0])
    return classes


def element_fingerprints(G: FiniteGroup) -> dict:
    """{t: (order of t, |C_G(t)|)} for every element; cached on G."""
    return G.cached("element_fingerprints", _element_fingerprints)


def _element_fingerprints(G: FiniteGroup) -> dict:
    fp = {}
    for cls in conjugacy_classes(G):
        value = (perm_order(cls[0]), G.order // len(cls))
        for t in cls:
            fp[t] = value
    return fp


def is_solvable(G: FiniteGroup) -> bool:
    """The derived series reaches the trivial group."""
    return derived_series(G)[-1].order == 1


def cosets(G: FiniteGroup, N: FiniteGroup):
    """The cosets t N of N in G, each a sorted tuple, lazily.

    G's elements are walked in canonical order and each coset is yielded
    when its least member is met, so the first coset is N itself.
    """
    nelems = N.element_tuples
    seen = set()
    for t in G.element_tuples:
        if t not in seen:
            coset = tuple(sorted(mult(t, n) for n in nelems))
            seen.update(coset)
            yield coset


class QuotientProjection:
    """Projection G -> G/N, with G/N acting on the cosets of N.

    Image permutations are computed per element on demand, never as a
    full source-to-image table (the image degree is |G : N|, so a full
    table would be quadratic in |G|).  Cosets are numbered in the order
    of their least members, as ``cosets`` yields them; coset 0 is N.
    """

    def __init__(self, source: FiniteGroup, cosets: list):
        self.source = source
        self.cosets = cosets
        self._index_of = {x: i for i, coset in enumerate(cosets) for x in coset}
        self._perm_cache = {}

    def _image_raw(self, raw):
        got = self._perm_cache.get(raw)
        if got is None:
            # left translation xN -> (g x)N, matching the group product
            index_of = self._index_of
            got = tuple(index_of[mult(raw, coset[0])] for coset in self.cosets)
            if len(self._perm_cache) < 4096:
                self._perm_cache[raw] = got
        return got

    def __call__(self, g):
        return Permutation._wrap(self._image_raw(images_of(g)))

    def kernel(self) -> FiniteGroup:
        return self.source.subgroup(self.cosets[0])

    def fiber(self, q) -> tuple:
        """All preimages of a quotient element: the image of coset 0."""
        return self.cosets[images_of(q)[0]]


def quotient(G: FiniteGroup, N: FiniteGroup):
    """G/N acting on the |G : N| cosets of N, plus the projection.

    Cosets are indexed by their least member in canonical order, so the
    construction is deterministic.  The projection's kernel is exactly N.
    """
    if not is_normal(N, G):
        raise NotNormalError("quotient by a non-normal subgroup")
    proj = QuotientProjection(G, list(cosets(G, N)))
    m = len(proj.cosets)
    if m == 1:
        return FiniteGroup.trivial(1), proj
    qgens = [proj._image_raw(g) for g in G._raw_gens]
    return FiniteGroup(m, qgens, order=m), proj


# -- predicates -----------------------------------------------------------


def is_abelian(G: FiniteGroup) -> bool:
    gens = G._raw_gens
    return all(
        mult(a, b) == mult(b, a) for i, a in enumerate(gens) for b in gens[i + 1:]
    )


def is_metabelian(G: FiniteGroup) -> bool:
    return derived_subgroup(derived_subgroup(G)).is_trivial()


def is_perfect(G: FiniteGroup) -> bool:
    return derived_subgroup(G).order == G.order


def all_sylow_abelian(G: FiniteGroup) -> bool:
    return all(is_abelian(sylow(G, p)) for p in prime_factors(G.order))
