"""Characteristic subgroups, Sylow theory, quotients, and predicates.

Commutator convention: [x, y] = x y x^-1 y^-1.
"""

from __future__ import annotations

from .errors import GroupError, NotNormalError, NotPrimeError, PreconditionError
from .group import (
    FiniteGroup, ProductTable, element_order, intersection, is_normal, normal_closure, orbits,
    products,
)
from .perm import Permutation, images_of, inverse, mult


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite number that passes the strong test to all 13 bases
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 primes as bases.

    Exact below ``_MR_BOUND`` (about 3.3e24).  A larger p with one of the
    bases as a factor is composite; any other is refused with
    PreconditionError, since the test would no longer be a proof.
    """
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p >= _MR_BOUND:
        raise PreconditionError(
            f"primality is decided below {_MR_BOUND} only, "
            f"not for a {p.bit_length()}-bit number"
        )
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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


def sylow(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup; cached on G."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return G.cached(("sylow", p), lambda G: _grow_sylow(G, p))


def _grow_sylow(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup: the p-group grown greedily in one pass over G.

    G's element indices are walked once, in canonical order, and P is
    made once, at the end.  Each p-element t outside P is adjoined when
    <P, t>, one closure bounded by |G|_p, is still a p-group.  Every
    p-subgroup lies in a Sylow subgroup (Sylow's theorem), so a maximal
    p-subgroup is Sylow, and the pass ends at one:
    a p-element x refused against an earlier P0 inside the final P lies
    in no p-group together with P, since <P0, x> lies in <P, x>.
    """
    n = G.order
    target = 1
    while n % p == 0:
        target *= p
        n //= p
    table = ProductTable.of(G)
    members, gens = {0}, []
    for t in range(G.order):  # index order is canonical order
        if len(members) == target:
            break
        if t in members or target % table.order(t):
            continue
        grown = table.close(gens + [t], seed=members, abort_over=target)
        if grown is not None and target % len(grown) == 0:
            members, gens = grown, gens + [t]
    if len(members) != target:
        raise GroupError("sylow pass ended below |G|_p (internal invariant violated)")
    return G.subgroup_on(members, gens)


def centralizer_of_subgroup(G: FiniteGroup, A: FiniteGroup) -> FiniteGroup:
    table = ProductTable.of(G)
    times = table.times
    agens = [table.index(a) for a in A._raw_gens]
    return G.subgroup_on(
        [t for t in range(G.order) if all(times(t, a) == times(a, t) for a in agens)]
    )


def conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    """Classes as sorted tuples of raw tuples, ordered by minimal member; cached."""
    return G.cached("classes", _conjugacy_classes)


def _conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    # index order, which is canonical order, meets each class first at its least member
    table = ProductTable.of(G)
    conj = table.conjugations(map(table.index, G._raw_gens))
    elements = table.elements
    return [tuple(map(elements.__getitem__, sorted(cls)))
            for _, cls in orbits(range(G.order), conj)]


def element_fingerprints(G: FiniteGroup) -> dict:
    """{t: (order of t, |C_G(t)|)} for every element; cached on G."""
    return G.cached("element_fingerprints", _element_fingerprints)


def _element_fingerprints(G: FiniteGroup) -> dict:
    fp = {}
    classes = conjugacy_classes(G)
    order = element_order(G)
    for cls in classes:
        value = (order(cls[0]), G.order // len(cls))
        for t in cls:
            fp[t] = value
    return fp


def is_solvable(G: FiniteGroup) -> bool:
    """The derived series reaches the trivial group."""
    return derived_series(G)[-1].order == 1


def cosets(G: FiniteGroup, N: FiniteGroup):
    """The cosets t N of N in G, each a sorted tuple, lazily.

    The tuples of the index walk (``_coset_indices``): each coset is
    yielded when its least member is met in canonical order, so the first
    coset is N itself.
    """
    elements = G.element_tuples
    walk = _coset_indices(_coset_members(G, N), G.order // N.order, [None] * G.order)
    for coset in walk:
        yield tuple(map(elements.__getitem__, coset))


def _coset_indices(members, count: int, coset_of: list):
    """The ``count`` cosets t N of N in G as ascending lists of element
    indices, lazily, with ``members = _coset_members(G, N)``.

    The one coset walk, which ``cosets`` and ``QuotientProjection`` read.
    ``coset_of`` is a list over G's element indices, all None; each coset's
    number is written into it as the coset is found.  The least index not
    yet numbered is the next coset's least member, so cosets are numbered
    in the order of their least members, coset 0 being N; index order is
    canonical order.
    """
    i = 0
    for number in range(count):
        i = coset_of.index(None, i)
        coset = members(i)
        for j in coset:
            coset_of[j] = number
        yield coset


def _coset_members(G: FiniteGroup, N: FiniteGroup):
    """i -> the element indices of t N, ascending, for t the i-th element of G.

    One gather over N's elements (``group.products``) gives the indices
    of all |N| members t n at once.
    """
    elements = G.element_tuples
    times_n = products(G, N.element_tuples)
    return lambda i: sorted(times_n(elements[i]))


class QuotientProjection:
    """Projection G -> G/N, with G/N acting on the cosets of N; N must be
    normal in G.

    Image permutations are computed per element on demand, never as a
    full source-to-image table (the image degree is |G : N|, so a full
    table would be quadratic in |G|).  One coset walk (``_coset_indices``)
    numbers the cosets in the order of their least members, as ``cosets``
    yields them; coset 0 is N.  The projection keeps only that numbering,
    a list element index -> coset number, and the index of each coset's
    least member as its representative; ``fiber`` (of a coset number) and
    ``kernel`` recompute a coset from its representative, by the walk's
    gather over N (``_coset_members``), when asked.  ``numbers`` reads the
    numbering, and ``table``, built once when first read, is G/N's
    ``ProductTable`` on coset numbers (``ProductTable.modulo``): products
    in G/N without G/N's permutations.

    g's image sends coset r N to (g r) N: one gather over the
    representatives r (``group.products``) gives the element indices of
    every g r at once, and the numbering turns them into coset numbers.
    """

    def __init__(self, source: FiniteGroup, N: FiniteGroup):
        if not is_normal(N, source):
            raise NotNormalError("quotient by a non-normal subgroup")
        self.source = source
        self._perm_cache = {}
        self._table = None
        self._coset_of = [None] * source.order  # element index -> coset number
        self._members = _coset_members(source, N)
        walk = _coset_indices(self._members, source.order // N.order, self._coset_of)
        self._reps = [coset[0] for coset in walk]
        elements = source.element_tuples
        self._times_reps = products(source, [elements[r] for r in self._reps])

    def _image_raw(self, raw):
        got = self._perm_cache.get(raw)
        if got is None:
            if raw not in self.source.element_set:
                raise GroupError("projected element lies outside the source group")
            got = tuple(map(self._coset_of.__getitem__, self._times_reps(raw)))
            if len(self._perm_cache) < 4096:
                self._perm_cache[raw] = got
        return got

    def __call__(self, g):
        return Permutation._wrap(self._image_raw(images_of(g)))

    def kernel(self) -> FiniteGroup:
        return self.source.subgroup_on(self._members(self._reps[0]))

    def fiber(self, c) -> list:
        """All preimages of the c-th coset, as ascending element indices of
        the source; c is also the quotient element's index in ``table``."""
        return self._members(self._reps[c])

    def numbers(self, indices) -> list:
        """The ascending numbers of the cosets that the given element indices
        of the source lie in."""
        return sorted(set(map(self._coset_of.__getitem__, indices)))

    @property
    def table(self) -> ProductTable:
        if self._table is None:
            self._table = ProductTable.of(self.source).modulo(self._coset_of, self._reps)
        return self._table


def quotient(G: FiniteGroup, N: FiniteGroup):
    """G/N acting on the |G : N| cosets of N, plus the projection.

    Cosets are indexed by their least member in canonical order, so the
    construction is deterministic.  The projection's kernel is exactly N.
    """
    proj = QuotientProjection(G, N)
    m = G.order // N.order
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
