"""Finite permutation groups: closure, membership, normality.

A ``FiniteGroup`` is a generator set together with a lazily computed,
canonically sorted element set.  Values are immutable once built; every
derived per-group fact is kept through ``FiniteGroup.cached``.  Groups
beyond the configured element cap are refused with
:class:`SizeLimitError` rather than enumerated.
"""

from __future__ import annotations

from . import config
from .errors import DegreeMismatchError, GroupError, SizeLimitError
from .perm import Permutation, identity_images, inverse, mult, perm_order


def close_set(gens, degree, *, seed=None, cap=None, forbidden=None, abort_over=None):
    """Breadth-first closure of raw image tuples under right multiplication.

    seed: optional starting element set, already closed (e.g. an
        existing subgroup); its elements are not checked again.
    cap: hard limit; exceeding it raises SizeLimitError.
    abort_over: soft limit; exceeding it returns None (search pruning).
    forbidden: set of raw tuples; touching one returns None immediately
        (the identity is never treated as forbidden).

    Returns the closed set of raw tuples, or None if aborted.  Each
    generator is reached as 1 g and checked like any other new element.
    """
    ident = identity_images(degree)
    gens = [g for g in gens if g != ident]
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatchError("generator degree mismatch")
    elements = set(seed or ())
    elements.add(ident)
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = mult(x, g)
                if y in elements:
                    continue
                if forbidden is not None and y in forbidden:
                    return None
                elements.add(y)
                new_frontier.append(y)
                if cap is not None and len(elements) > cap:
                    raise SizeLimitError(
                        f"group exceeds element cap {cap}",
                        required_order=len(elements),
                    )
                if abort_over is not None and len(elements) > abort_over:
                    return None
        frontier = new_frontier
    return elements


class FiniteGroup:
    """A finite permutation group of fixed degree.

    ``elements`` enumerates the whole group in canonical (lexicographic)
    order; ``order`` may be known ahead of enumeration (quotients set it
    from coset counts) and is cross-checked if enumeration happens later.
    """

    def __init__(self, degree, generators, *, _elements=None, _order=None):
        self.degree = int(degree)
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self.degree:
                raise DegreeMismatchError("generator degree mismatch")
            gens.append(g)
        self.generators = tuple(gens)
        self._raw_gens = tuple(g.images for g in gens)
        self._element_tuples = None
        self._element_set = None
        self._order = _order
        self._cache = {}
        if _elements is not None:
            self._install_elements(_elements)

    def _install_elements(self, elements):
        tup = tuple(sorted(elements))
        if self._order is not None and len(tup) != self._order:
            raise GroupError(
                f"declared order {self._order} != enumerated order {len(tup)}"
            )
        # idempotent; the guard attribute is assigned last so concurrent
        # readers either recompute or see a fully populated cache
        self._element_set = frozenset(tup)
        self._order = len(tup)
        self._element_tuples = tup

    @classmethod
    def trivial(cls, degree) -> "FiniteGroup":
        return cls(degree, [], _elements=[identity_images(degree)])

    @classmethod
    def from_raw(cls, degree, raw_gens, *, elements=None, order=None) -> "FiniteGroup":
        return cls(
            degree,
            [Permutation._wrap(g) for g in raw_gens],
            _elements=elements,
            _order=order,
        )

    # -- enumeration ------------------------------------------------------

    def _enumerate(self):
        if self._element_tuples is None:
            elems = close_set(self._raw_gens, self.degree, cap=config.element_cap())
            self._install_elements(elems)

    @property
    def order(self) -> int:
        if self._order is None:
            self._enumerate()
        return self._order

    @property
    def element_tuples(self):
        self._enumerate()
        return self._element_tuples

    @property
    def element_set(self):
        self._enumerate()
        return self._element_set

    @property
    def elements(self):
        return self.cached(
            "elements", lambda G: tuple(Permutation._wrap(t) for t in G.element_tuples)
        )

    @property
    def element_index(self):
        """{element tuple: its position in canonical order}; 0 is the identity."""
        return self.cached(
            "element_index", lambda G: {t: i for i, t in enumerate(G.element_tuples)}
        )

    def cached(self, key, compute):
        """compute(self), kept under ``key``: the one memo of per-group facts.

        Every fact kept here is exact and does not depend on any budget, so
        computing it twice gives an equal value: concurrent readers at worst
        duplicate work.  A compute that raises (a budget overrun) leaves
        nothing stored, so a later call with a larger budget retries.
        """
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, g):
        raw = g.images if isinstance(g, Permutation) else tuple(g)
        return raw in self.element_set

    def __len__(self):
        return self.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self):
        size = self._order if self._order is not None else "?"
        return f"FiniteGroup(degree={self.degree}, order={size}, gens={len(self.generators)})"

    # -- derived values ---------------------------------------------------

    def subgroup(self, elements) -> "FiniteGroup":
        """Wrap a known-closed element collection as a subgroup of self."""
        elems = set()
        for e in elements:
            elems.add(e.images if isinstance(e, Permutation) else tuple(e))
        elems.add(identity_images(self.degree))
        gens = reduce_generators(elems, self.degree)
        return FiniteGroup.from_raw(self.degree, gens, elements=elems)

    def generated_subgroup(self, gens) -> "FiniteGroup":
        raw = [g.images if isinstance(g, Permutation) else tuple(g) for g in gens]
        elems = close_set(raw, self.degree, cap=config.element_cap())
        return FiniteGroup.from_raw(self.degree, raw, elements=elems)


def reduce_generators(elements, degree):
    """Pick a small generating set for a known element set, greedily.

    Scans elements by decreasing order (ties broken canonically) and adds
    one whenever it enlarges the generated subgroup, then drops the picks
    that later ones made redundant.  Deterministic.
    """
    ident = identity_images(degree)
    if len(elements) == 1:
        return []
    ranked = sorted(elements, key=lambda t: (-perm_order(t), t))
    gens = []
    current = {ident}
    for cand in ranked:
        if cand in current:
            continue
        gens.append(cand)
        current = close_set(gens, degree)
        if len(current) == len(elements):
            break
    return drop_redundant(gens, degree, len(elements))


def drop_redundant(gens, degree, order):
    """gens, generating a group of ``order``, without the redundant ones.

    One forward pass drops each generator that the others still generate
    without.  Dropping a generator never makes a kept one redundant, so no
    redundant generator is left, and the result equals that of rescanning
    from the start after every drop.
    """
    kept = list(gens)
    for g in gens:
        if len(kept) == 1:
            break
        trial = [x for x in kept if x != g]
        if len(close_set(trial, degree)) == order:
            kept = trial
    return kept


def membership(g, G: FiniteGroup) -> bool:
    """Element-set lookup; degrees must agree."""
    raw = g.images if isinstance(g, Permutation) else tuple(g)
    if len(raw) != G.degree:
        raise DegreeMismatchError("membership across different degrees")
    return raw in G.element_set


def is_subgroup(A: FiniteGroup, G: FiniteGroup) -> bool:
    if A.degree != G.degree:
        raise DegreeMismatchError("subgroup test across different degrees")
    if G._order is not None and A._order is not None and A._order > G._order:
        return False
    return A.element_set <= G.element_set


def is_normal(N: FiniteGroup, G: FiniteGroup) -> bool:
    """Closure of N under conjugation by the generators of G.

    Only N is enumerated; G may stay lazy.
    """
    if N.degree != G.degree:
        raise DegreeMismatchError("normality test across different degrees")
    nset = N.element_set
    for g in G._raw_gens:
        ginv = inverse(g)
        for n in N._raw_gens:
            if mult(mult(g, n), ginv) not in nset:
                return False
    return True


def intersection(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    if A.degree != B.degree:
        raise DegreeMismatchError("intersection across different degrees")
    small, big = (A, B) if A.order <= B.order else (B, A)
    return A.subgroup(t for t in small.element_tuples if t in big.element_set)


def normal_closure(G: FiniteGroup, seed) -> FiniteGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    ident = identity_images(G.degree)
    raw = [s.images if isinstance(s, Permutation) else tuple(s) for s in seed]
    gens = [t for t in dict.fromkeys(raw) if t != ident]
    gen_invs = [(g, inverse(g)) for g in G._raw_gens]
    cap = config.element_cap()
    current = close_set(gens, G.degree, cap=cap)
    # <gens> is normal once the conjugates of every generator lie in it,
    # so each round conjugates only the generators the last round added.
    added = list(gens)
    while added:
        new = {}
        for g, ginv in gen_invs:
            for n in added:
                c = mult(mult(g, n), ginv)
                if c not in current:
                    new[c] = None
        if new:
            gens.extend(new)
            current = close_set(gens, G.degree, seed=current, cap=cap)
        added = list(new)
    return G.subgroup(current)


def extend_images(gens, images, identity, image_identity, size):
    """The table {x: f(x)} of the map sending gens[i] to images[i], or None.

    Walks products of the generators breadth-first, setting
    f(x g) = f(x) f(g).  A conflict-free table is closed
    under every (generator, image) pair, so when it covers ``size``
    elements it is the graph of a homomorphism.  The first conflicting
    edge, or a table of another size, gives None.
    """
    table = {identity: image_identity}
    frontier = [(identity, image_identity)]
    pairs = list(zip(gens, images))
    while frontier:
        new = []
        for x, fx in frontier:
            for g, h in pairs:
                y = mult(x, g)
                fy = mult(fx, h)
                known = table.get(y)
                if known is None:
                    table[y] = fy
                    new.append((y, fy))
                elif known != fy:
                    return None
        frontier = new
    return table if len(table) == size else None


def orbit(start, gens, act):
    """The set of points reached from ``start`` by ``act(x, g)``, g in gens.

    Points may be anything hashable; each is acted on once per generator.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def conjugate_by(x, pair):
    """g x g^-1 for pair = (g, g^-1): conjugation as an ``orbit`` action."""
    g, ginv = pair
    return mult(mult(g, x), ginv)


def element_perm(G: FiniteGroup, f):
    """The permutation of G's element indices that the element map f induces."""
    idx = G.element_index
    return tuple(idx[f(t)] for t in G.element_tuples)


def conjugation_perm(G: FiniteGroup, g):
    """Conjugation x -> g x g^-1 as a permutation of G's element indices."""
    pair = (g, inverse(g))
    return element_perm(G, lambda x: conjugate_by(x, pair))


class Homomorphism:
    """A map between groups, given by images of the source generators.

    Consistency is certified at construction: ``extend_images`` returns
    the map's table iff the images extend to a homomorphism.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, generator_images):
        if len(generator_images) != len(source.generators):
            raise GroupError("one image required per source generator")
        imgs = []
        for h in generator_images:
            if not isinstance(h, Permutation):
                h = Permutation(h)
            if h.degree != target.degree:
                raise DegreeMismatchError("image degree mismatch")
            imgs.append(h)
        self.source = source
        self.target = target
        self.generator_images = tuple(imgs)
        self._map = extend_images(
            source._raw_gens,
            [p.images for p in imgs],
            identity_images(source.degree),
            identity_images(target.degree),
            source.order,
        )
        if self._map is None:
            raise GroupError("generator images do not extend to a homomorphism")

    def __call__(self, g):
        raw = g.images if isinstance(g, Permutation) else tuple(g)
        return Permutation._wrap(self._map[raw])

    def image(self) -> FiniteGroup:
        return FiniteGroup(
            self.target.degree, self.generator_images or [self.target.identity]
        )

    def kernel(self) -> FiniteGroup:
        tident = identity_images(self.target.degree)
        return self.source.subgroup(x for x, fx in self._map.items() if fx == tident)
