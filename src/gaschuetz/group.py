"""Finite permutation groups: closure, membership, normality.

A ``FiniteGroup`` is a generator set together with a lazily computed,
canonically sorted element set.  Values are immutable once built; every
derived per-group fact is kept through ``FiniteGroup.cached``.  Groups
beyond the configured element cap are refused with
:class:`SizeLimitError` rather than enumerated.

Every closure is ``close_set``, Dimino's coset walk (G. Butler,
*Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991): a
closed group H grows to K by whole right cosets H y, found from coset
representatives times generators, for about |K| + |K:H| |gens|
products.  A seed passed to it must be closed; it is that H.

Products inside a group whose elements are known come from
``product(G)``, by base images.  A base is a list of points b whose
images name each element of G; ``base`` finds one by descending the
stabilizer chain over G's elements.  Then x y is the element z with
z[b] = x[y[b]] for every base point b: G's own tuple, found by one
lookup instead of composing a degree-length tuple (Seress, *Permutation
Group Algorithms*, 2003, ch. 4; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, 4.4).  A regular group's base is the
point 0, and so is the order-1 group's.  ``perm.mult``, a C-level gather,
stays for groups whose elements are not known yet.  Closures, normality
tests and conjugation (the maps ``conjugations`` builds, which ``orbit``
and ``orbits`` walk) inside a known group take that product, and so does
``element_order``, which walks x's powers once per cyclic subgroup.

Each enumerated group has one lookup table, its ``ProductTable``: the
base, the table ``at`` from base images to element indices, the product
and order map above, and G's products on element indices, one gather per
right factor.  ``products`` gathers one left factor times a fixed list
of right factors, for ``structure``'s cosets and quotients.  ``extend``
certifies a map given by generator images, for the automorphism search
and for actions into Aut(N) alike.
"""

from __future__ import annotations

import functools
from math import gcd
from operator import itemgetter

from . import config
from .errors import DegreeMismatchError, GroupError, PreconditionError, SizeLimitError
from .perm import (
    Permutation, as_permutation, identity_images, images_of, inverse, mult, perm_order,
)


def close_set(gens, degree, *, seed=None, cap=None, forbidden=None, abort_over=None,
              within=None):
    """Closure of raw image tuples under right multiplication, by cosets.

    Dimino's algorithm: the set grows by whole right cosets H y of a
    closed group H.  A list of coset representatives starts at 1; for
    each representative r and generator g, a product y = r g outside the
    set adds the coset H y (all new, since the set is a union of such
    cosets) and joins the list.  Extending H to K costs about
    |K| + |K:H| |gens| products.

    seed: optional starting element set, which must be closed (a
        subgroup); it is H for one walk over all of ``gens``, and its
        elements are not checked again.  The result is the set of
        products s w, s in the seed and w in <gens>: the group
        <seed, gens> when the seed lies in <gens>, as at every caller.
    Without a seed the walk goes stage by stage: the group of gens[:i]
    is H for gens[:i+1], and a stage whose generators all lie in H
    already is skipped.
    cap: hard limit; exceeding it raises SizeLimitError.
    abort_over: soft limit; exceeding it returns None (search pruning).
    forbidden: set of raw tuples; touching one returns None immediately
        (the identity is never treated as forbidden).
    within: a group containing the generators and the seed; the walk
        multiplies by ``product(within)``.  Once its elements are known, a
        generator outside it raises GroupError, since a lookup would name
        a wrong element.

    Returns the closed set of raw tuples, or None if aborted.  Each
    element is checked as it is added, so the limits and ``forbidden``
    act as in a breadth-first closure, and a cap overrun reports
    cap + 1 elements.
    """
    ident = identity_images(degree)
    gens = [g for g in gens if g != ident]
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatchError("generator degree mismatch")
    mul = mult
    if within is not None:
        mul = product(within)
        known = within._element_set
        if known is not None and any(g not in known for g in gens):
            raise GroupError("closure generator outside the ambient group")
    elements = set(seed or ())
    elements.add(ident)
    stages = [gens] if seed is not None else [gens[:i + 1] for i in range(len(gens))]
    for stage in stages:
        if all(g in elements for g in stage):
            continue
        closed = list(elements)
        reps = [ident]
        for r in reps:  # the list grows while it is walked
            for g in stage:
                y = mul(r, g)
                if y in elements:
                    continue
                for h in closed:
                    x = mul(h, y)
                    if forbidden is not None and x in forbidden:
                        return None
                    elements.add(x)
                    if cap is not None and len(elements) > cap:
                        raise SizeLimitError(
                            f"group exceeds element cap {cap}",
                            required_order=len(elements),
                        )
                    if abort_over is not None and len(elements) > abort_over:
                        return None
                reps.append(y)
    return elements


def product(G):
    """(x, y) -> x y for elements of G, by lookup once G's elements are known.

    The product is the element of G whose images of the base points b
    are x[y[b]] (see ``base``): G's own tuple, found by one lookup in G's
    ``ProductTable``, which keeps this map once G's elements are known.
    Before that this returns ``mult`` and builds nothing, since it never
    enumerates G.  A caller about to walk G's elements reads them first,
    then takes the product.
    """
    if G._element_tuples is None:
        return mult
    return G.cached("product_table", ProductTable).product  # ProductTable.of, one call less per closure


def element_order(G):
    """x -> |x| for x in G, by walking x's powers once G's elements are known.

    Each walk multiplies by ``product(G)`` until it reaches 1 and records
    |x^j| = |x| / gcd(|x|, j) for every power x^j it meets, so a cyclic
    subgroup is walked once.  Kept on G's ``ProductTable`` once G's
    elements are known; before that this is ``perm_order`` and builds
    nothing, as ``product`` is ``mult``.  An x outside a known G raises
    GroupError, as in ``close_set``: a lookup with an outside factor names
    a wrong element and the walk may never reach 1.
    """
    if G._element_tuples is None:
        return perm_order
    return G.cached("product_table", ProductTable).element_order  # as in product


def _order_walk(mul, known, ident):
    """x -> |x| for x in ``known``, walking x's powers by ``mul`` (see ``element_order``)."""
    orders = {ident: 1}

    def order(x):
        o = orders.get(x)
        if o is None:
            if x not in known:
                raise GroupError("element outside the group")
            powers = [x]
            y = mul(x, x)
            while y != ident:
                powers.append(y)
                y = mul(y, x)
            o = len(powers) + 1
            for j, y in enumerate(powers, 1):
                orders[y] = o // gcd(o, j)
        return o

    return order


def base(G):
    """Points whose images name each element of G: the stabilizer descent.

    Starting from G's non-identity elements, take the first point the
    first of them moves, keep the elements fixing it, and repeat until
    none is left.  No non-identity element then fixes every point taken,
    so two elements agreeing there are equal.  It costs about 2 |G|
    element tests.  A regular group's base is [0], and so is the order-1
    group's: one point names its only element.
    """
    rest = G.element_tuples[1:]  # canonical order puts the identity first
    points = []
    while rest:
        b = next(p for p, q in enumerate(rest[0]) if p != q)
        points.append(b)
        rest = [t for t in rest if t[b] == b]
    return points or [0]


@functools.cache
def _lookup(points):
    """(at, elements) -> (x, y -> elements[at[key]]), the key x[y[b]] spelled
    out for each base point b.

    Compiled once per base: a key spelled out runs two to five times faster
    than one built by a loop, ``map`` or ``itemgetter`` when both factors
    vary.  ``points`` holds only ints, so the source is fixed.
    """
    images = [f"x[y[{b}]]" for b in points]
    key = images[0] if len(images) == 1 else "(" + "".join(i + ", " for i in images) + ")"
    return eval(f"lambda at, el: lambda x, y: el[at[{key}]]", {})


class FiniteGroup:
    """A finite permutation group of fixed degree, at least 1.

    Generators may be Permutations or image sequences; each is validated.
    Facts a caller already knows are passed in, not recomputed: the
    keyword ``elements``, the closed element set as raw tuples (trusted),
    and ``order``, which quotients know from coset counts and which is
    cross-checked if enumeration happens later.  The ``elements``
    property enumerates the whole group in canonical (lexicographic) order.
    """

    def __init__(self, degree, generators, *, elements=None, order=None):
        self.degree = int(degree)
        if self.degree < 1:  # a base needs a point, even in the order-1 group
            raise PreconditionError(f"a permutation group has degree at least 1, not {degree}")
        self.generators = tuple(
            as_permutation(g, self.degree, "generator") for g in generators
        )
        self._raw_gens = tuple(g.images for g in self.generators)
        self._element_tuples = None
        self._element_set = None
        self._order = order
        self._cache = {}
        if elements is not None:
            self._install_elements(elements)

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
        return cls(degree, [], elements=[identity_images(degree)])

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
        return images_of(g) in self.element_set

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
        elems = {images_of(e) for e in elements}
        elems.add(identity_images(self.degree))
        gens = reduce_generators(elems, self.degree, within=self)
        return FiniteGroup(self.degree, gens, elements=elems)

    def generated_subgroup(self, gens) -> "FiniteGroup":
        raw = [images_of(g) for g in gens]
        elems = close_set(raw, self.degree, cap=config.element_cap(), within=self)
        return FiniteGroup(self.degree, raw, elements=elems)


def reduce_generators(elements, degree, *, within):
    """Pick a small generating set for a known element set, greedily.

    Scans elements by decreasing order (ties broken canonically) and adds
    one whenever it enlarges the generated subgroup, then drops the picks
    that later ones made redundant.  Deterministic.  ``within`` is a group
    containing the elements: their orders are ``element_order(within)``
    and every closure multiplies by ``product(within)``.
    """
    ident = identity_images(degree)
    if len(elements) == 1:
        return []
    order = element_order(within)
    ranked = sorted(elements, key=lambda t: (-order(t), t))
    gens = []
    current = {ident}
    for cand in ranked:
        if cand in current:
            continue
        gens.append(cand)
        current = close_set(gens, degree, seed=current, within=within)
        if len(current) == len(elements):
            break
    return drop_redundant(gens, degree, len(elements), within=within)


def drop_redundant(gens, degree, order, *, within):
    """gens, generating a group of ``order``, without the redundant ones.

    One forward pass drops each generator that the others still generate
    without.  Dropping a generator never makes a kept one redundant, so no
    redundant generator is left, and the result equals that of rescanning
    from the start after every drop.  Closures multiply in ``within``.
    """
    kept = list(gens)
    for g in gens:
        if len(kept) == 1:
            break
        trial = [x for x in kept if x != g]
        if len(close_set(trial, degree, within=within)) == order:
            kept = trial
    return kept


def is_subgroup(A: FiniteGroup, G: FiniteGroup) -> bool:
    if A.degree != G.degree:
        raise DegreeMismatchError("subgroup test across different degrees")
    if G._order is not None and A._order is not None and A._order > G._order:
        return False
    return A.element_set <= G.element_set


def is_normal(N: FiniteGroup, G: FiniteGroup) -> bool:
    """N lies in G and is closed under conjugation by G's generators.

    Both factors of every conjugate then lie in G, so G's product applies.
    """
    if N.degree != G.degree:
        raise DegreeMismatchError("normality test across different degrees")
    gset = G.element_set
    if any(n not in gset for n in N._raw_gens):
        return False
    return all(c(n) in N.element_set
               for c in conjugations(G, G._raw_gens) for n in N._raw_gens)


def intersection(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    if A.degree != B.degree:
        raise DegreeMismatchError("intersection across different degrees")
    small, big = (A, B) if A.order <= B.order else (B, A)
    return A.subgroup(t for t in small.element_tuples if t in big.element_set)


def normal_closure(G: FiniteGroup, seed) -> FiniteGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    ident = identity_images(G.degree)
    gens = [t for t in dict.fromkeys(map(images_of, seed)) if t != ident]
    conj = conjugations(G, G._raw_gens)
    cap = config.element_cap()
    current = close_set(gens, G.degree, cap=cap, within=G)
    # <gens> is normal once the conjugates of every generator lie in it,
    # so each round conjugates only the generators the last round added.
    added = list(gens)
    while added:
        new = {}
        for c in conj:
            for n in added:
                x = c(n)
                if x not in current:
                    new[x] = None
        if new:
            gens.extend(new)
            current = close_set(gens, G.degree, seed=current, cap=cap, within=G)
        added = list(new)
    return G.subgroup(current)


def extend_images(steps, identity, image_identity, size):
    """The table {x: f(x)} of the map sending each generator to its image, or None.

    ``steps`` holds one pair (x -> x g, y -> y h) per generator g with
    image h: right multiplication on each side, on tuples or on element
    indices alike.  Walks products of the generators breadth-first,
    setting f(x g) = f(x) h.  A conflict-free table is closed under
    every step, so when it covers ``size`` elements it is the graph of a
    homomorphism.  The first conflicting edge, or a table of another
    size, gives None.
    """
    table = {identity: image_identity}
    frontier = [(identity, image_identity)]
    while frontier:
        new = []
        for x, fx in frontier:
            for step, image_step in steps:
                y = step(x)
                fy = image_step(fx)
                known = table.get(y)
                if known is None:
                    table[y] = fy
                    new.append((y, fy))
                elif known != fy:
                    return None
        frontier = new
    return table if len(table) == size else None


class ProductTable:
    """G's one lookup table: its base, its element indices by base images,
    its product and order map on tuples, and its product on element indices.

    ``points`` is G's base (see ``base``); ``at`` maps the base points'
    images to the index of the element of G with those images: a list over
    the image of the point for a one-point base (every regular group and
    the order-1 group), else a dict keyed by the tuple of images.  Only
    this module reads them.  ``product`` and ``element_order`` are the maps
    the functions of those names return; ``order(x)`` is the order of the
    x-th element.

    ``col(h)[y]`` is the index of y h, and a column is built the first
    time it is read, so a search touching k elements as right factors
    costs k columns, never a full |G| x |G| table.  With g = G[h] fixed,
    the base images of y g are y's images at g's base images: one gather
    ``itemgetter(g[b1], ..., g[bk])`` mapped over G's elements gives every
    key, and ``at`` turns the keys into indices, both maps in C.  One table
    per group, cached on it (``of``); G's elements must be known.
    """

    def __init__(self, G: FiniteGroup):
        self.elements = elements = G.element_tuples
        self.points = points = tuple(base(G))
        if len(points) == 1:  # at[p]: the index of the element moving the point to p
            self.at = at = [None] * G.degree
            for i, p in enumerate(map(itemgetter(*points), elements)):
                at[p] = i
        else:
            self.at = dict(zip(map(itemgetter(*points), elements), range(len(elements))))
        self.product = _lookup(points)(self.at, elements)
        self.element_order = _order_walk(self.product, G.element_set, elements[0])
        self.columns = {}

    @classmethod
    def of(cls, G: FiniteGroup) -> "ProductTable":
        return G.cached("product_table", cls)

    def col(self, h):
        column = self.columns.get(h)
        if column is None:
            g = self.elements[h]
            keys = map(itemgetter(*[g[b] for b in self.points]), self.elements)
            column = self.columns[h] = list(map(self.at.__getitem__, keys))
        return column

    def order(self, x):
        return self.element_order(self.elements[x])

    def extend(self, gens, target, imgs):
        """gens[i] -> imgs[i] of ``target`` as a homomorphism: a tuple of target
        indices, or None if the images do not extend over both tables' columns.
        ``gens`` index elements generating the whole group."""
        steps = [(self.col(g).__getitem__, target.col(h).__getitem__) for g, h in zip(gens, imgs)]
        n = len(self.elements)
        table = extend_images(steps, 0, 0, n)
        if table is None:
            return None
        # one gather of the table in index order; a getter of one index returns a bare value
        return itemgetter(*range(n))(table) if n > 1 else (table[0],)


def products(G: FiniteGroup, rights):
    """x -> the element indices of x r for r in ``rights``, in order, for x in G.

    The base images of x r are x's images at r's base images, so one
    gather over the pairs (r, base point b), ``itemgetter(r1[b1], ...,
    r1[bk], r2[b1], ...)``, applied to x gives the keys of every x r at
    once, in groups of k; ``at`` turns them into indices, both maps in C.
    The map returns an iterator.  ``structure`` reads it for the cosets
    t N (``rights`` = N) and for the quotient's action on cosets
    (``rights`` = their representatives).
    """
    table = ProductTable.of(G)
    points, look = table.points, table.at.__getitem__
    k = len(points)
    spots = [r[b] for r in rights for b in points]
    # a getter of one index returns a bare value
    gather = itemgetter(*spots) if len(spots) > 1 else lambda x, s=spots[0]: (x[s],)
    if k == 1:
        return lambda x: map(look, gather(x))
    return lambda x: map(look, zip(*[iter(gather(x))] * k))


def orbit(start, maps):
    """The set of points reached from ``start`` by the maps, each a callable.

    Points may be anything hashable; each is mapped once by every map.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for f in maps:
                y = f(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def orbits(points, maps):
    """(first point, orbit) for each orbit of the maps that ``points`` meets,
    in the order of those first points: each point not yet seen starts one."""
    seen = set()
    out = []
    for x in points:
        if x not in seen:
            orb = orbit(x, maps)
            seen |= orb
            out.append((x, orb))
    return out


def conjugations(G: FiniteGroup, by):
    """One map x -> g x g^-1 of G's elements per g in ``by``, by ``product(G)``.

    Once G's elements are known, a g outside G raises GroupError, as in
    ``close_set``: a lookup with an outside factor would name a wrong element.
    """
    mul = product(G)
    known = G._element_set
    if known is not None and any(g not in known for g in by):
        raise GroupError("conjugating element outside the group")
    return [lambda x, g=g, ginv=inverse(g): mul(mul(g, x), ginv) for g in by]


def conjugation_perm(G: FiniteGroup, g):
    """Conjugation x -> g x g^-1 by g in G as a permutation of G's element indices."""
    idx = G.element_index
    conj, = conjugations(G, [g])
    return tuple(idx[conj(x)] for x in G.element_tuples)
