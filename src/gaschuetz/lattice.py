"""Subgroup enumeration, Frattini subgroups, minimal supplements.

Subgroups are enumerated by join growth: starting from the trivial
group, every known subgroup is joined with each atom until nothing new
appears.  Every subgroup is a join of cyclic subgroups and every normal
subgroup a join of conjugacy-class normal closures, so with those atoms
the enumeration is exhaustive; the full lattice is guarded by the
lattice order cap.  Atoms and joins are sets of G's element indices,
closed on its ``ProductTable``; each subgroup is made once, when listed.

A join X v A already found is not closed again.  The product set XA has
|X| |A| / |X meet A| elements, counted by set operations on the two
element sets.  A found subgroup Y of exactly that order containing X and
A contains X v A, which contains XA; as |Y| = |XA|, Y = X v A, so the
skip is exact.  For normal atoms XA is always the join, so every repeat
is caught; for cyclic atoms, those where XA is a subgroup.
"""

from __future__ import annotations

from . import config
from .errors import GroupError, PreconditionError, SizeLimitError
from .group import FiniteGroup, ProductTable, is_normal, pick_generators
from .structure import conjugacy_classes, prime_factors


def _cyclic_generators(G: FiniteGroup):
    """(index set, [least generator]) of each nontrivial cyclic subgroup, on
    G's element indices, in order of the generators."""
    times = ProductTable.of(G).times
    by_key = {}
    for t in range(1, G.order):  # index 0 is the identity
        powers = [0, t]
        x = times(t, t)
        while x:
            powers.append(x)
            x = times(x, t)
        # indices come in canonical order: the first to generate a
        # subgroup is its least generator
        by_key.setdefault(frozenset(powers), t)
    return [(key, [t]) for key, t in by_key.items()]


def _product_order(a, b) -> int:
    """|AB| = |A| |B| / |A meet B| for subgroups given by element sets."""
    return len(a) * len(b) // len(a & b)


def _joins(G: FiniteGroup, atoms) -> list[FiniteGroup]:
    """Every join of atom subgroups of G, each atom an (index set, generator
    indices) pair on G's element indices.

    Breadth-first from the trivial group: each subgroup X found is joined
    with every atom A it does not contain, and a new join keeps the
    generators it was built from.  The join is not closed when a found
    subgroup of order |X| |A| / |X meet A| contains X and A (see the module
    docstring); such a join would only repeat a found one, so every new
    join comes from the same first (X, A) pair as without the test.  The
    walk holds index sets; each subgroup is made once, at the end.  Sorted
    by order, then elements.
    """
    table = ProductTable.of(G)
    trivial = frozenset([0])
    found = {trivial: []}  # index set -> generator indices
    by_order = {}  # order -> index sets of the found subgroups
    queue = [trivial]
    for xset in queue:  # the queue grows while it is walked
        if len(xset) == G.order:
            continue
        for aset, agens in atoms:
            if aset <= xset:
                continue
            size = _product_order(xset, aset)
            if any(aset <= Y and xset <= Y for Y in by_order.get(size, ())):
                continue
            gens = found[xset] + agens
            key = frozenset(table.close(gens, seed=xset))
            if key not in found:
                found[key] = gens
                by_order.setdefault(len(key), []).append(key)
                queue.append(key)
    # ascending index sets compare as the element tuples do: index order is canonical order
    return [G.subgroup_on(key, found[key])
            for key in sorted(found, key=lambda key: (len(key), sorted(key)))]


def all_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    """Every subgroup of G, duplicate-free, canonically ordered; cached on G."""
    limit = config.lattice_cap()
    if G.order > limit:
        raise SizeLimitError(
            f"subgroup enumeration refused over order {limit}",
            required_order=G.order,
        )
    return G.cached(
        "subgroups", lambda G: _joins(G, _cyclic_generators(G))
    )


def subgroups_of_order(G: FiniteGroup, m: int) -> list[FiniteGroup]:
    if m <= 0 or G.order % m:
        return []
    return [S for S in all_subgroups(G) if S.order == m]


def normal_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    return [S for S in all_subgroups(G) if is_normal(S, G)]


def normal_subgroups_fast(G: FiniteGroup) -> list[FiniteGroup]:
    """All normal subgroups, as joins of conjugacy-class normal closures.

    Every normal subgroup is the join of the class closures it contains,
    so closing the atom set under joins is exhaustive.  Avoids the full
    subgroup lattice; agrees with the lattice filter (tested).  Cached on G.
    """
    return G.cached("normals", lambda G: _joins(G, _class_closures(G)))


def _class_closures(G: FiniteGroup):
    """(index set, generator indices) of the distinct normal closures of
    nontrivial classes, on G's element indices, each generated by the
    indices ``pick_generators`` picks."""
    table = ProductTable.of(G)
    by = [table.index(g) for g in G._raw_gens]
    atoms = {}
    for cls in conjugacy_classes(G)[1:]:  # the first class is the identity's
        key = frozenset(table.normal_closure([table.index(cls[0])], by))
        if key not in atoms:
            atoms[key] = pick_generators(key, table.order, table.close)
    return list(atoms.items())


def maximal_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    """The maximal subgroups, from the subgroup lattice; cached on G."""
    return G.cached("maximals", _maximal_subgroups)


def _maximal_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    subs = [S for S in all_subgroups(G) if S.order < G.order]
    maximal = []
    for S in subs:
        skey = S.element_set
        if any(
            T is not S and T.order > S.order and skey <= T.element_set for T in subs
        ):
            continue
        maximal.append(S)
    return maximal


def frattini(G: FiniteGroup) -> FiniteGroup:
    """Intersection of all maximal subgroups; cached on G."""
    return G.cached("frattini", _frattini)


def _frattini(G: FiniteGroup) -> FiniteGroup:
    maxes = maximal_subgroups(G)
    if not maxes:
        return G  # trivial group: empty intersection convention
    common = set(maxes[0].element_set)
    for M in maxes[1:]:
        common &= M.element_set
    return G.subgroup(common)


def minimal_supplement(G: FiniteGroup, N: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Inclusion-minimal H1 <= H with G = H1 N, by greedy maximal descent.

    The returned H1 satisfies H1 meet N <= Frattini(H1), and |H1| has the
    same prime divisors as |G : N|; both are asserted.
    """
    if not is_normal(N, G):
        raise PreconditionError("supplement reduction needs N normal in G")
    if _product_order(H.element_set, N.element_set) != G.order:
        raise PreconditionError("H N = G is required")
    H1 = H
    while True:
        for M in maximal_subgroups(H1):
            if _product_order(M.element_set, N.element_set) == G.order:
                H1 = M
                break
        else:
            break
    meet = H1.element_set & N.element_set
    if not meet <= frattini(H1).element_set:
        raise GroupError("minimal supplement invariant failed: meet not Frattini")
    if set(prime_factors(H1.order)) != set(prime_factors(G.order // N.order)):
        raise GroupError("minimal supplement invariant failed: prime divisors differ")
    return H1
