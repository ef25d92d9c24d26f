"""Subgroup enumeration, Frattini subgroups, minimal supplements.

Subgroups are enumerated by join growth: starting from the trivial
group, every known subgroup is joined with each atom until nothing new
appears.  Every subgroup is a join of cyclic subgroups and every normal
subgroup a join of conjugacy-class normal closures, so with those atoms
the enumeration is exhaustive; the full lattice is guarded by the
lattice order cap.
"""

from __future__ import annotations

from math import gcd

from . import config
from .errors import GroupError, PreconditionError, SizeLimitError
from .group import FiniteGroup, close_set, is_normal, normal_closure
from .perm import identity_images, mult
from .structure import conjugacy_classes, prime_factors


def _cyclic_generators(G: FiniteGroup):
    """The canonical generator of each nontrivial cyclic subgroup, sorted."""
    ident = identity_images(G.degree)
    by_key = {}
    for t in G.element_tuples:
        if t == ident:
            continue
        powers = [ident, t]
        x = t
        while True:
            x = mult(x, t)
            if x == ident:
                break
            powers.append(x)
        key = frozenset(powers)
        order = len(powers)
        if key not in by_key:
            # t^i generates <t> exactly when gcd(i, |t|) = 1
            by_key[key] = min(powers[i] for i in range(1, order) if gcd(i, order) == 1)
    return sorted(by_key.values())


def _joins(G: FiniteGroup, atoms) -> list[FiniteGroup]:
    """Every join of atom subgroups of G, given by their generator lists.

    Breadth-first from the trivial group: each subgroup found is joined
    with every atom it does not contain, and a new join keeps the
    generators it was built from.  Sorted by order, then elements.
    """
    degree = G.degree
    trivial = FiniteGroup.trivial(degree)
    found = {trivial.element_set: trivial}
    queue = [trivial]
    for X in queue:  # the queue grows while it is walked
        if X.order == G.order:
            continue
        xset = X.element_set
        for agens in atoms:
            if all(g in xset for g in agens):
                continue
            gens = list(X._raw_gens) + list(agens)
            elems = close_set(gens, degree, seed=xset)
            key = frozenset(elems)
            if key not in found:
                J = FiniteGroup(degree, gens, elements=elems)
                found[key] = J
                queue.append(J)
    return sorted(found.values(), key=lambda s: (s.order, s.element_tuples))


def all_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    """Every subgroup of G, duplicate-free, canonically ordered; cached on G."""
    limit = config.lattice_cap()
    if G.order > limit:
        raise SizeLimitError(
            f"subgroup enumeration refused over order {limit}",
            required_order=G.order,
        )
    return G.cached(
        "subgroups", lambda G: _joins(G, [[gen] for gen in _cyclic_generators(G)])
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
    """Generators of the distinct normal closures of nontrivial classes."""
    ident = identity_images(G.degree)
    atoms = {}
    for cls in conjugacy_classes(G):
        if cls[0] != ident:
            C = normal_closure(G, [cls[0]])
            atoms.setdefault(C.element_set, C._raw_gens)
    return list(atoms.values())


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


def _product_order(A: FiniteGroup, B: FiniteGroup) -> int:
    meet = len(A.element_set & B.element_set)
    return A.order * B.order // meet


def minimal_supplement(G: FiniteGroup, N: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Inclusion-minimal H1 <= H with G = H1 N, by greedy maximal descent.

    The returned H1 satisfies H1 meet N <= Frattini(H1), and |H1| has the
    same prime divisors as |G : N|; both are asserted.
    """
    if not is_normal(N, G):
        raise PreconditionError("supplement reduction needs N normal in G")
    if _product_order(H, N) != G.order:
        raise PreconditionError("H N = G is required")
    H1 = H
    while True:
        for M in maximal_subgroups(H1):
            if _product_order(M, N) == G.order:
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
