"""Subgroup enumeration, Frattini subgroups, minimal supplements.

Subgroups are enumerated by join growth: starting from the cyclic
subgroups, every known subgroup is extended by canonical cyclic
generators until nothing new appears.  Every subgroup is a join of
cyclic subgroups, so the enumeration is exhaustive; it is guarded by
the lattice order cap.
"""

from __future__ import annotations

from . import config
from .errors import GroupError, PreconditionError, SizeLimitError
from .group import FiniteGroup, close_set, is_normal, normal_closure
from .perm import identity_images, mult, perm_order
from .structure import conjugacy_classes, prime_factors


def _cyclic_subgroups(G: FiniteGroup):
    """(canonical generator, element frozenset) for each cyclic subgroup."""
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
            gen = min(p for p in powers if perm_order(p) == order)
            by_key[key] = gen
    return sorted((gen, key) for key, gen in by_key.items())


def all_subgroups(G: FiniteGroup, cap: int | None = None) -> list[FiniteGroup]:
    """Every subgroup of G, duplicate-free, canonically ordered."""
    limit = cap if cap is not None else config.lattice_cap()
    if G.order > limit:
        raise SizeLimitError(
            f"subgroup enumeration refused over order {limit}",
            required_order=G.order,
        )
    got = G._cache.get("subgroups")
    if got is not None:
        return got
    degree = G.degree
    ident = identity_images(degree)
    trivial = FiniteGroup.from_raw(degree, [], elements={ident})
    found = {frozenset({ident}): trivial}
    cyclics = _cyclic_subgroups(G)
    queue = []
    for gen, key in cyclics:
        if key not in found:
            sub = FiniteGroup.from_raw(degree, [gen], elements=set(key))
            found[key] = sub
            queue.append(sub)
    i = 0
    while i < len(queue):
        A = queue[i]
        i += 1
        if A.order == G.order:
            continue
        aset = A.element_set
        agens = list(A._raw_gens)
        for gen, _key in cyclics:
            if gen in aset:
                continue
            elems = close_set(agens + [gen], degree, seed=aset)
            key = frozenset(elems)
            if key not in found:
                sub = FiniteGroup.from_raw(degree, agens + [gen], elements=elems)
                found[key] = sub
                queue.append(sub)
    subs = sorted(found.values(), key=lambda s: (s.order, s.element_tuples))
    G._cache["subgroups"] = subs
    return subs


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
    subgroup lattice; agrees with the lattice filter (tested).
    """
    got = G._cache.get("normals")
    if got is not None:
        return got
    degree = G.degree
    ident = identity_images(degree)
    atoms = {}
    for cls in conjugacy_classes(G):
        if cls[0] == ident and len(cls) == 1:
            continue
        C = normal_closure(G, [cls[0]])
        atoms.setdefault(C.element_set, C)
    trivial = FiniteGroup.from_raw(degree, [], elements={ident})
    found = {trivial.element_set: trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for X in frontier:
            for key, C in atoms.items():
                if key <= X.element_set:
                    continue
                gens = list(X._raw_gens) + list(C._raw_gens)
                elems = close_set(gens, degree, seed=X.element_set)
                jkey = frozenset(elems)
                if jkey not in found:
                    J = FiniteGroup.from_raw(degree, gens, elements=elems)
                    found[jkey] = J
                    nxt.append(J)
        frontier = nxt
    subs = sorted(found.values(), key=lambda s: (s.order, s.element_tuples))
    G._cache["normals"] = subs
    return subs


def maximal_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    got = G._cache.get("maximals")
    if got is not None:
        return got
    subs = [S for S in all_subgroups(G) if S.order < G.order]
    maximal = []
    for S in subs:
        skey = S.element_set
        if any(
            T is not S and T.order > S.order and skey <= T.element_set for T in subs
        ):
            continue
        maximal.append(S)
    G._cache["maximals"] = maximal
    return maximal


def frattini(G: FiniteGroup) -> FiniteGroup:
    """Intersection of all maximal subgroups."""
    got = G._cache.get("frattini")
    if got is not None:
        return got
    maxes = maximal_subgroups(G)
    if not maxes:
        out = G  # trivial group: empty intersection convention
    else:
        common = set(maxes[0].element_set)
        for M in maxes[1:]:
            common &= M.element_set
        out = G.subgroup(common)
    G._cache["frattini"] = out
    return out


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
