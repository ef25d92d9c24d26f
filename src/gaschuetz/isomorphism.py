"""Isomorphism testing by fingerprints plus generator-image backtracking.

Fingerprints (order profile, center, derived series, class structure)
settle most pairs; survivors go through the automorphism search's
transporter backtracking, run from G's generators into H.
"""

from __future__ import annotations

from .autgroups import TransporterSearch
from .group import FiniteGroup, reduce_generators
from .perm import identity_images, perm_order
from .structure import (
    center,
    conjugacy_classes,
    derived_series,
    is_abelian,
)


def group_fingerprint(G: FiniteGroup) -> tuple:
    """Isomorphism invariants of G; cached on G."""
    return G.cached("fingerprint", _fingerprint)


def _fingerprint(G: FiniteGroup) -> tuple:
    orders = sorted(perm_order(t) for t in G.element_tuples)
    classes = conjugacy_classes(G)
    class_stats = sorted((len(c), perm_order(c[0])) for c in classes)
    return (
        G.order,
        tuple(orders),
        center(G).order,
        tuple(S.order for S in derived_series(G)),
        tuple(class_stats),
        is_abelian(G),
    )


def _element_invariants(G: FiniteGroup):
    inv = {}
    for cls in conjugacy_classes(G):
        size = len(cls)
        for t in cls:
            inv[t] = (perm_order(t), size)
    return inv


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    if G.order != H.order:
        return False
    if group_fingerprint(G) != group_fingerprint(H):
        return False
    if is_abelian(G):
        # same element-order profile already implies isomorphism
        return True
    n = G.order
    gens = reduce_generators(set(G.element_tuples), G.degree)
    inv_g = _element_invariants(G)
    inv_h = _element_invariants(H)
    candidates = [
        sorted(t for t in H.element_tuples if inv_h[t] == inv_g[g]) for g in gens
    ]
    if any(not c for c in candidates):
        return False
    search = TransporterSearch(
        gens, candidates, identity_images(G.degree), identity_images(H.degree), n
    )
    return search.first([]) is not None
