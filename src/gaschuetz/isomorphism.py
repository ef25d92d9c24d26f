"""Isomorphism testing by fingerprints plus generator-image backtracking.

Fingerprints (order profile, center, derived series, class structure)
settle most pairs; survivors go through the automorphism search's
transporter backtracking, run from G's generators into H.
"""

from __future__ import annotations

from .autgroups import TransporterSearch
from .group import FiniteGroup
from .perm import perm_order
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


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    if G.order != H.order:
        return False
    if group_fingerprint(G) != group_fingerprint(H):
        return False
    if is_abelian(G):
        # same element-order profile already implies isomorphism
        return True
    return TransporterSearch.between(G, H).first([]) is not None
