"""Isomorphism testing by fingerprints plus generator-image backtracking.

Fingerprints (element orders with centralizer sizes, derived series)
settle most pairs; survivors go through the automorphism search's
transporter backtracking, run from G's generators into H.
"""

from __future__ import annotations

from .autgroups import TransporterSearch
from .group import FiniteGroup
from .structure import derived_series, element_fingerprints, is_abelian


def group_fingerprint(G: FiniteGroup) -> tuple:
    """Isomorphism invariants of G; cached on G."""
    return G.cached("fingerprint", _fingerprint)


def _fingerprint(G: FiniteGroup) -> tuple:
    """(sorted element fingerprints, derived-series orders).

    The element multiset fixes |G|, the order profile, the class sizes
    per order, |Z(G)| and commutativity.
    """
    return (
        tuple(sorted(element_fingerprints(G).values())),
        tuple(S.order for S in derived_series(G)),
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
