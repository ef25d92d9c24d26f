"""Complement existence for normal subgroups, by generator-lift search.

Given N normal in G, pick a small generating set q_1, ..., q_m of
Q = G/N and search lift tuples (x_1, ..., x_m), x_i in the fiber of
q_i, depth first.  Each closure that passes is kept as is, with no
second check and no deduplication, because:
  * the closure K of a full tuple covers Q, as its generators map onto
    the q_i; if K avoids N - {1} (``forbidden``) within |G:N| elements
    (``abort_over``), K maps onto Q injectively: a complement;
  * a complement meets each fiber in exactly one point, and those points
    generate it, so each complement comes from exactly one tuple.

Two sound prunings keep the space small:
  * a lift x_i must satisfy |x_i| = |q_i| (complements project
    isomorphically onto Q);
  * the first lift only needs to range over N-conjugacy orbit
    representatives of its fiber, since conjugating a complement by
    elements of N permutes fibers pointwise.
The reported search space is the size of the space the run logically
covered (the full fiber product); ``examined`` counts tuples actually
touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .errors import NotNormalError, PreconditionError
from .group import (
    FiniteGroup,
    close_set,
    conjugations,
    drop_redundant,
    element_order,
    is_normal,
    is_subgroup,
    orbit,
    orbits,
    reduce_generators,
)
from .perm import Permutation, identity_images
from .structure import quotient


@dataclass(frozen=True)
class Embedding:
    """N <= H <= G with N normal in G: the shape every splitting question takes."""

    G: FiniteGroup
    H: FiniteGroup
    N: FiniteGroup

    def validate(self):
        if not is_subgroup(self.N, self.H) or not is_subgroup(self.H, self.G):
            raise PreconditionError("embedding requires N <= H <= G")
        if not is_normal(self.N, self.G):
            raise PreconditionError("embedding requires N normal in G")
        return self


@dataclass
class ComplementReport:
    exists: bool
    complement: FiniteGroup | None
    search_space: int
    examined: int
    method: str = "lift-search"
    evidence: list = field(default_factory=list)


def small_generating_set(Q: FiniteGroup) -> list[Permutation]:
    """A short generating list for Q, deterministic.

    Starts from the declared generators and drops the redundant ones with
    the pass ``reduce_generators`` ends with; when more than four remain,
    tries ``reduce_generators`` on the element set.
    """
    if Q.order == 1:
        return []
    ident = identity_images(Q.degree)
    declared = dict.fromkeys(g for g in Q._raw_gens if g != ident)
    gens = drop_redundant(list(declared), Q.degree, Q.order, within=Q)
    if len(gens) > 4:
        rebuilt = reduce_generators(set(Q.element_tuples), Q.degree, within=Q)
        if len(rebuilt) < len(gens):
            gens = rebuilt
    return [Permutation._wrap(g) for g in gens]


def _orbit_reps(candidates, N: FiniteGroup, G: FiniteGroup):
    """The least member of each N-conjugation orbit on candidates in G, sorted."""
    cand_set = set(candidates)
    found = orbits(sorted(candidates), conjugations(G, N._raw_gens))
    # conjugation must preserve the fiber and the order filter
    if not all(orb <= cand_set for _, orb in found):
        raise AssertionError("orbit left the candidate fiber")
    return [t for t, _ in found]


def _search(G, N, *, collect_all=False):
    """Core lift-tuple search.  Returns (report, all_found).

    Without ``collect_all`` the search stops at the first complement and
    its first lift ranges over N-conjugacy orbit representatives only.
    """
    if not is_normal(N, G):
        raise NotNormalError("complement search requires N normal in G")
    degree = G.degree
    ident = identity_images(degree)
    index = G.order // N.order
    if N.order == 1 or index == 1:
        K = (FiniteGroup(degree, G._raw_gens, order=G.order) if N.order == 1
             else FiniteGroup.trivial(degree))
        return ComplementReport(True, K, 1, 1), [K]
    Q, proj = quotient(G, N)
    qgens = small_generating_set(Q)
    fibers = [proj.fiber(q) for q in qgens]
    full_space = prod(len(f) for f in fibers)
    order = element_order(G)
    wants = [element_order(Q)(q.images) for q in qgens]
    levels = [[x for x in f if order(x) == w] for f, w in zip(fibers, wants)]
    if not all(levels):
        return ComplementReport(False, None, full_space, 0), []
    if not collect_all:
        levels[0] = _orbit_reps(levels[0], N, G)
    forbidden = frozenset(t for t in N.element_tuples if t != ident)
    found = []
    examined = 0

    def dfs(lifts, closed):
        nonlocal examined
        last = len(lifts) + 1 == len(levels)
        for x in levels[len(lifts)]:
            trial = close_set(lifts + [x], degree, seed=closed,
                              forbidden=forbidden, abort_over=index, within=G)
            examined += last
            if trial is None:
                continue
            if last:
                found.append(FiniteGroup(degree, lifts + [x], elements=trial))
                if not collect_all:
                    return True
            elif dfs(lifts + [x], trial):
                return True
        return False

    dfs([], {ident})
    first = found[0] if found else None
    return ComplementReport(bool(found), first, full_space, examined), found


def find_complement(G: FiniteGroup, N: FiniteGroup) -> ComplementReport:
    """Decide whether N has a complement in G; sound and complete."""
    report, _ = _search(G, N)
    return report


def exhaustive_search(G: FiniteGroup, N: FiniteGroup):
    """Full enumeration: (report, every complement), no orbit shortcuts."""
    report, found = _search(G, N, collect_all=True)
    return report, sorted(found, key=lambda K: K.element_tuples)


def all_complements(G: FiniteGroup, N: FiniteGroup) -> list[FiniteGroup]:
    """All complements of N in G, from the exhaustive lift enumeration."""
    return exhaustive_search(G, N)[1]


def complements_conjugate(G: FiniteGroup, N: FiniteGroup) -> bool:
    """Whether all complements of N in G form a single conjugacy class."""
    comps = all_complements(G, N)
    if not comps:
        return False
    keys = {K.element_set for K in comps}
    on_sets = [lambda elems, c=c: frozenset(map(c, elems))
               for c in conjugations(G, G._raw_gens)]
    return keys <= orbit(comps[0].element_set, on_sets)
