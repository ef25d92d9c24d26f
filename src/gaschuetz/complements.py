"""Complement existence for normal subgroups, by generator-lift search.

Given N normal in G, pick a small generating set q_1, ..., q_m of
Q = G/N and enumerate lift tuples (x_1, ..., x_m) with x_i in the fiber
of q_i.  The subgroup generated by a tuple always covers G modulo N, so
it is a complement iff its closure avoids N - {1}.  Completeness: any
complement L meets each fiber in exactly one point, and those points
generate L.

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
    conjugate_by,
    drop_redundant,
    is_normal,
    is_subgroup,
    orbit,
    reduce_generators,
)
from .perm import Permutation, identity_images, inverse, perm_order
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
    gens = drop_redundant(list(declared), Q.degree, Q.order)
    if len(gens) > 4:
        rebuilt = reduce_generators(set(Q.element_tuples), Q.degree)
        if len(rebuilt) < len(gens):
            gens = rebuilt
    return [Permutation._wrap(g) for g in gens]


def _orbit_reps(candidates, N: FiniteGroup):
    """Representatives of the N-conjugation orbits on the candidate list."""
    conj = [(g, inverse(g)) for g in N._raw_gens]
    cand_set = set(candidates)
    reps = []
    seen = set()
    for t in sorted(candidates):
        if t in seen:
            continue
        orb = orbit(t, conj, conjugate_by)
        if not orb <= cand_set:
            # conjugation must preserve the fiber and the order filter
            raise AssertionError("orbit left the candidate fiber")
        seen |= orb
        reps.append(t)
    return reps


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
    if N.order == 1:
        K = FiniteGroup(degree, G._raw_gens, order=G.order)
        report = ComplementReport(True, K, 1, 1)
        return report, [K]
    if index == 1:
        K = FiniteGroup.trivial(degree)
        report = ComplementReport(True, K, 1, 1)
        return report, [K]
    Q, proj = quotient(G, N)
    qgens = small_generating_set(Q)
    m = len(qgens)
    fibers = [proj.fiber(q) for q in qgens]
    full_space = prod(len(f) for f in fibers)
    filtered = []
    for q, fiber in zip(qgens, fibers):
        want = q.order()
        filtered.append([x for x in fiber if perm_order(x) == want])
    forbidden = frozenset(t for t in N.element_tuples if t != ident)
    found = []
    found_keys = set()
    examined = 0

    if any(not f for f in filtered):
        report = ComplementReport(False, None, full_space, 0)
        return report, []

    level_candidates = list(filtered)
    if not collect_all:
        level_candidates[0] = _orbit_reps(filtered[0], N)

    def verify(K_elems, lifts):
        K = FiniteGroup(degree, list(lifts), elements=K_elems)
        if K.order != index:
            return None
        if any(t != ident and t in N.element_set for t in K_elems):
            return None
        # K N = G by orders: |K||N| / |K meet N| = |G|
        return K

    def dfs(level, lifts, closed):
        nonlocal examined
        for x in level_candidates[level]:
            trial = close_set(
                lifts + [x],
                degree,
                seed=closed,
                forbidden=forbidden,
                abort_over=index,
            )
            if level + 1 == m:
                examined += 1
            if trial is None:
                continue
            if level + 1 == m:
                K = verify(trial, lifts + [x])
                if K is None:
                    continue
                key = K.element_set
                if key not in found_keys:
                    found_keys.add(key)
                    found.append(K)
                if not collect_all:
                    return True
            else:
                if dfs(level + 1, lifts + [x], trial):
                    return True
        return False

    dfs(0, [], {ident})
    if found:
        return ComplementReport(True, found[0], full_space, examined), found
    return ComplementReport(False, None, full_space, examined), []


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
    gens = [(g, inverse(g)) for g in G._raw_gens]

    def conjugate_set(elems, pair):
        return frozenset(conjugate_by(t, pair) for t in elems)

    return keys <= orbit(comps[0].element_set, gens, conjugate_set)
