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
The search runs on the indices of a ``ProductTable``, each closure
``ProductTable.close``; fibers and N are the projection G -> G/N's
cosets.  Q's generators, their pick and their orders are read from that
projection's table on N's coset numbers (``QuotientProjection.table``),
never from a permutation group of degree |G:N|.  Given R normal in G with R <= N (as
a projection ``modulo`` of G by R), the search table is G/R's on R's
coset numbers (``ProductTable.modulo``): the search then answers whether
N/R has a complement in G/R, with each fiber the ascending R-coset
numbers of G's fiber, and never builds G/R or (G/R)/(N/R).  Q's coset
numbers follow G's canonical order, not (G/R)/(N/R)'s; the drop pass of
``small_generating_set`` does not depend on that numbering (its
``pick_generators`` fallback does), and with its picks neither do the
search space nor the counts of an exhaustive search or of one that finds
nothing.  R = 1 is the ordinary case, on G's own table and element
indices, in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .errors import NotNormalError, PreconditionError
from .group import (
    FiniteGroup,
    ProductTable,
    drop_redundant,
    is_normal,
    is_subgroup,
    orbit,
    orbits,
    pick_generators,
)
from .structure import QuotientProjection


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
    complement: FiniteGroup | tuple | None  # a tuple of coset numbers modulo R
    search_space: int
    examined: int
    method: str = "lift-search"
    evidence: list = field(default_factory=list)


def small_generating_set(table: ProductTable, gens) -> list[int]:
    """A short generating list, as indices, for the group of ``table``,
    which the indices ``gens`` generate; deterministic.

    Drops the identity, repeats and redundant generators with the pass
    ``pick_generators`` ends with; when more than four remain, tries
    ``pick_generators`` on all of the table's indices.
    """
    n = len(table.elements)
    gens = drop_redundant(list(dict.fromkeys(g for g in gens if g)), n, table.close)
    if len(gens) > 4:
        rebuilt = pick_generators(range(n), table.order, table.close)
        if len(rebuilt) < len(gens):
            gens = rebuilt
    return gens


def _orbit_reps(candidates, maps):
    """The least member of each orbit of the conjugation ``maps`` on the
    ascending candidate indices, in order."""
    cand_set = set(candidates)
    found = orbits(candidates, maps)
    # conjugation must preserve the fiber and the order filter
    if not all(orb <= cand_set for _, orb in found):
        raise AssertionError("orbit left the candidate fiber")
    return [x for x, _ in found]


def _search(G, N, modulo, *, collect_all=False):
    """Core lift-tuple search.  Returns (report, all_found).

    Without ``collect_all`` the search stops at the first complement and
    its first lift ranges over N-conjugacy orbit representatives only.
    With ``modulo``, a projection of G by R <= N, it searches G/R for
    complements of N/R; each found complement is the ascending tuple of
    its coset numbers.
    """
    if not is_normal(N, G):
        raise NotNormalError("complement search requires N normal in G")
    if modulo is None:
        table = ProductTable.of(G)
    elif modulo.source is G:
        table = modulo.table
    else:
        raise PreconditionError("the projection must start from G")
    degree, elements = G.degree, table.elements
    index = G.order // N.order
    inner = table.close(map(table.index, N._raw_gens))  # N/R, of order |N|/|R| iff R <= N
    if len(inner) * index != len(elements):
        raise PreconditionError("the projection's kernel must lie in N")
    if len(inner) == 1 or index == 1:  # N = R, or N = G
        if modulo is not None:
            K = tuple(range(len(elements) if index > 1 else 1))
        elif index > 1:
            K = FiniteGroup(degree, G._raw_gens, order=G.order)
        else:
            K = FiniteGroup.trivial(degree)
        return ComplementReport(True, K, 1, 1), [K]
    proj = QuotientProjection(G, N)
    qtable = proj.table  # Q = G/N on N's coset numbers
    number = (lambda fiber: fiber) if modulo is None else modulo.numbers
    qgens = small_generating_set(qtable, map(qtable.index, G._raw_gens))
    fibers = [number(proj.fiber(c)) for c in qgens]
    full_space = prod(len(f) for f in fibers)
    wants = [qtable.order(c) for c in qgens]
    levels = [[x for x in f if table.order(x) == w] for f, w in zip(fibers, wants)]
    if not all(levels):
        return ComplementReport(False, None, full_space, 0), []
    if not collect_all:
        levels[0] = _orbit_reps(levels[0], table.conjugations(map(table.index, N._raw_gens)))
    forbidden = frozenset(inner) - {0}  # N/R but 1
    found = []  # (members, lifts), members ascending
    examined = 0

    def dfs(lifts, closed):
        nonlocal examined
        last = len(lifts) + 1 == len(levels)
        for x in levels[len(lifts)]:
            trial = table.close(lifts + [x], seed=closed, forbidden=forbidden, abort_over=index)
            examined += last
            if trial is None:
                continue
            if last:
                found.append((tuple(sorted(trial)), lifts + [x]))
                if not collect_all:
                    return True
            elif dfs(lifts + [x], trial):
                return True
        return False

    dfs([], {0})
    found.sort()  # ascending indices are canonical order
    if modulo is None:
        found = [FiniteGroup(degree, [elements[y] for y in lifts],
                             elements=map(elements.__getitem__, members))
                 for members, lifts in found]
    else:
        found = [members for members, _ in found]
    first = found[0] if found else None
    return ComplementReport(bool(found), first, full_space, examined), found


def find_complement(G: FiniteGroup, N: FiniteGroup, *, modulo=None) -> ComplementReport:
    """Decide whether N has a complement in G; sound and complete.

    ``modulo``: a ``QuotientProjection`` of G by R normal in G, R <= N;
    then whether N/R has a complement in G/R, decided on G/R's coset
    numbers without building G/R.
    """
    report, _ = _search(G, N, modulo)
    return report


def exhaustive_search(G: FiniteGroup, N: FiniteGroup, *, modulo=None):
    """Full enumeration: (report, every complement), no orbit shortcuts;
    ``modulo`` as in ``find_complement``, each complement then a tuple of
    coset numbers."""
    return _search(G, N, modulo, collect_all=True)


def all_complements(G: FiniteGroup, N: FiniteGroup) -> list[FiniteGroup]:
    """All complements of N in G, from the exhaustive lift enumeration."""
    return exhaustive_search(G, N)[1]


def complements_conjugate(G: FiniteGroup, N: FiniteGroup) -> bool:
    """Whether all complements of N in G form a single conjugacy class."""
    comps = all_complements(G, N)
    if not comps:
        return False
    table = ProductTable.of(G)
    keys = [frozenset(map(table.index, K.element_tuples)) for K in comps]
    on_sets = [lambda members, c=c: frozenset(map(c, members))
               for c in table.conjugations(map(table.index, G._raw_gens))]
    return set(keys) <= orbit(keys[0], on_sets)
