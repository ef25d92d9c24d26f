"""Automorphism groups as permutation groups on the element set.

aut_group backtracks over images of a small generating set of N.  The
search runs on N's element indices, not on permutation tuples: a
``group.ProductTable`` answers every product as a lookup, col(h)[y]
being the index of y h, and builds a column from |N| products only
when the search first reads h; element orders are ``group.element_order``.
So the search costs one column per element it tries, never the full
|N| x |N| table (the multiplication-table approach of Cannon and Holt,
J. Symbolic Comput. 35, 2003).

Candidate images are filtered by cheap invariants (element order,
centralizer size) and pruned by word-order signatures, which read only
the columns of their two arguments.  A full assignment is accepted iff
the generator images extend without conflict (``ProductTable.extend``,
which also certifies ``ActionSpec``'s maps) to a table of |N| indices
with |N| distinct values -- that table is then the automorphism as a
permutation of the indices, so acceptance is exact, not heuristic.  The
same search, run between two groups' tables, decides isomorphism
(``TransporterSearch``).

The carrier comes from the stabilizer chain of the generator base by
Schreier orbits, the orbit-stabilizer step of Schreier-Sims (G. Butler,
LNCS 559, 1991; Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 4).  From the deepest generator up, the transporters
found so far fix g_0, ..., g_{k-1}: the orbit of g_k under them needs no
search, and an image without a transporter rules out its whole orbit.
|Aut(N)| is the product of the orbit sizes, and the transporters are the
carrier's generators, closed by ``close_set``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import config
from .complements import find_complement
from .errors import AutBudgetError, PreconditionError
from .group import (
    FiniteGroup, ProductTable, close_set, conjugation_perm, element_order, is_normal, orbit,
    pick_generators,
)
from .perm import Permutation, mult, power
from .structure import center, cosets, derived_subgroup, element_fingerprints, is_abelian


@dataclass
class AutGroup:
    base: FiniteGroup
    carrier: FiniteGroup       # acts on the |N| elements of N
    inn: FiniteGroup           # conjugation images, normal in carrier
    out_order: int


def _word_sig(table, a, b):
    """Orders of ab, ab^2, a^2b and (ab)^2 b: kept by every isomorphism."""
    col_a, col_b, order = table.col(a), table.col(b), table.order
    ab = col_b[a]
    return (
        order(ab),
        order(col_b[ab]),
        order(col_b[col_a[a]]),
        order(col_b[col_b[col_a[ab]]]),
    )


def validate(source, target, gens, imgs):
    """The bijective homomorphism gens -> imgs as a tuple of target indices, or None.

    ``gens`` index elements generating the whole source group; n distinct
    values make the conflict-free table of ``extend_images`` a bijection.
    """
    images = source.extend(gens, target, imgs)
    if images is None or len(set(images)) != len(images):
        return None
    return images


class TransporterSearch:
    """Backtracking over images of ``gens``, pruned by word signatures.

    Generators and images are element indices of the two groups' product
    tables.  ``candidates[i]`` lists the allowed images of ``gens[i]`` in
    search order; a full image list is accepted by ``validate``.  Within
    one group this finds automorphisms with prescribed generator images
    (the transporters of the stabilizer chain); between two groups, an
    isomorphism.
    """

    def __init__(self, source, target, gens, candidates):
        self.source, self.target = source, target
        self.gens, self.candidates = gens, candidates
        self.sigs = [[_word_sig(source, a, b) for b in gens] for a in gens]

    @classmethod
    def between(cls, G: FiniteGroup, H: FiniteGroup) -> "TransporterSearch":
        """The search for maps G -> H, |G| = |H|.

        The candidates for each of G's reduced generators are the elements of
        H with its ``element_fingerprints`` value, in canonical order; rarest
        lists go first, to prune early.
        """
        fp_g, fp_h = element_fingerprints(G), element_fingerprints(H)
        source, elements = ProductTable.of(G), G.element_tuples
        gens = pick_generators(range(G.order), source.order, source.close)
        cands = [[i for i, t in enumerate(H.element_tuples) if fp_h[t] == fp_g[elements[g]]]
                 for g in gens]
        order_by = sorted(range(len(gens)), key=lambda i: (len(cands[i]), i))
        return cls(source, ProductTable.of(H),
                   [gens[i] for i in order_by], [cands[i] for i in order_by])

    def compatible(self, imgs, x):
        """Whether x may follow the image prefix imgs."""
        level = len(imgs)
        return all(_word_sig(self.target, imgs[i], x) == self.sigs[i][level] for i in range(level))

    def first(self, imgs):
        """The first bijective homomorphism extending imgs, as validate gives it, or None."""
        if len(imgs) == len(self.gens):
            return validate(self.source, self.target, self.gens, imgs)
        for x in self.candidates[len(imgs)]:
            if self.compatible(imgs, x):
                got = self.first(imgs + [x])
                if got is not None:
                    return got
        return None


def aut_group(N: FiniteGroup, *, carrier_cap: int | None = None) -> AutGroup:
    """The full automorphism group of N; cached on N."""
    return N.cached("aut", lambda N: _aut_group(N, carrier_cap))


def _aut_group(N: FiniteGroup, carrier_cap: int | None) -> AutGroup:
    if N.order > config.aut_base_cap():
        raise AutBudgetError(
            f"aut_group refused for |N| = {N.order} over cap {config.aut_base_cap()}"
        )
    cap = carrier_cap if carrier_cap is not None else config.aut_carrier_cap()
    n = N.order
    if n == 1:
        carrier = FiniteGroup.trivial(1)
        return AutGroup(N, carrier, carrier, 1)

    search = TransporterSearch.between(N, N)
    gens, candidates = search.gens, search.candidates
    transporters, moves, order = [], [], 1
    for k in reversed(range(len(gens))):
        # every transporter so far fixes gens[:k]: orbits under them lie
        # inside the orbits of the automorphisms fixing gens[:k]
        prefix = list(gens[:k])
        reached = orbit(gens[k], moves)
        ruled_out = set()
        for x in candidates[k]:
            if x in reached or x in ruled_out or not search.compatible(prefix, x):
                continue
            tau = search.first(prefix + [x])
            if tau is None:
                ruled_out |= orbit(x, moves)
            else:
                transporters.append(tau)
                moves.append(tau.__getitem__)
                reached = orbit(gens[k], moves)
        order *= len(reached)
        if order > cap:
            raise AutBudgetError(f"automorphism group exceeds carrier cap {cap}")

    elements = close_set(transporters, n, abort_over=order)
    if elements is None or len(elements) != order:
        raise AutBudgetError("internal: transporters do not close to the orbit product")
    carrier = FiniteGroup(n, transporters, elements=elements)
    # generated_subgroup refuses a conjugation outside the carrier
    inn = carrier.generated_subgroup([conjugation_perm(N, g) for g in N._raw_gens])

    z = center(N).order
    if inn.order != N.order // z:
        raise AutBudgetError("internal: |Inn| != |N| / |Z(N)|")
    if not is_normal(inn, carrier):
        raise AutBudgetError("internal: Inn not normal in carrier")

    return AutGroup(N, carrier, inn, carrier.order // inn.order)


def is_characteristic(M: FiniteGroup, N: FiniteGroup) -> bool:
    """True iff every automorphism generator maps M's element set to itself."""
    aut = aut_group(N)
    idx = N.element_index
    mids = {idx[t] for t in M.element_tuples}
    for gamma in aut.carrier._raw_gens:
        if {gamma[i] for i in mids} != mids:
            return False
    return True


def rose_criterion(N: FiniteGroup) -> bool:
    """Trivial center and Inn(N) complemented in Aut(N); cached on N.

    Holding, it makes N complemented in every group embedding it
    normally.
    """
    return N.cached("rose", _rose_criterion)


def _centerless(N: FiniteGroup) -> bool:
    """Z(N) = 1; an abelian N is its own center, so it is not enumerated."""
    return N.order == 1 if is_abelian(N) else center(N).is_trivial()


def _rose_criterion(N: FiniteGroup) -> bool:
    if not _centerless(N):
        return False
    aut = aut_group(N)
    return find_complement(aut.carrier, aut.inn).exists


def is_complete(N: FiniteGroup) -> bool:
    if not _centerless(N):
        return False
    aut = aut_group(N)
    return aut.carrier.order == aut.inn.order


def prop_special_search(N: FiniteGroup):
    """Search for (gamma, k): gamma^k inner-derived, (delta gamma)^k != 1 always.

    Scans the cosets of Inn in Aut but Inn itself (delta = gamma^-1 kills
    every k) in canonical order.  The first coset with a hit gives its
    least k and the first member gamma with gamma^k in Inn(N)'; None when
    no coset has one.  The all-delta condition says that no member of
    the coset has order dividing k.

    Let d be the coset's order in Aut/Inn.  Inn' lies in Inn, so
    gamma^k in Inn' forces d | k, and every member's order is a multiple
    of d.  A member of order exactly d thus divides every k worth trying,
    and the coset is skipped as soon as one turns up; otherwise k = d
    passes the all-delta condition and is tried first.  Both conditions
    are periodic in k with period L, the lcm of the members' orders, and
    no multiple of L passes, so k < L.
    """
    if not _centerless(N):
        raise PreconditionError("search requires a centerless group")
    aut = aut_group(N)
    carrier, inn = aut.carrier, aut.inn
    if carrier.order == inn.order:
        return None
    # Inn(N)' is the image of N' under g -> conjugation by g
    inn_derived = carrier.generated_subgroup(
        [conjugation_perm(N, g) for g in derived_subgroup(N)._raw_gens]
    ).element_set
    walk = cosets(carrier, inn)
    next(walk)  # Inn itself
    for coset in walk:
        for k in _coset_exponents(coset, inn.element_set, element_order(carrier)):
            for gamma in coset:
                if power(gamma, k) in inn_derived:
                    return Permutation._wrap(gamma), k
    return None


def _coset_exponents(coset, inn, order):
    """The k < L, multiples of the coset's order d in Aut/Inn, that no
    member's order divides, ascending; empty if a member has order d.
    ``order`` gives the members' orders."""
    first = coset[0]
    d, x = 1, first
    while x not in inn:
        x = mult(x, first)
        d += 1
    orders = set()
    for gamma in coset:
        o = order(gamma)
        if o == d:
            return []
        orders.add(o)
    return [k for k in range(d, lcm(*orders), d) if all(k % o for o in orders)]
