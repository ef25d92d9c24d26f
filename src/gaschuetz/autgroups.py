"""Automorphism groups as permutation groups on the element set.

aut_group backtracks over images of a small generating set of N.
Candidate images are filtered by cheap invariants (element order,
centralizer size) and pruned by word-order signatures; a full assignment
is accepted iff the generator images extend without conflict to a table
of |N| elements with |N| distinct values -- that table is then the graph
of the automorphism, so acceptance is exact, not heuristic.  The same
search, run between two groups, decides isomorphism
(``TransporterSearch``).

The enumeration follows the stabilizer chain of the generator base:
automorphisms fixing g_0, ..., g_{k-1} and sending g_k to x form a left
coset of the next stabilizer, so one transporter per image plus the
recursively enumerated stabilizer assembles the whole group without
validating |Aut(N)| full assignments one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .complements import find_complement
from .errors import AutBudgetError, PreconditionError
from .group import (
    FiniteGroup, conjugation_perm, element_perm, extend_images, is_normal, reduce_generators,
)
from .perm import Permutation, identity_images, mult, perm_order
from .structure import center, cosets, derived_subgroup, element_fingerprints, exponent


@dataclass
class AutGroup:
    base: FiniteGroup
    carrier: FiniteGroup       # acts on the |N| elements of N
    inn: FiniteGroup           # conjugation images, normal in carrier
    out_order: int


def _word_sig(a, b):
    """Orders of ab, ab^2, a^2b and (ab)^2 b: kept by every isomorphism."""
    ab = mult(a, b)
    return (
        perm_order(ab),
        perm_order(mult(ab, b)),
        perm_order(mult(a, ab)),
        perm_order(mult(ab, mult(ab, b))),
    )


def validate(gens, imgs, identity, image_identity, n):
    """The table of the bijective homomorphism gens -> imgs, or None.

    ``gens`` generate a group of order n; n distinct values make the
    conflict-free table of ``extend_images`` a bijection.
    """
    table = extend_images(gens, imgs, identity, image_identity, n)
    if table is None or len(set(table.values())) != n:
        return None
    return table


class TransporterSearch:
    """Backtracking over images of ``gens``, pruned by word signatures.

    ``candidates[i]`` lists the allowed images of ``gens[i]`` in search
    order; a full image list is accepted by ``validate``.  Within one
    group this finds automorphisms with prescribed generator images (the
    transporters of the stabilizer chain); between two groups, an
    isomorphism.
    """

    def __init__(self, gens, candidates, identity, image_identity, n):
        self.gens, self.candidates = gens, candidates
        self.leaf_args = (identity, image_identity, n)  # validate's other arguments
        self.sigs = [[_word_sig(a, b) for b in gens] for a in gens]

    @classmethod
    def between(cls, G: FiniteGroup, H: FiniteGroup) -> "TransporterSearch":
        """The search for maps G -> H, |G| = |H|.

        The candidates for each of G's reduced generators are the elements of
        H with its ``element_fingerprints`` value; rarest lists go first, to
        prune early.
        """
        fp_g, fp_h = element_fingerprints(G), element_fingerprints(H)
        gens = reduce_generators(set(G.element_tuples), G.degree)
        cands = [sorted(t for t in H.element_tuples if fp_h[t] == fp_g[g]) for g in gens]
        order_by = sorted(range(len(gens)), key=lambda i: (len(cands[i]), i))
        return cls(
            [gens[i] for i in order_by], [cands[i] for i in order_by],
            identity_images(G.degree), identity_images(H.degree), G.order,
        )

    def compatible(self, imgs, x):
        """Whether x may follow the image prefix imgs."""
        level = len(imgs)
        return all(_word_sig(imgs[i], x) == self.sigs[i][level] for i in range(level))

    def first(self, imgs):
        """The table of the first bijective homomorphism extending imgs, or None."""
        if len(imgs) == len(self.gens):
            return validate(self.gens, imgs, *self.leaf_args)
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
    m = len(gens)
    identity_auto = tuple(range(n))

    def stab_elements(k):
        """All automorphisms fixing gens[0..k-1] pointwise, as index perms."""
        if k == m:
            return [identity_auto]
        deeper = stab_elements(k + 1)
        prefix = list(gens[:k])
        out = []
        for x in candidates[k]:
            if not search.compatible(prefix, x):
                continue
            if x == gens[k]:
                tau = identity_auto
            else:
                table = search.first(prefix + [x])
                if table is None:
                    continue
                tau = element_perm(N, table.__getitem__)
            if tau == identity_auto:
                out.extend(deeper)
            else:
                out.extend(mult(tau, sigma) for sigma in deeper)
            if len(out) > cap:
                raise AutBudgetError(f"automorphism group exceeds carrier cap {cap}")
        return out

    autos = stab_elements(0)
    auto_set = set(autos)
    if len(auto_set) != len(autos):
        raise AutBudgetError("internal: duplicate automorphisms assembled")

    carrier_gens = reduce_generators(auto_set, n) if len(auto_set) > 1 else []
    carrier = FiniteGroup(n, carrier_gens, elements=auto_set)
    inn = carrier.generated_subgroup([conjugation_perm(N, g) for g in N._raw_gens])

    z = center(N).order
    if inn.order != N.order // z:
        raise AutBudgetError("internal: |Inn| != |N| / |Z(N)|")
    if not inn.element_set <= carrier.element_set:
        raise AutBudgetError("internal: inner automorphisms missing from carrier")
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
    """Trivial center and Inn(N) complemented in Aut(N).

    Holding, it makes N complemented in every group embedding it
    normally.
    """
    if not center(N).is_trivial():
        return False
    aut = aut_group(N)
    return find_complement(aut.carrier, aut.inn).exists


def is_complete(N: FiniteGroup) -> bool:
    if not center(N).is_trivial():
        return False
    aut = aut_group(N)
    return aut.carrier.order == aut.inn.order


def prop_special_search(N: FiniteGroup):
    """Search for (gamma, k): gamma^k inner-derived, (delta gamma)^k != 1 always.

    Scans the cosets of Inn in Aut but Inn itself (delta = gamma^-1 kills
    every k); the all-delta condition is constant on each coset, and when
    it holds the coset is swept for a member whose k-th power lands in
    Inn(N)'.  Returns (gamma, k) with both conditions re-verified, or None
    when the whole space is exhausted.  k is capped at exponent(Aut(N)):
    both conditions are periodic in k with that period.
    """
    if not center(N).is_trivial():
        raise PreconditionError("search requires a centerless group")
    aut = aut_group(N)
    carrier, inn = aut.carrier, aut.inn
    if carrier.order == inn.order:
        return None
    inn_derived = derived_subgroup(inn).element_set
    exp = exponent(carrier)
    walk = cosets(carrier, inn)
    next(walk)  # Inn itself
    for coset in walk:
        orders = sorted({perm_order(t) for t in coset})
        good_k = [k for k in range(1, exp + 1) if all(k % o for o in orders)]
        if not good_k:
            continue
        k_ok = set(good_k)
        k_max = good_k[-1]
        best = None
        for gamma in coset:
            power = gamma
            for k in range(1, k_max + 1):
                if k > 1:
                    power = mult(power, gamma)
                if k in k_ok and power in inn_derived:
                    if best is None or k < best[1]:
                        best = (gamma, k)
                    break
        if best is not None:
            return Permutation._wrap(best[0]), best[1]
    return None
