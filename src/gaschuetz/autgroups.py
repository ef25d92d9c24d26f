"""Automorphism groups as permutation groups on the element set.

aut_group backtracks over images of a small generating set of N.
Candidate images are filtered by cheap invariants (element order, power
order profile, centralizer size) and pruned by word-order signatures; a
full assignment is accepted iff the generator images extend without
conflict to a table of |N| elements with |N| distinct values -- that
table is then the graph of the automorphism, so acceptance is exact, not
heuristic.  The same search, run between two groups, decides
isomorphism (``TransporterSearch``).

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
from .group import FiniteGroup, close_set, extend_images, is_normal, reduce_generators
from .lattice import frattini
from .perm import Permutation, identity_images, inverse, mult, perm_order
from .structure import (
    center,
    conjugacy_classes,
    derived_subgroup,
    exponent,
)


@dataclass
class AutGroup:
    base: FiniteGroup
    carrier: FiniteGroup       # acts on the |N| elements of N
    inn: FiniteGroup           # conjugation images, normal in carrier
    out_order: int


def _fingerprints(N: FiniteGroup):
    """order, power order profile, centralizer size -- per element."""
    elems = N.element_tuples
    cls_size = {}
    for cls in conjugacy_classes(N):
        for t in cls:
            cls_size[t] = len(cls)
    fp = {}
    for t in elems:
        o = perm_order(t)
        powers = []
        x = t
        for _ in range(o - 1):
            powers.append(perm_order(x))
            x = mult(x, t)
        fp[t] = (o, tuple(sorted(powers)), N.order // cls_size[t])
    return fp


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
    elems = N.element_tuples
    n = len(elems)
    idx = {t: i for i, t in enumerate(elems)}
    degree = N.degree

    if n == 1:
        carrier = FiniteGroup.trivial(1)
        return AutGroup(N, carrier, carrier, 1)

    fp = _fingerprints(N)
    gens = reduce_generators(set(elems), degree)
    candidates = [sorted(t for t in elems if fp[t] == fp[g]) for g in gens]
    # rarest candidate lists first: bad prefixes die earlier
    order_by = sorted(range(len(gens)), key=lambda i: (len(candidates[i]), i))
    gens = [gens[i] for i in order_by]
    candidates = [candidates[i] for i in order_by]
    m = len(gens)
    ident = identity_images(degree)
    search = TransporterSearch(gens, candidates, ident, ident, n)
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
                tau = tuple(idx[table[t]] for t in elems)
            if tau == identity_auto:
                out.extend(deeper)
            else:
                out.extend(mult(tau, sigma) for sigma in deeper)
            if len(out) > cap:
                raise AutBudgetError(
                    f"automorphism group exceeds carrier cap {cap}",
                    estimate=len(out),
                )
        return out

    autos = stab_elements(0)
    auto_set = set(autos)
    if len(auto_set) != len(autos):
        raise AutBudgetError("internal: duplicate automorphisms assembled")

    carrier_gens = reduce_generators(auto_set, n) if len(auto_set) > 1 else []
    carrier = FiniteGroup.from_raw(n, carrier_gens, elements=auto_set)

    # inner automorphisms: conjugation by each element
    inn_set = set()
    inn_gens = []
    for g in N._raw_gens:
        ginv = inverse(g)
        p = tuple(idx[mult(mult(g, t), ginv)] for t in elems)
        inn_gens.append(p)
    inn_elems = close_set(inn_gens, n) if inn_gens else {identity_auto}
    inn = FiniteGroup.from_raw(n, inn_gens, elements=inn_elems)

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
    elems = N.element_tuples
    idx = {t: i for i, t in enumerate(elems)}
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


def gaschuetz_eick_iii(N: FiniteGroup) -> bool:
    """Inn(N) contained in the Frattini subgroup of Aut(N)."""
    aut = aut_group(N)
    return aut.inn.element_set <= frattini(aut.carrier).element_set


def prop_special_search(N: FiniteGroup):
    """Search for (gamma, k): gamma^k inner-derived, (delta gamma)^k != 1 always.

    Scans coset representatives of Inn in Aut; the all-delta condition is
    constant on each coset, and when it holds the coset is swept for a
    member whose k-th power lands in Inn(N)'.  Returns (gamma, k) with
    both conditions re-verified, or None when the whole space is
    exhausted.  k is capped at exponent(Aut(N)): both conditions are
    periodic in k with that period.
    """
    if not center(N).is_trivial():
        raise PreconditionError("search requires a centerless group")
    aut = aut_group(N)
    carrier, inn = aut.carrier, aut.inn
    if carrier.order == inn.order:
        return None
    inn_derived = derived_subgroup(inn).element_set
    inn_elems = inn.element_tuples
    exp = exponent(carrier)
    seen = set()
    for g0 in carrier.element_tuples:
        if g0 in seen:
            continue
        coset = sorted(mult(d, g0) for d in inn_elems)
        seen.update(coset)
        if g0 in inn.element_set:
            continue  # delta = gamma^-1 kills every k
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
