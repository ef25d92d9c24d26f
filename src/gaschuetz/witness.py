"""Counterexample bundles: build them, verify them end to end.

The wreath construction: given N with nontrivial Z(N) meet N' and q > 1
coprime to |N|, pick z of prime order in the meet, form W = N wr C_q,
identify z with the diagonal (z, ..., z) in a central product
G = (N x W) / <(z, zbar)>, and set H = N D (D the wreath base).  Then
the twisted diagonal K = {x (x, x_2, ..., x_q)} complements N in H, but
N has no complement in G.

Everything about such a bundle is checked at the ambient direct-product
degree (deg N + deg W), through saturated preimages; only generators of
the large quotient G are ever materialized at the quotient degree.  That
holds for both complement searches: each runs on P = N x W's cosets
(``complements``' search modulo a normal subgroup of P), with products
by P's lookup.

Nonexistence certificate: every complement of N in G has, after
conjugating the order-q part onto the rotation, to contain the image R
of the base's derived subgroup (first-coordinate commutators lie in any
complement, and rotation conjugates spread them).  The search therefore
runs in G/R = P/R^, R^ the preimage of R: all complements of NR/R are
enumerated exhaustively, and each pullback contains R, hence the image
of z, hence meets N.  This module holds the only quotient-reduced
certificate.  The unreduced search over G = P/Z0 itself is available
behind a flag and must agree wherever both run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from . import config
from .autgroups import aut_group
from .complements import (
    ComplementReport,
    Embedding,
    exhaustive_search,
    find_complement,
)
from .constructors import (
    ActionSpec,
    CentralProduct,
    WreathProduct,
    central_product,
    cyclic,
    semidirect_product,
    sl_2_3,
    wreath_cyclic,
)
from .errors import GroupError, PreconditionError, SizeLimitError, order_text
from .group import FiniteGroup, element_order, is_normal, is_subgroup
from .perm import Permutation, mult
from .structure import (
    QuotientProjection,
    center,
    center_meet_derived,
    derived_subgroup,
    is_prime,
    is_solvable,
    sylow,
)


@dataclass
class WitnessBundle:
    embedding: Embedding
    complement_in_h: FiniteGroup
    nonexistence: ComplementReport | None
    q: int
    z: Permutation | None
    verified: bool = False
    construction: _WreathCentral | None = None  # ambient handles for verification

    def to_json(self) -> str:
        def enc(G):
            return {"degree": G.degree, "generators": [list(g) for g in G._raw_gens]}

        payload = {
            "G": enc(self.embedding.G),
            "H": enc(self.embedding.H),
            "N": enc(self.embedding.N),
            "K": enc(self.complement_in_h),
            "q": self.q,
            "z": list(self.z.images) if self.z is not None else None,
            "verified": self.verified,
        }
        if self.nonexistence is not None:
            payload["nonexistence"] = {
                "exists": self.nonexistence.exists,
                "search_space": self.nonexistence.search_space,
                "examined": self.nonexistence.examined,
                "method": self.nonexistence.method,
            }
        return json.dumps(payload, sort_keys=True)


class _WreathCentral:
    """Ambient bookkeeping for a wreath/central-product bundle.

    Subgroups of G are tracked by their saturated preimages in
    P = N x W, where all element enumeration happens (degree
    deg N + q deg N instead of |G|).  n_pairs, d_pairs and k_pairs
    generate the preimages of N, the wreath base D and the twisted
    diagonal K in P.
    """

    def __init__(self, N: FiniteGroup, q: int, z: Permutation):
        self.N = N
        self.q = q
        self.z = z
        self.wreath: WreathProduct = wreath_cyclic(N, q)
        zbar = self.wreath.diagonal(z)
        self.cp: CentralProduct = central_product(N, self.wreath.group, z, zbar)
        self.P = self.cp.product
        self.proj = self.cp.projection
        self.G = self.cp.group
        self.z0 = self.cp.identified  # the identified central cyclic subgroup
        pair_n, pair_w, embed = self.cp.pair_left, self.cp.pair_right, self.wreath.embed
        self.n_pairs = [pair_n(g) for g in N._raw_gens]
        self.d_pairs = [pair_w(embed(c, g).images) for c in range(q) for g in N._raw_gens]
        # twisted diagonal K: coordinate 0 of the base tied to the N factor
        self.k_pairs = [
            mult(n, d) for n, d in zip(self.n_pairs, self.d_pairs)
        ] + self.d_pairs[len(N._raw_gens):]

    def saturated(self, pair_gens) -> FiniteGroup:
        """<pair_gens, Z0> inside P: the full preimage of the image subgroup."""
        return self.P.generated_subgroup(list(pair_gens) + list(self.z0._raw_gens))

    def image_group(self, pair_gens, order) -> FiniteGroup:
        return FiniteGroup(self.G.degree, [self.proj(g) for g in pair_gens], order=order)


def _pick_z(N: FiniteGroup) -> Permutation:
    """Canonical least prime-order element of Z(N) meet N'."""
    meet = center_meet_derived(N)
    if meet.order == 1:
        raise PreconditionError("Z(N) meet N' is trivial")
    elements = meet.element_tuples
    order = element_order(meet)
    for t in elements:  # canonical order
        if is_prime(order(t)):
            return Permutation._wrap(t)
    raise GroupError("internal: no prime-order element in a nontrivial group")


def build_znthm(N: FiniteGroup, q: int) -> WitnessBundle:
    """Construct the wreath/central-product counterexample bundle, unverified."""
    z = _pick_z(N)
    if q <= 1:
        raise PreconditionError("q must exceed 1")
    if gcd(q, N.order) != 1:
        raise PreconditionError(f"q = {q} must be coprime to |N| = {N.order}")
    zorder = z.order()
    # |N| >= 2 makes |N|^q at least 2^q: past cap.bit_length() the order
    # is refused before it is computed or printed, as in wreath_cyclic
    if q >= config.element_cap().bit_length():
        raise SizeLimitError(
            f"construction needs a direct product of order {N.order}^{q + 1}*{q}"
        )
    required = N.order ** (q + 1) * q // zorder
    if N.order * (N.order ** q * q) > config.element_cap():
        power = f"{N.order}^{q + 1}*{q}"
        raise SizeLimitError(
            f"construction needs a direct product of order "
            f"{order_text(N.order ** (q + 1) * q, power)}; "
            f"the quotient would have order {order_text(required, f'{power}/{zorder}')}",
            required_order=required,
        )
    world = _WreathCentral(N, q, z)
    n_img = world.image_group(world.n_pairs, N.order)
    h_img = world.image_group(
        world.n_pairs + world.d_pairs, N.order ** (q + 1) // zorder
    )
    k_img = world.image_group(world.k_pairs, N.order ** q // zorder)
    return WitnessBundle(
        embedding=Embedding(world.G, h_img, n_img),
        complement_in_h=k_img,
        nonexistence=None,
        q=q,
        z=world.cp.embed_left(z),
        construction=world,
    )


def verify_znthm(bundle: WitnessBundle, *, full_search: bool = False) -> WitnessBundle:
    """Check every bundle invariant; raise on the first failed clause.

    full_search additionally runs the unreduced lift search over G, on
    the central product's coset numbers of P, and requires agreement
    with the reduced certificate.
    """
    world = bundle.construction
    if not isinstance(world, _WreathCentral):
        raise PreconditionError("bundle lacks construction handles")
    N, q, z = world.N, world.q, world.z
    P, G = world.P, world.G
    zorder = z.order()

    # order identities
    expect_g = N.order ** (q + 1) * q // zorder
    expect_h = N.order ** (q + 1) // zorder
    if G.order != expect_g:
        raise GroupError(f"|G| = {G.order}, expected {expect_g}")
    if bundle.embedding.H._order != expect_h:
        raise GroupError("|H| mismatch")
    if expect_g // expect_h != q:
        raise GroupError("|G : H| != q")

    n_hat = world.saturated(world.n_pairs)
    h_hat = world.saturated(world.n_pairs + world.d_pairs)
    k_hat = world.saturated(world.k_pairs)
    if n_hat.order != N.order * zorder:
        raise GroupError("saturated preimage of N has wrong order")
    if h_hat.order != expect_h * zorder:
        raise GroupError("saturated preimage of H has wrong order")

    # (i) normality of N and H in G, via saturated preimages in P
    if not is_normal(n_hat, P):
        raise GroupError("N is not normal in G")
    if not is_normal(h_hat, P):
        raise GroupError("H is not normal in G")

    # (ii) K complements N in H
    if not k_hat.element_set <= h_hat.element_set:
        raise GroupError("K does not lie in H")
    meet = k_hat.element_set & n_hat.element_set
    if len(meet) != zorder:  # exactly the identified kernel
        raise GroupError("K meets N beyond the identified center")
    k_order = k_hat.order // zorder
    if k_order * N.order != expect_h:
        raise GroupError("N K does not fill H")

    # (iii) G/H cyclic of order q, read off its table on H^'s coset numbers;
    # composition factors checked weakly
    hq = QuotientProjection(P, h_hat).table
    if len(hq.elements) != q:
        raise GroupError("G/H has wrong order")
    if not any(hq.order(c) == q for c in range(q)):
        raise GroupError("G/H is not cyclic")
    if is_solvable(n_hat) != is_solvable(h_hat):
        raise GroupError("solvability of H disagrees with N")

    # nonexistence, reduced to G/R with R the image of the base derived subgroup
    report = _reduced_nonexistence(world, n_hat)
    if report.exists:
        raise GroupError("reduced search found a complement of N in G")
    bundle.nonexistence = report

    if full_search:  # in G = P/Z0, on the central product's coset numbers
        direct = find_complement(P, n_hat, modulo=world.proj)
        if direct.exists != report.exists:
            raise GroupError("full search disagrees with the reduced certificate")
        report.evidence.append(
            f"full lift search agreed (space {direct.search_space}, "
            f"examined {direct.examined})"
        )

    bundle.verified = True
    return bundle


def _reduced_nonexistence(world: _WreathCentral, n_hat: FiniteGroup) -> ComplementReport:
    """Exhaustive search in G/R plus the pullback obstruction.

    Any complement of N in G contains, after conjugation, the image R of
    the base's derived subgroup; complements containing R project to
    complements of NR/R in G/R.  R meets N nontrivially (it contains the
    identified central element), so every pullback meets N and no
    complement survives.  The quotient search is run exhaustively so the
    certificate does not rest on the emptiness claim alone; it runs on the
    cosets of R^ in P, over the preimage of NR.  n_hat is the saturated
    preimage of N that ``verify_znthm`` has built.
    """
    P = world.P
    d_hat = FiniteGroup(P.degree, world.d_pairs, order=world.N.order ** world.q)
    d_derived = derived_subgroup(d_hat)
    r_hat = world.saturated(d_derived._raw_gens)
    meet = r_hat.element_set & n_hat.element_set
    z_members = len(meet)
    if z_members <= world.z0.order:
        raise GroupError(
            "internal: R meets N only in the identified kernel; "
            "the reduced certificate does not apply"
        )
    m_hat = world.saturated(world.n_pairs + list(d_derived._raw_gens))  # the preimage of NR
    probe, quotient_complements = exhaustive_search(P, m_hat, modulo=QuotientProjection(P, r_hat))
    evidence = [
        f"R meets N in {z_members // world.z0.order} nontrivial classes; "
        f"every complement containing R would meet N",
        f"quotient search found {len(quotient_complements)} complement(s) of "
        f"NR/R in G/R, each pulling back onto R and hence into N",
    ]
    return ComplementReport(
        exists=False,
        complement=None,
        search_space=probe.search_space,
        examined=probe.examined,
        method="quotient-reduced lift-search",
        evidence=evidence,
    )


def baer_bundle() -> WitnessBundle:
    """The order-48 central product with its split-then-unsplit quaternion core."""
    sl = sl_2_3()
    c4 = cyclic(4)
    zs = center(sl)
    order = element_order(zs)
    z = next(Permutation._wrap(t) for t in zs.element_tuples if order(t) == 2)
    zbar = (c4.generators[0]) ** 2
    cp = central_product(sl, c4, z, zbar)
    G = cp.group
    if G.order != 48:
        raise GroupError("central product has wrong order")
    q8 = derived_subgroup(sl)
    n_img = FiniteGroup(
        G.degree, [cp.embed_left(g) for g in q8._raw_gens], order=8
    )
    H = sylow(G, 2)
    if H.order != 16:
        raise GroupError("Sylow 2-subgroup has wrong order")
    if not is_subgroup(n_img, H):
        raise GroupError("quaternion core not inside the Sylow 2-subgroup")
    emb = Embedding(G, H, n_img).validate()
    in_h = find_complement(H, n_img)
    if not in_h.exists:
        raise GroupError("expected a complement inside the Sylow 2-subgroup")
    in_g = find_complement(G, n_img)
    if in_g.exists:
        raise GroupError("expected no complement in the full group")
    return WitnessBundle(
        embedding=emb,
        complement_in_h=in_h.complement,
        nonexistence=in_g,
        q=G.order // H.order,
        z=cp.embed_left(z),
        verified=True,
    )


def blow_up(L: FiniteGroup, bundle: WitnessBundle, action: ActionSpec | None) -> WitnessBundle:
    """Extend a counterexample by a coprime normal layer L.

    Forms L x| G through the given action and transports the embedding;
    the old complement still complements the extended core in the
    extended middle group, and nonexistence is re-verified by search.
    """
    G = bundle.embedding.G
    H = bundle.embedding.H
    N = bundle.embedding.N
    K = bundle.complement_in_h
    if L.order == 1:
        return bundle
    index = G.order // H.order
    if gcd(L.order, index) != 1:
        raise PreconditionError(
            f"|L| = {L.order} must be coprime to |G : H| = {index}"
        )
    if action is None:
        action = ActionSpec.trivial(G, L)
    if action.acting is not G or action.target is not L:
        raise PreconditionError("action must map the bundle's G into Aut(L)")
    sd = semidirect_product(L, G, action)
    ghat = sd.group
    l_gens = list(sd.n_image._raw_gens)
    nhat = ghat.generated_subgroup(l_gens + [sd.embed_h(g) for g in N._raw_gens])
    hhat = ghat.generated_subgroup(l_gens + [sd.embed_h(g) for g in H._raw_gens])
    khat = ghat.generated_subgroup([sd.embed_h(g) for g in K._raw_gens])
    if nhat.order != L.order * N.order or hhat.order != L.order * H.order:
        raise GroupError("blow-up images have wrong orders")
    if not is_normal(nhat, ghat) or not is_normal(hhat, ghat):
        raise GroupError("blow-up lost normality")
    if len(khat.element_set & nhat.element_set) != 1:
        raise GroupError("old complement meets the extended core")
    if khat.order * nhat.order != hhat.order:
        raise GroupError("old complement does not fill the extended middle group")
    report = find_complement(ghat, nhat)
    if report.exists:
        raise GroupError("blow-up unexpectedly produced a split extension")
    emb = Embedding(ghat, hhat, nhat)
    zhat = sd.embed_h(bundle.z) if bundle.z is not None else None
    return WitnessBundle(
        embedding=emb,
        complement_in_h=khat,
        nonexistence=report,
        q=ghat.order // hhat.order,
        z=zhat,
        verified=True,
    )


def build_perfect(N: FiniteGroup, q: int) -> Embedding:
    """Perfect-centerless counterexample scaffold; gated by size.

    The ambient group has order q |N|^q |Aut(N)|; the smallest perfect
    centerless group already pushes this past any desk-scale cap, so the
    expected outcome is a size error reporting the required order.
    """
    if not center(N).is_trivial():
        raise PreconditionError("N must be centerless")
    if derived_subgroup(N).order != N.order:
        raise PreconditionError("N must be perfect")
    if q <= 1:
        raise PreconditionError("q must exceed 1")
    aut_order = aut_group(N).carrier.order
    if gcd(q, aut_order) != 1:
        raise PreconditionError(
            f"q = {q} must be coprime to |Aut(N)| = {aut_order}"
        )
    if N.order > 1 and q >= config.element_cap().bit_length():  # as in build_znthm
        raise SizeLimitError(
            f"the construction needs a group of order {q}*{N.order}^{q}*{aut_order}"
        )
    required = q * N.order ** q * aut_order
    text = order_text(required, f"{q}*{N.order}^{q}*{aut_order}")
    raise SizeLimitError(
        f"the construction needs a group of order {text}; "
        f"cap is {config.element_cap()}",
        required_order=required,
    )
