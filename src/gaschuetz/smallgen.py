"""Exhaustive construction of the small-group catalog.

Every solvable group has a normal subgroup of prime index, so all
groups of order n <= 63 except the alternating group of degree 5 arise
as cyclic extensions of groups of order n/p.  Extension data is a pair
(alpha, z) with alpha an automorphism of the kernel N, z in N,
alpha(z) = z and alpha^p equal to conjugation by z; the extension
multiplies as (n1, i)(n2, j) = (n1 alpha^i(n2) z^[i+j >= p], i+j mod p).
Scanning alpha over conjugacy classes of Aut(N) and z over its valid
set covers every extension up to isomorphism; new groups are kept after
isomorphism dedup against the already found ones.

This module is the generator behind the bundled catalog file; tests
re-run it at small orders and compare against the published group
counts.
"""

from __future__ import annotations

import argparse

from .autgroups import aut_group
from .catalog import CatalogEntry, abelian_name, build_named_group, save_catalog
from .errors import GroupError
from .group import FiniteGroup, close_set, conjugation_perm
from .isomorphism import is_isomorphic
from .perm import identity_images, mult, power
from .structure import center, conjugacy_classes, is_abelian, prime_factors

# Aut(C2^4) = GL(4, 2) has 20160 elements, just over the default carrier
# cap; generation raises it locally.
GENERATION_CARRIER_CAP = 30_000


def extension_data(N: FiniteGroup, p: int):
    """Yield (alpha, z) pairs describing the C_p extensions of N.

    alpha is an element of the Aut carrier: a permutation of N's element
    indices.
    """
    aut = aut_group(N, carrier_cap=GENERATION_CARRIER_CAP)
    idx = N.element_index
    conj_witness = {}
    for t in N.element_tuples:
        conj_witness.setdefault(conjugation_perm(N, t), t)
    center_elems = center(N).element_tuples
    for cls in conjugacy_classes(aut.carrier):
        alpha = cls[0]
        alpha_p = power(alpha, p)
        witness = conj_witness.get(alpha_p)
        if witness is None:
            continue  # alpha^p not inner: no compatible z
        for zc in center_elems:
            z = mult(witness, zc)
            if alpha[idx[z]] != idx[z]:
                continue
            # paranoia: conjugation by z must be exactly alpha^p
            if conjugation_perm(N, z) != alpha_p:
                raise GroupError("internal: conjugation witness drifted")
            yield alpha, z


def cyclic_extension(N: FiniteGroup, p: int, alpha, z) -> FiniteGroup:
    """The extension of N by a cyclic group of order p, left-regular."""
    elems = N.element_tuples
    k = len(elems)
    idx = N.element_index
    z = z if isinstance(z, tuple) else z.images
    alpha_pows = [power(alpha, j) for j in range(p)]

    def point(t, i):
        return i * k + idx[t]

    def left_mult_perm(a, j):
        # (a, j)(t, i) = (a alpha^j(t) z^[i+j >= p], (i+j) mod p)
        out = [0] * (k * p)
        aj = alpha_pows[j]
        for i in range(p):
            for t in elems:
                word = mult(a, elems[aj[idx[t]]])
                if i + j >= p:
                    word = mult(word, z)
                out[point(t, i)] = point(word, (i + j) % p)
        return tuple(out)

    gens = [left_mult_perm(g, 0) for g in N._raw_gens]
    gens.append(left_mult_perm(identity_images(N.degree), 1))
    G = FiniteGroup.from_raw(k * p, gens, order=k * p)
    if len(close_set(gens, k * p)) != k * p:
        raise GroupError("extension data does not define a group")
    return G


def _dedup_add(found, G) -> bool:
    if any(is_isomorphic(G, H) for H in found):
        return False
    found.append(G)
    return True


def generate_small_groups(max_order: int, *, progress=None) -> dict[int, list[FiniteGroup]]:
    """All groups of each order up to max_order, up to isomorphism."""
    groups: dict[int, list[FiniteGroup]] = {1: [FiniteGroup.trivial(1)]}
    for n in range(2, max_order + 1):
        found: list[FiniteGroup] = []
        if n == 60:
            _dedup_add(found, build_named_group("A5"))
        for p in sorted(set(prime_factors(n))):
            for N in groups[n // p]:
                for alpha, z in extension_data(N, p):
                    G = cyclic_extension(N, p, alpha, z)
                    _dedup_add(found, G)
        groups[n] = found
        if progress is not None:
            progress(n, len(found))
    return groups


# Published group counts per order (standard reference values), used by
# the generator's own tests as an external oracle.
KNOWN_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1, 20: 5,
    21: 2, 22: 2, 23: 1, 24: 15, 25: 2, 26: 2, 27: 5, 28: 4, 29: 1, 30: 4,
    31: 1, 32: 51, 33: 1, 34: 2, 35: 1, 36: 14, 37: 1, 38: 2, 39: 2, 40: 14,
    41: 1, 42: 6, 43: 1, 44: 4, 45: 2, 46: 2, 47: 1, 48: 52, 49: 2, 50: 5,
    51: 1, 52: 5, 53: 1, 54: 15, 55: 2, 56: 13, 57: 2, 58: 2, 59: 1, 60: 13,
    61: 1, 62: 2, 63: 4,
}


# Grammar names tried, in this order, as canonical names of nonabelian
# generated groups; D<n> follows them at every even order n >= 6.
_NAMED_BY_ORDER = {6: ["S3"], 8: ["Q8"], 12: ["A4"], 24: ["S4", "SL23"], 60: ["A5"]}

# Catalog groups beyond the generated orders, built from their names.
_NAMED_LARGE = ("S5", "A6", "C3^2:Q8", "C5^2:Q8", "C5^2:D8", "S3wrC2", "(C3^2:Q8)xC2")


def _named_candidates(n: int):
    """Recognizable constructions of order n, tried as canonical names."""
    names = list(_NAMED_BY_ORDER.get(n, []))
    if n % 2 == 0 and n >= 6:
        names.append(f"D{n}")
    return [(name, build_named_group(name)) for name in names]


def catalog_entries(max_order: int = 63, *, progress=None):
    """Catalog records for every group up to max_order plus named large groups.

    Abelian groups get their invariant-factor name; nonabelian groups are
    matched against recognizable constructions, falling back to
    G<order>_<index>.
    """
    groups = generate_small_groups(max_order, progress=progress)
    entries = []
    used = set()
    for n in sorted(groups):
        named = _named_candidates(n)
        for i, G in enumerate(groups[n], start=1):
            name = None
            tags = [f"order={n}"]
            if is_abelian(G):
                name = abelian_name(G)
                tags.append("abelian")
            else:
                for cand_name, cand in named:
                    if cand_name not in used and is_isomorphic(G, cand):
                        name = cand_name
                        break
            if name is None or name in used:
                name = f"G{n}_{i}"
            used.add(name)
            small = G.subgroup(G.element_tuples)
            entries.append(
                CatalogEntry(
                    name=name,
                    degree=small.degree,
                    generators=[list(g) for g in small._raw_gens],
                    tags=tags,
                )
            )
    for name in _NAMED_LARGE:
        G = build_named_group(name)
        entries.append(
            CatalogEntry(
                name=name,
                degree=G.degree,
                generators=[list(g) for g in G._raw_gens],
                tags=[f"order={G.order}", "named-large"],
            )
        )
    return entries


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Regenerate the bundled small-group catalog."
    )
    ap.add_argument("--max-order", type=int, default=63)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    def prog(n, k):
        print(f"order {n}: {k} groups", flush=True)

    entries = catalog_entries(args.max_order, progress=prog)
    save_catalog(entries, args.out)
    print(f"wrote {len(entries)} entries to {args.out}")


if __name__ == "__main__":
    main()
