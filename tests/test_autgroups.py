import itertools
from math import lcm

import pytest

from gaschuetz import (
    alternating,
    center,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    quaternion8,
    symmetric,
    wreath_cyclic,
)
from gaschuetz import autgroups, config, perm
from gaschuetz.autgroups import (
    ProductTable,
    aut_group,
    is_characteristic,
    is_complete,
    prop_special_search,
    rose_criterion,
)
from gaschuetz.catalog import build_named_group
from gaschuetz.cli import main
from gaschuetz.errors import AutBudgetError, PreconditionError
from gaschuetz.group import close_set, conjugation_perm, element_order, is_normal
from gaschuetz.isomorphism import is_isomorphic
from gaschuetz.perm import mult, perm_order
from gaschuetz.structure import cosets


def oracle_aut_order(G):
    """All identity-fixing, order-preserving bijections that respect the
    full multiplication table."""
    elems = list(G.element_tuples)
    n = len(elems)
    idx = {t: i for i, t in enumerate(elems)}
    table = [[idx[mult(a, b)] for b in elems] for a in elems]
    by_order = {}
    for i, t in enumerate(elems):
        by_order.setdefault(perm_order(t), []).append(i)
    orders = sorted(by_order)
    count = 0
    pools = [by_order[o] for o in orders]
    for assignment in itertools.product(*(itertools.permutations(p) for p in pools)):
        phi = [0] * n
        for pool, images in zip(pools, assignment):
            for src, dst in zip(pool, images):
                phi[src] = dst
        ok = True
        for a in range(n):
            row = table[a]
            pa = phi[a]
            for b in range(n):
                if phi[row[b]] != table[pa][phi[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_aut_q8():
    a = aut_group(quaternion8())
    assert a.carrier.order == 24
    assert a.inn.order == 4
    assert a.out_order == 6


def test_aut_c5():
    assert aut_group(cyclic(5)).carrier.order == 4


def test_aut_wreath_s3_c2():
    a = aut_group(wreath_cyclic(symmetric(3), 2).group)
    assert a.carrier.order == 144
    assert a.inn.order == 72


def test_inn_index_formula(small_catalog_groups):
    import random

    rng = random.Random(3)
    for _, G in rng.sample(small_catalog_groups, 15):
        try:
            a = aut_group(G)
        except AutBudgetError:
            continue
        assert a.inn.order == G.order // center(G).order
        assert is_normal(a.inn, a.carrier)
        assert a.out_order * a.inn.order == a.carrier.order


def test_every_carrier_element_is_automorphism():
    # exhaustive product preservation for small bases
    for G in [symmetric(3), quaternion8(), dihedral(12)]:
        a = aut_group(G)
        elems = G.element_tuples
        idx = {t: i for i, t in enumerate(elems)}
        for gamma in a.carrier.element_tuples:
            for x in elems:
                for y in elems:
                    assert (
                        gamma[idx[mult(x, y)]]
                        == idx[mult(elems[gamma[idx[x]]], elems[gamma[idx[y]]])]
                    )


def test_aut_agrees_with_bijection_oracle(small_catalog_groups):
    for entry, G in small_catalog_groups:
        if G.order > 12:
            continue
        assert aut_group(G).carrier.order == oracle_aut_order(G), entry.name


def test_aut_budget_refusal():
    C2_5 = direct_product(
        direct_product(cyclic(2), cyclic(2)),
        direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
    )
    with pytest.raises(AutBudgetError):
        aut_group(C2_5)  # |Aut| = |GL(5,2)| is far over the carrier cap


def test_is_characteristic():
    for G in [quaternion8(), symmetric(4), dihedral(12)]:
        assert is_characteristic(center(G), G)
        assert is_characteristic(derived_subgroup(G), G)
    S4 = symmetric(4)
    A4 = S4.subgroup(alternating(4).element_tuples)
    assert is_characteristic(A4, S4)
    V = direct_product(cyclic(2), cyclic(2))
    F = V.generated_subgroup([V.generators[0]])
    assert not is_characteristic(F, V)


def test_rose_and_completeness():
    assert rose_criterion(symmetric(3)) and is_complete(symmetric(3))
    assert rose_criterion(symmetric(4)) and is_complete(symmetric(4))
    assert not rose_criterion(quaternion8())  # center nontrivial
    assert rose_criterion(alternating(5))
    assert not is_complete(alternating(5))  # outer automorphism exists
    # completeness implies the criterion (trivial complement)
    assert rose_criterion(symmetric(5))


def test_rose_of_an_abelian_group_enumerates_nothing():
    """An abelian N of order > 1 is its own nontrivial center, decided from
    its generators and declared order: C19999 is never enumerated."""
    N = cyclic(19999)
    assert not rose_criterion(N) and not is_complete(N)
    assert N._element_tuples is None


def test_rose_criterion_is_cached_on_the_group(monkeypatch):
    calls = []
    find = autgroups.find_complement
    monkeypatch.setattr(
        autgroups, "find_complement", lambda *args: calls.append(args) or find(*args)
    )
    G = symmetric(4)
    assert rose_criterion(G) and rose_criterion(G)
    assert len(calls) == 1
    assert G._cache["rose"] is True


def test_rose_direct_product_reduction():
    # criterion passes to direct products of criterion groups
    S3 = symmetric(3)
    assert rose_criterion(direct_product(S3, S3)) == rose_criterion(S3)


def test_prop_special_s3_none():
    assert prop_special_search(symmetric(3)) is None


def assert_special_pair(N, gamma, k):
    """gamma is outer, gamma^k lies in Inn(N)', and no (delta gamma)^k is 1."""
    a = aut_group(N)
    assert gamma.images not in a.inn.element_set
    assert (gamma ** k).images in derived_subgroup(a.inn).element_set
    for d in a.inn.element_tuples:
        assert k % perm_order(mult(d, gamma.images)) != 0


def test_prop_special_wreath_hit_verified():
    N = wreath_cyclic(symmetric(3), 2).group
    hit = prop_special_search(N)
    assert hit is not None
    assert_special_pair(N, *hit)


def test_prop_special_requires_centerless():
    with pytest.raises(PreconditionError):
        prop_special_search(quaternion8())


def test_baer_completeness_direction():
    # a complete group embedded normally splits off its centralizer
    from gaschuetz.complements import find_complement
    from gaschuetz.structure import centralizer_of_subgroup

    S4 = symmetric(4)
    G = direct_product(S4, cyclic(5))
    emb = G.generated_subgroup(
        [g.images[:4] + tuple(range(4, 9)) for g in S4.generators]
    )
    assert is_normal(emb, G)
    r = find_complement(G, emb)
    assert r.exists
    cent = centralizer_of_subgroup(G, emb)
    assert cent.order == 5
    assert len(cent.element_set & emb.element_set) == 1


# -- the product table and the index search ------------------------------------


def test_product_table_matches_mult_and_perm_order(small_catalog_groups):
    for entry, G in small_catalog_groups:
        table = ProductTable(G)  # uncached: the session's groups keep no full table
        elems, idx = G.element_tuples, G.element_index
        for h, g in enumerate(elems):
            assert table.col(h) == [idx[mult(y, g)] for y in elems], entry.name
            assert table.order(h) == perm_order(g), entry.name
        assert len(table.columns) == G.order


def test_product_table_is_cached_on_the_group():
    G = symmetric(3)
    assert ProductTable.of(G) is ProductTable.of(G)


@pytest.mark.parametrize("name", ["C5^2:Q8", "A6", "(C3^2:Q8)xC2"])
def test_isomorphic_to_relabelled_copy(catalog_entries, relabelled, name):
    entry = next(e for e in catalog_entries if e.name == name)
    for seed in (1, 2):
        assert is_isomorphic(entry.group(), relabelled(entry.group(), seed)), seed


def test_not_isomorphic_q8_and_d8_tops(catalog_entries):
    by_name = {e.name: e for e in catalog_entries}
    assert not is_isomorphic(by_name["C5^2:Q8"].group(), by_name["C5^2:D8"].group())


@pytest.mark.parametrize(
    "name, calls, aut_order, out_order",
    [
        ("C5^2:Q8", 1513, 2400, 12),
        ("A6", 2, 1440, 4),
        ("S5", 4, 120, 1),
        ("S3wrC2", 4, 144, 2),
        ("(C3^2:Q8)xC2", 132, 1728, 24),
    ],
)
def test_search_tree_is_pinned(catalog_entries, monkeypatch, name, calls, aut_order, out_order):
    """validate runs once per leaf of the search tree: a change to the
    generators, the candidate lists or their order changes this count."""
    entry = next(e for e in catalog_entries if e.name == name)
    seen = []
    inner = autgroups.validate

    def counted(*args):
        seen.append(None)
        return inner(*args)

    monkeypatch.setattr(autgroups, "validate", counted)
    a = aut_group(entry.group())
    assert (len(seen), a.carrier.order, a.out_order) == (calls, aut_order, out_order)


# -- the carrier by Schreier orbits ---------------------------------------------


NAMED = ("C5^2:Q8", "A6", "S5", "S3wrC2", "(C3^2:Q8)xC2")


def stabilizer_chain_elements(N):
    """Aut(N) as the element-by-element enumeration of the stabilizer chain:
    the automorphisms fixing gens[:k] and sending gens[k] to x are one
    transporter times every automorphism fixing gens[:k+1].  Refuses past
    the carrier cap exactly as aut_group does."""
    cap = config.aut_carrier_cap()
    search = autgroups.TransporterSearch.between(N, N)
    gens, candidates = search.gens, search.candidates
    identity = tuple(range(N.order))

    def stab_elements(k):
        if k == len(gens):
            return [identity]
        deeper = stab_elements(k + 1)
        prefix = list(gens[:k])
        out = []
        for x in candidates[k]:
            if not search.compatible(prefix, x):
                continue
            tau = identity if x == gens[k] else search.first(prefix + [x])
            if tau is None:
                continue
            out.extend(mult(tau, sigma) for sigma in deeper)
            if len(out) > cap:
                raise AutBudgetError(f"automorphism group exceeds carrier cap {cap}")
        return out

    autos = stab_elements(0)
    assert len(set(autos)) == len(autos)
    return set(autos)


@pytest.mark.parametrize("carrier_cap, refusals", [(None, 10), ("30", 492)])
def test_carrier_matches_the_stabilizer_chain_enumeration(
    catalog_entries, relabelled, monkeypatch, carrier_cap, refusals
):
    """Every catalog group of order <= 63 and the named groups, each bundled
    and relabelled: the same carrier, Inn and |Out|, or the same refusal."""
    if carrier_cap is None:
        monkeypatch.delenv("GASCHUETZ_AUT_CARRIER_CAP", raising=False)
    else:
        monkeypatch.setenv("GASCHUETZ_AUT_CARRIER_CAP", carrier_cap)
    entries = [e for e in catalog_entries if "named-large" not in e.tags or e.name in NAMED]
    refused = 0
    for entry in entries:
        for N in (entry.group(), relabelled(entry.group(), 7)):
            try:
                expected = stabilizer_chain_elements(N)
            except AutBudgetError as err:
                with pytest.raises(AutBudgetError, match=str(err)):
                    aut_group(N)
                refused += 1
                continue
            a = aut_group(N)
            inn = close_set([conjugation_perm(N, g) for g in N._raw_gens], N.order)
            assert a.carrier.element_set == expected, entry.name
            assert a.inn.element_set == inn, entry.name
            assert a.out_order == len(expected) // len(inn), entry.name
    assert refused == refusals


def test_carrier_cap_is_checked_before_the_closure(monkeypatch, capsys):
    """|Aut(S3wrC2)| = 144: the orbit product is refused at cap 143 before
    the transporters are closed, and built at 144."""
    closures = []
    inner = autgroups.close_set

    def counted(*args, **kwargs):
        closures.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(autgroups, "close_set", counted)
    monkeypatch.setenv("GASCHUETZ_AUT_CARRIER_CAP", "143")
    with pytest.raises(AutBudgetError, match="exceeds carrier cap 143"):
        aut_group(build_named_group("S3wrC2"))
    assert closures == []
    monkeypatch.setenv("GASCHUETZ_AUT_CARRIER_CAP", "144")
    assert aut_group(build_named_group("S3wrC2")).carrier.order == 144
    assert len(closures) == 1

    monkeypatch.delenv("GASCHUETZ_AUT_CARRIER_CAP")
    assert main(["aut", "C2^4"]) == 1  # |GL(4, 2)| = 20160
    assert capsys.readouterr().err == "error: automorphism group exceeds carrier cap 20000\n"


@pytest.mark.parametrize("name", NAMED)
def test_carrier_generators_are_irredundant_in_order(catalog_groups, name):
    """Each carrier generator lies outside the closure of those before it,
    so the quotient lift search and the class walks see no idle generator."""
    G = next(G for e, G in catalog_groups if e.name == name)
    carrier = aut_group(G).carrier
    gens = carrier._raw_gens
    for i, g in enumerate(gens):
        assert g not in close_set(gens[:i], carrier.degree), i
    assert close_set(gens, carrier.degree) == carrier.element_set


def test_isomorphism_search_builds_few_columns(relabelled):
    """Over the Aut cap the table stays lazy: a full |G| x |G| table of
    S4wrC2 would hold 1,152 columns."""
    G = build_named_group("S4wrC2")
    H = relabelled(G, 3)
    assert G.order == 1152
    assert is_isomorphic(G, H)
    assert len(ProductTable.of(G).columns) < 10
    assert len(ProductTable.of(H).columns) < 10


# -- the prop-special search ---------------------------------------------------


def full_sweep(N):
    """The prop-special search without the order-d argument: every member
    of every outer coset is powered through every k up to exponent(Aut(N))
    that no member's order divides; the least k of the first coset with a
    hit, and the first member reaching Inn' at that k."""
    aut = aut_group(N)
    inn_derived = derived_subgroup(aut.inn).element_set
    exp = lcm(*(perm_order(t) for t in aut.carrier.element_tuples))
    walk = cosets(aut.carrier, aut.inn)
    next(walk)
    for coset in walk:
        orders = {perm_order(t) for t in coset}
        good = [k for k in range(1, exp + 1) if all(k % o for o in orders)]
        if not good:
            continue
        best = None
        for gamma in coset:
            power = gamma
            for k in range(1, good[-1] + 1):
                if k > 1:
                    power = mult(power, gamma)
                if k in good and power in inn_derived:
                    if best is None or k < best[1]:
                        best = (gamma, k)
                    break
        if best is not None:
            return best
    return None


# A hit (S3wrC2), groups whose outer cosets all hold a member of order d
# (G48_52, G52_5, D38, G39_2), and groups with cosets whose k = d is tried
# without a hit (D34, D26, G18_3, G36_8, G57_2, G60_10).
SWEPT = ("S3wrC2", "G48_52", "G52_5", "D38", "G39_2",
         "D34", "D26", "G18_3", "G36_8", "G57_2", "G60_10")


@pytest.mark.parametrize("name", SWEPT)
def test_prop_special_matches_the_full_sweep(catalog_groups, relabelled, name):
    G = next(G for e, G in catalog_groups if e.name == name)
    for N in (G, relabelled(G, 5)):
        hit = prop_special_search(N)
        assert (hit and (hit[0].images, hit[1])) == full_sweep(N)


@pytest.mark.parametrize(
    "name, k",
    [("A6", 2), ("C5^2:Q8", 6), ("S3wrC2", 2), ("G48_51", None), ("G50_3", None)],
)
def test_prop_special_catalog_answers(catalog_groups, name, k):
    N = next(G for e, G in catalog_groups if e.name == name)
    hit = prop_special_search(N)
    assert (hit and hit[1]) == k
    if hit is not None:
        assert_special_pair(N, *hit)


def test_inn_derived_is_the_image_of_n_derived(catalog_groups):
    """prop_special_search closes the conjugations by the generators of N'
    to get Inn(N)'; that equals [Inn, Inn] on every centerless catalog
    group with Out(N) != 1 within the Aut cap (all but G54_4)."""
    compared = 0
    for _, N in catalog_groups:
        if not center(N).is_trivial():
            continue
        try:
            aut = aut_group(N)
        except AutBudgetError:
            continue
        if aut.out_order == 1:
            continue
        image = aut.carrier.generated_subgroup(
            [conjugation_perm(N, g) for g in derived_subgroup(N)._raw_gens]
        )
        assert image.element_set == derived_subgroup(aut.inn).element_set
        compared += 1
    assert compared == 37


def test_prop_special_search_makes_few_products(catalog_groups, monkeypatch):
    """On G48_51 each of the 119 outer cosets holds a member of its order
    in Out(N), so every coset is skipped once that member turns up and
    none is powered through.  The full sweep made 674,016 products and
    11,472 order computations here.  Orders are counted as the search
    asks for them, through the ``element_order`` map it reads."""
    N = next(G for e, G in catalog_groups if e.name == "G48_51")
    aut_group(N)
    derived_subgroup(N)
    products, orders = [], []

    def counted_mult(x, y):
        products.append(None)
        return mult(x, y)

    def counted_element_order(G):
        order = element_order(G)

        def counted(x):
            orders.append(None)
            return order(x)
        return counted

    monkeypatch.setattr(autgroups, "mult", counted_mult)
    monkeypatch.setattr(perm, "mult", counted_mult)  # the products of perm.power
    monkeypatch.setattr(autgroups, "element_order", counted_element_order)
    assert prop_special_search(N) is None
    assert len(products) <= 1000 and len(orders) <= 1000, (len(products), len(orders))
