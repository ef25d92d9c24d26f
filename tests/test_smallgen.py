from gaschuetz import cyclic, dihedral, direct_product, quaternion8, symmetric
from gaschuetz.group import FiniteGroup
from gaschuetz.isomorphism import group_fingerprint, is_isomorphic
from gaschuetz.perm import inverse, mult, perm_order
from gaschuetz.smallgen import (
    KNOWN_GROUP_COUNTS,
    catalog_entries as generated_entries,
    cyclic_extension,
    extension_data,
    generate_small_groups,
)
from gaschuetz.structure import (
    center,
    conjugacy_classes,
    derived_series,
    is_abelian,
)


def test_generation_matches_published_counts_to_24():
    groups = generate_small_groups(24)
    for n, found in groups.items():
        assert len(found) == KNOWN_GROUP_COUNTS[n], f"order {n}"


def test_generated_groups_have_right_order_and_are_distinct():
    groups = generate_small_groups(12)
    for n, found in groups.items():
        for G in found:
            assert G.order == n
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                assert not is_isomorphic(found[i], found[j])


def test_extension_reconstructs_q8_and_c4():
    C2 = cyclic(2)
    got = []
    for alpha, z in extension_data(C2, 2):
        got.append(cyclic_extension(C2, 2, alpha, z))
    # extensions of C2 by C2: the Klein group and C4
    assert sorted(max(o for o in (g.order() for g in G.elements)) for G in got) == [2, 4]


def test_extension_associativity_spot_check():
    S3 = symmetric(3)
    for alpha, z in extension_data(S3, 2):
        G = cyclic_extension(S3, 2, alpha, z)
        assert G.order == 12
        elems = G.elements[:6]
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a * b) * c == a * (b * c)
        break


def test_is_isomorphic_positive_and_negative():
    assert is_isomorphic(symmetric(3), dihedral(6))
    assert not is_isomorphic(quaternion8(), dihedral(8))
    assert not is_isomorphic(cyclic(4), direct_product(cyclic(2), cyclic(2)))
    assert is_isomorphic(
        direct_product(cyclic(3), cyclic(4)), cyclic(12)
    )


def test_fingerprint_separates_same_order_groups():
    assert group_fingerprint(quaternion8()) != group_fingerprint(dihedral(8))


def _six_part_fingerprint(G):
    """Order, order profile, |Z|, derived series, class statistics, abelian."""
    return (
        G.order,
        tuple(sorted(perm_order(t) for t in G.element_tuples)),
        center(G).order,
        tuple(S.order for S in derived_series(G)),
        tuple(sorted((len(c), perm_order(c[0])) for c in conjugacy_classes(G))),
        is_abelian(G),
    )


def test_fingerprint_partition_matches_six_part_invariant(catalog_groups):
    def partition(key):
        blocks = {}
        for entry, G in catalog_groups:
            blocks.setdefault((G.order, key(G)), set()).add(entry.name)
        return sorted(sorted(b) for b in blocks.values())

    assert partition(group_fingerprint) == partition(_six_part_fingerprint)


def test_bundled_catalog_is_complete_to_63(small_catalog_groups):
    by_order = {}
    for entry, G in small_catalog_groups:
        by_order.setdefault(G.order, []).append(entry)
    for n in range(1, 64):
        assert len(by_order.get(n, [])) == KNOWN_GROUP_COUNTS[n], f"order {n}"


def _tagged_order(entry):
    return next(int(t.split("=")[1]) for t in entry.tags if t.startswith("order="))


def test_generator_reproduces_bundled_catalog_to_24(catalog_entries):
    """catalog_entries(24) emits the shipped records of order <= 24 and the named-large ones."""
    want = [
        e.to_json()
        for e in catalog_entries
        if "named-large" in e.tags or _tagged_order(e) <= 24
    ]
    assert len(want) == 74 + 7
    assert [e.to_json() for e in generated_entries(24)] == want


def test_bundled_catalog_orders_match_tags(catalog_groups):
    for entry, G in catalog_groups:
        assert G.order == _tagged_order(entry), entry.name


def test_bundled_catalog_abelian_names(catalog_groups):
    from gaschuetz.catalog import abelian_name

    for entry, G in catalog_groups:
        if "abelian" in entry.tags:
            assert is_abelian(G)
            assert entry.name == abelian_name(G)


def test_named_entries_are_what_they_claim(catalog_entries):
    by_name = {e.name: e for e in catalog_entries}
    assert is_isomorphic(by_name["Q8"].group(), quaternion8())
    assert is_isomorphic(by_name["S4"].group(), symmetric(4))
    assert is_isomorphic(by_name["D8"].group(), dihedral(8))
    assert by_name["S3wrC2"].group().order == 72
    assert by_name["C5^2:Q8"].group().order == 200
    assert by_name["(C3^2:Q8)xC2"].group().order == 144


def test_is_isomorphic_against_catalog_classes(small_catalog_groups):
    """The catalog holds one group per isomorphism class of each order."""
    groups = [(e.name, G) for e, G in small_catalog_groups if G.order <= 24]
    for i, (name, G) in enumerate(groups):
        for j, (other, H) in enumerate(groups):
            assert is_isomorphic(G, H) == (i == j), (name, other)
        # a copy with every generator conjugated by the point rotation
        d = G.degree
        rot = tuple((p + 1) % d for p in range(d))
        gens = [mult(mult(rot, g), inverse(rot)) for g in G._raw_gens]
        assert is_isomorphic(G, FiniteGroup.from_raw(d, gens)), name
