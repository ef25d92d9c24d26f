import random

import pytest

from gaschuetz.catalog import load_bundled_catalog
from gaschuetz.constructors import (
    ActionSpec, binary_tetrahedral_matrices, cyclic, direct_product,
)
from gaschuetz.group import FiniteGroup
from gaschuetz.witness import baer_bundle


@pytest.fixture
def baer_blow_up():
    """The Baer bundle, and its order-48 G acting on C5 x C5 through the
    binary tetrahedral matrices and the scalar 2 over F5, the matrices
    that build the bundle's G: the action of the coprime blow-up."""
    b = baer_bundle()
    L = direct_product(cyclic(5), cyclic(5))
    e1, e2 = L.generators

    def vec(a, c):
        return (e1 ** a) * (e2 ** c)

    mats5 = binary_tetrahedral_matrices(5) + [((2, 0), (0, 2))]
    images = [[vec(m[0][0], m[1][0]), vec(m[0][1], m[1][1])] for m in mats5]
    return b, ActionSpec(b.embedding.G, L, images)


@pytest.fixture(scope="session")
def catalog_entries():
    return load_bundled_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog_entries):
    """(entry, group) pairs; groups carry caches shared across the session."""
    return [(e, e.group()) for e in catalog_entries]


@pytest.fixture(scope="session")
def small_catalog_groups(catalog_groups):
    """Only the exhaustive part: every group of order <= 63."""
    return [(e, G) for e, G in catalog_groups if "named-large" not in e.tags]


@pytest.fixture(scope="session")
def named_large_groups(catalog_groups):
    return [(e, G) for e, G in catalog_groups if "named-large" in e.tags]


@pytest.fixture(scope="session")
def relabelled():
    """relabelled(G, seed): G with every generator conjugated by a seeded
    permutation of its points."""
    def relabel(G, seed):
        sigma = list(range(G.degree))
        random.Random(seed).shuffle(sigma)
        gens = []
        for g in G._raw_gens:
            h = [0] * G.degree
            for i, gi in enumerate(g):
                h[sigma[i]] = sigma[gi]
            gens.append(h)
        return FiniteGroup(G.degree, gens)
    return relabel
