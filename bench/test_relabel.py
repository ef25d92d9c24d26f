"""Tests of the seeded relabelling that turns --seed into program inputs.

    python3 -m pytest bench/test_relabel.py
"""

from __future__ import annotations

import pytest

import workloads
from worker import Program

CHEAP = ("S4", "Q8", "G48_46")


@pytest.fixture(scope="module")
def gz():
    return Program()


@pytest.fixture(scope="module")
def entries(gz):
    return {e.name: e for e in gz.catalog.load_bundled_catalog()}


@pytest.fixture(scope="module")
def expected(entries):
    return workloads.load_expected(list(entries.values()))


def relabelled(gz, entry, seed):
    gens = workloads.relabel_generators(seed, entry.name, entry.degree, entry.generators)
    return gens, gz.group.FiniteGroup(entry.degree, [tuple(g) for g in gens])


def test_relabelling_is_a_permutation():
    for degree in (1, 2, 7, 63):
        assert sorted(workloads.relabelling(5, "X", degree)) == list(range(degree))


def test_same_seed_gives_identical_generators(entries):
    for entry in entries.values():
        a = workloads.relabel_generators(3, entry.name, entry.degree, entry.generators)
        b = workloads.relabel_generators(3, entry.name, entry.degree, entry.generators)
        assert a == b


@pytest.mark.parametrize("name", CHEAP)
def test_other_seed_keeps_order_and_answer(gz, entries, expected, name):
    entry = entries[name]
    gens_1, G1 = relabelled(gz, entry, 1)
    gens_2, G2 = relabelled(gz, entry, 2)
    assert gens_1 != gens_2
    assert G1.element_set != G2.element_set
    assert G1.order == G2.order == entry.group().order
    for G in (G1, G2):
        v = gz.engine.verdict(G)
        assert (v.status, v.rule) == expected["groups"][name]


def test_witness_input_keeps_order_and_answer(gz, expected):
    N1 = workloads.witness_input(1, gz)
    N2 = workloads.witness_input(2, gz)
    assert N1._raw_gens != N2._raw_gens
    assert N1.order == N2.order == 8
    for N in (N1, N2):
        v = gz.engine.verdict(N)
        assert (v.status, v.rule) == expected["groups"][workloads.WITNESS_BASE]


def test_seed_reaches_every_exclusion_input(entries):
    # a relabelling that fixed every point would make the seed a no-op
    moved = [
        name for name, e in entries.items()
        if workloads.EXCLUSION_TAG in e.tags
        and workloads.relabelling(1, name, e.degree) != list(range(e.degree))
    ]
    assert len(moved) == workloads.PINNED_EXCLUSION_SIZE
