"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS` line with the measured numbers;
budgets are asserted at the stated limits.  Tests run in order and share
the session-scoped catalog fixtures, so caches warm up the way a single
classification session would.
"""

import hashlib
import json
import random
import time
from math import gcd

import pytest

from gaschuetz import (
    alternating,
    center,
    derived_subgroup,
    is_abelian,
    quaternion8,
    sylow,
    symmetric,
    wreath_cyclic,
)
from gaschuetz.autgroups import aut_group, is_complete, prop_special_search, rose_criterion
from gaschuetz.catalog import classify, load_bundled_catalog, resolve_group
from gaschuetz.cli import main
from gaschuetz.complements import complements_conjugate, find_complement
from gaschuetz.engine import FAILS, HOLDS, UNDECIDED, all_firings, fired_statuses, verdict
from gaschuetz.group import is_subgroup
from gaschuetz.lattice import (
    all_subgroups,
    frattini,
    minimal_supplement,
    normal_subgroups,
    normal_subgroups_fast,
    subgroups_of_order,
)
from gaschuetz.perm import perm_order
from gaschuetz.structure import is_metabelian, prime_factors
from gaschuetz.witness import baer_bundle, build_znthm, verify_znthm


def _report(num, detail):
    print(f"\n[criterion {num}] PASS — {detail}")


def test_criterion_1_baer_example():
    t0 = time.perf_counter()
    b = baer_bundle()
    elapsed = time.perf_counter() - t0
    assert (b.embedding.G.order, b.embedding.H.order, b.embedding.N.order) == (
        48, 16, 8,
    )
    assert b.complement_in_h.order == 2
    assert b.nonexistence.exists is False
    assert b.nonexistence.search_space > 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"orders 48/16/8, split in H, exhaustive refusal in G, {elapsed:.3f}s")


def test_criterion_2_verdict_table(small_catalog_groups):
    t0 = time.perf_counter()
    # every abelian catalog group
    abelian_checked = 0
    for entry, G in small_catalog_groups:
        if "abelian" in entry.tags:
            v = verdict(G)
            assert (v.status, v.rule) == (HOLDS, "abelian"), entry.name
            abelian_checked += 1
    for name in ("S3", "A4", "D10"):
        v = verdict(resolve_group(name))
        assert (v.status, v.rule) == (HOLDS, "sylow-abelian"), name
    zn_names = ["Q8", "D8", "SL23"]
    zn_groups = [resolve_group(n) for n in zn_names]
    # all nonabelian groups of prime-cube order in the catalog
    for entry, G in small_catalog_groups:
        if G.order in (8, 27) and "abelian" not in entry.tags:
            zn_groups.append(G)
            zn_names.append(entry.name)
    for name, G in zip(zn_names, zn_groups):
        v = verdict(G)
        assert (v.status, v.rule) == (FAILS, "ZNthm"), name
    v = verdict(resolve_group("S4"))
    assert (v.status, v.rule) == (HOLDS, "rose")
    v = verdict(resolve_group("C5^2:Q8"))
    assert v.status == FAILS
    v = verdict(resolve_group("(C3^2:Q8)xC2"))
    assert v.status == UNDECIDED
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    t1 = time.perf_counter()
    v = verdict(alternating(6))
    a6_time = time.perf_counter() - t1
    assert (v.status, v.rule) == (FAILS, "perfect-no-split")
    assert a6_time < 3600.0
    _report(
        2,
        f"{abelian_checked} abelian + named table exact, {elapsed:.1f}s; "
        f"A6 fails in {a6_time:.1f}s",
    )


@pytest.mark.parametrize("name,full", [("D8", True), ("Q8", False)])
def test_criterion_3_znthm_witnesses(name, full):
    N = resolve_group(name)
    t0 = time.perf_counter()
    b = build_znthm(N, 3)
    assert b.embedding.G.order == 6144
    assert b.embedding.H.order == 2048
    assert b.embedding.G.order // b.embedding.H.order == 3
    b = verify_znthm(b, full_search=full)
    elapsed = time.perf_counter() - t0
    assert b.verified
    assert b.nonexistence.exists is False
    assert b.nonexistence.method == "quotient-reduced lift-search"
    if name == "D8":
        # the certificate's counts, which a changed lift-visiting order would move
        report = b.nonexistence
        assert (report.search_space, report.examined) == (64, 16)
        assert report.evidence[1].startswith("quotient search found 16 complement(s)")
        assert report.evidence[-1] == "full lift search agreed (space 512, examined 24)"
    assert elapsed <= 1800.0, f"took {elapsed:.0f}s"
    _report(
        3,
        f"{name}: |G|=6144 |H|=2048 q=3 verified"
        + (" (+ unreduced search agreed)" if full else "")
        + f", {elapsed:.1f}s",
    )


def test_criterion_4_rose_values():
    t0 = time.perf_counter()
    for name in ("S3", "S4", "S5"):
        t1 = time.perf_counter()
        G = resolve_group(name)
        assert rose_criterion(G), name
        assert is_complete(G), name  # the completeness path
        assert time.perf_counter() - t1 <= 60.0
    for name in ("C3^2:Q8", "C5^2:D8"):
        t1 = time.perf_counter()
        assert rose_criterion(resolve_group(name)), name
        assert time.perf_counter() - t1 <= 60.0
    t1 = time.perf_counter()
    assert not rose_criterion(alternating(6))
    a6_time = time.perf_counter() - t1
    assert a6_time <= 3600.0
    _report(4, f"S3/S4/S5 complete, Frobenius pair true, A6 false ({a6_time:.1f}s)")


def test_criterion_5_aut_sanity(small_catalog_groups):
    import itertools

    from gaschuetz.perm import mult

    assert aut_group(quaternion8()).carrier.order == 24
    assert aut_group(wreath_cyclic(symmetric(3), 2).group).carrier.order == 144

    def oracle_aut_order(G):
        elems = list(G.element_tuples)
        n = len(elems)
        idx = {t: i for i, t in enumerate(elems)}
        table = [[idx[mult(a, b)] for b in elems] for a in elems]
        by_order = {}
        for i, t in enumerate(elems):
            by_order.setdefault(perm_order(t), []).append(i)
        pools = [by_order[o] for o in sorted(by_order)]
        count = 0
        for assignment in itertools.product(
            *(itertools.permutations(p) for p in pools)
        ):
            phi = [0] * n
            for pool, images in zip(pools, assignment):
                for s, d in zip(pool, images):
                    phi[s] = d
            if all(
                phi[table[a][b]] == table[phi[a]][phi[b]]
                for a in range(n)
                for b in range(n)
            ):
                count += 1
        return count

    checked = 0
    for entry, G in small_catalog_groups:
        if G.order > 12:
            continue
        assert aut_group(G).carrier.order == oracle_aut_order(G), entry.name
        checked += 1
    _report(5, f"Aut(Q8)=24, Aut(S3 wr C2)=144, bijection oracle on {checked} groups")


def test_criterion_6_special_pair():
    t0 = time.perf_counter()
    N = wreath_cyclic(symmetric(3), 2).group
    hit = prop_special_search(N)
    assert hit is not None
    gamma, k = hit
    a = aut_group(N)
    assert (gamma ** k).images in derived_subgroup(a.inn).element_set
    from gaschuetz.perm import mult

    for d in a.inn.element_tuples:
        assert k % perm_order(mult(d, gamma.images)) != 0
    v = verdict(N)
    assert v.status == FAILS
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    _report(6, f"pair found with k={k}, verdict fails, {elapsed:.1f}s")


def test_criterion_7_property_suites(catalog_groups, small_catalog_groups):
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    stats = {}

    # (a) Schur-Zassenhaus + (g) Dedekind restriction on what it finds
    sz_pairs = 0
    dedekind_checks = 0
    for entry, G in catalog_groups:
        for N in normal_subgroups_fast(G):
            if N.order in (1, G.order):
                continue
            if gcd(N.order, G.order // N.order) != 1:
                continue
            r = find_complement(G, N)
            assert r.exists, f"coprime pair refused to split in {entry.name}"
            sz_pairs += 1
            K = r.complement
            if G.order <= 63:
                for H in all_subgroups(G):
                    if not N.element_set <= H.element_set:
                        continue
                    meet = H.element_set & K.element_set
                    assert len(meet) * N.order == H.order, entry.name
                    assert len(meet & N.element_set) == 1, entry.name
                    dedekind_checks += 1
    stats["schur-zassenhaus pairs"] = sz_pairs
    stats["dedekind checks"] = dedekind_checks

    # (b) abelian-core splitting transfer on coprime-index overgroups
    gaschuetz_checks = 0
    for entry, G in catalog_groups:
        if len(prime_factors(G.order)) < 2:
            continue  # p-groups admit no proper coprime-index overgroup
        abelian_normals = [
            N
            for N in normal_subgroups_fast(G)
            if 1 < N.order < G.order and is_abelian(N)
        ]
        if not abelian_normals:
            continue
        subs = all_subgroups(G)
        for N in abelian_normals:
            target = None
            for H in subs:
                if H.order == G.order or not N.element_set <= H.element_set:
                    continue
                if gcd(N.order, G.order // H.order) != 1:
                    continue
                if find_complement(H, N).exists:
                    if target is None:
                        target = find_complement(G, N).exists
                    assert target, f"{entry.name}: split in H but not in G"
                    gaschuetz_checks += 1
    stats["abelian transfer checks"] = gaschuetz_checks

    # (c) Sylow-wise splitting hypothesis forces a complement
    semetkov_checks = 0
    for entry, G in catalog_groups:
        for N in normal_subgroups_fast(G):
            if N.order in (1, G.order):
                continue
            hypothesis = True
            for p in prime_factors(G.order // N.order):
                Gp = sylow(G, p)
                P = Gp.subgroup(Gp.element_set & N.element_set)
                # P is a Sylow p-subgroup of the normal subgroup
                p_part = N.order
                while p_part % p == 0:
                    p_part //= p
                assert P.order == N.order // p_part, entry.name
                if not is_abelian(P):
                    hypothesis = False
                    break
                index = Gp.order // P.order
                if not any(
                    len(K.element_set & P.element_set) == 1
                    for K in subgroups_of_order(Gp, index)
                ):
                    hypothesis = False
                    break
            if hypothesis:
                assert find_complement(G, N).exists, entry.name
                semetkov_checks += 1
    stats["sylow-hypothesis checks"] = semetkov_checks

    # (d) minimal supplements on 200 randomized instances
    pool = [(e, G) for e, G in small_catalog_groups if G.order >= 4]
    done = 0
    attempts = 0
    while done < 200 and attempts < 40000:
        attempts += 1
        entry, G = rng.choice(pool)
        normals = normal_subgroups_fast(G)
        N = rng.choice(normals)
        H = rng.choice(all_subgroups(G))
        if H.order * N.order // len(H.element_set & N.element_set) != G.order:
            continue
        H1 = minimal_supplement(G, N, H)
        assert is_subgroup(H1, H)
        assert (H1.element_set & N.element_set) <= frattini(H1).element_set
        assert set(prime_factors(H1.order)) == set(
            prime_factors(G.order // N.order)
        )
        done += 1
    assert done == 200, f"only {done} instances found"
    stats["minimal supplement instances"] = done

    # (e) metabelian splitting with conjugacy
    yonaha_checks = 0
    for entry, G in small_catalog_groups:
        if not is_metabelian(G):
            continue
        D = derived_subgroup(G)
        if len(center(G).element_set & D.element_set) != 1:
            continue
        assert find_complement(G, D).exists, entry.name
        assert complements_conjugate(G, D), entry.name
        yonaha_checks += 1
    stats["metabelian splittings"] = yonaha_checks

    # (f) center-derived-Sylow containment
    huppert_checks = 0
    for entry, G in catalog_groups:
        zd = center(G).element_set & derived_subgroup(G).element_set
        for p in prime_factors(G.order):
            P = sylow(G, p)
            assert (zd & P.element_set) <= derived_subgroup(P).element_set, entry.name
            huppert_checks += 1
    stats["sylow containments"] = huppert_checks

    # (h) engine mutual exclusion + classification consistency
    contradictions = 0
    undecided = []
    for entry, G in catalog_groups:
        firings = all_firings(G)
        holds_fired, fails_fired = fired_statuses(firings)
        if holds_fired and fails_fired:
            contradictions += 1
        if not holds_fired and not fails_fired:
            undecided.append(entry.name)
    assert contradictions == 0
    stats["undecided groups"] = len(undecided)

    elapsed = time.perf_counter() - t0
    assert elapsed <= 1800.0, f"took {elapsed:.0f}s"
    detail = ", ".join(f"{k}: {v}" for k, v in stats.items())
    _report(7, f"{detail}; undecided = {undecided}; {elapsed:.0f}s")


def test_criterion_8_oracle_equivalence(catalog_groups):
    t0 = time.perf_counter()
    checked = 0
    disagreements = 0
    for entry, G in catalog_groups:
        if G.order > 200:
            continue
        for N in normal_subgroups(G):  # lattice-filter path, independent
            index = G.order // N.order
            oracle = any(
                len(K.element_set & N.element_set) == 1
                for K in subgroups_of_order(G, index)
            )
            if find_complement(G, N).exists != oracle:
                disagreements += 1
            checked += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - t0
    _report(8, f"{checked} (group, normal) pairs, zero disagreements, {elapsed:.0f}s")


def test_classification_run_reports_undecided(catalog_entries):
    report = classify(catalog_entries, check_exclusion=True)
    s = report["summary"]
    assert s["contradictions"] == 0
    assert s["holds"] + s["fails"] + s["undecided"] == s["total"] == len(catalog_entries)
    undecided = [g["name"] for g in report["groups"] if g["status"] == "undecided"]
    below_144 = [
        g for g in report["groups"]
        if g["order"] < 144 and g["status"] == "undecided"
    ]
    assert below_144 == [], "every group below order 144 should be decided"
    print(
        f"\n[classification] {s['total']} groups: {s['holds']} hold, "
        f"{s['fails']} fail, {s['undecided']} undecided ({undecided}), "
        f"0 contradictions"
    )


# SHA-256 digests of whole outputs.  A change that is meant to keep every
# answer, its evidence and every printed subgroup keeps these; one that
# moves a digest says which output changed and why.
BAER_JSON_DIGEST = "d2126d73b0caad70e7160edf1c4c7713417b241db92fd789311bcf5838e05e55"
CLASSIFY_DIGESTS = {
    False: "5c65d440fbf0233cf1bd59cf8fbd7e2328467f5cd6d96fad5f0e9bbeeaf1476b",
    True: "44e043d85697ca0fea41bcfea12674a57145f7d068135acd8795a5eecb41c259",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_witness_baer_json_is_pinned(capsys):
    # H is sylow(G, 2); its generators are printed
    assert main(["witness", "baer", "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == BAER_JSON_DIGEST


@pytest.mark.parametrize("check_exclusion", [False, True])
def test_classification_report_is_pinned(check_exclusion):
    report = classify(load_bundled_catalog(), check_exclusion=check_exclusion)
    del report["timing"]
    for row in report["groups"]:
        del row["time_ms"]
    assert _sha256(json.dumps(report, sort_keys=True)) == CLASSIFY_DIGESTS[check_exclusion]
