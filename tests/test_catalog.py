from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gaschuetz.catalog import (
    CatalogEntry,
    abelian_invariants,
    abelian_name,
    build_named_group,
    classify,
    load_catalog,
    report_consistent,
    resolve_group,
    save_catalog,
)
from gaschuetz import cyclic, direct_product
from gaschuetz import engine
from gaschuetz.engine import FAILS, FAILS_RULES, HOLDS, HOLDS_RULES, all_firings, fired_statuses
from gaschuetz.errors import CatalogError, SizeLimitError, UnknownNameError


def test_round_trip(tmp_path):
    entries = [
        CatalogEntry("S4", 4, [[1, 0, 2, 3], [1, 2, 3, 0]], ["order=24"]),
        CatalogEntry("C3", 3, [[1, 2, 0]], []),
    ]
    path = tmp_path / "cat.jsonl"
    save_catalog(entries, path)
    loaded = load_catalog(path)
    assert [e.name for e in loaded] == ["S4", "C3"]
    assert loaded[0].generators == entries[0].generators
    assert loaded[0].tags == ["order=24"]
    assert loaded[0].group().order == 24


def test_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"name": "ok", "degree": 2, "generators": [[1, 0]], "tags": []}\n'
        '{"name": "bad", "degree": 3, "generators": [[1, 0]], "tags": []}\n'
    )
    with pytest.raises(CatalogError) as ei:
        load_catalog(path)
    assert ei.value.line == 2


def test_duplicate_name_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = '{"name": "x", "degree": 2, "generators": [[1, 0]], "tags": []}\n'
    path.write_text(line + line)
    with pytest.raises(CatalogError) as ei:
        load_catalog(path)
    assert ei.value.line == 2


@pytest.mark.parametrize(
    "fields",
    [
        '"degree": 0, "generators": [], "tags": []',
        '"degree": -1, "generators": [], "tags": []',
        '"degree": 3, "generators": ["120"], "tags": []',
        '"degree": 3, "generators": "120", "tags": []',
        '"degree": 2, "generators": [[1.5, 0]], "tags": []',
        '"degree": 2, "generators": [[1, 0]], "tags": "order=2"',
    ],
)
def test_malformed_field_types_rejected(tmp_path, fields):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"name": "ok", "degree": 2, "generators": [[1, 0]], "tags": []}\n'
        '{"name": "bad", ' + fields + "}\n"
    )
    with pytest.raises(CatalogError) as ei:
        load_catalog(path)
    assert ei.value.line == 2 and "line 2" in str(ei.value)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "nj.jsonl"
    path.write_text("{nope\n")
    with pytest.raises(CatalogError):
        load_catalog(path)


# -- name grammar ---------------------------------------------------------------


def test_atoms():
    assert build_named_group("C12").order == 12
    assert build_named_group("D8").order == 8
    assert build_named_group("Q8").order == 8
    assert build_named_group("S4").order == 24
    assert build_named_group("A5").order == 60
    assert build_named_group("SL23").order == 24


def test_products_and_powers():
    assert build_named_group("C2xC3").order == 6
    assert build_named_group("C3^2").order == 9
    assert build_named_group("C2^3xC3").order == 24
    assert build_named_group("(C3^2:Q8)xC2").order == 144
    assert build_named_group("S3wrC2").order == 72
    assert build_named_group("C5^2:Q8").order == 200
    assert build_named_group("C5^2:D8").order == 200


def test_grammar_errors():
    for bad in ["", "C", "Zork", "C4:Q8", "C3^2:S4", "S3wrS3", "(C2", "C2)", "C3^0", "S3^0",
                "C0", "S0", "D2", "D3", "C3wrC0"]:
        with pytest.raises(UnknownNameError):
            build_named_group(bad)


# -- the name grammar against the orders it promises ---------------------------

_CAP = 200
# mostly names in the grammar, with a few atoms and exponents outside it
_ATOMS = st.sampled_from(
    [f"C{n}" for n in range(1, 13)] + [f"D{n}" for n in (4, 6, 8, 10, 12)]
    + [f"S{n}" for n in range(1, 6)] + [f"A{n}" for n in range(6)]
    + ["Q8", "SL23", "C0", "S0", "D2", "D3", "D5"]
).map(lambda tok: ("atom", tok))
_EXPONENTS = st.sampled_from([1, 2, 3, 1, 2, 0])
_WREATH_TOPS = st.sampled_from(["C1", "C2", "C3", "C4"] * 2 + ["C0", "S3", "Q8"]).map(
    lambda tok: ("atom", tok)
)
_SEMIDIRECT = st.tuples(
    st.just(":"),
    st.tuples(
        st.just("^"),
        st.one_of(st.integers(0, 12).map(lambda n: ("atom", f"C{n}")), _ATOMS),
        st.sampled_from([2, 2, 1, 3]),
    ),
    st.sampled_from(["Q8", "D8", "Q8", "D8", "C2", "S3"]).map(lambda tok: ("atom", tok)),
)
_NAMES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.just("x"), inner, inner),
        st.tuples(st.just("^"), inner, _EXPONENTS),
        st.tuples(st.just("wr"), inner, _WREATH_TOPS),
        _SEMIDIRECT,
    ),
    max_leaves=4,
)
# binding strength: x < (: and wr) < ^ < atom
_LEVEL = {"x": 0, ":": 1, "wr": 1, "^": 2, "atom": 3}


def _render(node, need=0):
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "^":
        text = f"{_render(node[1], 3)}^{node[2]}"
    elif kind == "x":
        text = f"{_render(node[1], 0)}x{_render(node[2], 1)}"
    else:
        text = f"{_render(node[1], 1)}{kind}{_render(node[2], 2)}"
    return text if _LEVEL[kind] >= need else f"({text})"


class _NotInGrammar(Exception):
    pass


def _promise(node):
    """(order, degree, over cap) that a valid name promises; _NotInGrammar otherwise.

    Over the cap means the order is, or a power or wreath product lays
    out more points than the cap.
    """
    kind = node[0]
    if kind == "atom":
        tok = node[1]
        if tok in ("Q8", "SL23"):
            return (8 if tok == "Q8" else 24), 8, False
        family, n = tok[0], int(tok[1:])
        if family in "CS" and n < 1 or family == "D" and (n < 4 or n % 2):
            raise _NotInGrammar
        order, degree = {
            "C": (n, n),
            "D": (n, 4 if n == 4 else n // 2),
            "S": (factorial(n), n),
            "A": (factorial(n) // 2 if n > 2 else 1, max(n, 1)),
        }[family]
        return order, degree, order > _CAP
    if kind == ":":
        base, top = node[1], node[2]
        if base[0] != "^" or base[2] != 2 or base[1][1][0] != "C" or top[1] not in ("Q8", "D8"):
            raise _NotInGrammar
        _promise(base)  # C0 is not a name
        p = int(base[1][1][1:])
        if p < 3 or any(p % d == 0 for d in range(2, p)):
            raise _NotInGrammar
        return 8 * p * p, 2 * p * p - 1, 8 * p * p > _CAP
    if kind == "x":
        a, da, over_a = _promise(node[1])
        b, db, over_b = _promise(node[2])
        return a * b, da + db, over_a or over_b or a * b > _CAP
    if kind == "^":
        k = node[2]
        if k < 1:
            raise _NotInGrammar
        a, da, over = _promise(node[1])
        return a ** k, da * k, over or a ** k > _CAP or da * k > _CAP
    top = node[2]  # wr
    if top[1][0] != "C":
        raise _NotInGrammar
    _promise(top)
    q = int(top[1][1:])
    a, da, over = _promise(node[1])
    return a ** q * q, da * q, over or a ** q * q > _CAP or da * q > _CAP


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_NAMES)
def test_name_builds_the_order_it_promises(tree):
    name = _render(tree)
    try:
        order, _, over = _promise(tree)
    except _NotInGrammar:
        order = over = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GASCHUETZ_ELEMENT_CAP", str(_CAP))
        try:
            built = len(build_named_group(name).element_tuples)
        except UnknownNameError:
            assert order is None, name
            return
        except SizeLimitError:
            assert order is None or over, name
            return
    assert order is not None and not over, name
    assert built == order, name


def test_resolution_falls_back_to_catalog(catalog_entries):
    G = resolve_group("G16_3", catalog_entries)
    assert G.order == 16
    with pytest.raises(UnknownNameError):
        resolve_group("definitely-not-a-group", catalog_entries)


def test_abelian_invariants_and_names():
    assert abelian_invariants(cyclic(12)) == [12]
    assert abelian_invariants(direct_product(cyclic(2), cyclic(2))) == [2, 2]
    assert abelian_invariants(direct_product(cyclic(2), cyclic(6))) == [2, 6]
    assert abelian_invariants(direct_product(cyclic(4), cyclic(6))) == [2, 12]
    assert abelian_name(direct_product(cyclic(3), cyclic(4))) == "C12"


# -- classification ---------------------------------------------------------------


def test_classify_small_slice(catalog_entries):
    report = classify(catalog_entries, max_order=24, check_exclusion=True)
    assert report_consistent(report)
    s = report["summary"]
    assert s["contradictions"] == 0
    assert s["holds"] > 0 and s["fails"] > 0
    names = {g["name"]: g for g in report["groups"]}
    assert names["Q8"]["status"] == "fails" and names["Q8"]["rule"] == "ZNthm"
    assert names["S4"]["status"] == "holds"


def test_classify_deterministic(catalog_entries):
    r1 = classify(catalog_entries, max_order=16, check_exclusion=False)
    r2 = classify(catalog_entries, max_order=16, check_exclusion=False)
    strip = lambda rep: [
        {k: v for k, v in g.items() if k != "time_ms"} for g in rep["groups"]
    ]
    assert strip(r1) == strip(r2)
    assert r1["summary"] == r2["summary"]


def test_classify_time_budget_flag(catalog_entries, monkeypatch):
    monkeypatch.setenv("GASCHUETZ_TIME_BUDGET", "0.000001")
    tiny = [e for e in catalog_entries if e.group().order <= 6]
    report = classify(tiny, check_exclusion=False)
    assert all(g.get("over_budget") for g in report["groups"])
    monkeypatch.delenv("GASCHUETZ_TIME_BUDGET")
    report = classify(tiny, check_exclusion=False)
    assert not any("over_budget" in g for g in report["groups"])


def test_classify_timing_block(catalog_entries):
    small = [e for e in catalog_entries if e.group().order <= 12]
    report = classify(small, check_exclusion=True)
    timing = report["timing"]
    total_ms = sum(g["time_ms"] for g in report["groups"])
    # each per-group time_ms is rounded to 1 us; the two sums once each
    tolerance = 0.0005 * len(report["groups"]) + 0.001
    assert abs(timing["verdict_ms"] + timing["exclusion_ms"] - total_ms) <= tolerance
    report = classify(small, check_exclusion=False)
    assert report["timing"]["exclusion_ms"] is None
    assert report["timing"]["verdict_ms"] >= 0


def test_opposite_side_check_matches_all_rules(catalog_entries):
    # the opposite-side check in classify flags exactly the groups that
    # fire a rule of each kind when every rule is evaluated
    for entry in catalog_entries:
        G = entry.group()
        if G.order > 24:
            continue
        full = all_firings(G)
        both = all(fired_statuses(full))
        report = classify([entry], check_exclusion=True)
        assert report["summary"]["contradictions"] == int(both), entry.name
        for side, rules in ((HOLDS, HOLDS_RULES), (FAILS, FAILS_RULES)):
            assert all_firings(G, (side,)) == {r: full[r] for r in rules}, entry.name


def _entry(catalog_entries, name):
    return [e for e in catalog_entries if e.name == name]


def test_exclusion_check_catches_fails_rule_on_holds_verdict(catalog_entries, monkeypatch):
    C6 = _entry(catalog_entries, "C6")
    report = classify(C6)
    assert report["groups"][0]["status"] == "holds"
    assert report["summary"]["contradictions"] == 0
    monkeypatch.setattr(engine, "center_meet_derived", lambda N: N)
    assert classify(C6)["summary"]["contradictions"] == 1


def test_exclusion_check_catches_holds_rule_on_fails_verdict(catalog_entries, monkeypatch):
    Q8 = _entry(catalog_entries, "Q8")
    report = classify(Q8)
    record = report["groups"][0]
    assert (record["status"], record["rule"]) == ("fails", "ZNthm")
    assert report["summary"]["contradictions"] == 0
    monkeypatch.setattr(engine, "_rule_composite", lambda N: ["injected"])
    assert classify(Q8)["summary"]["contradictions"] == 1
