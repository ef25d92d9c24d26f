import json
import os
import subprocess
import sys

import pytest

import gaschuetz
from gaschuetz import cli
from gaschuetz.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_verdict_json(capsys):
    rc, out, _ = run(capsys, "verdict", "Q8", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["verdict"] == "fails" and data["rule"] == "ZNthm"


def test_verdict_text(capsys):
    rc, out, _ = run(capsys, "verdict", "C6")
    assert rc == 0 and "abelian" in out


def test_witness_baer_text(capsys):
    rc, out, _ = run(capsys, "witness", "baer")
    assert rc == 0
    assert "|G| = 48" in out and "|H| = 16" in out and "|N| = 8" in out
    assert "complement in H: yes" in out and "in G: no" in out


def test_witness_baer_json(capsys):
    rc, out, _ = run(capsys, "witness", "baer", "--json")
    data = json.loads(out)
    assert data["q"] == 3 and data["nonexistence"]["exists"] is False


def test_witness_znthm_unverified(capsys):
    rc, out, _ = run(capsys, "witness", "znthm", "--group", "D8", "--q", "3")
    assert rc == 0
    assert "|G| = 6144" in out and "|H| = 2048" in out
    assert "verified: False" in out


def test_complement_command(capsys):
    rc, out, _ = run(capsys, "complement", "--group", "A4", "--normal", "C2^2")
    assert rc == 0 and "exists (order 3)" in out


def test_complement_json(capsys):
    rc, out, _ = run(
        capsys, "complement", "--group", "Q8", "--normal", "center", "--json"
    )
    data = json.loads(out)
    assert data["exists"] is False and data["search_space"] == 4


def test_aut_and_rose(capsys):
    rc, out, _ = run(capsys, "aut", "Q8")
    assert rc == 0 and "|Aut| = 24" in out
    rc, out, _ = run(capsys, "rose", "S4", "--json")
    data = json.loads(out)
    assert data["rose"] is True and data["complete"] is True


@pytest.mark.parametrize(
    "name",
    ["Zork99", "C0", "S0", "D2", "D3", "C3wrC0",
     "C2^2:Q8", "C2^2:D8", "C1^2:Q8", "C4^2:Q8", "C9^2:Q8"],
)
def test_unknown_name_exit_code(capsys, name):
    rc, _, err = run(capsys, "verdict", name)
    assert rc == 2 and err.startswith("error: ") and name in err


@pytest.mark.parametrize(
    "name",
    ["C3wrC100000", "C2wrC100000", "C3wrC100000000", "C1000000007^2:Q8",
     "C1^100000", "S1000000"],
)
def test_oversized_name_is_refused(capsys, name):
    rc, _, err = run(capsys, "verdict", name)
    assert rc == 1 and err.startswith("error: ")


LONG = "1" * 5000  # over Python's 4,300-digit limit on int(str)


@pytest.mark.parametrize(
    "argv",
    [
        ["verdict", "C" + LONG],
        ["verdict", "S3^" + LONG],
        ["complement", "--group", "A4", "--normal", "order:" + LONG],
    ],
    ids=["atom", "power", "order-selector"],
)
def test_over_long_numeral_exit_code(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verdict", "C" + LONG],
        ["complement", "--group", "A4", "--normal", "X" * 3000],
        ["complement", "--group", "A4", "--normal", "sylow" + "x" * 3000],
    ],
    ids=["name", "normal-name", "selector"],
)
def test_long_input_is_echoed_briefly(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and err.startswith("error: ")
    assert err.count("\n") == 1 and len(err) < 200


def test_closed_stdout_exits_quietly():
    reader, writer = os.pipe()
    os.close(reader)  # the pipe has no reader before the command writes
    src = os.path.dirname(os.path.dirname(gaschuetz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaschuetz", "verdict", "Q8"],
            stdout=writer, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(writer)
    assert proc.returncode == 1 and proc.stderr == b""


def test_full_search_implies_verify(capsys, monkeypatch):
    seen = []

    def recorder(bundle, *, full_search=False):
        seen.append(full_search)
        return bundle

    monkeypatch.setattr(cli, "verify_znthm", recorder)
    rc, _, _ = run(capsys, "witness", "znthm", "--group", "Q8", "--q", "3", "--full-search")
    assert rc == 0 and seen == [True]


def test_classify_text(capsys):
    rc, out, _ = run(capsys, "classify", "--max-order", "8")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 15
    assert lines[11].split() == ["D8", "order", "8", "fails", "ZNthm"]
    assert lines[-1] == "summary: 12 hold, 2 fail, 0 undecided, contradictions: 0"


@pytest.mark.parametrize(
    "group, selector, text",
    [
        ("S4", "derived", "order-12 normal subgroup in S4: exists (order 2) "
         "[space 12, examined 1]"),
        ("Q8", "frattini", "order-2 normal subgroup in Q8: none [space 4, examined 0]"),
        ("S4", "frattini", "order-1 normal subgroup in S4: exists (order 24) "
         "[space 1, examined 1]"),
    ],
)
def test_complement_keyword_selectors(capsys, group, selector, text):
    rc, out, _ = run(capsys, "complement", "--group", group, "--normal", selector)
    assert rc == 0 and out == f"complement of {text}\n"


def test_engine_error_exit_code(capsys):
    # witness construction with violated hypothesis: engine error, code 1
    rc, _, err = run(capsys, "witness", "znthm", "--group", "S3", "--q", "2")
    assert rc == 1 and "trivial" in err


def test_classify_cli(tmp_path, capsys, catalog_entries):
    from gaschuetz.catalog import save_catalog

    small = [e for e in catalog_entries if e.group().order <= 12]
    path = tmp_path / "small.jsonl"
    save_catalog(small, path)
    rc, out, _ = run(capsys, "classify", "--catalog", str(path), "--json")
    data = json.loads(out)
    assert data["summary"]["contradictions"] == 0
    assert data["summary"]["total"] == len(small)
    assert data["summary"]["holds"] + data["summary"]["fails"] + data[
        "summary"
    ]["undecided"] == len(small)


def test_classify_catalog_file_verdict_target(tmp_path, capsys, catalog_entries):
    from gaschuetz.catalog import save_catalog

    small = [e for e in catalog_entries if e.group().order <= 6]
    path = tmp_path / "tiny.jsonl"
    save_catalog(small, path)
    rc, out, _ = run(capsys, "verdict", str(path))
    assert rc == 0
    assert out.count("status:") == len(small)


def test_usage_error(capsys):
    rc = main(["complement", "--group", "A4"])  # missing --normal
    assert rc == 2


def test_complement_order_selector_ignores_lattice_cap(capsys, monkeypatch):
    # order:<m> picks among the class-closure normal subgroups, so the
    # exhaustive-lattice cap does not apply
    monkeypatch.setenv("GASCHUETZ_LATTICE_CAP", "10")
    rc, out, _ = run(capsys, "complement", "--group", "A4", "--normal", "order:4")
    assert rc == 0 and "exists (order 3)" in out


def test_malformed_env_value_exit_code(capsys, monkeypatch):
    cases = [
        ("GASCHUETZ_ELEMENT_CAP", "abc", ["verdict", "Q8"]),
        ("GASCHUETZ_ELEMENT_CAP", "0", ["verdict", "Q8"]),
        ("GASCHUETZ_AUT_CAP", "-5", ["aut", "Q8"]),
        ("GASCHUETZ_TIME_BUDGET", "0", ["classify", "--max-order", "2"]),
        ("GASCHUETZ_TIME_BUDGET", "soon", ["classify", "--max-order", "2"]),
    ]
    for name, value, argv in cases:
        monkeypatch.setenv(name, value)
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and err.startswith("error: ") and name in err, (name, value, err)
        monkeypatch.delenv(name)


def test_missing_catalog_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    rc, _, err = run(capsys, "classify", "--catalog", str(missing))
    assert rc == 2 and err.startswith("error: cannot read catalog") and str(missing) in err


@pytest.mark.parametrize(
    "selector, code, message",
    [
        ("sylow", 2, "bad selector 'sylow'"),
        ("sylowx", 2, "bad selector 'sylowx'"),
        ("order:", 2, "bad selector 'order:'"),
        ("order:abc", 2, "bad selector 'order:abc'"),
        ("sylow4", 1, "4 is not prime"),
    ],
)
def test_bad_normal_selector_exit_code(capsys, selector, code, message):
    rc, _, err = run(capsys, "complement", "--group", "S4", "--normal", selector)
    assert rc == code and err.startswith("error: ") and message in err


def test_malformed_catalog_entry_exit_code(tmp_path, capsys):
    path = tmp_path / "zero.jsonl"
    path.write_text('{"name": "zero", "degree": 0, "generators": [], "tags": []}\n')
    rc, _, err = run(capsys, "classify", "--catalog", str(path))
    assert rc == 2 and err.startswith("error: line 1") and "degree" in err
