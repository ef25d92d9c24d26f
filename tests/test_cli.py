import json

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


def test_unknown_name_exit_code(capsys):
    rc, _, err = run(capsys, "verdict", "Zork99")
    assert rc == 2 and "Zork99" in err


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
