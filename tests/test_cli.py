import hashlib
import json
import os
import resource
import subprocess
import sys
import time

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
    "argv, text",
    [
        (["verdict", "C1"], "C1 (order 1)\nstatus: holds\nrule: abelian\n  - abelian of order 1\n"),
        (["aut", "C1"], "|Aut| = 1, |Inn| = 1, |Out| = 1\n"),
        (["rose", "C1"], "splitting criterion: True (complete group)\n"),
        (["complement", "--group", "C1", "--normal", "C1"],
         "complement of order-1 normal subgroup in C1: exists (order 1) [space 1, examined 1]\n"),
    ],
)
def test_order_one_group_commands(capsys, argv, text):
    """The group of degree 1, whose products take mult's plain branch."""
    assert run(capsys, *argv) == (0, text, "")


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


def test_deeply_nested_name_exit_code(capsys):
    """Parentheses past the parser's nesting cap are refused, not recursed into."""
    rc, _, err = run(capsys, "verdict", "(" * 3000 + "C2" + ")" * 3000)
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    rc, out, _ = run(capsys, "verdict", "(" * 100 + "C2" + ")" * 100)
    assert rc == 0 and "abelian of order 2" in out


@pytest.mark.parametrize(
    "op, atom, code, text",
    [("x", "C1", 0, "abelian of order 1"), ("x", "C2", 1, "order 32768 over element cap"),
     ("wr", "C2", 1, "order 32768"), ("wr", "C1", 0, "status: holds")],
)
def test_long_chain_names_are_evaluated_by_a_loop(capsys, op, atom, code, text):
    """3,000 factors build a left-deep tree that the evaluator walks by a loop,
    in linear time: a chain of q = 1 wreaths gains no generator per level."""
    start = time.perf_counter()
    rc, out, err = run(capsys, "verdict", op.join([atom] * 3000))
    assert time.perf_counter() - start < 5
    assert rc == code and text in (out if code == 0 else err)
    assert code == 0 or err.startswith("error: ") and err.count("\n") == 1


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


def _run_module(*argv, **env):
    """The CLI in a fresh interpreter with extra environment ``env``, killed after 10 s."""
    src = os.path.dirname(os.path.dirname(gaschuetz.__file__))
    return subprocess.run(
        [sys.executable, "-m", "gaschuetz", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, **env), timeout=10,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "znthm", "--group", "D8", "--q", "4767"], "order 8^4768*4767"),
        (["witness", "znthm", "--group", "SL23", "--q", "100000007"],
         "order 24^100000008*100000007"),
        (["complement", "--group", "S4", "--normal", "sylow3317044064679887385961981"],
         "primality is decided below"),
    ],
    ids=["znthm-power-over-4300-digits", "znthm-huge-q", "sylow-past-primality-bound"],
)
def test_astronomical_numbers_refused_before_computing(argv, message):
    proc = _run_module(*argv)
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "znthm", "--group", "D8", "--q", "4767"],
         "order 8^4768*4767; the quotient would have order 8^4768*4767/2"),
        (["verdict", "C8wrC4767"], "wreath product would have order 8^4767*4767"),
    ],
    ids=["znthm", "wreath"],
)
def test_orders_past_the_digit_limit_print_as_formulas(argv, message):
    """Under a 1,501-digit element cap these orders are computed, refused,
    and too long for a decimal string: the message gives them as formulas."""
    proc = _run_module(*argv, GASCHUETZ_ELEMENT_CAP="1" + "0" * 1500)
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def _limit_address_space(kib):
    """A preexec_fn capping the child's address space at ``kib`` KiB (``ulimit -v``)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (kib * 1024, kib * 1024))
    return limit


def _run_limited(*argv, kib=400_000):
    """The CLI in a fresh interpreter under an address space of ``kib`` KiB."""
    src = os.path.dirname(os.path.dirname(gaschuetz.__file__))
    return subprocess.run(
        [sys.executable, "-m", "gaschuetz", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        preexec_fn=_limit_address_space(kib),
    )


def test_memory_exhaustion_is_one_error_line():
    """D19998 is enumerated before its verdict: 19,998 elements of degree
    9,999 outgrow a 400,000 KiB address space.  The MemoryError becomes one
    ``error:`` line and exit 1.  The cap applies to the child alone."""
    proc = _run_limited("verdict", "D19998")
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == "error: out of memory\n"


@pytest.mark.parametrize("argv, out", [
    (["verdict", "C19999"],
     "C19999 (order 19999)\nstatus: holds\nrule: abelian\n  - abelian of order 19999\n"),
    (["rose", "C19999"], "splitting criterion: False\n"),
])
def test_large_cyclic_group_answers_under_a_memory_limit(argv, out):
    """Enumerated, C19999 would hold 19,999^2 points, past the limit that
    stops D19998; the abelian verdict and the rose criterion's center test
    read only its generators and order, so both answer within it."""
    proc = _run_limited(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("json_flag, digest", [
    ([], "f0d710cb3d128088cb31f79eaa7f96ea7b24fb26299dc9c037891ccbeec6588d"),
    (["--json"], "6535840b869318a7f83bacfc27365cf16287af191ae2d5aa0b2039231574aa62"),
])
def test_full_search_runs_under_a_memory_limit(json_flag, digest):
    """The unreduced search runs in G = P/Z0 on coset numbers, through P's
    degree-32 lookup: G, 6,144 elements of 6,144 points each, is never
    enumerated, so the run fits in 200,000 KiB.  Its output is pinned by
    SHA-256, the JSON one holding G's generators on 6,144 points."""
    proc = _run_limited("witness", "znthm", "--group", "D8", "--q", "3", "--verify",
                        "--full-search", *json_flag, kib=200_000)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_complement_search_reads_the_quotient_table_under_a_memory_limit():
    """Q = G/N, 8,192 cosets, is read from G's table on coset numbers, never
    enumerated as 8,192 permutations of 8,192 points, so the search fits in
    100,000 KiB."""
    proc = _run_limited("complement", "--group", "C2^11xS3", "--normal", "sylow3",
                        kib=100_000)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("complement of order-3 normal subgroup in C2^11xS3: exists "
                           "(order 4096) [space 531441, examined 1]\n")


@pytest.mark.parametrize(
    "group, normal, rc, message",
    [
        ("S3", "sylow2", 1, "the chosen subgroup is not normal"),
        ("S4", "order:5", 2, "0 normal subgroups of order 5; specify differently"),
        ("C2xC2", "C2", 2,
         "3 normal subgroups isomorphic to 'C2'; use order:<m> or a keyword"),
        ("S4", "Q8", 2, "no normal subgroup isomorphic to 'Q8'"),
    ],
)
def test_normal_selector_refusals(capsys, group, normal, rc, message):
    got = run(capsys, "complement", "--group", group, "--normal", normal)
    assert got == (rc, "", f"error: {message}\n")


def test_sylow_selector_with_a_large_prime():
    proc = _run_module("complement", "--group", "S4", "--normal", "sylow2305843009213693951")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "complement of order-1 normal subgroup in S4: exists" in proc.stdout


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


def test_catalog_degree_over_the_element_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.jsonl"
    path.write_text('{"name": "X", "degree": 1000000000000000, "generators": []}\n')
    for argv in (["classify", "--catalog", str(path)], ["verdict", str(path)]):
        rc, _, err = run(capsys, *argv)
        assert rc == 1, argv
        assert err == "error: catalog group of degree 1000000000000000 over element cap\n"


def test_catalog_integer_too_long_to_convert_exit_code(tmp_path, capsys):
    # past Python's default limit of 4,300 digits json.loads raises a plain ValueError
    path = tmp_path / "long.jsonl"
    path.write_text('{"name": "X", "degree": ' + "1" * 4301 + ', "generators": []}\n')
    rc, _, err = run(capsys, "classify", "--catalog", str(path))
    assert rc == 2 and err.startswith("error: line 1: invalid JSON") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line",
    ["[" * 100_000 + "]" * 100_000,
     '{"name": "X", "degree": 1, "generators": [], "tags": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["line", "field"],
)
def test_catalog_nested_too_deep_exit_code(tmp_path, capsys, line):
    # json.loads raises RecursionError, not ValueError, past the recursion limit
    path = tmp_path / "deep.jsonl"
    path.write_text(line + "\n")
    for argv in (["classify", "--catalog", str(path)], ["verdict", str(path)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: line 1: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1
