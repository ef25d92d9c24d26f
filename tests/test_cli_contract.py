"""The CLI's contract on hostile input, driven in process.

Whatever the group name, ``--normal`` selector or ``GASCHUETZ_*`` value,
``cli.main`` exits 0, 1 or 2, prints no traceback, and on a non-zero exit
prints exactly one ``error:`` line.  The element cap is 200 throughout, so
no example stores much.  Inputs that may need large memory belong in a
subprocess under an address-space limit (``test_cli.py``).
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from gaschuetz.cli import main
from test_catalog import _NAMES, _render

_HUGE = "9" * 5000
_NOISE = st.sampled_from([
    "", " ", ".", "(", ")", "()", "x", "^", ":", "wr", "C", "Cx", "xC2", "C2x", "C2^",
    "^2", "C2^0", "C3^0", "C2^99999", "S3^99999", "C2wr", "wrC2", "C2::Q8", "C2 x C3",
    "Zork", "C-1", "D7", "c2", "C" + _HUGE, "S" + _HUGE, "C2^" + _HUGE, "C2wrC" + _HUGE,
    "(" * 30 + "C2" + ")" * 30, "(" * 30 + "C2", "x".join(["C2"] * 40),
    "x".join(["S3"] * 40), "wr".join(["C2"] * 12), "x" * 50, "-x", "--json",
])
_GRAMMAR = _NAMES.map(_render)
_TEXT = st.one_of(
    _GRAMMAR,
    _NOISE,
    st.tuples(_GRAMMAR, _NOISE).map("".join),
    st.tuples(_NOISE, _GRAMMAR).map("".join),
)
_SELECTORS = st.one_of(
    st.sampled_from(["derived", "center", "frattini", "sylow", "sylowx", "order:",
                     "order:x", "sylow-2", "order:-4", "sylow" + _HUGE, "order:" + _HUGE]),
    st.sampled_from([0, 1, 2, 3, 4, 5, 7, 2305843009213693951]).map("sylow{}".format),
    st.integers(0, 300).map("order:{}".format),
    _TEXT,
)
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["verdict", "aut", "rose"]), _TEXT, st.booleans()).map(
        lambda c: [c[0], c[1]] + ["--json"] * c[2]
    ),
    st.tuples(_TEXT, _SELECTORS, st.booleans()).map(
        lambda c: ["complement", "--group", c[0], "--normal", c[1]] + ["--json"] * c[2]
    ),
)
# q: the small values, even ones, multiples of |N| for the witness groups
# (D8 and Q8 of order 8, SL23 of order 24, S3 of order 6), negative,
# non-numeric and 5,000-digit numerals
_Q = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "8", "12", "16", "24", "48", "-1",
                     "-3", "-8", "", " ", "x", "three", "3.0", "1e3", "0x3", "--3",
                     _HUGE, "-" + _HUGE, "1" + "0" * 4999]),
    st.integers(-100, 100).map(str),
)
_WITNESS = st.tuples(
    st.sampled_from(["D8", "Q8", "SL23", "S3", "C2", ""]).flatmap(
        lambda name: st.just(name) if name else _TEXT), _Q,
    st.booleans(), st.booleans(),
).map(lambda c: ["witness", "znthm", "--group", c[0], "--q", c[1]]
      + ["--verify"] * c[2] + ["--json"] * c[3])
# malformed values, and small valid ones; a large element cap would let
# an example enumerate a large group
_BAD_VALUES = ["", " ", "abc", "0", "-5", "+0", "1e3", "1.5", "nan", "inf", "-inf",
               "0x10", "1_0", "٣", "½", "\t7", _HUGE, "-" + _HUGE]
_ENV = st.dictionaries(
    st.sampled_from(["GASCHUETZ_ELEMENT_CAP", "GASCHUETZ_AUT_CAP",
                     "GASCHUETZ_AUT_CARRIER_CAP", "GASCHUETZ_LATTICE_CAP",
                     "GASCHUETZ_TIME_BUDGET"]),
    st.sampled_from(_BAD_VALUES + ["1", "5", "50", " 200 ", "0200"]),
    max_size=2,
)


def _check_contract(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GASCHUETZ_ELEMENT_CAP", "200")
        for name, value in env.items():
            mp.setenv(name, value)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    text = err.getvalue()
    assert rc in (0, 1, 2), (argv, env, rc)
    assert "Traceback" not in text, (argv, env, text)
    if rc:
        lines = [line for line in text.splitlines() if "error:" in line]
        assert len(lines) == 1, (argv, env, text)


@settings(deadline=None, max_examples=400, derandomize=True, database=None)
@given(_COMMANDS)
def test_hostile_names_and_selectors_keep_the_exit_contract(argv):
    _check_contract(argv, {})


@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(_COMMANDS, _ENV)
def test_hostile_environment_values_keep_the_exit_contract(argv, env):
    _check_contract(argv, env)


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(_WITNESS)
def test_witness_values_keep_the_exit_contract(argv):
    _check_contract(argv, {})
