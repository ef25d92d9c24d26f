"""Budget knobs, overridable through the environment.

Defaults are chosen so every named example passes within its stated
budget.  The element cap is a hard guard: closures refuse to enumerate
groups beyond it instead of going silently quadratic.  A set value that
is not a positive number raises ConfigError naming the variable.
"""

import os

from .errors import ConfigError

# Full element enumeration refuses beyond this many elements.
DEFAULT_ELEMENT_CAP = 20_000

# aut_group refuses base groups larger than this (soft; see carrier cap).
DEFAULT_AUT_BASE_CAP = 512

# aut_group refuses when the automorphism group itself would exceed this.
DEFAULT_AUT_CARRIER_CAP = 20_000

# all_subgroups is exhaustive up to this order.
DEFAULT_LATTICE_CAP = 2_000


def _env_positive(name, parse, default):
    """The value of environment variable `name` read by `parse`; unset or empty: `default`."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError:
        value = 0
    if not value > 0:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"{name} must be {kind} > 0, got {raw!r}")
    return value


def element_cap():
    return _env_positive("GASCHUETZ_ELEMENT_CAP", int, DEFAULT_ELEMENT_CAP)


def aut_base_cap():
    return _env_positive("GASCHUETZ_AUT_CAP", int, DEFAULT_AUT_BASE_CAP)


def aut_carrier_cap():
    return _env_positive("GASCHUETZ_AUT_CARRIER_CAP", int, DEFAULT_AUT_CARRIER_CAP)


def lattice_cap():
    return _env_positive("GASCHUETZ_LATTICE_CAP", int, DEFAULT_LATTICE_CAP)


def time_budget_per_group():
    """Optional per-group wall-clock budget (seconds) for classification runs."""
    return _env_positive("GASCHUETZ_TIME_BUDGET", float, None)
