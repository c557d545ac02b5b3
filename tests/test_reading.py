"""Every number from outside is read by one reader, ``model._rational``.

One table crosses every public boundary that reads a rational with inputs
that are not readable; each boundary must raise its own documented error, a
``ValueError`` subclass (the CLI exits 2), naming the field.  Readable inputs
must read to the same ``Fraction`` as ``Fraction`` itself gives them.
"""

import json
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fairalloc.characterization import (
    _positive_grid,
    constancy_check,
    counterexample_profile,
    find_ef1_counterexample,
    fit_log,
)
from fairalloc.cli import RATIONAL, main
from fairalloc.errors import InvalidWelfareFunctionError, ProfileFormatError
from fairalloc.model import Profile, _rational, loads_profile
from fairalloc.welfarist import Affine, LogAffine, Power, welfare_function_from_spec

LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
bounded = pytest.mark.skipif(not LIMIT, reason="no integer-digit limit: decimal exponents are not bounded")

UNREADABLE = [float("inf"), float("nan"), None, True, "1/0", "abc", [1], "1e999999999", "1e-999999999"]


def _crossed(boundaries, keep=lambda boundary, value: True):
    """Every boundary with every unreadable input; the exponents need the integer-digit limit."""
    return [
        pytest.param(boundary, value, id=f"{boundary}-{value!r}", marks=bounded if str(value).startswith("1e") else ())
        for boundary in boundaries for value in UNREADABLE if keep(boundary, value)
    ]


def _profile_file(value):
    return loads_profile(json.dumps({"agents": 1, "goods": 1, "utilities": [[value]]}))


# (boundary, error type, text the message must hold)
READERS = {
    "Profile": (lambda v: Profile([[1, v]]), ValueError, "agent 0, good 1"),
    "loads_profile": (_profile_file, ProfileFormatError, "agent 0, good 0"),
    "LogAffine.a": (lambda v: LogAffine(v), InvalidWelfareFunctionError, "parameter a"),
    "LogAffine.b": (lambda v: LogAffine(1, v), InvalidWelfareFunctionError, "parameter b"),
    "Affine.b": (lambda v: Affine(1, v), InvalidWelfareFunctionError, "parameter b"),
    "Power.p": (lambda v: Power(v), InvalidWelfareFunctionError, "parameter p"),
    "spec": (lambda v: welfare_function_from_spec(f"log:1,{v}"), InvalidWelfareFunctionError, "parameter b"),
    "counterexample_profile.y": (lambda v: counterexample_profile(1, v, 1, "1/2"), ValueError, "y"),
    "counterexample_profile.discount": (lambda v: counterexample_profile(1, 1, 1, v), ValueError, "discount"),
    "constancy_check.grid": (lambda v: constancy_check(Power(2), 1, [1, v]), ValueError, "grid point"),
    "fit_log.grid": (lambda v: fit_log(Power(2), grid=[v]), ValueError, "grid point"),
    "find_ef1_counterexample.grid": (
        lambda v: find_ef1_counterexample(Power(2), grid=[v, 1]), ValueError, "grid point"
    ),
    "find_ef1_counterexample.epsilon": (
        lambda v: find_ef1_counterexample(Power(2), k_max=1, grid=[1, 2], epsilon=v), ValueError, "epsilon"
    ),
}


# epsilon=None is the documented default, "no override"
@pytest.mark.parametrize("reader, value", _crossed(READERS, lambda r, v: not (v is None and r.endswith("epsilon"))))
def test_unreadable_input_raises_the_owners_error_naming_the_field(reader, value):
    read, error, field = READERS[reader]
    start = time.perf_counter()
    with pytest.raises(error) as excinfo:
        read(value)
    assert time.perf_counter() - start < 5
    assert issubclass(excinfo.type, ValueError)
    assert field in str(excinfo.value)


def test_a_spec_error_names_the_spec_and_the_piece():
    with pytest.raises(InvalidWelfareFunctionError, match=r"unreadable parameter p: 'abc' in 'power: abc'$"):
        welfare_function_from_spec("power: abc")


CLI_READERS = {
    "--grid-min": ["counterexample", "--f", "exp", "--grid-min"],
    "--grid-max": ["counterexample", "--f", "exp", "--grid-max"],
    "--grid-step": ["counterexample", "--f", "exp", "--grid-step"],
    "--epsilon": ["counterexample", "--f", "exp", "--epsilon"],
    "--grid": ["lemma-check", "--f", "log", "--grid"],
}


@pytest.mark.parametrize("option, value", _crossed(CLI_READERS))
def test_unreadable_cli_rational_exits_2_naming_the_option(option, value):
    text = f"1,{value}" if option == "--grid" else str(value)
    result = CliRunner().invoke(main, [*CLI_READERS[option], text])
    assert result.exit_code == 2
    assert f"'{option}'" in result.stderr


READABLE = [3, 0, 2**80, Fraction(1, 3), 0.5, 0.1, "2/3", " 7/4 ", "0.5", "1e400", "-3/4", Decimal("0.25")]


@pytest.mark.parametrize("value", READABLE)
def test_readable_input_reads_as_fraction_does(value):
    assert _rational(value, "x") == Fraction(value)
    if not isinstance(value, str) or value.strip()[0] != "-":
        assert Profile([[value]]).utilities[0][0] == Fraction(value)
        if isinstance(value, (int, str)):
            assert _profile_file(value).utilities[0][0] == Fraction(value)
    if value and Fraction(value) < 1e300:
        assert Affine(1, value).b == Fraction(value)
        assert welfare_function_from_spec(f"affine:1,{value}").b == Fraction(str(value))
    if Fraction(value) > 0:
        assert _positive_grid([value]) == (Fraction(value),)
        assert counterexample_profile(1, value, 1, "1/2").utilities[0][1] == Fraction(value)
        assert RATIONAL.convert(str(value), None, None) == Fraction(str(value))


def test_exponents_are_bounded_by_the_integer_digit_limit():
    if not LIMIT:
        pytest.skip("no integer-digit limit: decimal exponents are not bounded")
    assert _rational(f"1e{LIMIT}", "x") == 10**LIMIT
    assert _rational(f"1e-{LIMIT}", "x") == Fraction(1, 10**LIMIT)
    for text in (f"1e{LIMIT + 1}", f"1E-{LIMIT + 1}", f" 2.5e+{LIMIT + 1} "):
        with pytest.raises(ValueError, match="unreadable x"):
            _rational(text, "x")
    with pytest.raises(ValueError, match="unreadable x"):
        _rational(Decimal("1e999999999"), "x")
