import pickle
import time
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from omlprob import rationals
from omlprob.errors import NoExactDecimal, ParseError
from omlprob.rationals import (
    MAX_DIGITS,
    _fraction,
    _ratio,
    exact_dot,
    format_rational,
    has_finite_decimal,
    literal,
    parse_rational,
)


def test_parse_forms():
    assert parse_rational("11/30") == F(11, 30)
    assert parse_rational("0.4") == F(2, 5)
    assert parse_rational(3) == F(3)
    assert parse_rational("  1/2 ") == F(1, 2)


def test_parse_rejects_garbage():
    for bad in ("x", "1/0", 0.4, None, True):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_format_default_is_exact():
    assert format_rational(F(11, 30)) == "11/30"
    assert format_rational(F(3)) == "3"


def test_format_default_is_exact_past_the_str_limit():
    """Python's int -> str limit is 4300 digits; "p/q" has no limit."""
    assert format_rational(F(10**4400)) == "1" + "0" * 4400
    assert format_rational(F(-1, 10**4400 + 1)) == "-1/1" + "0" * 4399 + "1"


def test_format_decimal_exact():
    assert format_rational(F(3, 25), decimal=True) == "0.12"
    assert format_rational(F(7, 10), decimal=True) == "0.7"
    assert format_rational(F(2), decimal=True) == "2"
    assert format_rational(F(-3, 8), decimal=True) == "-0.375"


def test_format_decimal_refuses_nonterminating():
    assert not has_finite_decimal(F(11, 30))
    with pytest.raises(ValueError):
        format_rational(F(11, 30), decimal=True)
    assert format_rational(F(11, 30), decimal=True, approx=True) == repr(11 / 30)


def test_format_decimal_exact_past_the_float_range():
    assert format_rational(F(1, 2**1100), decimal=True) == "0." + str(5**1100).rjust(1100, "0")
    assert format_rational(-F(10**400 + 1, 8), decimal=True) == f"-{(10**400 + 1) // 8}.125"


@pytest.mark.parametrize("q, approx, message", [
    (F(1, 2**6642), False, "exact decimal form too long to print"),
    (F(10**4000 + 1, 2**3000), True, "exact decimal form too long to print"),
    (F(10**400, 3), True, "out of float range"),
    (F(-(10**400), 3), True, "out of float range"),
    (F(1, 3 * 10**400), True, "out of float range"),
    (F(1, 3 * 10**4400), False, r"^1/3000\d* has no exact decimal form \(use"),
    (F(-(10**4400), 3), True, r"^-1000\d*/3 has no exact decimal form and is out of float range"),
    (F(1, 2**20000), False, "exact decimal form too long to print"),
])
def test_format_decimal_refuses_what_it_cannot_print(q, approx, message):
    """Never a ValueError or OverflowError from ``str`` or ``float``, and
    never 0 for a nonzero value."""
    with pytest.raises(NoExactDecimal, match=message):
        format_rational(q, decimal=True, approx=approx)


@pytest.mark.parametrize(
    "bad", ["1e3000000", "1E-1001", "9" * 1001, "1/" + "3" * 1001, "9" * 1001 + "/1"]
)
def test_parse_bounds_literal_size(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_parse_accepts_literals_at_the_bound():
    assert parse_rational("1e1000") == 10**1000
    assert parse_rational("1e-1000") == F(1, 10**1000)
    assert parse_rational("9" * 1000) == 10**1000 - 1
    # A "p/q" literal is bounded on each side, as a Fraction is.
    assert parse_rational("-" + "9" * 1000 + "/" + "9" * 999 + "8") == F(1 - 10**1000, 10**1000 - 2)


def test_parse_bounds_ints_like_digit_strings():
    """An int has the digit bound of its decimal literal, so no int past
    Python's 4300-digit int -> str limit reaches a message."""
    assert parse_rational(10**1000 - 1) == parse_rational("9" * 1000)
    assert parse_rational(1 - 10**1000) == parse_rational("-" + "9" * 1000)
    for bad in (10**1000, -(10**1000), 10**5000):
        with pytest.raises(ParseError, match="more than 1000 digits"):
            parse_rational(bad)


@given(st.text("0123456789", min_size=1, max_size=40), st.text("0123456789", min_size=1, max_size=40))
def test_parse_ascii_fraction_literals(p, q):
    assume(int(q) != 0)
    assert parse_rational(f"{p}/{q}") == F(f"{p}/{q}") == F(int(p), int(q))


@pytest.mark.parametrize(
    "text, want",
    [
        ("0/5", F(0)),
        ("007/010", F(7, 10)),
        ("١/٢", F(1, 2)),
        ("１/２", F(1, 2)),
        (" 3/4 ", F(3, 4)),
        ("+1/2", F(1, 2)),
        ("1_0/3", F(10, 3)),
    ],
)
def test_parse_fraction_literal_forms(text, want):
    assert parse_rational(text) == want


@pytest.mark.parametrize("bad", ["1/0", "1/", "/2", "1/-2", "1/2/3", "0/000"])
def test_parse_rejects_malformed_fraction_literals(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value, shown", [
    (F(3, 2), "1.5"), (F(-1, 8), "-0.125"), (7, "7"), (F(1, 3), "1/3"),
    (F(10**5000 + 1, 2), f"1{'0' * 4999}1/2"), ("a", "'a'"), (False, "false"),
    ([], "[]"), ([F(1, 2), ["b", None]], "[0.5, ['b', null]]"), ({"k": {}}, "{'k': {}}"),
    (_nested(8), "[" * 8 + "1" + "]" * 8), (_nested(2000), "[" * 8 + "[...]" + "]" * 8),
    ((1, 2), "(1, 2)"),
], ids=["decimal", "negative", "int", "no-decimal", "decimal-too-long", "str", "bool",
        "empty-list", "nested-list", "object", "depth-8", "depth-2000", "other"])
def test_literal_shows_values_as_a_json_file_holds_them(value, shown):
    assert literal(value) == shown


def test_exact_dot_skips_zero_terms():
    """A term with a zero weight or value leaves the sum and its denominator
    as they were: 1,000 such terms with 900-digit denominators cost no
    more than the two that count, and are still type-checked."""
    big = [F(1, 10**899 + i) for i in range(1000)]
    weights = [*big[:500], *[0, F(0)] * 250, F(2, 3), F(1, 7)]
    values = [*[F(0), 0] * 250, *big[500:], F(3, 4), F(7, 5)]
    start = time.perf_counter()
    got = exact_dot(weights, values)
    assert time.perf_counter() - start < 1
    assert got == (7, 10)
    assert exact_dot([0, 1], [0.5, 1]) is None
    assert exact_dot([F(1, 2), "0"], [1, 0]) is None


PART = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(10**6), 10**6),
    st.integers(1 - 10**MAX_DIGITS, 10**MAX_DIGITS - 1),
)


@st.composite
def reduced_ratios(draw):
    n, d = draw(PART), abs(draw(PART)) or 1
    g = gcd(n, d)
    return n // g, d // g


@given(reduced_ratios(), reduced_ratios())
def test_fraction_of_a_reduced_ratio_is_the_fraction(r, s):
    """``_fraction`` sets the slots ``Fraction.__new__`` would set: it is
    equal to, hashes, prints, computes and pickles as ``Fraction(n, d)``."""
    x, want = _fraction(*r), F(*r)
    assert type(x) is F
    assert x == want and hash(x) == hash(want) and repr(x) == repr(want)
    assert (x.numerator, x.denominator) == r
    assert all(type(v) is int for v in (x.numerator, x.denominator))
    y = _fraction(*s)
    assert (x + y, x - y, x * y, x < y, x == y) == (want + F(*s), want - F(*s), want * F(*s),
                                                    want < F(*s), want == F(*s))
    if y:
        assert x / y == want / F(*s)
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is F and back == want


class _E(IntEnum):
    ONE = 1


class _Int(int):
    pass


RATIONAL_VALUES = st.one_of(
    st.integers(1 - 10**MAX_DIGITS, 10**MAX_DIGITS - 1),
    st.sampled_from([_E.ONE, _Int(-7), _Int(0), Decimal("0.25"), Decimal("-3")]),
    st.builds(F, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 10**30), st.integers(1, 10**30)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.decimals(allow_nan=False, allow_infinity=False, places=6).map(str),
)


@given(RATIONAL_VALUES)
def test_ratio_holds_exact_ints(value):
    """``_ratio`` returns a reduced ratio of exact ``int``s with d > 0, the
    precondition of ``_fraction``; an int subclass becomes an int."""
    n, d = _ratio(value)
    assert type(n) is int and type(d) is int
    assert d > 0 and gcd(n, d) == 1
    assert F(n, d) == F(value)


def test_int_subclass_reads_as_an_int():
    assert _ratio(_E.ONE) == (1, 1) and type(_ratio(_E.ONE)[0]) is int
    q = parse_rational(_E.ONE)
    assert type(q) is F and type(q.numerator) is int and q == 1


@given(st.text("0123456789/-+ .e_٣", max_size=12) | st.builds(
    lambda p, q: f"{p}/{q}", st.text("0123456789", max_size=1002), st.text("0123456789", max_size=1002)
))
def test_ascii_fraction_fast_path_is_exactly_bounded_p_q(text):
    """Only an ASCII-digit "p/q" with each side of at most MAX_DIGITS
    digits and q ≠ 0 skips the size scan; every other string takes the
    full path, with its result or message."""
    p, slash, q = text.partition("/")
    fast = bool(slash and p.isdigit() and q.isdigit() and p.isascii() and q.isascii()
                and len(p) <= MAX_DIGITS and len(q) <= MAX_DIGITS and int(q))
    scanned = []
    check = rationals._check_literal_size
    try:
        rationals._check_literal_size = lambda t: scanned.append(t) or check(t)
        got = _ratio(text)
    except ParseError as exc:
        got = str(exc)
    finally:
        rationals._check_literal_size = check
    assert scanned == ([] if fast else [text])
    try:
        check(text)
        want = F(text.strip()).as_integer_ratio()
    except ParseError as exc:
        want = str(exc)
    except (ValueError, ZeroDivisionError):
        want = f"not a rational: {text!r}"
    assert got == want
