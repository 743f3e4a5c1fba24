"""Exact rational parsing and printing.

All probabilities in this package are ``fractions.Fraction`` values; nothing
is ever stored as a float.  Decimal literals in input files are read exactly
as fractions over powers of ten ("0.4" -> 2/5).

A literal is refused before any ``Fraction`` is built if it has more than
``MAX_DIGITS`` digits (on either side of a ``"p/q"``) or an exponent beyond
±``MAX_EXPONENT``: the ten bytes "1e3000000" would otherwise become a
three-million-digit integer.  An ``int`` and the numerator and denominator of
a ``Fraction`` are held to the same bound, so a ``Fraction`` reads back.
A ``Decimal`` is read as its string, so NaN and Infinity are refused.  This
is the one gate by which a caller's number becomes a reduced integer ratio:
``_ratio``, whose parts are exact ``int``s (an ``int`` subclass becomes an
``int``).  It reads an ASCII-digit ``"p/q"`` of at most ``MAX_DIGITS`` digits
a side before it scans a string's size; any other string takes the full
path.  ``parse_rational`` is that gate plus the record rule (an exact
``Fraction`` is kept as the caller's object, anything else becomes the
``Fraction`` of its ratio), and ``_read_entries`` applies both to a
validator's entries, reading each once.  A list or tuple whose entries are
all exactly ``Fraction``s is read in one pass, from their two slots, with
one ``min``/``max`` for the bound; anything else (an entry of another type
or a ``Fraction`` subclass, a part past the bound, an iterator) is walked
entry by entry through ``_ratio``, so the first bad entry is the one named.
``_read_keyed`` looks a mapping's entries up in one pass and, if one is
missing, hands the lookups to the walk lazily.  Every ``Fraction`` built
from a reduced ratio comes from ``_fraction``, which sets its two slots and
skips the gcd ``Fraction.__new__`` would repeat; it is the one function
that sets them.  A record's entries, ints and ``Fraction``s, become ratios
through ``exact_ratios``, or are summed in ratios by ``exact_dot``, which
reads a ``Fraction``'s ratio from the same two slots, as ``_read_entries``
does, and an ``int`` v as (v, 1).
A message shows a value read from a JSON document through ``literal``, a
number as its decimal rather than a ``Fraction`` repr.
"""

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import NoExactDecimal, ParseError

MAX_DIGITS = 1000
MAX_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")
_INT_BOUND = 10**MAX_DIGITS
_TOO_LONG = f"numeric literal has more than {MAX_DIGITS} digits"
_EXACT = frozenset((int, Fraction))
_SEQUENCES = frozenset((list, tuple))
_ALL_FRACTIONS = frozenset((Fraction,))


def _check_literal_size(text: str) -> None:
    """Raise ParseError if the numeric literal ``text`` exceeds the bounds."""
    if len(text) > MAX_DIGITS and any(  # each side of "p/q", as in a Fraction
        sum(c.isdigit() for c in side) > MAX_DIGITS for side in text.split("/", 1)
    ):
        raise ParseError(_TOO_LONG)
    if "e" in text or "E" in text:
        m = _EXPONENT.search(text)
        if m and abs(int(m.group(1).replace("_", ""))) > MAX_EXPONENT:
            raise ParseError(f"numeric literal has an exponent beyond ±{MAX_EXPONENT}")


def _ratio(value) -> tuple[int, int]:
    """``value`` as a reduced ratio ``(n, d)`` of ints with d > 0: the grammar
    and bounds of ``parse_rational``, without building a ``Fraction``."""
    # The exact type first, a validator's usual entry; a subclass is caught
    # below, after str, since isinstance goes through ABCMeta.__instancecheck__.
    if type(value) is Fraction:
        n, d = ratio = value.as_integer_ratio()
        if abs(n) < _INT_BOUND and d < _INT_BOUND:
            return ratio
        raise ParseError(_TOO_LONG)
    if isinstance(value, str):
        # "p/q" in ASCII digits, each side within MAX_DIGITS: no size scan
        # or regex.  Any other string, "p/0" included, takes the full path.
        p, slash, q = value.partition("/")
        if (slash and len(p) <= MAX_DIGITS and len(q) <= MAX_DIGITS
                and value.isascii() and p.isdigit() and q.isdigit()):
            n, d = int(p), int(q)
            if d:
                g = gcd(n, d)
                return n // g, d // g
        _check_literal_size(value)
        try:
            return Fraction(value.strip()).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return _ratio(Fraction(value))
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {literal(value)}")
    if isinstance(value, int):
        if abs(value) >= _INT_BOUND:
            raise ParseError(_TOO_LONG)
        return int(value), 1  # an int subclass, such as an IntEnum, as an int
    if isinstance(value, float):
        # Floats only appear if a JSON loader was not configured with
        # parse_float=Fraction; refuse rather than guess the intended decimal.
        raise ParseError(f"refusing inexact float literal: {value!r}")
    if isinstance(value, Decimal):
        return _ratio(str(value))
    raise ParseError(f"not a rational: {literal(value)}")


def _fraction(n: int, d: int) -> Fraction:
    """The ``Fraction`` n/d of a reduced ratio of exact ints with d > 0, as
    ``_ratio`` returns one: its two slots are set on a bare instance, so the
    gcd ``Fraction.__new__`` would repeat is skipped (0.18 against 0.58 µs
    on CPython 3.11.7).  No other function sets these slots, and no other
    module names them."""
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def parse_rational(value) -> Fraction:
    """Parse an int, Fraction, Decimal, "p/q" string or decimal string exactly.

    A ``Fraction`` within the bound is returned as the same object."""
    ratio = _ratio(value)
    return value if type(value) is Fraction else _fraction(*ratio)


def _read_entries(values) -> tuple[list[Fraction], list[tuple[int, int]]]:
    """``values``, each entry read once: the entries ``parse_rational``
    would return, and their reduced ratios.

    A list or tuple whose entries are all exactly ``Fraction``s is read in
    one pass: the ratios from the two slots, one ``min``/``max`` for the
    bound, and the entries are ``values`` itself, the caller's objects.
    Anything else, a list with a part past the bound included, is walked
    entry by entry through ``_ratio``, so the first bad entry is the one
    named.  The walk takes an entry from an iterator only after the one
    before it is read, so a lookup behind the iterator fails after that
    read."""
    if type(values) in _SEQUENCES and set(map(type, values)) == _ALL_FRACTIONS:
        ns = [x._numerator for x in values]
        ds = [x._denominator for x in values]
        if -_INT_BOUND < min(ns) and max(ns) < _INT_BOUND and max(ds) < _INT_BOUND:
            return values, list(zip(ns, ds))
    entries, ratios = [], []
    for x in values:
        r = _ratio(x)
        ratios.append(r)
        entries.append(x if type(x) is Fraction else _fraction(*r))
    return entries, ratios


def _read_keyed(table, keys) -> tuple[list[Fraction], list[tuple[int, int]]]:
    """``_read_entries`` of the entries of the mapping ``table`` at ``keys``,
    all looked up in one pass.  If one is missing, the walk looks them up
    again lazily, so of a missing entry (a ``KeyError`` of its key) and a
    malformed one, the first in the order of ``keys`` is raised."""
    try:
        values = list(map(table.__getitem__, keys))
    except KeyError:
        values = map(table.__getitem__, keys)
    return _read_entries(values)


def exact_ratios(values, where: str) -> list[tuple[int, int]]:
    """The reduced ``(n, d)`` of each of a record's ``values``, whose type
    must be int or Fraction: a bool and a float would pass for numbers."""
    ratios = [v.as_integer_ratio() for v in values if type(v) in _EXACT]
    if len(ratios) != len(values):
        bad = next(v for v in values if type(v) not in _EXACT)
        raise ParseError(f"refusing {bad!r} in {where}: entries must be int or Fraction")
    return ratios


def exact_dot(weights, values) -> tuple[int, int] | None:
    """The reduced ``(n, d)`` of Σ wᵢ·vᵢ, or None if a weight or a value is
    not exactly an int or a Fraction; ``exact_ratios`` then names it.  Each
    term is read once, a ``Fraction`` from its two slots and an ``int`` v as
    (v, 1).  A term with wᵢ or vᵢ = 0 adds nothing, so its denominators are
    not multiplied into the running one."""
    num, den = 0, 1
    for w, v in zip(weights, values):
        tw, tv = type(w), type(v)
        if tw is Fraction:
            wn, wd = w._numerator, w._denominator
        elif tw is int:
            wn, wd = w, 1
        else:
            return None
        if tv is Fraction:
            vn, vd = v._numerator, v._denominator
        elif tv is int:
            vn, vd = v, 1
        else:
            return None
        if wn and vn:
            num, den = num * wd * vd + wn * vn * den, den * wd * vd
    g = gcd(num, den)
    return num // g, den // g


def literal(value, depth: int = 8) -> str:
    """``value``, as a JSON document holds it, for a message: a number as
    its exact decimal (``p/q`` if it has none), ``true``, ``false`` and
    ``null`` as JSON spells them, a string in the quotes of ``repr``, and a
    list or an object item by item, each as ``[...]`` or ``{...}`` past
    ``depth`` levels.  Any other value is shown by ``repr``."""
    if isinstance(value, str):
        return repr(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        try:
            return format_rational(q, decimal=True)
        except NoExactDecimal:
            return _p_q(q)
    if isinstance(value, list):
        items = [literal(v, depth - 1) for v in value] if depth else ["..."]
        return f"[{', '.join(items)}]"
    if isinstance(value, dict):
        items = [f"{literal(k)}: {literal(v, depth - 1)}" for k, v in value.items()] if depth else ["..."]
        return f"{{{', '.join(items)}}}"
    return repr(value)


def _strip_2_5(d: int) -> tuple[int, int, int]:
    """``(e2, e5, r)`` with d = 2^e2·5^e5·r and r prime to 10, for d > 0."""
    e2 = (d & -d).bit_length() - 1
    d >>= e2
    e5 = 0
    while d % 5 == 0:
        d //= 5
        e5 += 1
    return e2, e5, d


def has_finite_decimal(q: Fraction) -> bool:
    """True iff q has a terminating decimal expansion (denominator 2^a·5^b)."""
    return _strip_2_5(q.denominator)[2] == 1


def _p_q(q: Fraction) -> str:
    """``str(q)`` at any size: past the int->str digit limit, through ``str``
    of a ``Decimal`` made from an int, which has none but is 4x slower."""
    try:
        return str(q)
    except ValueError:
        n = str(Decimal(q.numerator))
        return n if q.denominator == 1 else f"{n}/{Decimal(q.denominator)}"


def format_rational(q: Fraction, decimal: bool = False, approx: bool = False) -> str:
    """Render q as "p/q" (default), exactly at any size, or in decimal.

    Decimal output is exact when the denominator is of the form 2^a·5^b;
    otherwise it is refused unless ``approx`` allows a float approximation.
    An exact decimal with more digits than ``str`` converts, or a nonzero q
    whose float is 0 or overflows, raises NoExactDecimal.
    """
    if not decimal:
        return _p_q(q)
    e2, e5, rest = _strip_2_5(q.denominator)
    if rest == 1:
        k = max(e2, e5)
        try:  # the interpreter's int->str digit limit (4300 by default)
            text = str(abs(q.numerator) * (10**k // q.denominator)).rjust(k + 1, "0")
        except ValueError:
            raise NoExactDecimal(
                f"{_p_q(q)} has an exact decimal form too long to print (use p/q)"
            ) from None
        sign = "-" if q < 0 else ""
        return f"{sign}{text[:-k]}.{text[-k:]}" if k else f"{sign}{text}"
    if not approx:
        raise NoExactDecimal(f"{_p_q(q)} has no exact decimal form (use p/q or allow approximation)")
    try:
        x = float(q)
    except OverflowError:
        x = 0.0
    if not x:  # q ≠ 0 here (0 has an exact decimal), so never print it as 0
        raise NoExactDecimal(f"{_p_q(q)} has no exact decimal form and is out of float range (use p/q)")
    return repr(x)
