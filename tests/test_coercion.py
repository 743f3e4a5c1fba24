"""The validators and builders read their numbers through ``parse_rational``.

``validate_conditional_state`` is the exception: its entries are quotients
whose "p/q" form may pass the literal-size bound, so it refuses ``bool``,
``float`` and non-rational entries, not long "p/q" strings.  A literal with
an exponent, an ``int`` or a ``Decimal`` is no quotient, so it keeps the
bounds.  An oversized ``Fraction`` entry there breaks C1, and the walk that
names the failing section reads it through ``parse_rational``.  Every
refusal is a ``ParseError``; none is a raw ``ValueError`` from formatting a
value past Python's 4300-digit ``int`` -> ``str`` limit.
"""

from decimal import Decimal
from fractions import Fraction as F

import pytest

import omlprob as q
from omlprob.errors import ParseError
from omlprob.smap import complete_smap_table

from conftest import two_blocks_table


def _entry_points(L):
    """``name -> call(v)``: each API function with one input whose value is
    1 replaced by v, so every form of 1 gives the same result."""
    a, ap, b, bp = (L.id_of(x) for x in ("a", "a'", "b", "b'"))

    def two_valued(*ones):
        return [F(x in ones) for x in L.elements]

    m = two_valued(a, b, L.one)
    cs, tab = two_blocks_table(L)
    rows = [[m[x] * m[y] for y in L.elements] for x in L.elements]
    inner = {(x, y): rows[x][y] for x in (a, ap, b, bp) for y in (a, ap, b, bp)}
    alphas = [q.validate_state(L, m), q.validate_state(L, two_valued(ap, b, L.one))]

    def replace(seq, i, v):
        return [v if j == i else x for j, x in enumerate(seq)]

    return {
        "validate_state": lambda v: q.validate_state(L, replace(m, a, v)),
        "validate_conditional_state": lambda v: q.validate_conditional_state(
            L, cs, tab | {(L.one, a): v}
        ),
        "validate_smap": lambda v: q.validate_smap(L, replace(rows, a, replace(rows[a], a, v))),
        "complete_smap_table": lambda v: q.validate_smap(
            L, complete_smap_table(L, inner | {(a, a): v})
        ),
        "build_conditional_state": lambda v: q.build_conditional_state(
            L, [a, ap], alphas, [v, 0]
        ),
        "make_observable": lambda v: q.make_observable(L, [(v, a), (2, ap)]),
    }


NAMES = sorted(_entry_points(q.build_catalog("mo", 2)))
BOUNDED = [name for name in NAMES if name != "validate_conditional_state"]


@pytest.mark.parametrize("name", NAMES)
def test_exact_forms_agree(mo2, name):
    call = _entry_points(mo2)[name]
    want = call(F(1))
    assert call(1) == want
    assert call("1/1") == want


@pytest.mark.parametrize("name", BOUNDED)
@pytest.mark.parametrize(
    "bad", [True, 1.0, "1" * 1001, 10**5000, F(10**5000)],
    ids=["bool", "float", "long", "huge-int", "huge-fraction"],
)
def test_inexact_or_oversized_inputs_are_refused(mo2, name, bad):
    with pytest.raises(ParseError):
        _entry_points(mo2)[name](bad)


@pytest.mark.parametrize(
    "bad",
    [True, 1.0, "zz", "1/0", None, "1e1001", "1e5000", 10**5000, F(10**5000),
     Decimal("1e100000"), Decimal("1e5000"), Decimal("Infinity"), Decimal("NaN")],
    ids=["bool", "float", "junk", "zero-denominator", "none", "exponent", "huge-exponent",
         "huge-int", "huge-fraction", "huge-decimal", "decimal-exponent", "infinite-decimal",
         "nan-decimal"],
)
def test_conditional_state_refuses_inexact_inputs(mo2, bad):
    with pytest.raises(ParseError):
        _entry_points(mo2)["validate_conditional_state"](bad)


def test_conditional_state_reads_decimals_exactly(mo2):
    call = _entry_points(mo2)["validate_conditional_state"]
    want = call(F(1))
    assert call(Decimal("1")) == call(Decimal("1.000")) == call(Decimal("0.1E1")) == want
