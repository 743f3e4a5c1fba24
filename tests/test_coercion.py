"""Every validator, builder and file reader reads its numbers under the rule
of ``parse_rational``.

``Fraction``, ``int``, ``Decimal`` and ``"p/q"`` or decimal strings are
accepted exactly; ``bool``, ``float``, non-rationals and any literal,
``int``, ``Decimal`` or ``Fraction`` past the size bound (1000 digits on a
side, exponents within ±1000) raise ``ParseError``, at every entry point.
No refusal is a raw ``ValueError`` from formatting a value past Python's
4300-digit ``int`` -> ``str`` limit.
"""

from decimal import Decimal
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files
from omlprob.errors import OmlError, ParseError
from omlprob.rationals import MAX_DIGITS, format_rational, has_finite_decimal, parse_rational

from conftest import two_blocks_table
from oracles import complete_smap_table


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

    lab = L.label
    smap_doc = {lab(x): {lab(y): str(rows[x][y]) for y in L.elements} for x in L.elements}
    state_doc = {lab(x): str(m[x]) for x in L.elements}

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
        # The file readers, fed an in-memory document with one cell replaced.
        "load_smap": lambda v: files.load_smap(
            {"table": smap_doc | {"a": smap_doc["a"] | {"a": v}}}, L
        ),
        "load_state": lambda v: files.load_state({"values": state_doc | {"a": v}}, L),
    }


NAMES = sorted(_entry_points(q.build_catalog("mo", 2)))
REFUSED = {
    "bool": True,
    "float": 1.0,
    "long": "1" * 1001,
    "huge-int": 10**5000,
    "huge-fraction": F(10**5000),
    "junk": "zz",
    "zero-denominator": "1/0",
    "none": None,
    "exponent": "1e1001",
    "huge-exponent": "1e5000",
    "huge-decimal": Decimal("1e100000"),
    "decimal-exponent": Decimal("1e5000"),
    "infinite-decimal": Decimal("Infinity"),
    "nan-decimal": Decimal("NaN"),
    # Equal to 1, but 1002 digits on each side of the slash.
    "long-quotient": "1" + "0" * 1001 + "/1" + "0" * 1001,
}


@pytest.mark.parametrize("name", NAMES)
def test_exact_forms_agree(mo2, name):
    call = _entry_points(mo2)[name]
    want = call(F(1))
    for one in (1, "1/1", Decimal("1"), Decimal("1.000"), Decimal("0.1E1")):
        assert call(one) == want


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("bad", REFUSED.values(), ids=REFUSED)
def test_inexact_or_oversized_inputs_are_refused(mo2, name, bad):
    with pytest.raises(ParseError):
        _entry_points(mo2)[name](bad)


class FractionSubclass(F):
    """A ``Fraction`` of another type: it passes ``isinstance`` but not the
    exact-type test validators read ``Fraction`` entries by."""


def _numbers(out):
    """Every number of a record an entry point returns."""
    if isinstance(out, q.State):
        return list(out.values)
    if isinstance(out, q.ConditionalState):
        return list(out.table.values())
    if isinstance(out, q.SMap):
        return [x for row in out.table for x in row]
    return [*out.spectrum, *out.assignment]  # an Observable


@pytest.mark.parametrize("name", NAMES)
def test_a_fraction_subclass_reads_as_the_equal_fraction(mo2, name):
    call = _entry_points(mo2)[name]
    want, got = call(F(1)), call(FractionSubclass(1))
    assert got == want
    assert all(type(x) is F for x in _numbers(got))


# Exact Fractions past the bound (10**MAX_DIGITS) in the denominator only,
# on both sides, and in a subclass.
OUT_OF_BOUND_FRACTIONS = {
    "huge-denominator": F(1, 10**MAX_DIGITS),
    "huge-both": F(10**5000 + 1, 10**5000),
    "huge-subclass": FractionSubclass(10**MAX_DIGITS + 1, 10**MAX_DIGITS),
}


@pytest.mark.parametrize("bad", OUT_OF_BOUND_FRACTIONS.values(), ids=OUT_OF_BOUND_FRACTIONS)
def test_an_exact_fraction_past_the_bound_raises_the_same_error_everywhere(mo2, bad):
    messages = set()
    for name, call in _entry_points(mo2).items():
        with pytest.raises(ParseError) as exc:
            call(bad)
        messages.add(str(exc.value))
    assert messages == {f"numeric literal has more than {MAX_DIGITS} digits"}


def _unscaled_table(L, den=2**1025 + 1):
    """A conditional state on mo(2) whose sections at 1, b and b' hold
    m(a) = 1/den, past the 2**1024 scaling bound: f(x, c) = m(x) for x in the
    other block than c, and f(x, 1) = m(x)."""
    a, ap, b, bp = (L.id_of(x) for x in ("a", "a'", "b", "b'"))
    m = {a: F(1, den), ap: 1 - F(1, den), b: F(3, 10), bp: F(7, 10)}
    block = {a: (a, ap), ap: (a, ap), b: (b, bp), bp: (b, bp), L.one: ()}
    table = {}
    for c, own in block.items():
        for x in m:
            table[(x, c)] = F(x == c) if x in own else m[x]
        table[(L.zero, c)], table[(L.one, c)] = F(0), F(1)
    return frozenset(block), table


def test_conditional_state_reads_decimals_exactly(mo2):
    """A ``Decimal`` entry reads as its exact value, in a scaled section and
    in one left unscaled past the 2**1024 bound."""
    call = _entry_points(mo2)["validate_conditional_state"]
    want = call(F(1))
    assert call(Decimal("1")) == call(Decimal("1.000")) == call(Decimal("0.1E1")) == want
    cs, tab = _unscaled_table(mo2)
    b = mo2.id_of("b")
    want = q.validate_conditional_state(mo2, cs, tab).table
    for v in (Decimal("0.3"), Decimal("0.300"), Decimal("3E-1")):
        assert q.validate_conditional_state(mo2, cs, tab | {(b, mo2.one): v}).table == want


@pytest.mark.parametrize(
    "bad", [v for k, v in REFUSED.items() if k != "long-quotient"],
    ids=[k for k in REFUSED if k != "long-quotient"],
)
def test_conditional_state_refuses_inexact_inputs(mo2, bad):
    """The refusals hold in a section past the scaling bound too."""
    cs, tab = _unscaled_table(mo2)
    b = mo2.id_of("b")
    assert q.validate_conditional_state(mo2, cs, tab).table == tab
    with pytest.raises(ParseError):
        q.validate_conditional_state(mo2, cs, tab | {(mo2.one, b): bad})


def test_oversized_quotients_with_a_valid_marginal_are_refused(mo2):
    """f(a, 1) = N/(2N+1) and f(a', 1) = (N+1)/(2N+1) sum to 1, so the
    section at 1 passes C1 and C3 fails; its message would print
    5000-digit integers."""
    cs, tab = two_blocks_table(mo2)
    a, ap = mo2.id_of("a"), mo2.id_of("a'")
    N = 10**5000
    tab |= {(a, mo2.one): F(N, 2 * N + 1), (ap, mo2.one): F(N + 1, 2 * N + 1)}
    with pytest.raises(ParseError, match="more than 1000 digits"):
        q.validate_conditional_state(mo2, cs, tab)


def test_mixture_past_the_bound_is_refused(mo2):
    """Weights and states within the bound can mix to entries past it: f(b, 1)
    here has about 2000 digits on each side of the slash."""
    a, ap, b, bp = (mo2.id_of(x) for x in ("a", "a'", "b", "b'"))

    def state(atom, mb):
        values = dict.fromkeys(mo2.elements, F(0)) | {atom: 1, mo2.one: 1, b: mb, bp: 1 - mb}
        return q.validate_state(mo2, values)

    P = 10**999
    alphas = [state(a, F(1, P + 7)), state(ap, F(1, P + 9))]
    with pytest.raises(ParseError, match="more than 1000 digits"):
        q.build_conditional_state(mo2, [a, ap], alphas, [F(1, P + 11), 1 - F(1, P + 11)])


@lru_cache(maxsize=None)
def _base(kind, n, seed):
    """A valid conditional-state table: a catalog one, or the mo(2) table of
    ``_unscaled_table`` (``kind == "unscaled"``)."""
    L = q.build_catalog("mo" if kind == "unscaled" else kind, n)
    if kind == "unscaled":
        return L, *_unscaled_table(L, 2**1025 + 2 * seed + 1)
    f = q.random_conditional_state(L, seed)
    return L, f.conditions, f.table


def _outcome(call):
    try:
        return call()
    except OmlError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("mo", 2), ("mo", 3), ("boolean", 2), ("boolean", 3), ("unscaled", 2)]),
    st.integers(0, 9),
    st.integers(MAX_DIGITS - 10, MAX_DIGITS + 10),
    st.sampled_from(["quotient", "decimal", "Decimal"]),
    st.data(),
)
def test_oversized_entry_is_refused_as_parse_rational_refuses_it(kind, seed, digits, form, data):
    """One entry is written with ``digits`` digits on its longer side and the
    same value, so the only fault the table can have is that entry's size.
    The table is refused with ``ParseError`` iff ``parse_rational`` refuses
    that entry, and otherwise validates as the original table does."""
    L, cs, base = _base(*kind, seed)
    key = data.draw(st.sampled_from(sorted(base)))
    v = base[key]
    if form == "quotient" or not has_finite_decimal(v):
        k = max(0, digits - len(str(max(abs(v.numerator), v.denominator))))
        entry = f"{v.numerator * 10**k}/{v.denominator * 10**k}"
    else:
        text = format_rational(v, decimal=True)
        text += ("" if "." in text else ".") + "0" * max(0, digits - sum(map(str.isdigit, text)))
        entry = text if form == "decimal" else Decimal(text)
    got = _outcome(lambda: q.validate_conditional_state(L, cs, base | {key: entry}))
    try:
        parse_rational(entry)
    except ParseError:
        assert got[0] is ParseError
    else:
        assert got == q.validate_conditional_state(L, cs, base)
