"""The one reader of a caller's table, ``rationals._read_entries``.

A list or tuple of exact ``Fraction``s is read in one pass from the slots;
anything else is walked entry by entry through ``_ratio``.  Both must give
what the entry-by-entry oracle gives: the same entries (the caller's exact
``Fraction``s kept as the same objects), the same ratios, and for a refused
list the same first error.  The validators look a table's entries up in one
pass and fall back to the walk on a missing key, so of a missing and a
malformed entry the first in reading order is still raised.
"""

import enum
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files, rationals
from omlprob.errors import C1Violation, NotNormalized, ParseError, S1Violation
from omlprob.rationals import MAX_DIGITS, _read_entries
from conftest import DATA
from oracles import read_entries_walk

BOUND = 10**MAX_DIGITS


class SubFraction(F):
    pass


class Small(enum.IntEnum):
    TWO = 2


exact = st.builds(F, st.integers(-50, 50), st.integers(1, 50))
past_bound = st.sampled_from([F(BOUND), F(-BOUND, 3), F(1, BOUND), F(BOUND + 1, BOUND + 2)])
at_bound = st.sampled_from([F(BOUND - 1), F(1 - BOUND, BOUND - 1)])
other = st.one_of(
    st.integers(-5, 5),
    st.just(Small.TWO),
    st.booleans(),
    st.floats(allow_nan=False, width=16),
    st.builds(Decimal, st.sampled_from(["0.25", "-1.5", "NaN", "Infinity", "3"])),
    st.sampled_from(["2/5", "1/0", "zz", " 3/4 ", "0.1"]),
    st.builds(SubFraction, st.integers(-5, 5), st.integers(1, 5)),
    st.none(),
)
# Mostly exact Fractions, so the one-pass read is taken and its bound tested.
mostly_exact = st.lists(st.one_of(exact, exact, exact, at_bound, past_bound), max_size=12)
mixed = st.lists(st.one_of(exact, past_bound, other), max_size=12)


def outcome(read, values):
    try:
        return read(values)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mostly_exact, mixed), st.sampled_from([list, tuple, iter]))
def test_one_reader_matches_the_walk(values, form):
    got = outcome(_read_entries, form(values))
    want = outcome(read_entries_walk, values)
    if isinstance(want[0], type):
        assert got == want
        return
    (entries, ratios), (want_entries, want_ratios) = got, want
    assert list(ratios) == want_ratios
    assert all(type(n) is int and type(d) is int for n, d in ratios)
    assert len(entries) == len(values)
    for x, e, w in zip(values, entries, want_entries):
        assert type(e) is F and e == w
        if type(x) is F:
            assert e is x


def test_an_exact_list_is_read_from_its_slots(monkeypatch):
    reads = []
    monkeypatch.setattr(rationals, "_ratio", lambda v: reads.append(v))
    values = [F(1, 3), F(2, 3), F(0)]
    entries, ratios = _read_entries(values)
    assert reads == [] and ratios == [(1, 3), (2, 3), (0, 1)]
    assert all(e is x for e, x in zip(entries, values))


@pytest.mark.parametrize("bad", [F(BOUND), F(-BOUND), F(1, BOUND)])
def test_a_part_past_the_bound_is_walked_to_the_first_bad_entry(bad):
    with pytest.raises(ParseError, match="more than 1000 digits"):
        _read_entries([F(1, 2), bad, "zz"])
    with pytest.raises(ParseError, match="not a rational: 'zz'"):
        _read_entries([F(1, 2), "zz", bad])


# -- the validators: one lookup, and the walk on a missing key ---------------

def cstate(L):
    f = q.random_conditional_state(L, 0)
    order = [(b, a) for a in f.conditions for b in L.elements]
    return f, order


@pytest.mark.parametrize("missing_first", [True, False])
def test_conditional_state_missing_and_malformed_in_reading_order(mo2, missing_first):
    f, order = cstate(mo2)
    early, late = order[3], order[-2]
    table = dict(f.table)
    gone, bad = (early, late) if missing_first else (late, early)
    del table[gone]
    table[bad] = "zz"
    if missing_first:
        b, a = map(mo2.label, gone)
        with pytest.raises(C1Violation, match=rf"^table missing f\({b}, {a}\)$"):
            q.validate_conditional_state(mo2, f.conditions, table)
    else:
        with pytest.raises(ParseError, match="not a rational: 'zz'"):
            q.validate_conditional_state(mo2, f.conditions, table)


@pytest.mark.parametrize("missing_first", [True, False])
def test_state_missing_and_malformed_in_reading_order(mo2, missing_first):
    m = q.random_state(mo2, 0)
    values = dict(enumerate(m.values))
    gone, bad = (1, 4) if missing_first else (4, 1)
    del values[gone]
    values[bad] = 0.5
    if missing_first:
        with pytest.raises(NotNormalized, match=rf"^state table missing m\({mo2.label(gone)}\)$"):
            q.validate_state(mo2, values)
    else:
        with pytest.raises(ParseError, match="refusing inexact float literal: 0.5"):
            q.validate_state(mo2, values)


@pytest.mark.parametrize("missing_first", [True, False])
def test_smap_missing_and_malformed_in_reading_order(mo2, missing_first):
    p = q.random_smap(mo2, 0)
    table = {(a, b): p(a, b) for a in mo2.elements for b in mo2.elements}
    early, late = (1, 2), (4, 3)  # row-major order
    gone, bad = (early, late) if missing_first else (late, early)
    del table[gone]
    table[bad] = True
    if missing_first:
        a, b = map(mo2.label, gone)
        with pytest.raises(S1Violation, match=rf"^table missing entry p\({a}, {b}\)$"):
            q.validate_smap(mo2, table)
    else:
        with pytest.raises(ParseError, match="not a rational: true"):
            q.validate_smap(mo2, table)


# -- counted reads ------------------------------------------------------------

@pytest.fixture
def ratio_calls(monkeypatch):
    calls = []
    ratio = rationals._ratio
    monkeypatch.setattr(rationals, "_ratio", lambda v: calls.append(v) or ratio(v))
    return calls


def test_exact_tables_are_validated_without_a_ratio_call(mo2, ratio_calls):
    f = q.random_conditional_state(mo2, 0)
    m = q.random_state(mo2, 0)
    p = q.random_smap(mo2, 0)
    ratio_calls.clear()
    assert q.validate_conditional_state(mo2, f.conditions, f.table) == f
    assert q.validate_conditional_state(mo2, f.conditions, dict(f.table)) == f
    assert q.validate_state(mo2, list(m.values)) == m
    assert q.validate_state(mo2, dict(enumerate(m.values))) == m
    assert q.validate_smap(mo2, p.table) == p
    assert q.validate_smap(mo2, {(a, b): p(a, b) for a in mo2.elements for b in mo2.elements}) == p
    assert ratio_calls == []


def test_a_conditional_state_file_reads_each_cell_once(ratio_calls):
    doc = files.load_document(str(DATA / "two_blocks_f.json"))
    ratio_calls.clear()
    f = files.load_conditional_state(doc)
    assert len(doc["table"]) == 30
    assert ratio_calls == [v for _, _, v in doc["table"]]
    assert len(f.table) == 30


def test_a_state_file_reads_each_value_once(mo2, ratio_calls):
    m = q.random_state(mo2, 0)
    doc = files.state_document(m) | {"lattice": files.lattice_document(mo2)}
    ratio_calls.clear()
    assert files.load_state(doc).values == m.values
    assert ratio_calls == list(doc["values"].values())
    assert len(ratio_calls) == len(mo2)
