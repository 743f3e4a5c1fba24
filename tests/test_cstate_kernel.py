"""C1–C3 on per-section integer tables, against the Fraction oracle."""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import omlprob as q
from omlprob import states
from omlprob.catalog import mo_blocks
from omlprob.errors import C1Violation, C2Violation, C3Violation
from omlprob.rationals import exact_ratios

from oracles import assert_same_failure, cstate_exhaustive

KINDS = (
    ("boolean", 2), ("boolean", 3), ("boolean", 4),
    ("mo", 2), ("mo", 3), ("mo", 4), ("mo", 5),
)
# Two Mersenne primes: a mixing weight over their product gives sections
# whose common denominator passes 2**MAX_SCALE_BITS.
M521, M607 = 2**521 - 1, 2**607 - 1
DENOMS = (3, 7, 1000, 2**5, 2**20, M521 * M607)
PERTURBATIONS = ("none", "range", "normalization", "additivity", "c2", "c3", "missing")
FORMS = ("fraction", "str", "mixed")


@lru_cache(maxsize=None)
def _lattice(kind, n):
    return q.build_catalog(kind, n)


@lru_cache(maxsize=None)
def _smap_rows(kind, n, seed):
    return q.random_smap(_lattice(kind, n), seed).table


def _mixed_cstate(kind, data, den):
    """The conditional state of the s-map t·p₁ + (1−t)·p₂, for random s-maps
    p₁, p₂ and t of denominator ``den``: f(a, b) = p(a, b)/p(b, b) on the
    support.  S-maps are closed under mixing, so this is a conditional state
    whose sections have denominators built from ``den``."""
    L = _lattice(*kind)
    p1, p2 = (_smap_rows(*kind, data.draw(st.integers(0, 31))) for _ in range(2))
    t = F(data.draw(st.integers(0, den)), den)
    rows = [[t * x + (1 - t) * y for x, y in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    cs = frozenset(b for b in L.elements if rows[b][b] != 0)
    return cs, {(a, b): rows[a][b] / rows[b][b] for b in cs for a in L.elements}


def _validate(L, cs, table):
    try:
        f = q.validate_conditional_state(L, cs, table)
    except (C1Violation, C2Violation, C3Violation) as exc:
        return None, exc
    return f, None


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.sampled_from(FORMS),
    st.sampled_from(PERTURBATIONS),
    st.sampled_from(DENOMS),
    st.data(),
)
def test_integer_kernel_agrees_with_fraction_oracle(kind, form, perturbation, den, data):
    """A valid table, perturbed once, in one of the forms the validator
    takes; the validator raises exactly what the Fraction oracle returns."""
    L = _lattice(*kind)
    cs, tab = _mixed_cstate(kind, data, den)
    conds = sorted(cs)

    def value(lo, hi):
        return F(data.draw(st.integers(lo, hi)), den)

    a = data.draw(st.sampled_from(conds))
    if perturbation == "range":
        b = data.draw(st.sampled_from(list(L.elements)))
        tab[(b, a)] = value(-den, -1) if data.draw(st.booleans()) else 1 + value(1, den)
    elif perturbation == "normalization":
        if data.draw(st.booleans()):
            tab[(L.zero, a)] = value(1, den)
        else:  # every value shrinks: only f(1, a) = 1 and C2 break
            t = value(0, den - 1)
            tab.update({(b, a): t * tab[(b, a)] for b in L.elements})
    elif perturbation == "additivity":
        b = data.draw(st.sampled_from([b for b in L.elements if b not in (L.zero, L.one)]))
        tab[(b, a)] = value(0, den)
    elif perturbation == "c2":
        # The section at another condition c is a state, but not one
        # concentrated on a.
        others = [c for c in conds if tab[(a, c)] != 1]
        assume(others)
        c = data.draw(st.sampled_from(others))
        tab.update({(b, a): tab[(b, c)] for b in L.elements})
    elif perturbation == "c3":
        # Sections of another conditional state at two conditions: C1 and C2
        # still hold, and C3 breaks at each pair they sit in, so the first
        # witness depends on the order in which pairs are visited.
        _, other = _mixed_cstate(kind, data, den)
        changed = [c for c in conds if any(other[(b, c)] != tab[(b, c)] for b in L.elements)]
        assume(len(changed) >= 2)
        for c in data.draw(st.lists(st.sampled_from(changed), min_size=2, max_size=2, unique=True)):
            tab.update({(b, c): other[(b, c)] for b in L.elements})
    elif perturbation == "missing":
        del tab[(data.draw(st.sampled_from(list(L.elements))), a)]

    if form == "fraction":
        table = tab
    elif form == "str":
        table = {k: str(v) for k, v in tab.items()}
    else:
        table = {k: v.numerator if v.denominator == 1 else v for k, v in tab.items()}

    want = cstate_exhaustive(L, cs, table)
    if perturbation == "none":
        assert want is None
    f, got = _validate(L, cs, table)
    assert_same_failure(got, want)
    if f is not None:
        assert f.conditions == cs
        assert f.table == {k: F(v) for k, v in table.items()}
        assert all(type(x) is F for x in f.table.values())


@pytest.mark.parametrize("kind, n", [("boolean", n) for n in (1, 2, 3, 4, 5)]
                         + [("mo", n) for n in (1, 2, 3, 5, 8, 12)])
def test_valid_tables_stay_on_integers(kind, n, monkeypatch):
    """A valid table is checked on integers, in one walk over the sections:
    ``_check_state`` runs once per condition, on a row of ints and an int
    scale."""
    L = q.build_catalog(kind, n)
    tables = [q.random_conditional_state(L, seed) for seed in range(3)]
    calls = []
    check_state = states._check_state

    def spy(L, row, top):
        assert all(type(x) is int for x in row) and type(top) is int
        calls.append(top)
        return check_state(L, row, top)

    monkeypatch.setattr(states, "_check_state", spy)
    for f in tables:
        calls.clear()
        assert q.validate_conditional_state(L, f.conditions, f.table).table == f.table
        assert len(calls) == len(f.conditions)


def _mersenne_cstate():
    """A conditional state on mo(5) whose sections have Mersenne-prime
    denominators: f(., 1) = m with m(c) = 1/M on the atom c of each block,
    one prime M per block, and f(., c) = f(., c⊥) = m off their own block.
    The lcm of the section at 1 passes 2**1024; a section at c leaves out
    its own block's prime, so only some of them pass it."""
    L = q.build_catalog("mo", 5)
    blocks = mo_blocks(L)
    primes = [2**k - 1 for k in (89, 107, 127, 521, 607)]
    m = {L.zero: F(0), L.one: F(1)}
    for (c, cp), prime in zip(blocks, primes):
        m[c], m[cp] = F(1, prime), 1 - F(1, prime)
    tab = {(b, L.one): m[b] for b in L.elements}
    for c, cp in blocks:
        for a in (c, cp):
            section = dict(m)
            section.update({c: F(a == c), cp: F(a == cp)})
            tab.update({(b, a): section[b] for b in L.elements})
    cs = frozenset(b for b in L.elements if b != L.zero)
    return L, blocks, cs, tab


def test_bounded_sections_agree_with_oracle():
    L, blocks, cs, tab = _mersenne_cstate()
    scaled = {a: states._scaled(exact_ratios([tab[(b, a)] for b in L.elements], "a section"))[1]
              for a in cs}
    assert scaled[L.one] is states.ONE
    assert scaled[blocks[3][0]] is not states.ONE  # 89 + 107 + 127 + 607 bits
    assert scaled[blocks[0][0]] is states.ONE

    f, got = _validate(L, cs, tab)
    assert got is None and cstate_exhaustive(L, cs, tab) is None
    assert f.table == tab

    c, d = blocks[0][0], blocks[3][0]
    x, xp = blocks[4]
    for changes, error in (
        ({(c, L.one): F(1, M521)}, C1Violation),  # a bounded section
        ({(L.one, d): F(-1, M607)}, C1Violation),  # an integer section
        ({(x, c): F(1, M521), (xp, c): F(-1, M521)}, C3Violation),
    ):
        bad = dict(tab)
        for key, shift in changes.items():
            bad[key] += shift
        f, got = _validate(L, cs, bad)
        assert_same_failure(got, cstate_exhaustive(L, cs, bad))
        assert type(got) is error

