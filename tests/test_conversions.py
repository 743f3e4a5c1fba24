"""The s-map ↔ conditional-state conversions and ``expectation`` against
their ``Fraction`` formulas (``oracles``), on seeded instances, catalog
tables and tables whose common denominator passes 2**MAX_SCALE_BITS.
Every entry they return is a ``Fraction``."""

import operator
from fractions import Fraction as F
from itertools import chain

import pytest

import omlprob as q
from omlprob import rationals, smap, states
from omlprob.errors import C1Violation, NoSolution, ParseError, S1Violation, S3Violation
from omlprob.observables import Observable
from omlprob.smap import SMap
from omlprob.states import ConditionalState

from oracles import (
    assert_same_failure,
    conditional_of_smap,
    cstate_exhaustive,
    expectation_sum,
    smap_exhaustive,
    smap_of_conditional,
)
from test_cstate_kernel import M521, M607, _mersenne_cstate
from test_smap_kernel import _prime_denominator_table, _primes_from, _scaled_table


def _all_fractions(values):
    return all(type(x) is F for x in values)


def _observable(L, values):
    """x = values[0] on the first element other than 0 and 1, values[1] on
    its complement."""
    d = next(d for d in L.elements if d not in (L.zero, L.one))
    return q.make_observable(L, [(values[0], d), (values[1], L.ortho(d))])


def _assert_conversions_match(f, p=None):
    """Both conversions and every expectation equal their oracles, starting
    from f (and from p, if given, for the way back)."""
    L = f.lattice
    got_p = q.conditional_to_smap(f)
    assert got_p.table == smap_of_conditional(f)
    assert _all_fractions(chain.from_iterable(got_p.table))
    p = got_p if p is None else p
    got_f = q.smap_to_conditional(p)
    assert got_f.table == conditional_of_smap(p)
    assert got_f.conditions == p.support
    assert _all_fractions(got_f.table.values())
    x = _observable(L, (F(-3, 7), F(5, 11)))
    for b in f.conditions:
        got = q.expectation(f, x, b)
        assert got == expectation_sum(f, x, b) and type(got) is F


def test_seeded_instances_match_the_oracles(instances):
    for _, f, p in instances:
        _assert_conversions_match(f, p)


@pytest.mark.parametrize("kind, n", [("boolean", 4), ("mo", 8)])
def test_catalog_tables_match_the_oracles(kind, n):
    L = q.build_catalog(kind, n)
    for seed in range(3):
        _assert_conversions_match(q.random_conditional_state(L, seed))


def test_mersenne_sections_match_the_oracles():
    L, _, cs, tab = _mersenne_cstate()
    f = q.validate_conditional_state(L, cs, tab)
    assert _scaled_table(q.conditional_to_smap(f).table)[1] is states.ONE
    _assert_conversions_match(f)


@pytest.mark.parametrize("kind, n", [("mo", 3), ("boolean", 3)])
def test_mixtures_past_the_bound_match_the_oracles(kind, n):
    """t·p₁ + (1−t)·p₂ with t = 1/(M521·M607) is an s-map whose common
    denominator passes 2**MAX_SCALE_BITS."""
    L = q.build_catalog(kind, n)
    p1, p2 = (q.random_smap(L, seed).table for seed in (0, 1))
    t = F(1, M521 * M607)
    p = q.validate_smap(
        L, [[t * x + (1 - t) * y for x, y in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    )
    assert _scaled_table(p.table)[1] is states.ONE
    f = q.smap_to_conditional(p)
    _assert_conversions_match(f, p)
    assert q.conditional_to_smap(f) == p


@pytest.mark.parametrize("kind, n", [("mo", 2), ("boolean", 3)])
@pytest.mark.parametrize("past_bound", [False, True], ids=["scaled", "past_bound"])
@pytest.mark.parametrize("error", [S1Violation, S3Violation])
def test_a_product_that_is_no_smap_is_refused(kind, n, past_bound, error):
    """A hand-built record whose product p_f has an entry above 1 (f(b, 1) =
    3/2 gives p(b, 1) = 3/2) or a column that is not additive (f(1, b) = 1/2
    halves p(1, b) only) is refused with the oracle's s1 or s3 failure."""
    L = q.build_catalog(kind, n)
    if past_bound:  # the mixture of test_mixtures_past_the_bound_match_the_oracles
        p1, p2 = (q.random_smap(L, seed).table for seed in (0, 1))
        t = F(1, M521 * M607)
        f = q.smap_to_conditional(q.validate_smap(
            L, [[t * x + (1 - t) * y for x, y in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
        ))
    else:
        f = q.random_conditional_state(L, 0)
    b = next(b for b in sorted(f.conditions) if b != L.one and f(b, L.one) != 0)
    key, value = ((b, L.one), F(3, 2)) if error is S1Violation else ((L.one, b), F(1, 2))
    bad = ConditionalState(L, f.conditions, {**f.table, key: value})
    want = smap_exhaustive(L, smap_of_conditional(bad))
    assert type(want) is error
    scale = _scaled_table(smap_of_conditional(bad))[1]
    assert (scale is states.ONE) == past_bound
    with pytest.raises(error) as exc:
        q.conditional_to_smap(bad)
    assert_same_failure(exc.value, want)


@pytest.mark.parametrize("label", ["a", "1"])
def test_a_negative_diagonal_is_conditioned_like_the_oracle(example_smap, mo2, label):
    """A hand-built table with p(x, x) < 0 conditions to a section of the
    opposite sign, and is refused with the oracle's first C1 failure."""
    x = mo2.id_of(label)
    rows = [list(r) for r in example_smap.table]
    rows[x][x] = -rows[x][x]
    p = SMap(mo2, tuple(map(tuple, rows)))
    want = cstate_exhaustive(mo2, p.support, conditional_of_smap(p))
    assert isinstance(want, C1Violation)
    with pytest.raises(C1Violation) as exc:
        q.smap_to_conditional(p)
    assert_same_failure(exc.value, want)


@pytest.mark.parametrize("kind, n", [("mo", 2), ("boolean", 3)])
def test_int_entries_convert_to_fractions(kind, n):
    """A hand-built record whose entries 0 and 1 are ints, the marginal
    f(1, 1) included, converts to ``Fraction`` entries equal to the
    oracles', both ways."""
    L = q.build_catalog(kind, n)
    f = q.random_conditional_state(L, 0)
    ints = {k: int(v) if v in (0, 1) else v for k, v in f.table.items()}
    assert type(ints[(L.one, L.one)]) is int and 0 in ints.values()
    f = ConditionalState(L, f.conditions, ints)
    p = q.conditional_to_smap(f)
    assert p.table == smap_of_conditional(f)
    assert _all_fractions(chain.from_iterable(p.table))
    g = q.smap_to_conditional(p)
    assert g.table == conditional_of_smap(p)
    assert _all_fractions(g.table.values())


@pytest.mark.parametrize("label", ["a", "1"])
def test_negative_diagonal_sections_are_fractions(example_smap, mo2, label):
    """A hand-built table whose column x is negated, p(x, x) < 0 included,
    conditions to the oracle's quotients, each a ``Fraction``: section x is
    the column with its sign flipped, over p(x, x)."""
    x = mo2.id_of(label)
    rows = [list(r) for r in example_smap.table]
    for row in rows:
        row[x] = -row[x]
    p = SMap(mo2, tuple(map(tuple, rows)))
    assert p(x, x) < 0
    f = q.smap_to_conditional(p)
    assert f.table == conditional_of_smap(p)
    assert _all_fractions(f.table.values())


@pytest.mark.parametrize("shape", ["short row", "long rows", "missing row"])
@pytest.mark.parametrize("reader", [q.smap_to_conditional, q.scan_asymmetric_pairs],
                         ids=lambda fn: fn.__name__)
def test_a_table_that_is_not_square_is_refused(example_smap, mo2, reader, shape):
    """A hand-built record whose table is not n×n is refused with the S1
    failure ``validate_smap`` gives the same rows; an extra entry is not
    dropped and a missing row does not shorten the scan."""
    rows = [list(r) for r in example_smap.table]
    if shape == "short row":
        rows[-1].pop()
    elif shape == "long rows":
        rows = [row + [F(0)] for row in rows]
    else:
        rows.pop()
    with pytest.raises(S1Violation) as want:
        q.validate_smap(mo2, rows)
    with pytest.raises(S1Violation) as exc:
        reader(SMap(mo2, tuple(map(tuple, rows))))
    assert str(exc.value) == str(want.value) == "table is not total"


@pytest.mark.parametrize("entry", ["marginal", "section"])
def test_a_missing_entry_is_refused_like_validation(example_f, mo2, entry):
    """``conditional_to_smap`` on a hand-built record without f(a', 1) (a
    marginal) or without f(0, a) (an entry of a support column) raises the
    C1 failure ``validate_conditional_state`` gives the same table."""
    a, ap = mo2.id_of("a"), mo2.id_of("a'")
    key = (ap, mo2.one) if entry == "marginal" else (mo2.zero, a)
    table = dict(example_f.table)
    del table[key]
    with pytest.raises(C1Violation) as want:
        q.validate_conditional_state(mo2, example_f.conditions, table)
    with pytest.raises(C1Violation) as exc:
        q.conditional_to_smap(ConditionalState(mo2, example_f.conditions, table))
    assert str(exc.value) == str(want.value) == "table missing f({}, {})".format(*exc.value.witness)
    assert exc.value.witness == want.value.witness == tuple(map(mo2.label, key))


def _on_a(L):
    return q.make_observable(L, [(1, L.id_of("a")), (2, L.id_of("a'"))])


# Readers of a hand-built record, each given (p, f, L): p is an s-map
# without its last row, f a conditional state without f(a, 1).
RECORD_READERS = {
    "nu_state": lambda p, f, L: q.nu_state(p),
    "SMap.support": lambda p, f, L: p.support,
    "is_independent_product": lambda p, f, L: q.is_independent_product(p, L.one, L.id_of("a")),
    "expectation": lambda p, f, L: q.expectation(f, _on_a(L), L.one),
    "is_independent": lambda p, f, L: q.is_independent(f, L.id_of("a"), L.id_of("b"), L.one),
    "ConditionalState.state_given": lambda p, f, L: f.state_given(L.one),
    "conditional_expectation": lambda p, f, L: q.conditional_expectation(
        f, _on_a(L), L.boolean_subalgebra(L.id_of("b"))),
}


@pytest.mark.parametrize("reader", RECORD_READERS)
def test_a_record_that_is_not_total_is_refused_by_every_reader(example_f, example_smap, mo2, reader):
    """An s-map reader refuses a table without its last row with the S1
    failure ``validate_smap`` gives the same rows; a conditional-state
    reader refuses a table without f(a, 1) with the C1 failure
    ``validate_conditional_state`` gives it."""
    rows = [list(r) for r in example_smap.table[:-1]]
    table = dict(example_f.table)
    del table[(mo2.id_of("a"), mo2.one)]
    with pytest.raises(S1Violation) as s1:
        q.validate_smap(mo2, rows)
    with pytest.raises(C1Violation) as c1:
        q.validate_conditional_state(mo2, example_f.conditions, table)
    p = SMap(mo2, tuple(map(tuple, rows)))
    f = ConditionalState(mo2, example_f.conditions, table)
    with pytest.raises((S1Violation, C1Violation)) as exc:
        RECORD_READERS[reader](p, f, mo2)
    want = s1.value if reader in ("nu_state", "SMap.support", "is_independent_product") else c1.value
    assert type(exc.value) is type(want)
    assert str(exc.value) == str(want)
    assert exc.value.witness == want.witness


@pytest.mark.parametrize("kind, n", [("mo", 3), ("boolean", 3)])
def test_smap_to_conditional_reads_each_row_once_and_scales_once(monkeypatch, kind, n):
    """p's table is read row by row through ``exact_ratios``, each row once,
    and scaled by one ``_scaled`` call."""
    p = q.random_smap(q.build_catalog(kind, n), 0)
    read, scaled = [], []

    def exact_ratios(values, where):
        read.append(values)
        return rationals.exact_ratios(values, where)

    def _scaled(ratios):
        scaled.append(len(ratios))
        return states._scaled(ratios)

    monkeypatch.setattr(smap, "exact_ratios", exact_ratios)
    monkeypatch.setattr(smap, "_scaled", _scaled)
    f = q.smap_to_conditional(p)
    assert len(read) == len(p.table) and all(map(operator.is_, read, p.table))
    assert scaled == [len(p.lattice) ** 2]
    assert f.table == conditional_of_smap(p)


def test_prime_denominator_table_matches_the_oracles():
    L = q.build_catalog("mo", 16)
    p = q.validate_smap(L, _prime_denominator_table(L, _primes_from(2**61, 16 * 15)))
    assert _scaled_table(p.table)[1] is states.ONE
    f = q.smap_to_conditional(p)
    _assert_conversions_match(f, p)
    assert q.conditional_to_smap(f) == p


def test_expectation_over_coprime_denominators():
    """Twelve values over the first twelve primes, inserted out of order;
    the events are the four atoms of boolean(4) and, for the rest, 0."""
    L = q.build_catalog("boolean", 4)
    atoms = [x for x in L.elements if x != L.zero
             and all(y in (L.zero, x) for y in L.elements if L.leq(y, x))]
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    values = [F((-1) ** i * (i + 1), P) for i, P in enumerate(primes)]
    events = atoms + [L.zero] * (len(values) - len(atoms))
    pairs = [(values[i], events[i]) for i in (7, 2, 11, 0, 9, 4, 1, 10, 5, 3, 8, 6)]
    x = q.make_observable(L, pairs)
    assert list(x.assignment) != sorted(x.assignment)
    for seed in range(3):
        f = q.random_conditional_state(L, seed)
        for b in f.conditions:
            got = q.expectation(f, x, b)
            assert got == expectation_sum(f, x, b) and type(got) is F


def test_float_entries_are_refused(example_f, example_smap, mo2):
    """Only int and Fraction entries are converted, scanned, tested for
    independence or summed into an expectation, the observable's values
    included; a bool is refused too, and so is a 0.0 on the diagonal,
    before it can drop its element from the support."""
    a = mo2.id_of("a")
    x_on_a = q.make_observable(mo2, [(1, a), (2, mo2.ortho(a))])
    for bad in (0.4, "2/5", None, True, 0.0):
        x_bad = Observable(mo2, (bad, 2), {bad: a, 2: mo2.ortho(a)})
        with pytest.raises(ParseError):
            q.expectation(example_f, x_bad, mo2.one)
        with pytest.raises(ParseError):
            q.conditional_expectation(example_f, x_bad, mo2.boolean_subalgebra(a))
        f = ConditionalState(mo2, example_f.conditions, example_f.table | {(a, mo2.one): bad})
        with pytest.raises(ParseError):
            q.conditional_to_smap(f)
        with pytest.raises(ParseError):
            q.expectation(f, x_on_a, mo2.one)
        for x in (a, mo2.one):
            rows = [list(r) for r in example_smap.table]
            rows[x][x] = bad
            p = SMap(mo2, tuple(map(tuple, rows)))
            with pytest.raises(ParseError):
                q.smap_to_conditional(p)
            with pytest.raises(ParseError):
                q.scan_asymmetric_pairs(p)
            with pytest.raises(ParseError):
                q.is_independent_product(p, mo2.one, a)


@pytest.mark.parametrize("bad", ["1/2", "1", 0.12], ids=repr)
def test_record_readers_refuse_non_exact_entries(example_f, example_smap, mo2, bad):
    """nu_state, is_independent and build_conditional_state read a record's
    entries through exact_ratios, so a string or a float is refused by name
    before it is compared or multiplied."""
    a, ap, b = (mo2.id_of(x) for x in ("a", "a'", "b"))
    refused = f"refusing {bad!r} in {{}}: entries must be int or Fraction"
    rows = [list(r) for r in example_smap.table]
    rows[a][a] = bad
    with pytest.raises(ParseError) as exc:
        q.nu_state(SMap(mo2, tuple(map(tuple, rows))))
    assert str(exc.value) == refused.format("the s-map table")
    f = ConditionalState(mo2, example_f.conditions, example_f.table | {(mo2.one, a): bad})
    with pytest.raises(ParseError) as exc:
        q.is_independent(f, b, a, mo2.one)
    assert str(exc.value) == refused.format("the conditional-state table")
    for x in (a, b):
        vals = list(example_f.state_given(a).values)
        vals[x] = bad
        alphas = [q.State(mo2, tuple(vals)), example_f.state_given(ap)]
        with pytest.raises(ParseError) as exc:
            q.build_conditional_state(mo2, [a, ap], alphas, [F(1, 2), F(1, 2)])
        assert str(exc.value) == refused.format("the alpha of a")


def test_no_solution_names_the_failing_member(example_f, mo2):
    """A hand-built table that breaks the law of total expectation at 1."""
    b, bp = mo2.id_of("b"), mo2.id_of("b'")
    half = {(b, mo2.one): F(1, 2), (bp, mo2.one): F(1, 2)}
    f = ConditionalState(mo2, example_f.conditions, example_f.table | half)
    y = q.make_observable(mo2, [(1, b), (2, bp)])
    with pytest.raises(NoSolution) as exc:
        q.conditional_expectation(f, y, mo2.boolean_subalgebra(mo2.id_of("a")))
    assert str(exc.value) == "f(x, 1) = 3/2 but the candidate gives 17/10"
    assert exc.value.witness == ("1",)
