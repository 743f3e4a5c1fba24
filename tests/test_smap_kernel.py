"""s1–s3 on the common-denominator integer table, against the Fraction oracle."""

import time
from fractions import Fraction as F
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import states
from omlprob.catalog import is_boolean_lattice, mo_blocks
from omlprob.errors import S1Violation, S2Violation, S3Violation
from omlprob.rationals import exact_ratios

from oracles import assert_same_failure, asymmetric_pairs_exhaustive, smap_exhaustive

KINDS = (
    ("boolean", 2), ("boolean", 3), ("boolean", 4),
    ("mo", 2), ("mo", 3), ("mo", 4), ("mo", 5),
)
DENOMS = (3, 7, 1000) + tuple(2**k for k in (1, 5, 20))
PERTURBATIONS = ("none", "below", "above", "top", "orthogonal", "entry")
FORMS = ("fraction", "mapping", "str", "int")


def _scaled_table(rows):
    """``states._scaled`` of a table's entries, read in row-major order."""
    return states._scaled(exact_ratios([x for row in rows for x in row], "the s-map table"))


@lru_cache(maxsize=None)
def _lattice(kind, n):
    return q.build_catalog(kind, n)


@lru_cache(maxsize=None)
def _random_rows(kind, n, seed):
    return q.random_smap(_lattice(kind, n), seed).table


def _two_valued_state(L, choice):
    """A 0/1-valued state: the up-set of an atom (Boolean) or one element of
    every block (MO); ``choice`` picks which."""
    if is_boolean_lattice(L):
        t = L.atoms[choice % len(L.atoms)]
        return [int(L.leq(t, x)) for x in L.elements]
    ones = {L.one} | {pair[choice >> i & 1] for i, pair in enumerate(mo_blocks(L))}
    return [int(x in ones) for x in L.elements]


def _validate(L, table):
    try:
        p = q.validate_smap(L, table)
    except (S1Violation, S2Violation, S3Violation) as exc:
        return None, exc
    return p, None


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.sampled_from(FORMS),
    st.sampled_from(PERTURBATIONS),
    st.sampled_from(DENOMS),
    st.data(),
)
def test_integer_kernel_agrees_with_fraction_oracle(kind, form, perturbation, den, data):
    """A valid table, perturbed once, in one of the forms validate_smap takes;
    the validator raises exactly what the Fraction oracle returns.

    Valid tables are t·p₁ + (1−t)·p₂ for random s-maps p₁, p₂ and t of
    denominator ``den``, or (for int tables) m(a)·m(b) for a 0/1 state m.
    """
    L = _lattice(*kind)
    if form == "int":
        m = _two_valued_state(L, data.draw(st.integers(0, 2**16)))
        rows = [[F(m[a] * m[b]) for b in L.elements] for a in L.elements]
        den = 1
    else:
        p1, p2 = (_random_rows(*kind, data.draw(st.integers(0, 31))) for _ in range(2))
        t = F(data.draw(st.integers(0, den)), den)
        rows = [[t * x + (1 - t) * y for x, y in zip(r1, r2)] for r1, r2 in zip(p1, p2)]

    def value(lo, hi):
        return F(data.draw(st.integers(lo, hi)), den)

    elems = list(L.elements)
    if perturbation == "below":
        rows[data.draw(st.sampled_from(elems))][data.draw(st.sampled_from(elems))] = value(-den, -1)
    elif perturbation == "above":
        rows[data.draw(st.sampled_from(elems))][data.draw(st.sampled_from(elems))] = 1 + value(1, den)
    elif perturbation == "top":
        rows[L.one][L.one] = value(0, den - 1)
    elif perturbation == "orthogonal":
        a, b = data.draw(st.sampled_from(
            [(a, b) for a in L.elements for b in L.elements if L.is_orthogonal(a, b)]))
        rows[a][b] = value(1, den)
    elif perturbation == "entry":
        # A row break moves p(a, c); a column break moves p(c, a).
        a, c = data.draw(st.sampled_from(
            [(a, c) for a in L.elements for c in L.elements
             if not L.is_orthogonal(a, c) and (a, c) != (L.one, L.one)]))
        if data.draw(st.booleans()):
            a, c = c, a
        rows[a][c] = value(0, den)

    if form == "fraction":
        table = rows
    elif form == "mapping":
        table = {(a, b): rows[a][b] for a in L.elements for b in L.elements}
    elif form == "str":
        table = [[str(x) for x in row] for row in rows]
    else:
        table = [[int(x) for x in row] for row in rows]

    want = smap_exhaustive(L, table)
    p, got = _validate(L, table)
    assert_same_failure(got, want)
    if p is not None:
        assert p.table == tuple(tuple(F(x) for x in row) for row in rows)
        assert all(type(x) is F for row in p.table for x in row)


@pytest.mark.parametrize("entries, first", [
    # p(b+c, a) comes before p(b, c) in pair order, after it in entry order.
    ((("b+c", "a"), ("b", "c")), ("b", "c")),
    ((("b+c", "a"),), ("b+c", "a")),
    ((("b", "c"), ("0", "0")), ("0", "0")),
    ((("0", "0"),), ("0", "0")),
])
def test_s2_reports_the_least_failing_entry(entries, first):
    """Of several nonzero orthogonal entries, s2 names the least (a, b) by
    id, reading both directions of every ⊥ pair and p(0, 0)."""
    L = _lattice("boolean", 3)
    rows = [list(row) for row in _random_rows("boolean", 3, 0)]
    for x, y in entries:
        assert L.is_orthogonal(L.id_of(x), L.id_of(y))
        rows[L.id_of(x)][L.id_of(y)] = F(1, 4)
    p, got = _validate(L, rows)
    assert_same_failure(got, smap_exhaustive(L, rows))
    assert isinstance(got, S2Violation)
    assert got.witness == first


def test_catalog_tables_are_checked_on_integers():
    rows = q.random_smap(q.build_catalog("mo", 3), 0).table
    vals, top = _scaled_table(rows)
    assert top == lcm(*(x.denominator for row in rows for x in row))
    assert top.bit_length() <= 20
    assert all(type(v) is int and v == x * top
               for x, v in zip((x for row in rows for x in row), vals, strict=True))


def test_scaling_stops_at_the_bound():
    bound = states.MAX_SCALE_BITS
    below = ((F(1, 2**(bound - 1)),),)
    at = ((F(1, 2**bound),),)
    assert _scaled_table(below) == ([1], 2**(bound - 1))
    assert _scaled_table(at) == ([F(1, 2**bound)], states.ONE)


def _is_prime(n):
    """Deterministic Miller–Rabin for n < 3.3·10²⁴."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_from(start, count):
    out, n = [], start | 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 2
    return out


def _prime_denominator_table(L, primes):
    """An s-map on mo(k) with every cross-block entry p(c, d) = 1/P, one
    prime P per ordered pair of blocks: ν = 1/2 on every atom, and
    p(c⊥, d) = p(c, d⊥) = 1/2 − 1/P, p(c⊥, d⊥) = 1/P."""
    blocks = mo_blocks(L)
    half = F(1, 2)
    rows = [[F(0)] * len(L) for _ in L.elements]
    rows[L.one][L.one] = F(1)
    for c, cp in blocks:
        for x in (c, cp):
            rows[x][x] = rows[x][L.one] = rows[L.one][x] = half
    it = iter(primes)
    for c, cp in blocks:
        for d, dp in blocks:
            if c != d:
                r = F(1, next(it))
                rows[c][d] = rows[cp][dp] = r
                rows[cp][d] = rows[c][dp] = half - r
    return rows


def test_prime_denominators_take_the_bounded_path():
    L = q.build_catalog("mo", 16)
    primes = _primes_from(2**61, 16 * 15)
    rows = _prime_denominator_table(L, primes)
    assert len({x.denominator for row in rows for x in row}) > 200
    vals, top = _scaled_table(rows)
    assert top is states.ONE

    start = time.perf_counter()
    p, got = _validate(L, rows)
    assert got is None and smap_exhaustive(L, rows) is None
    assert p.table == tuple(map(tuple, rows))

    x, y = mo_blocks(L)[3][0], mo_blocks(L)[9][1]
    rows[x][y] += F(1, primes[0] * primes[1])
    p, got = _validate(L, rows)
    assert time.perf_counter() - start < 1.0
    assert_same_failure(got, smap_exhaustive(L, rows))
    assert isinstance(got, S3Violation)


def test_scan_past_the_scaling_bound_matches_the_oracle():
    """One ordered block pair in three gets p(c, d) = 1/4 = p(c, c)·p(d, d)
    and the rest a prime denominator, so the scan compares ``Fraction``s and
    still finds every one-way independent pair."""
    L = q.build_catalog("mo", 16)
    primes = _primes_from(2**61, 16 * 15)
    dens = [4 if i % 3 == 0 else P for i, P in enumerate(primes)]
    rows = _prime_denominator_table(L, dens)
    assert _scaled_table(rows)[1] is states.ONE
    p = q.validate_smap(L, rows)
    it = iter(dens)
    den = {(i, j): next(it) for i in range(16) for j in range(16) if i != j}
    pairs = q.scan_asymmetric_pairs(p)
    assert len(pairs) == 4 * sum(den[i, j] == 4 != den[j, i] for i, j in den) > 0
    assert pairs == asymmetric_pairs_exhaustive(p)
