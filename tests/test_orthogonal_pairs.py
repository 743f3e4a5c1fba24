"""The orthogonal-pair index on the lattice, and the validators that read it."""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files
from omlprob.errors import NotAdditive, S3Violation

from conftest import DATA
from oracles import additivity_exhaustive, assert_same_failure, s3_exhaustive

PERTURB_KINDS = (
    ("boolean", 2), ("boolean", 3), ("boolean", 4),
    ("mo", 2), ("mo", 3), ("mo", 4), ("mo", 5),
)


def pairs_by_definition(L):
    return [
        (a, b, L.join(a, b))
        for a in L.elements
        for b in L.elements
        if a < b and L.leq(a, L.ortho(b))
    ]


@pytest.mark.parametrize(
    "kind, n", [("boolean", n) for n in range(1, 7)] + [("mo", n) for n in range(1, 13)]
)
def test_pairs_match_definition_on_catalog(kind, n):
    L = q.build_catalog(kind, n)
    assert list(L.orthogonal_pairs) == pairs_by_definition(L)
    for a in L.elements:
        for b in L.elements:
            assert L.is_orthogonal(a, b) == L.leq(a, L.ortho(b))


def test_pairs_match_definition_on_lattice_file():
    L = files.load_lattice(files.load_document(str(DATA / "mo2_lattice.json")))
    assert list(L.orthogonal_pairs) == pairs_by_definition(L)
    labelled = {
        (frozenset((L.label(a), L.label(b))), L.label(j)) for a, b, j in L.orthogonal_pairs
    }
    assert labelled == {(frozenset(("0", x)), x) for x in ("a", "a'", "b", "b'", "1")} | {
        (frozenset(("a", "a'")), "1"),
        (frozenset(("b", "b'")), "1"),
    }


@lru_cache(maxsize=None)
def _lattice(kind, n):
    return q.build_catalog(kind, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PERTURB_KINDS), st.integers(0, 2**32), st.data())
def test_state_additivity_agrees_with_oracle(kind, seed, data):
    """One value of a valid state moves inside [0, 1]; the validator and
    the double-loop oracle report the same first additivity failure."""
    L = _lattice(*kind)
    vals = list(q.random_state(L, seed).values)
    x = data.draw(st.sampled_from([x for x in L.elements if x not in (L.zero, L.one)]))
    vals[x] = F(data.draw(st.integers(0, 12)), 12)
    want = additivity_exhaustive(L, vals)
    try:
        q.validate_state(L, vals)
    except NotAdditive as exc:
        got = exc
    else:
        got = None
    assert_same_failure(got, want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PERTURB_KINDS), st.integers(0, 2**32), st.data())
def test_smap_s3_agrees_with_oracle(kind, seed, data):
    """One entry p(a, c) of a valid s-map, with a and c not orthogonal and
    (a, c) ≠ (1, 1), moves inside [0, 1], so s1 and s2 still hold; the
    validator and the double-loop oracle report the same first s3 failure."""
    L = _lattice(*kind)
    rows = [list(row) for row in q.random_smap(L, seed).table]
    a, c = data.draw(
        st.sampled_from(
            [
                (a, c)
                for a in L.elements
                for c in L.elements
                if not L.is_orthogonal(a, c) and (a, c) != (L.one, L.one)
            ]
        )
    )
    rows[a][c] = F(data.draw(st.integers(0, 12)), 12)
    want = s3_exhaustive(L, rows)
    try:
        q.validate_smap(L, rows)
    except S3Violation as exc:
        got = exc
    else:
        got = None
    assert_same_failure(got, want)
