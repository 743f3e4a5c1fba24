"""The atom splits on the lattice, and the additivity checks that read them.

``L.atom_splits`` holds (e, x∧e⊥, x), ends sorted, for each atom e < x.
With f(0) = 0, additivity on these triples implies it on every orthogonal
pair, so ``states._check_state`` and the s3 check of
``smap._check_scaled_smap`` walk the splits and turn to
``L.orthogonal_pairs`` only after a failure, to name the first one.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob.errors import NotAdditive, NotOrthomodular, S3Violation

from conftest import pasting_raw, product_raw
from oracles import (
    additive_basis,
    additivity_exhaustive,
    assert_same_failure,
    atom_splits_exhaustive,
    lattice_tables_exhaustive,
    s3_exhaustive,
)

RAWS = {
    **{f"boolean{n}": q.raw_structure("boolean", n) for n in range(1, 7)},
    **{f"mo{n}": q.raw_structure("mo", n) for n in range(2, 13)},
    "pasting": pasting_raw(),
    "mo2xmo3": product_raw(q.raw_structure("mo", 2), q.raw_structure("mo", 3)),
}
# o6 is an ortholattice but not orthomodular, so it has no OrthomodularLattice;
# the property below runs on its oracle triples.
ALL_RAWS = {**RAWS, "o6": q.raw_structure("o6")}


def _args(raw):
    return raw["labels"], raw["leq"], raw["ortho"]


@lru_cache(maxsize=None)
def _lattice(name):
    return q.build_lattice(*_args(RAWS[name]))


@lru_cache(maxsize=None)
def _case(name):
    """(splits, every orthogonal pair, 0, a basis of the additive functions)."""
    T = lattice_tables_exhaustive(*_args(ALL_RAWS[name]))
    if name in RAWS:
        splits = _lattice(name).atom_splits
    else:
        splits = atom_splits_exhaustive(*_args(ALL_RAWS[name]))
    basis = additive_basis(len(ALL_RAWS[name]["labels"]), T["zero"], T["pairs"])
    return splits, T["pairs"], T["zero"], basis


@pytest.mark.parametrize("name", RAWS)
def test_splits_match_the_oracle(name):
    L = _lattice(name)
    splits = L.atom_splits
    assert type(splits) is tuple
    assert list(splits) == sorted(set(splits)) == atom_splits_exhaustive(*_args(RAWS[name]))
    assert set(splits) <= set(L.orthogonal_pairs)
    for a, b, j in splits:
        assert a < b and L.is_orthogonal(a, b) and L.join(a, b) == j


@pytest.mark.parametrize("kind, n, splits, pairs", [
    ("boolean", 6, 171, 364), ("mo", 32, 32, 97), ("boolean", 1, 0, 1), ("mo", 1, 1, 4),
])
def test_split_counts(kind, n, splits, pairs):
    L = q.build_catalog(kind, n)
    assert (len(L.atom_splits), len(L.orthogonal_pairs)) == (splits, pairs)


def test_o6_needs_the_orthomodular_law():
    """On o6 the triple (a, b∧a⊥, b) has b∧a⊥ = 0, so its ends join to a,
    not b: without the orthomodular law the triples are not orthogonal
    pairs of their third entry, and o6 builds no lattice."""
    raw = ALL_RAWS["o6"]
    labels = raw["labels"]
    T = lattice_tables_exhaustive(*_args(raw))
    off = [(x, y, j) for x, y, j in atom_splits_exhaustive(*_args(raw)) if T["join"][x][y] != j]
    assert [tuple(labels[i] for i in t) for t in off] == [("0", "a", "b"), ("0", "b'", "a'")]
    with pytest.raises(NotOrthomodular):
        q.build_lattice(*_args(raw))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ALL_RAWS)), st.data())
def test_additive_on_splits_iff_on_every_pair(name, data):
    """An integer f with f(0) = 0, drawn as an integer combination of
    additive functions with up to three values moved, is additive on the
    splits exactly when it is additive on every orthogonal pair."""
    splits, pairs, zero, basis = _case(name)
    n = len(ALL_RAWS[name]["labels"])
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    f = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(n)]
    moves = st.tuples(st.sampled_from([x for x in range(n) if x != zero]), st.integers(-2, 2))
    for x, d in data.draw(st.lists(moves, max_size=3)):
        f[x] += d
    assert f[zero] == 0
    on_splits = all(f[a] + f[b] == f[j] for a, b, j in splits)
    assert on_splits == all(f[a] + f[b] == f[j] for a, b, j in pairs)


def _boolean4_pairs_first():
    """boolean(4) with its two-atom elements given the least ids after 0, so
    the pair (a+b, c+d) with join 1, which is no atom split, comes first."""
    raw = q.raw_structure("boolean", 4)
    two = [x for x in raw["labels"] if x.count("+") == 1]
    raw["labels"] = ["0", *two, *(x for x in raw["labels"] if x not in two and x != "0")]
    return q.build_lattice(*_args(raw))


def _split(L, labels):
    """The orthogonal pair of the two ``labels`` with its join, by id."""
    a, b = sorted(map(L.id_of, labels))
    return a, b, L.join(a, b)


def test_state_failing_first_off_the_splits():
    L = _boolean4_pairs_first()
    vals = list(q.random_state(L, 0).values)
    x = L.id_of("a+b")
    vals[x] = 1 - vals[x]
    want = additivity_exhaustive(L, vals)
    with pytest.raises(NotAdditive) as got:
        q.validate_state(L, vals)
    assert_same_failure(got.value, want)
    assert got.value.witness == ("a+b", "c+d")
    assert _split(L, got.value.witness) not in L.atom_splits


def test_smap_failing_first_off_the_splits():
    L = _boolean4_pairs_first()
    rows = [list(row) for row in q.random_smap(L, 0).table]
    ab, a = L.id_of("a+b"), L.id_of("a")
    rows[ab][a] = F(1, 2) if rows[ab][a] != F(1, 2) else F(1, 3)
    want = s3_exhaustive(L, rows)
    with pytest.raises(S3Violation) as got:
        q.validate_smap(L, rows)
    assert_same_failure(got.value, want)
    assert got.value.witness == ("a", ("a+b", "c+d"), "first")
    assert _split(L, got.value.witness[1]) not in L.atom_splits
