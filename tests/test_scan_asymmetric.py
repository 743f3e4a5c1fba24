"""scan_asymmetric_pairs against the double loop over ordered pairs."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files, smap

from conftest import DATA
from oracles import asymmetric_pairs_exhaustive
from test_smap_kernel import _prime_denominator_table, _primes_from


@pytest.mark.parametrize("kind, n", [("boolean", n) for n in range(1, 6)]
                         + [("mo", n) for n in range(1, 13)])
def test_scan_matches_double_loop_on_catalog(kind, n):
    L = q.build_catalog(kind, n)
    for seed in range(3):
        p = q.random_smap(L, seed)
        assert q.scan_asymmetric_pairs(p) == asymmetric_pairs_exhaustive(p)


def test_scan_matches_double_loop_on_file():
    p = files.load_typed(files.load_document(str(DATA / "two_blocks_smap.json")))
    L = p.lattice
    want = [(L.id_of(x), L.id_of(y)) for x, y in (("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"))]
    assert q.scan_asymmetric_pairs(p) == asymmetric_pairs_exhaustive(p) == sorted(want)


@pytest.mark.parametrize("kind, n", [("boolean", 5), ("mo", 16)])
def test_catalog_smaps_round_trip_through_files(tmp_path, kind, n):
    L = q.build_catalog(kind, n)
    files.write_document(str(tmp_path / "lattice.json"), files.lattice_document(L))
    for seed in range(2):
        p = q.random_smap(L, seed)
        path = str(tmp_path / f"smap{seed}.json")
        files.write_document(path, files.smap_document(p, "lattice.json"))
        loaded = files.load_typed(files.load_document(path))
        assert loaded.lattice.labels == L.labels
        assert loaded.table == p.table
        assert q.scan_asymmetric_pairs(loaded) == asymmetric_pairs_exhaustive(loaded)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((("mo", 2), ("mo", 3), ("boolean", 2), ("boolean", 3))), st.data())
def test_scan_matches_double_loop_on_any_table(kind, data):
    """Tables need not be s-maps here: each off-diagonal entry is the
    product of the diagonal or a random value, so every pair can be
    independent both ways, one way or neither."""
    L = q.build_catalog(*kind)
    n = len(L)
    value = st.integers(0, 4).map(lambda k: F(k, 4)) | st.sampled_from(
        (-1, 0, 1, 2, F(-1, 2), F(1, 3**700), F(-2, 5**500))  # 3**700 > 2**1024
    )
    diag = data.draw(st.lists(value, min_size=n, max_size=n))
    cells = data.draw(st.lists(st.none() | value, min_size=n * n, max_size=n * n))

    def entry(a, b):  # None stands for the product of the diagonal
        if a == b:
            return diag[a]
        cell = cells[a * n + b]
        return diag[a] * diag[b] if cell is None else cell

    p = q.SMap(L, tuple(tuple(entry(a, b) for b in L.elements) for a in L.elements))
    assert q.scan_asymmetric_pairs(p) == asymmetric_pairs_exhaustive(p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((("mo", 2), ("mo", 3), ("boolean", 2), ("boolean", 3))), st.data())
def test_scan_is_independence_in_one_direction(kind, data):
    """(a, b) is scanned iff is_independent_product(p, a, b) holds and
    is_independent_product(p, b, a) does not.  Off-diagonal entries are
    drawn from the products of the diagonal values, so both tests often
    hold."""
    L = q.build_catalog(*kind)
    n = len(L)
    diagonal = (0, 1, -1, F(1, 2), F(-1, 3), F(1, 3**700))
    products = sorted({x * y for x in diagonal for y in diagonal})
    diag = data.draw(st.lists(st.sampled_from(diagonal), min_size=n, max_size=n))
    off = data.draw(st.lists(st.sampled_from(products), min_size=n * n, max_size=n * n))
    p = q.SMap(L, tuple(tuple(diag[a] if a == b else off[a * n + b] for b in L.elements)
                        for a in L.elements))
    want = [(a, b) for a in L.elements for b in L.elements if a != b
            and q.is_independent_product(p, a, b) and not q.is_independent_product(p, b, a)]
    assert q.scan_asymmetric_pairs(p) == want


def test_scan_builds_no_scaled_table(monkeypatch, example_smap):
    """The scan reads reduced ratios; it never calls ``_scaled``, on a
    table whose common denominator is small or past 2**1024."""
    L = q.build_catalog("mo", 16)
    tables = [example_smap,
              q.validate_smap(L, _prime_denominator_table(L, _primes_from(2**61, 16 * 15)))]

    def refuse(*args):
        raise AssertionError("the scan scaled the table")

    monkeypatch.setattr(smap, "_scaled", refuse)
    for p in tables:
        assert q.scan_asymmetric_pairs(p) == asymmetric_pairs_exhaustive(p)
