"""scan_asymmetric_pairs against the double loop over ordered pairs."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files

from conftest import DATA
from oracles import asymmetric_pairs_exhaustive


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
    value = st.integers(0, 4).map(lambda k: F(k, 4))
    diag = data.draw(st.lists(value, min_size=n, max_size=n))
    cells = data.draw(st.lists(st.none() | value, min_size=n * n, max_size=n * n))

    def entry(a, b):  # None stands for the product of the diagonal
        if a == b:
            return diag[a]
        cell = cells[a * n + b]
        return diag[a] * diag[b] if cell is None else cell

    p = q.SMap(L, tuple(tuple(entry(a, b) for b in L.elements) for a in L.elements))
    assert q.scan_asymmetric_pairs(p) == asymmetric_pairs_exhaustive(p)
