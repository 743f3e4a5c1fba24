"""``files.load_smap`` against the ``Fraction`` path it replaced.

The oracle reads a document's cells with ``parse_rational`` in document
order, completes the table with ``complete_smap_table`` and validates it
with ``validate_smap``, whose failure is also the one ``smap_exhaustive``
finds.  Each document is a written s-map with one mutation; the loader must
return the same record, every entry a ``Fraction`` in lowest terms, or raise
the same exception: class, message and witness.
"""

import json
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files
from omlprob.errors import OmlError
from omlprob.rationals import format_rational, has_finite_decimal, parse_rational
from omlprob.smap import SMap

from conftest import pasting_lattice
from oracles import assert_same_failure, complete_smap_table, smap_exhaustive

LATTICES = (
    [("mo", n) for n in range(2, 17)] + [("boolean", n) for n in range(2, 6)] + [("pasting", 0)]
)
MUTATIONS = (
    "outside", "orthogonal", "s3", "drop-off-diagonal", "drop-diagonal",
    "unknown-label", "huge-denominator", "huge-mixture", "form", "drop-forced",
    # Two faults, to pin the order in which the loader reports them.
    "drop-both", "label-and-literal",
)
FORMS = ("p/q", "decimal", "unreduced", "json-number", "int")
HUGE = 2**1025 + 1  # a denominator past the 2**1024 scaling bound


@lru_cache(maxsize=None)
def _lattice(kind, n):
    return pasting_lattice() if kind == "pasting" else q.build_catalog(kind, n)


def _two_valued_mixture(L, seed):
    """A seeded mixture of the tables δ⊗δ of the two-valued states δ of L,
    each 1 above a set of one or two atoms: an s-map on any OML."""
    deltas = []
    for k in (1, 2):
        for atoms in combinations(L.atoms, k):
            d = [F(any(L.leq(t, x) for t in atoms)) for x in L.elements]
            try:
                q.validate_state(L, d)
            except OmlError:
                continue
            deltas.append(d)
    rng = random.Random(seed)
    w = [rng.randint(1, 9) for _ in deltas]
    return [
        [sum(F(wi, sum(w)) * d[a] * d[b] for wi, d in zip(w, deltas)) for b in L.elements]
        for a in L.elements
    ]


@lru_cache(maxsize=None)
def _rows(kind, n, seed):
    L = _lattice(kind, n)
    if kind == "pasting":
        return tuple(map(tuple, _two_valued_mixture(L, seed)))
    return q.random_smap(L, seed).table


def _oracle(L, doc):
    cells = {}
    for rlab, row in doc["table"].items():
        a = L.id_of(rlab)
        for clab, v in row.items():
            x = parse_rational(v)
            cells[(a, L.id_of(clab))] = x
    table = complete_smap_table(L, cells)
    want = smap_exhaustive(L, table)
    try:
        p = q.validate_smap(L, table)
    except OmlError as exc:
        assert_same_failure(exc, want)
        raise
    assert want is None
    return p


def _outcome(call):
    try:
        return call()
    except OmlError as exc:
        return exc


@pytest.fixture(scope="module")
def docdir(tmp_path_factory):
    return tmp_path_factory.mktemp("smaps")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LATTICES), st.integers(0, 3), st.sampled_from(MUTATIONS), st.data())
def test_loader_agrees_with_fraction_path(docdir, lattice, seed, mutation, data):
    L = _lattice(*lattice)
    rows = [list(r) for r in _rows(*lattice, seed)]
    if mutation == "huge-mixture":  # valid, with D past the scaling bound
        t = F(1, HUGE)
        other = _rows(*lattice, seed + 1)
        rows = [[t * x + (1 - t) * y for x, y in zip(r, o)] for r, o in zip(rows, other)]
    D = lcm(*(x.denominator for row in rows for x in row))
    lab = L.label
    doc = files.smap_document(SMap(L, rows))
    table = doc["table"]

    def draw_cell(pred=lambda a, b: True):
        return data.draw(st.sampled_from(
            [(a, b) for a in L.elements for b in L.elements if pred(a, b)]))

    number = None  # the text of a JSON number cell, written in place of "@"
    if mutation == "outside":
        a, b = draw_cell()
        k = data.draw(st.integers(1, D))
        v = F(-k, D) if data.draw(st.booleans()) else 1 + F(k, D)
        table[lab(a)][lab(b)] = str(v)
    elif mutation == "orthogonal":
        a, b = draw_cell(L.is_orthogonal)
        table[lab(a)][lab(b)] = str(F(data.draw(st.integers(1, D)), D))
    elif mutation == "s3":
        a, b = draw_cell(lambda a, b: not L.is_orthogonal(a, b))
        v = rows[a][b] + (F(1, D) if rows[a][b] < 1 else F(-1, D))
        table[lab(a)][lab(b)] = str(v)
    elif mutation == "huge-denominator":
        a, b = draw_cell()
        table[lab(a)][lab(b)] = str(rows[a][b] + F(1, HUGE))
    elif mutation == "form":
        form = data.draw(st.sampled_from(FORMS))
        if form in ("decimal", "json-number"):
            a, b = draw_cell(lambda a, b: has_finite_decimal(rows[a][b]))
        elif form == "int":
            a, b = draw_cell(lambda a, b: rows[a][b] in (0, 1))
        else:
            a, b = draw_cell()
        v = rows[a][b]
        text = format_rational(v, decimal=True) if has_finite_decimal(v) else None
        if text is not None and "." not in text:
            text += ".0"
        k = data.draw(st.integers(2, 10))
        table[lab(a)][lab(b)] = {
            "p/q": f"{v.numerator}/{v.denominator}",
            "decimal": text,
            "unreduced": f"{v.numerator * k}/{v.denominator * k}",
            "json-number": "@",
            "int": int(v) if v.denominator == 1 else None,
        }[form]
        if form == "json-number":
            number = text
    # Cells removed and labels renamed last, so the draws above find them.
    if mutation in ("drop-off-diagonal", "drop-both"):
        a, b = draw_cell(lambda a, b: a != b)
        del table[lab(a)][lab(b)]
    if mutation == "drop-forced":  # a random part of rows and columns 0 and 1
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        for x in L.elements:
            for a, b in ((x, L.zero), (L.zero, x), (x, L.one), (L.one, x)):
                if rng.random() < 0.5:
                    table[lab(a)].pop(lab(b), None)
    if mutation in ("drop-diagonal", "drop-both"):
        a, _ = draw_cell(lambda a, b: a == b)
        del table[lab(a)][lab(a)]
    if mutation == "label-and-literal":
        a, b = draw_cell()
        table[lab(a)][lab(b)] = "zz"
    if mutation in ("unknown-label", "label-and-literal"):
        a, b = draw_cell()
        if data.draw(st.booleans()):
            table["zz"] = table.pop(lab(a))
        else:
            table[lab(a)]["zz"] = table[lab(a)].pop(lab(b))

    path = docdir / "p.json"
    body = json.dumps(doc)
    if number is not None:
        assert body.count('"@"') == 1
        body = body.replace('"@"', number)
    path.write_text(body, encoding="utf-8")
    written = files.load_document(str(path))
    got = _outcome(lambda: files.load_smap(written, L))
    want = _outcome(lambda: _oracle(L, written))
    if isinstance(want, OmlError):
        assert isinstance(got, OmlError), got
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert got.witness == want.witness
    else:
        assert got == want
        assert all(type(x) is F and gcd(x.numerator, x.denominator) == 1
                   for row in got.table for x in row)
