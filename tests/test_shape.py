"""Lattice shape read from the atoms, against the exhaustive scans.

``L.atoms``, ``is_boolean_lattice``, ``mo_blocks`` and an observable's
``range_subalgebra``, read from its partition, are checked against the
oracles in ``tests/oracles.py`` on the catalog kinds, on a pasting of two
Boolean blocks that is neither Boolean nor MO-shaped, and on direct products
of catalog lattices, of which only boolean(2)×boolean(2) is Boolean.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import omlprob as q
from omlprob.catalog import is_boolean_lattice, mo_blocks
from omlprob.errors import LatticeInputError

from conftest import pasting_lattice, product_raw
from oracles import (
    atoms_exhaustive,
    boolean_subalgebra_exhaustive,
    generated_subalgebra_exhaustive,
    is_boolean_exhaustive,
    mo_blocks_exhaustive,
)

# name -> the two catalog factors of a direct product
PRODUCTS = {
    "b1xmo2": (("boolean", 1), ("mo", 2)),
    "b2xmo2": (("boolean", 2), ("mo", 2)),
    "mo2xmo3": (("mo", 2), ("mo", 3)),
    "b2xb2": (("boolean", 2), ("boolean", 2)),
}

KINDS = (
    [("boolean", n) for n in range(1, 7)]
    + [("mo", n) for n in range(1, 17)]
    + [("chain2", 1), ("pasting", 0)]
    + [("product", name) for name in PRODUCTS]
)


def _lattice(kind):
    if kind[0] == "product":
        raw = product_raw(*(q.raw_structure(*f) for f in PRODUCTS[kind[1]]))
        return q.build_lattice(raw["labels"], raw["leq"], raw["ortho"])
    return pasting_lattice() if kind[0] == "pasting" else q.build_catalog(*kind)


def _outcome(fn, *args):
    """fn's result, or LatticeInputError as a type."""
    try:
        return fn(*args)
    except LatticeInputError:
        return LatticeInputError


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_shape_agrees_with_exhaustive_oracles(kind):
    L = _lattice(kind)
    assert list(L.atoms) == atoms_exhaustive(L)
    assert is_boolean_lattice(L) == is_boolean_exhaustive(L)
    assert _outcome(mo_blocks, L) == _outcome(mo_blocks_exhaustive, L)


@pytest.mark.parametrize(
    "name, size, boolean",
    [("b1xmo2", 12, False), ("b2xmo2", 24, False), ("mo2xmo3", 48, False), ("b2xb2", 16, True)],
)
def test_product_shape(name, size, boolean):
    """A product with a non-Boolean factor is neither Boolean nor MO-shaped,
    so no state is drawn on it."""
    L = _lattice(("product", name))
    assert len(L) == size and is_boolean_lattice(L) == boolean
    if boolean:
        assert q.random_state(L, 0).values[L.one] == 1
    else:
        with pytest.raises(LatticeInputError, match="not MO-shaped"):
            q.random_state(L, 0)


def test_pasting_shape(pasting):
    assert [pasting.label(a) for a in pasting.atoms] == list("abcde")
    assert len(pasting) == 12 and len(pasting.orthogonal_pairs) == 22
    assert not is_boolean_lattice(pasting)
    with pytest.raises(LatticeInputError) as exc:
        mo_blocks(pasting)
    assert str(exc.value) == "a' is compatible with b: not MO-shaped"
    assert exc.value.witness == ("a'", "b")


def _member_sets(L):
    rest = [x for x in L.elements if x not in (L.zero, L.one)]
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            yield frozenset((L.zero, L.one, *extra))


@pytest.mark.parametrize(
    "kind, accepted", [(("mo", 2), 3), (("boolean", 3), 5), (("pasting", 0), 8)],
    ids=["mo-2", "boolean-3", "pasting"],
)
def test_boolean_subalgebras_agree_with_distributivity_oracle(kind, accepted):
    """Each member set the oracle accepts as a Boolean subalgebra is the
    range of an observable that takes a distinct value on each of its atoms."""
    L = _lattice(kind)
    got = 0
    for mem in _member_sets(L):
        B = _outcome(boolean_subalgebra_exhaustive, L, mem)
        if B is not LatticeInputError:
            assert q.make_observable(L, enumerate(B.atoms)).range_subalgebra() == B
            got += 1
    assert got == accepted


def _random_partition(L, rng):
    """A seeded orthogonal partition of 1 that may hold zero events: a
    maximal orthogonal set of atoms, taken greedily in a shuffled order
    (an atom below the complement of a smaller join would extend it), dealt
    into cells of which some may stay empty."""
    atoms = list(L.atoms)
    rng.shuffle(atoms)
    chosen = []
    for a in atoms:
        if all(L.is_orthogonal(a, b) for b in chosen):
            chosen.append(a)
    cells = [[] for _ in range(rng.randint(1, len(chosen) + 2))]
    for a in chosen:
        rng.choice(cells).append(a)
    return [L.join_all(cell) for cell in cells]


RANGE_KINDS = (
    [("boolean", n) for n in range(1, 6)]
    + [("mo", n) for n in (1, 2, 3, 12)]
    + [("chain2", 1), ("pasting", 0)]
)


@pytest.mark.parametrize("kind", RANGE_KINDS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_range_agrees_with_exhaustive_oracle(kind):
    L = _lattice(kind)
    zero_events = 0
    for seed in range(20):
        events = _random_partition(L, random.Random(seed))
        x = q.make_observable(L, [(F(i, 3), e) for i, e in enumerate(events)])
        want = boolean_subalgebra_exhaustive(L, generated_subalgebra_exhaustive(L, events))
        assert x.range_subalgebra() == want
        zero_events += events.count(L.zero)
    assert zero_events
