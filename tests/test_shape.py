"""Lattice shape read from the atoms, against the exhaustive scans.

``L.atoms``, ``is_boolean_lattice``, ``mo_blocks`` and
``boolean_subalgebra_from_members`` are checked against the oracles in
``tests/oracles.py`` on the catalog kinds and on a pasting of two Boolean
blocks that is neither Boolean nor MO-shaped.
"""

from itertools import combinations

import pytest

import omlprob as q
from omlprob.catalog import is_boolean_lattice, mo_blocks
from omlprob.errors import LatticeInputError

from conftest import pasting_lattice
from oracles import (
    atoms_exhaustive,
    boolean_subalgebra_exhaustive,
    is_boolean_exhaustive,
    mo_blocks_exhaustive,
)

KINDS = (
    [("boolean", n) for n in range(1, 7)]
    + [("mo", n) for n in range(1, 17)]
    + [("chain2", 1), ("pasting", 0)]
)


def _lattice(kind):
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
    L = _lattice(kind)
    got = 0
    for mem in _member_sets(L):
        B = _outcome(L.boolean_subalgebra_from_members, mem)
        assert B == _outcome(boolean_subalgebra_exhaustive, L, mem)
        got += B is not LatticeInputError
    assert got == accepted
