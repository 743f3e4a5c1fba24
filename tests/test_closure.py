"""The order closure of ``build_lattice`` against the Warshall oracle.

``build_lattice`` closes the generating pairs by a topological sort and
checks order reversal on the pairs only.  Every query the lattice answers
from its join table and ⊥ (≤, meet, join, orthogonality, orthogonal pairs,
atoms) is checked on every pair against ``lattice_tables_exhaustive`` on the
catalog kinds and the pasting of two Boolean blocks, given as listed, as
cover pairs only, shuffled with duplicates, and with self-pairs added.  Cycles and a ⊥ that fails to reverse
the order must raise the failure the exhaustive walks name.
"""

import random

import pytest

import omlprob as q
from omlprob.catalog import raw_structure
from omlprob.errors import NotAnOrtholattice, NotAPoset

from conftest import pasting_raw
from oracles import (
    antisymmetry_failure,
    assert_same_failure,
    lattice_tables_exhaustive,
    order_reversal_failure,
    warshall_up,
)

KINDS = (
    [("boolean", n) for n in range(1, 7)]
    + [("mo", n) for n in range(1, 17)]
    + [("chain2", 1), ("pasting", 0)]
)


def _raw(kind):
    return pasting_raw() if kind[0] == "pasting" else raw_structure(*kind)


def cover_pairs(labels, leq):
    """The pairs a < b of the closure with nothing strictly between."""
    up = warshall_up(labels, leq)
    down = [sum(1 << i for i in range(len(up)) if up[i] >> j & 1) for j in range(len(up))]
    return [
        (labels[a], labels[b])
        for a in range(len(up))
        for b in range(len(up))
        if a != b and up[a] >> b & 1 and up[a] & down[b] == 1 << a | 1 << b
    ]


def shuffled_with_duplicates(labels, leq):
    rng = random.Random(len(labels))
    pairs = list(leq) + rng.sample(list(leq), len(leq) // 2)
    rng.shuffle(pairs)
    return pairs


def with_self_pairs(labels, leq):
    pairs = list(leq)
    for k, lab in enumerate(labels):
        pairs.insert(k * 2 % (len(pairs) + 1), (lab, lab))
    return pairs


VARIANTS = {
    "as-listed": lambda labels, leq: list(leq),
    "covers": cover_pairs,
    "shuffled": shuffled_with_duplicates,
    "self-pairs": with_self_pairs,
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_tables_match_the_warshall_oracle(kind, variant):
    raw = _raw(kind)
    leq = VARIANTS[variant](raw["labels"], raw["leq"])
    L = q.build_lattice(raw["labels"], leq, raw["ortho"])
    want = lattice_tables_exhaustive(raw["labels"], leq, raw["ortho"])
    up, perp = want["up"], want["perp"]

    def table(query):
        return tuple(tuple(query(a, b) for b in L.elements) for a in L.elements)

    assert table(L.leq) == table(lambda a, b: bool(up[a] >> b & 1))
    assert table(L.is_orthogonal) == table(lambda a, b: bool(perp[b] >> a & 1))
    assert table(L.meet) == want["meet"]
    assert table(L.join) == want["join"]
    assert L.orthogonal_pairs == want["pairs"]
    assert L.atoms == want["atoms"]


@pytest.mark.parametrize("n", range(1, 7))
def test_boolean_covers_are_the_hasse_diagram(n):
    raw = raw_structure("boolean", n)
    covers = cover_pairs(raw["labels"], raw["leq"])
    size = {"0": 0, "1": n}
    assert len(covers) == n * 2 ** (n - 1)
    assert all(size.get(y, y.count("+") + 1) == size.get(x, x.count("+") + 1) + 1
               for x, y in covers)


O6_LABELS = ["0", "a", "b", "b'", "a'", "1"]
O6_LEQ = [["0", "a"], ["a", "b"], ["b", "1"], ["0", "b'"], ["b'", "a'"], ["a'", "1"]]
# Two chains 0 < a < b < c < 1 and 0 < c' < b' < a' < 1; c is listed before b,
# so the first pair of the closure that ⊥ fails to reverse is a ≤ c, which is
# no generating pair.
O8_LABELS = ["0", "a", "c", "b", "c'", "b'", "a'", "1"]
O8_LEQ = [["0", "a"], ["a", "b"], ["b", "c"], ["c", "1"],
          ["0", "c'"], ["c'", "b'"], ["b'", "a'"], ["a'", "1"]]

# (labels, leq, ortho, error class, message, witness), as the Warshall
# closure and the walks over every pair of it name them.
FAILURES = {
    "2-cycle": (["0", "x", "y", "1"], [["0", "x"], ["x", "y"], ["y", "x"], ["y", "1"]],
                [["0", "1"], ["x", "y"]],
                NotAPoset, "antisymmetry fails: x ≤ y ≤ x", ("x", "y")),
    "3-cycle": (["0", "x", "y", "z", "1"],
                [["0", "x"], ["x", "y"], ["y", "z"], ["z", "x"], ["z", "1"]],
                [["0", "1"], ["x", "z"], ["y", "y"]],
                NotAPoset, "antisymmetry fails: x ≤ y ≤ x", ("x", "y")),
    "3-cycle-relabelled": (["0", "z", "y", "x", "1"],
                           [["0", "x"], ["x", "y"], ["y", "z"], ["z", "x"], ["z", "1"]],
                           [["0", "1"], ["x", "z"], ["y", "y"]],
                           NotAPoset, "antisymmetry fails: z ≤ y ≤ z", ("z", "y")),
    "cycle-above-a-chain": (["0", "a", "p", "q", "r", "1"],
                            [["0", "a"], ["a", "r"], ["r", "q"], ["q", "p"], ["p", "r"],
                             ["p", "1"]],
                            [["0", "1"]],
                            NotAPoset, "antisymmetry fails: p ≤ q ≤ p", ("p", "q")),
    "o6-swapped-complements": (O6_LABELS, O6_LEQ, [["0", "1"], ["a", "b'"], ["b", "a'"]],
                               NotAnOrtholattice, "⊥ not order-reversing on a ≤ b",
                               ("a", "b")),
    "o6-swapped-complements-reversed-pairs": (
        O6_LABELS, O6_LEQ[::-1], [["0", "1"], ["a", "b'"], ["b", "a'"]],
        NotAnOrtholattice, "⊥ not order-reversing on a ≤ b", ("a", "b")),
    "o8-closure-pair": (O8_LABELS, O8_LEQ, [["0", "1"], ["a", "c'"], ["c", "a'"], ["b", "b'"]],
                        NotAnOrtholattice, "⊥ not order-reversing on a ≤ c", ("a", "c")),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures_name_the_exhaustive_witness(name):
    labels, leq, ortho, cls, message, witness = FAILURES[name]
    with pytest.raises(cls) as exc:
        q.build_lattice(labels, leq, ortho)
    assert str(exc.value) == message
    assert exc.value.witness == witness
    up = warshall_up(labels, leq)
    want = antisymmetry_failure(labels, up)
    if want is None:
        index = {lab: i for i, lab in enumerate(labels)}
        inv = {index[x]: index[y] for x, y in ortho} | {index[y]: index[x] for x, y in ortho}
        want = order_reversal_failure(labels, up, [inv[i] for i in range(len(labels))])
    assert_same_failure(exc.value, want)
