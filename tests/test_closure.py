"""The order closure of ``build_lattice`` against the Warshall oracle.

``build_lattice`` closes the generating pairs by a topological sort, looks up
joins only and checks order reversal on the pairs only.  Every query the
lattice answers from its join table and ⊥ (≤, meet, join, orthogonality,
orthogonal pairs, atoms) is checked on every pair against
``lattice_tables_exhaustive`` on the catalog kinds and the pasting of two
Boolean blocks, given as listed, as cover pairs only, shuffled with
duplicates, and with self-pairs added.  A malformed input must be refused
exactly when ``lattice_failure_exhaustive`` finds a failure, with the same
class, and the witness must be a genuine violation in the Warshall closure:
the two least ids of the cycle reached by stepping back from the least
unplaced id, the first generating pair (by id, then as given) that ⊥ does
not reverse, and a pair with no least upper bound.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob.catalog import raw_structure
from omlprob.errors import (
    NotALattice,
    NotAnOrtholattice,
    NotAPoset,
    NotOrthomodular,
    OmlError,
)

from conftest import pasting_raw
from oracles import (
    lattice_failure_exhaustive,
    lattice_tables_exhaustive,
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
# Two chains 0 < a < b < c < 1 and 0 < c' < b' < a' < 1 with c listed before
# b: the first pair of the closure that ⊥ fails to reverse, by id, is a ≤ c,
# but the first generating pair is a ≤ b.
O8_LABELS = ["0", "a", "c", "b", "c'", "b'", "a'", "1"]
O8_LEQ = [["0", "a"], ["a", "b"], ["b", "c"], ["c", "1"],
          ["0", "c'"], ["c'", "b'"], ["b'", "a'"], ["a'", "1"]]

# (labels, leq, ortho, error class, message, witness), as build_lattice names
# them.
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
                        NotAnOrtholattice, "⊥ not order-reversing on a ≤ b", ("a", "b")),
}


def assert_genuine(labels, leq, ortho, exc) -> None:
    """The witness of ``exc`` violates its axiom in the Warshall closure."""
    if exc.witness is None:
        assert type(exc) is NotALattice and str(exc) == "no unique smallest/greatest element"
        return
    index = {lab: i for i, lab in enumerate(labels)}
    a, *rest = (index[w] for w in exc.witness)
    up = warshall_up(labels, leq)
    if type(exc) is NotAPoset:
        (b,) = rest
        assert a < b and up[a] >> b & 1 and up[b] >> a & 1
        return
    T = lattice_tables_exhaustive(labels, leq, ortho)
    join, meet, o = T["join"], T["meet"], T["ortho"]
    if type(exc) is NotALattice:
        (b,) = rest
        assert str(exc) == f"no join for ({labels[a]}, {labels[b]})" and join[a][b] is None
    elif not rest:
        # a ∨ a⊥ is not 1, the one element with nothing else above it.
        j = join[a][o[a]]
        assert type(exc) is NotAnOrtholattice and up[j] != 1 << j
    else:
        (b,) = rest
        assert up[a] >> b & 1
        if type(exc) is NotAnOrtholattice:
            assert (labels[a], labels[b]) in {tuple(p) for p in leq}
            assert not up[o[b]] >> o[a] & 1
        else:
            assert type(exc) is NotOrthomodular and join[a][meet[o[a]][b]] != b


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures_name_the_exhaustive_witness(name):
    labels, leq, ortho, cls, message, witness = FAILURES[name]
    with pytest.raises(cls) as exc:
        q.build_lattice(labels, leq, ortho)
    assert str(exc.value) == message
    assert exc.value.witness == witness
    assert type(lattice_failure_exhaustive(labels, leq, ortho)) is cls
    assert_genuine(labels, leq, ortho, exc.value)


# Catalog lattices of at most 7 elements: Boolean, MO(2), and O6, which is
# an ortholattice but not orthomodular.
BASES = [raw_structure(*k) for k in (("boolean", 1), ("boolean", 2), ("mo", 2), ("o6", 0))]


@st.composite
def raw_lattices(draw):
    """(labels, leq, ortho) on at most 7 labels: either random pairs, or a
    catalog lattice with its ids permuted and its pairs shuffled, some
    dropped and some added (cycles included); ⊥ is the lattice's own, that
    with the partners of two pairs swapped, or a random involution, which
    may have fixed points."""
    base = draw(st.sampled_from([None, *BASES]))
    if base is None:
        n = draw(st.integers(1, 7))
        labels = [f"v{i}" for i in range(n)]
        leq = []
        if draw(st.booleans()):  # a least and a greatest element
            leq = [(labels[0], x) for x in labels] + [(x, labels[-1]) for x in labels]
    else:
        labels = draw(st.permutations(base["labels"]))
        n = len(labels)
        drop = draw(st.sets(st.integers(0, len(base["leq"]) - 1), max_size=2))
        leq = [tuple(p) for k, p in enumerate(base["leq"]) if k not in drop]
    label = st.sampled_from(labels)
    extra = draw(st.lists(st.tuples(label, label), max_size=3 * n if base is None else 2))
    leq = draw(st.permutations(leq + extra))
    if base is not None and draw(st.booleans()):
        ortho = list(dict.fromkeys(tuple(sorted(p)) for p in base["ortho"]))
        if len(ortho) > 1 and draw(st.booleans()):  # swap the partners of two pairs
            i, j = draw(st.lists(st.integers(0, len(ortho) - 1), min_size=2, max_size=2,
                                 unique=True))
            (x, xp), (y, yp) = ortho[i], ortho[j]
            ortho[i], ortho[j] = (x, yp), (y, xp)
        return labels, leq, ortho
    perm = draw(st.permutations(labels))
    k = draw(st.integers(0, n // 2))
    ortho = [(perm[2 * i], perm[2 * i + 1]) for i in range(k)] + [(x, x) for x in perm[2 * k:]]
    return labels, leq, ortho


@settings(max_examples=400, deadline=None)
@given(raw_lattices())
def test_refuses_exactly_what_the_warshall_oracle_refuses(raw):
    labels, leq, ortho = raw
    want = lattice_failure_exhaustive(labels, leq, ortho)
    try:
        q.build_lattice(labels, leq, ortho)
    except OmlError as exc:
        assert type(exc) is type(want) and exc.stage == want.stage
        assert_genuine(labels, leq, ortho, exc)
    else:
        assert want is None
