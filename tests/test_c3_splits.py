"""C3 on the conditional system's splits.

With C1 and C2, the mixing law at every split (t, z∧t⊥, z), t a minimal
condition and t < z a condition, implies it at every orthogonal pair of
conditions (the proof is in ``validate_conditional_state``).  So
``states._check_conditional_state`` checks C3 at ``L.system_splits(cs)`` and
walks ``L.orthogonal_pairs`` only after a failure, to name the first one.
For cs = L∖{0} the splits are ``L.atom_splits``, and
``check_conditional_system`` is one set comparison.
"""

import copy
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob.errors import C1Violation, C2Violation, C3Violation, NotAConditionalSystem

from conftest import pasting_raw, product_raw
from oracles import (
    assert_same_failure,
    conditional_system_closure,
    cstate_exhaustive,
    system_splits_exhaustive,
)


def _ids_reversed(raw):
    """``raw`` with its labels listed in reverse, so a larger element gets a
    smaller id and a walk by id meets it before the elements below it."""
    return {**raw, "labels": raw["labels"][::-1]}


RAWS = {
    **{f"boolean{n}": q.raw_structure("boolean", n) for n in range(1, 7)},
    **{f"mo{n}": q.raw_structure("mo", n) for n in range(2, 13)},
    "pasting": pasting_raw(),
    "mo2xmo3": product_raw(q.raw_structure("mo", 2), q.raw_structure("mo", 3)),
    "boolean4 reversed": _ids_reversed(q.raw_structure("boolean", 4)),
    "pasting reversed": _ids_reversed(pasting_raw()),
}


@lru_cache(maxsize=None)
def _lattice(name):
    raw = RAWS[name]
    return q.build_lattice(raw["labels"], raw["leq"], raw["ortho"])


def _nonzero(L):
    return frozenset(L.elements) - {L.zero}


def _two_valued(L, first, rng):
    """A two-valued state: a maximal set S of pairwise non-orthogonal atoms,
    grown from the atom ``first`` in random order, with s(x) = 1 iff an atom
    of S lies below x.  On these lattices S meets every block once, which
    ``validate_state`` confirms."""
    rest = [e for e in L.atoms if e != first]
    rng.shuffle(rest)
    S = [first]
    for e in rest:
        if not any(L.is_orthogonal(e, s) for s in S):
            S.append(e)
    return q.validate_state(L, [int(any(L.leq(s, x) for s in S)) for x in L.elements])


def _mixture_table(L, rng):
    """f(x, a) = Σ λ_e·s_e(x) over the two-valued states s_e with s_e(a) = 1,
    over their λ_e: the conditioning of the s-map Σ λ_e·s_e(x)·s_e(y), one
    s_e grown from each atom e, so every nonzero a is a condition."""
    states = [(F(rng.randint(1, 9)), _two_valued(L, e, rng)) for e in L.atoms]
    tab = {}
    for a in _nonzero(L):
        on = [(w, s) for w, s in states if s(a)]
        total = sum(w for w, _ in on)
        for x in L.elements:
            tab[(x, a)] = sum(w * s(x) for w, s in on) / total
    return tab


@lru_cache(maxsize=None)
def _base_table(name):
    """A conditional state on L∖{0}: the catalog's random one on Boolean and
    MO lattices, a mixture of two-valued states on the others."""
    L = _lattice(name)
    if not name.startswith(("pasting", "mo2xmo3")):
        return dict(q.random_conditional_state(L, 1).table)
    return _mixture_table(L, random.Random(1))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(RAWS)), st.data())
def test_splits_agree_with_the_pair_walk(name, data):
    """On cs = L∖{0} or the closure of 1–4 random elements, with one or two
    sections swapped for another state concentrated on their condition (so
    C1 and C2 hold), ``validate_conditional_state`` fails iff the pair
    oracle does, naming the same b and family."""
    L = _lattice(name)
    nonzero = sorted(_nonzero(L))
    if data.draw(st.booleans(), label="all of L∖{0}"):
        cs = frozenset(nonzero)
    else:
        elems = data.draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=4))
        cs = conditional_system_closure(L, elems)
    tab = {(x, a): v for (x, a), v in _base_table(name).items() if a in cs}
    rng = random.Random(data.draw(st.integers(0, 2**32), label="swap seed"))
    other = _mixture_table(L, rng)
    swaps = [a for a in sorted(cs) if a != L.one]
    for a in rng.sample(swaps, min(len(swaps), data.draw(st.integers(0, 2)))):
        tab.update({(x, a): other[(x, a)] for x in L.elements})
    assert list(L.system_splits(cs)) == system_splits_exhaustive(L, cs)
    want = cstate_exhaustive(L, cs, tab)
    assert not isinstance(want, (C1Violation, C2Violation))
    try:
        q.validate_conditional_state(L, cs, tab)
    except C3Violation as exc:
        got = exc
    else:
        got = None
    assert_same_failure(got, want)


@pytest.mark.parametrize("name", sorted(RAWS))
def test_splits_of_the_full_system_are_the_atom_splits(name):
    L = _lattice(name)
    assert L.system_splits(_nonzero(L)) is L.atom_splits
    assert list(L.atom_splits) == system_splits_exhaustive(L, _nonzero(L))


def _boolean4_pairs_first():
    """boolean(4) with its two-atom elements given the least ids after 0, so
    the pair (a+b, c+d) with join 1, which is no split, comes first."""
    raw = q.raw_structure("boolean", 4)
    two = [x for x in raw["labels"] if x.count("+") == 1]
    raw["labels"] = ["0", *two, *(x for x in raw["labels"] if x not in two and x != "0")]
    return q.build_lattice(raw["labels"], raw["leq"], raw["ortho"])


def test_first_failing_pair_is_not_a_split():
    """The section at a+b is moved to another state concentrated on a+b.
    The split (c, a+b, a+b+c) fails, and the walk that follows names the
    first failing pair, (a+b, c+d), which is no split."""
    L = _boolean4_pairs_first()
    cs = _nonzero(L)
    tab = dict(q.random_conditional_state(L, 0).table)
    ab, a, b = L.id_of("a+b"), L.id_of("a"), L.id_of("b")
    w = F(1, 7) if tab[(a, ab)] != F(1, 7) else F(2, 7)
    for x in L.elements:
        tab[(x, ab)] = w * L.leq(a, x) + (1 - w) * L.leq(b, x)
    want = cstate_exhaustive(L, cs, tab)
    with pytest.raises(C3Violation) as got:
        q.validate_conditional_state(L, cs, tab)
    assert_same_failure(got.value, want)
    assert got.value.witness[1] == ("a+b", "c+d")
    pair = tuple(sorted(map(L.id_of, got.value.witness[1])))
    assert pair not in [(x, y) for x, y, _ in L.system_splits(cs)]


class JoinRead(Exception):
    pass


class _NoJoins:
    def __getitem__(self, a):
        raise JoinRead(a)


@pytest.mark.parametrize("name", ["boolean3", "mo3", "pasting"])
def test_full_system_reads_no_join(name):
    """``check_conditional_system(L∖{0})`` is one set comparison; a member
    set of the same size with an id that is no element is not taken for it,
    and is refused, by that id, before any join is read."""
    L = copy.copy(_lattice(name))
    L._join = _NoJoins()
    L.check_conditional_system(_nonzero(L))
    bogus = _nonzero(L) - {L.one} | {len(L)}
    with pytest.raises(NotAConditionalSystem, match=rf"^{len(L)} is not an element$"):
        L.check_conditional_system(bogus)
