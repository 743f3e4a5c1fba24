"""C3 on orthogonal pairs: agreement with the exhaustive oracle, and scale."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import omlprob as q
from omlprob.catalog import is_boolean_lattice, mo_blocks
from omlprob.errors import C3Violation

from oracles import c3_exhaustive

DENOM = 1000
ORACLE_KINDS = (("boolean", 2), ("boolean", 3), ("mo", 2), ("mo", 3), ("mo", 4))


def _other_section(L, tab, rng):
    """Swap the section f(., a) at one or two conditions a ∉ {0, 1} for
    another state concentrated on a; None when no such a exists.

    C1 and C2 still hold after the swap.  The pair {a, a⊥} now mixes
    f(b, 1) = f(a, 1)·α(b) + f(a⊥, 1)·f(b, a⊥) with f(a, 1) > 0, so C3 fails.
    With three or more blocks to choose from (mo(n ≥ 3), and boolean(3),
    where each two-atom element is its own choice), two conditions from
    different blocks are swapped: two pairs fail, and the first witness
    depends on the order in which the pairs are visited.
    """
    if is_boolean_lattice(L):
        below = {
            a: [t for t in L.atoms if L.leq(t, a)] for a in L.elements if a != L.one
        }
        blocks = [(a,) for a, ts in below.items() if len(ts) >= 2]

        def draw(a):
            w = {t: F(rng.randint(1, DENOM)) for t in below[a]}
            total = sum(w.values())
            return {x: sum((v for t, v in w.items() if L.leq(t, x)), F(0)) / total
                    for x in L.elements}
    else:
        blocks = mo_blocks(L)

        def draw(a):
            ap = L.ortho(a)
            alpha = {L.zero: F(0), L.one: F(1), a: F(1), ap: F(0)}
            for x, xp in blocks:
                if x not in (a, ap):
                    alpha[x] = F(rng.randint(0, DENOM), DENOM)
                    alpha[xp] = 1 - alpha[x]
            return alpha

    if not blocks:
        return None
    out = dict(tab)
    for block in rng.sample(blocks, 2 if len(blocks) >= 3 else 1):
        a = rng.choice(block)
        alpha = draw(a)
        while all(alpha[x] == tab[(x, a)] for x in L.elements):
            alpha = draw(a)
        out.update({(x, a): alpha[x] for x in L.elements})
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ORACLE_KINDS),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_pairs_agree_with_exhaustive_oracle(kind, seed, perturb_seed, perturb):
    L = q.build_catalog(*kind)
    f = q.random_conditional_state(L, seed)
    tab = dict(f.table)
    if perturb:
        tab = _other_section(L, tab, random.Random(perturb_seed))
        assume(tab is not None)
    want = c3_exhaustive(L, f.conditions, tab)
    assert (want is not None) == perturb
    try:
        q.validate_conditional_state(L, f.conditions, tab)
    except C3Violation as exc:
        got = exc
    else:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert got.witness == want.witness
        assert str(got) == str(want)


@pytest.mark.parametrize("kind, n", [("mo", 10), ("mo", 12), ("boolean", 5), ("boolean", 6)])
def test_round_trip_beyond_eight_elements(kind, n):
    L = q.build_catalog(kind, n)
    f = q.random_conditional_state(L, 3)
    g = q.smap_to_conditional(q.conditional_to_smap(f))
    assert g.conditions == f.conditions
    assert g.table == f.table
