"""Built-in lattices and seeded random generators for the property suites.

Kinds:
  boolean(n) — power set of n atoms;
  mo(n)      — horizontal sum of n four-element Boolean blocks (2n+2 elements);
  chain2     — the two-element chain (alias for boolean(1));
  o6         — the hexagon; deliberately fails the orthomodular law, so only
               its raw structure is exposed for negative tests.

Generators are deterministic in (lattice, seed) and emit exact rationals with
bounded denominators.  Each draws one s-map table p, whose diagonal is a
random state: ``random_smap`` checks s1–s3 on it, and
``random_conditional_state`` conditions it, f(a, b) = p(a, b)/p(b, b), and
checks C1–C3.  Both checks are polynomial in |L|, so mo(64) and boolean(7)
are in reach.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction
from itertools import combinations

from .errors import LatticeInputError
from .lattice import MAX_ELEMENTS, OrthomodularLattice, build_lattice
from .smap import SMap, smap_to_conditional, validate_smap
from .states import ZERO, ConditionalState, State, validate_state

DENOM_BOUND = 1000

KINDS = ("boolean", "mo", "o6", "chain2")


def _atom_name(i: int) -> str:
    if i < len(string.ascii_lowercase):
        return string.ascii_lowercase[i]
    return f"a{i}"


def boolean_raw(n_atoms: int) -> dict:
    if n_atoms < 1:
        raise LatticeInputError("boolean lattice needs at least one atom")
    names = [_atom_name(i) for i in range(n_atoms)]
    full = frozenset(range(n_atoms))

    def lab(s: frozenset) -> str:
        if not s:
            return "0"
        if s == full:
            return "1"
        return "+".join(names[i] for i in sorted(s))

    subsets = [frozenset(c) for r in range(n_atoms + 1) for c in combinations(range(n_atoms), r)]
    labels = [lab(s) for s in subsets]
    leq = [[lab(s), lab(t)] for s in subsets for t in subsets if s < t]
    ortho = [[lab(s), lab(full - s)] for s in subsets]
    return {"labels": labels, "leq": leq, "ortho": ortho, "zero": "0", "one": "1"}


def mo_raw(n: int) -> dict:
    if n < 1:
        raise LatticeInputError("mo(n) needs at least one block")
    labels = ["0", "1"]
    ortho = [["0", "1"]]
    leq = []
    for i in range(n):
        a = _atom_name(i)
        ap = a + "'"
        labels += [a, ap]
        ortho.append([a, ap])
        leq += [["0", a], [a, "1"], ["0", ap], [ap, "1"]]
    return {"labels": labels, "leq": leq, "ortho": ortho, "zero": "0", "one": "1"}


def o6_raw() -> dict:
    return {
        "labels": ["0", "a", "b", "b'", "a'", "1"],
        "leq": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "b'"], ["b'", "a'"], ["a'", "1"]],
        "ortho": [["0", "1"], ["a", "a'"], ["b", "b'"]],
        "zero": "0",
        "one": "1",
    }


def raw_structure(kind: str, n: int = 1) -> dict:
    """Raw lattice data for a catalog kind; o6 is only available this way."""
    if {"boolean": 2 ** min(n, 64), "mo": 2 * n + 2}.get(kind, 0) > MAX_ELEMENTS:
        raise LatticeInputError(f"{kind}({n}) has more than MAX_ELEMENTS = {MAX_ELEMENTS} elements")
    if kind == "boolean":
        return boolean_raw(n)
    if kind == "mo":
        return mo_raw(n)
    if kind == "chain2":
        return boolean_raw(1)
    if kind == "o6":
        return o6_raw()
    raise LatticeInputError(f"unknown catalog kind {kind!r} (expected one of {KINDS})")


def build_catalog(kind: str, n: int = 1) -> OrthomodularLattice:
    """Build and validate a catalog lattice.

    o6 raises NotOrthomodular by design; use raw_structure for its data.
    """
    raw = raw_structure(kind, n)
    return build_lattice(raw["labels"], raw["leq"], raw["ortho"])


# --- shape detection ---------------------------------------------------------
# Both count L.atoms: each x of a finite OML is the join of the atoms below
# it, as a join y < x of them would leave an atom below x∧y⊥ ≠ 0
# (orthomodular law).

def is_boolean_lattice(L: OrthomodularLattice) -> bool:
    """Iff |L| = 2^k for the k atoms of L.

    x ↦ A(x), the set of atoms below x, is one-to-one, as x = ⋁A(x), and
    A(x) ⊆ A(y) iff x ≤ y.  So it is an order isomorphism onto the power
    set of the atoms iff it is onto, that is iff |L| = 2^k.  Then L is a
    distributive lattice, where x⊥, a complement of x, is its only one: L
    is a Boolean algebra.  A Boolean algebra is its atoms' power set.  So
    chain2 (whose one atom is 1) and the one-element lattice are Boolean.
    """
    return len(L) == 1 << len(L.atoms)


def mo_blocks(L: OrthomodularLattice) -> list[tuple[int, int]]:
    """The (atom, complement) blocks of an MO-shaped lattice, by atom id.

    No nontrivial x is compatible with anything beyond 0, 1, x, x⊥ iff every
    nontrivial element is an atom: an atom below a non-atom x is compatible
    with x, and an atom a meets each b ∉ {a, a⊥} and b⊥ in 0.  L holds
    {0, 1} ∪ atoms, so that is |L| = |{0, 1} ∪ atoms|.  Otherwise raises
    LatticeInputError naming the first non-atom and an atom below it; only
    then are the elements walked.
    """
    trivial = {L.zero, L.one, *L.atoms}
    if len(L) != len(trivial):
        x = next(x for x in L.elements if x not in trivial)
        lx, lt = L.label(x), L.label(next(a for a in L.atoms if L.leq(a, x)))
        raise LatticeInputError(f"{lx} is compatible with {lt}: not MO-shaped", witness=(lx, lt))
    return [(a, L.ortho(a)) for a in L.atoms if a < L.ortho(a)]


# --- random generators -------------------------------------------------------

def _unit_fraction(rng: random.Random, open_interval: bool = False) -> Fraction:
    lo, hi = (1, DENOM_BOUND - 1) if open_interval else (0, DENOM_BOUND)
    return Fraction(rng.randint(lo, hi), DENOM_BOUND)


def random_state(L: OrthomodularLattice, seed: int) -> State:
    """A seeded random state; strictly positive on atoms of catalog lattices."""
    return _random_state(L, random.Random(seed))


def _random_state(L: OrthomodularLattice, rng: random.Random) -> State:
    if L.zero == L.one:
        raise LatticeInputError("the one-element lattice has 0 = 1 and admits no state")
    if is_boolean_lattice(L):
        weights = {a: Fraction(rng.randint(1, DENOM_BOUND)) for a in L.atoms}
        total = sum(weights.values())
        values = [
            sum((weights[a] for a in L.atoms if L.leq(a, x)), Fraction(0)) / total
            for x in L.elements
        ]
        return validate_state(L, values)
    values = [Fraction(0)] * len(L)
    values[L.one] = Fraction(1)
    for c, cp in mo_blocks(L):
        values[c] = _unit_fraction(rng, open_interval=True)
        values[cp] = 1 - values[c]
    return validate_state(L, values)


def _random_table(L: OrthomodularLattice, rng: random.Random) -> list[list[Fraction]]:
    """The rows of a random s-map p whose diagonal is a random state m.

    Boolean lattices get the classical p(x, y) = m(x∧y).  On an MO-shaped
    lattice p(., 0) = 0 and p(., 1) = m.  For each block {c, c'}, p(c, c) =
    p(1, c) = m(c); for each atom x of another block, p(x, c) is drawn from
    its Fréchet interval [max(0, m(x) + m(c) − 1), min(m(x), m(c))], and
    p(x', c) = m(c) − p(x, c); then p(., c') = m − p(., c).
    """
    m = _random_state(L, rng)
    if is_boolean_lattice(L):
        return [[m(L.meet(x, y)) for y in L.elements] for x in L.elements]
    rows = [[ZERO] * len(L) for _ in L.elements]
    blocks = mo_blocks(L)
    for x in L.elements:
        rows[x][L.one] = m(x)
    for c, cp in blocks:
        rows[c][c] = rows[L.one][c] = m(c)
        for x, xp in blocks:
            if x != c:
                lo, hi = max(ZERO, m(x) + m(c) - 1), min(m(x), m(c))
                rows[x][c] = lo + _unit_fraction(rng) * (hi - lo)
                rows[xp][c] = m(c) - rows[x][c]
        for x in L.elements:
            rows[x][cp] = m(x) - rows[x][c]
    return rows


def random_conditional_state(L: OrthomodularLattice, seed: int) -> ConditionalState:
    """A seeded random conditional state with conditions L − {0}: the random
    s-map's table conditioned, f(a, b) = p(a, b)/p(b, b), by
    ``smap_to_conditional``, which checks C1–C3."""
    return smap_to_conditional(SMap(L, _random_table(L, random.Random(seed))))


def random_smap(L: OrthomodularLattice, seed: int) -> SMap:
    """A seeded random s-map, checked by ``validate_smap``."""
    return validate_smap(L, _random_table(L, random.Random(seed)))
