"""Built-in lattices and seeded random generators for the property suites.

Kinds:
  boolean(n) — power set of n atoms;
  mo(n)      — horizontal sum of n four-element Boolean blocks (2n+2 elements);
  chain2     — the two-element chain (alias for boolean(1));
  o6         — the hexagon; deliberately fails the orthomodular law, so only
               its raw structure is exposed for negative tests.

Generators are deterministic in (lattice, seed) and emit exact rationals with
bounded denominators.  Every generated conditional state is validated; C3 is
checked on orthogonal pairs of conditions, in O(|cs|²·|L|) time, so lattices
well beyond the eight-element ones (mo(12), boolean(6)) are in reach.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction
from itertools import combinations

from .errors import LatticeInputError
from .lattice import MAX_ELEMENTS, OrthomodularLattice, build_lattice
from .smap import SMap, conditional_to_smap
from .states import ConditionalState, State, validate_conditional_state, validate_state

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
# Both read L.atoms: each x of a finite OML is the join y of the atoms below
# it, as y < x would leave an atom below x∧y⊥ ≠ 0 (orthomodular law).

def is_boolean_lattice(L: OrthomodularLattice) -> bool:
    """Iff the atoms are pairwise orthogonal: atoms of a Boolean algebra are
    disjoint, and an orthogonal family generates a Boolean subalgebra."""
    return all(L.is_orthogonal(a, b) for a, b in combinations(L.atoms, 2))


def mo_blocks(L: OrthomodularLattice) -> list[tuple[int, int]]:
    """The (atom, complement) blocks of an MO-shaped lattice, by atom id.

    No nontrivial x is compatible with anything beyond 0, 1, x, x⊥ iff every
    nontrivial element is an atom: an atom below a non-atom x is compatible
    with x, and an atom a meets each b ∉ {a, a⊥} and b⊥ in 0.  Otherwise
    raises LatticeInputError naming the first non-atom and an atom below it.
    """
    atoms = set(L.atoms)
    for x in L.elements:
        if x not in atoms and x not in (L.zero, L.one):
            lx, lt = L.label(x), L.label(next(a for a in L.atoms if L.leq(a, x)))
            raise LatticeInputError(
                f"{lx} is compatible with {lt}: not MO-shaped", witness=(lx, lt)
            )
    return [(a, L.ortho(a)) for a in L.atoms if a < L.ortho(a)]


# --- random generators -------------------------------------------------------

def _unit_fraction(rng: random.Random, open_interval: bool = False) -> Fraction:
    lo, hi = (1, DENOM_BOUND - 1) if open_interval else (0, DENOM_BOUND)
    return Fraction(rng.randint(lo, hi), DENOM_BOUND)


def _between(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + _unit_fraction(rng) * (hi - lo)


def _blocks(L: OrthomodularLattice) -> list[tuple[int, int]] | None:
    """None on a Boolean lattice, else its MO blocks."""
    return None if is_boolean_lattice(L) else mo_blocks(L)


def random_state(L: OrthomodularLattice, seed: int) -> State:
    """A seeded random state; strictly positive on atoms of catalog lattices."""
    return _random_state(L, random.Random(seed), _blocks(L))


def _random_state(L: OrthomodularLattice, rng: random.Random, blocks) -> State:
    if blocks is None:
        weights = {a: Fraction(rng.randint(1, DENOM_BOUND)) for a in L.atoms}
        total = sum(weights.values())
        values = [
            sum((weights[a] for a in L.atoms if L.leq(a, x)), Fraction(0)) / total
            for x in L.elements
        ]
        return validate_state(L, values)
    values = [Fraction(0)] * len(L)
    values[L.one] = Fraction(1)
    for c, cp in blocks:
        values[c] = _unit_fraction(rng, open_interval=True)
        values[cp] = 1 - values[c]
    return validate_state(L, values)


def random_conditional_state(L: OrthomodularLattice, seed: int) -> ConditionalState:
    """A seeded random conditional state with conditions L − {0}.

    Boolean lattices get the classical f(x, y) = m(x∧y)/m(y) for a random
    strictly positive state m.  MO-shaped lattices get per-block random
    sections anchored to a shared marginal f(., 1), which keeps the mixing
    law consistent across blocks.
    """
    rng = random.Random(seed)
    cs = frozenset(x for x in L.elements if x != L.zero)
    blocks = _blocks(L)
    m = _random_state(L, rng, blocks)
    if blocks is None:
        tab = {
            (x, y): m(L.meet(x, y)) / m(y)
            for y in cs
            for x in L.elements
        }
        return validate_conditional_state(L, cs, tab)

    tab: dict[tuple[int, int], Fraction] = {}
    for x in L.elements:
        tab[(x, L.one)] = m(x)
    for c, cp in blocks:
        k = m(c)  # weight of this block's atom in the marginal; in (0, 1)
        sec_c = {L.zero: Fraction(0), L.one: Fraction(1), c: Fraction(1), cp: Fraction(0)}
        for x, xp in blocks:
            if x == c:
                continue
            lo = max(Fraction(0), (m(x) - (1 - k)) / k)
            hi = min(Fraction(1), m(x) / k)
            sec_c[x] = _between(rng, lo, hi)
            sec_c[xp] = 1 - sec_c[x]
        for x in L.elements:
            tab[(x, c)] = sec_c[x]
            tab[(x, cp)] = (m(x) - k * sec_c[x]) / (1 - k)
    return validate_conditional_state(L, cs, tab)


def random_smap(L: OrthomodularLattice, seed: int) -> SMap:
    """A seeded random s-map, obtained from a random conditional state."""
    return conditional_to_smap(random_conditional_state(L, seed))
