"""Seeded benchmark inputs: lattices, exact tables, perturbations, observables.

Every table is built from its closed form rather than through
``catalog.random_conditional_state``: that generator ends with a full C3
check, which enumerates every subset of the conditional system and so cannot
finish on boolean(5+) or mo(10+).

- boolean(n): f(x, y) = m(x∧y) / m(y) for a random strictly positive state m,
  and the s-map p(a, b) = m(a∧b).
- mo(n): the catalog's block construction: a shared marginal f(., 1) = m and,
  for each block {c, c'}, a random section at c and the section at c' that
  the mixing law C3 then forces.

Each perturbation changes a valid table so that the exception the validators
must raise is known by construction (see the ``perturb_*`` docstrings).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from omlprob import catalog, observables

DENOM = 1000
ZERO = Fraction(0)
ONE = Fraction(1)


class Spec(NamedTuple):
    kind: str  # "boolean" or "mo"
    n: int

    @property
    def name(self) -> str:
        return f"b{self.n}" if self.kind == "boolean" else f"mo{self.n}"


def build(spec: Spec):
    return catalog.build_catalog(spec.kind, spec.n)


def _unit(rng: random.Random, lo: int = 0, hi: int = DENOM) -> Fraction:
    return Fraction(rng.randint(lo, hi), DENOM)


def _other_unit(rng: random.Random, old: Fraction) -> Fraction:
    """A value in [0, 1] on the DENOM grid that differs from old."""
    while True:
        v = _unit(rng)
        if v != old:
            return v


def atoms(L) -> list[int]:
    return [
        a
        for a in L.elements
        if a != L.zero and not any(b not in (L.zero, a) and L.leq(b, a) for b in L.elements)
    ]


def _measure_from_weights(L, weights: dict[int, Fraction]) -> list[Fraction]:
    total = sum(weights.values())
    return [
        sum((w for a, w in weights.items() if L.leq(a, x)), ZERO) / total for x in L.elements
    ]


def random_measure(spec: Spec, L, rng: random.Random) -> list[Fraction]:
    """A state, strictly positive on every nonzero element."""
    if spec.kind == "boolean":
        return _measure_from_weights(L, {a: Fraction(rng.randint(1, DENOM)) for a in atoms(L)})
    m = [ZERO] * len(L)
    m[L.one] = ONE
    for c, cp in catalog.mo_blocks(L):
        m[c] = _unit(rng, 1, DENOM - 1)
        m[cp] = ONE - m[c]
    return m


def conditional_table(spec: Spec, L, m: list[Fraction], rng: random.Random):
    """(conditions, table) of a valid conditional state with marginal m."""
    cs = frozenset(x for x in L.elements if x != L.zero)
    if spec.kind == "boolean":
        tab = {(x, y): m[L.meet(x, y)] / m[y] for y in cs for x in L.elements}
        return cs, tab
    blocks = catalog.mo_blocks(L)
    tab = {(x, L.one): m[x] for x in L.elements}
    for c, cp in blocks:
        k = m[c]
        sec = {L.zero: ZERO, L.one: ONE, c: ONE, cp: ZERO}
        for x, xp in blocks:
            if x == c:
                continue
            lo = max(ZERO, (m[x] - (1 - k)) / k)
            hi = min(ONE, m[x] / k)
            sec[x] = lo + _unit(rng) * (hi - lo)
            sec[xp] = 1 - sec[x]
        for x in L.elements:
            tab[(x, c)] = sec[x]
            tab[(x, cp)] = (m[x] - k * sec[x]) / (1 - k)
    return cs, tab


def smap_rows(L, tab) -> list[list[Fraction]]:
    """p(a, b) = f(a, b)·f(b, 1); every nonzero element is a condition."""
    return [
        [tab[(a, b)] * tab[(b, L.one)] if b != L.zero else ZERO for b in L.elements]
        for a in L.elements
    ]


def perturb_c1(L, cs, tab, rng: random.Random) -> dict:
    """Change one entry f(b, a) with b ∉ {0, 1}.

    Then f(b, a) + f(b⊥, a) ≠ f(1, a), so the section at a is not additive
    and the validator raises C1Violation (C1 is checked before C2 and C3).
    """
    a = rng.choice(sorted(cs))
    b = rng.choice([x for x in L.elements if x not in (L.zero, L.one)])
    out = dict(tab)
    out[(b, a)] = _other_unit(rng, tab[(b, a)])
    return out


def perturb_c3(spec: Spec, L, cs, tab, rng: random.Random) -> dict | None:
    """Replace the section at a condition a ∉ {0, 1} by another state α with
    α(a) = 1.

    C1 and C2 still hold, but the mixing law on the orthogonal pair {a, a⊥}
    now reads f(b, 1) = f(a, 1)·α(b) + f(a⊥, 1)·f(b, a⊥) with f(a, 1) > 0, so
    it fails wherever α differs from the old section: C3Violation.

    On a Boolean lattice the state concentrated on a is unique when a is an
    atom, so a needs two atoms below it; boolean(2) has no such a and gets
    None.
    """
    if spec.kind == "mo":
        blocks = catalog.mo_blocks(L)
        c, cp = rng.choice(blocks)
        a, ap = (c, cp) if rng.random() < 0.5 else (cp, c)
        while True:
            alpha = {L.zero: ZERO, L.one: ONE, a: ONE, ap: ZERO}
            for x, xp in blocks:
                if x not in (a, ap):
                    alpha[x] = _unit(rng)
                    alpha[xp] = ONE - alpha[x]
            if any(alpha[x] != tab[(x, a)] for x in L.elements):
                break
    else:
        at = atoms(L)
        candidates = [
            a
            for a in L.elements
            if a != L.one and sum(1 for t in at if L.leq(t, a)) >= 2
        ]
        if not candidates:
            return None
        a = rng.choice(candidates)
        below = [t for t in at if L.leq(t, a)]
        while True:
            alpha_list = _measure_from_weights(
                L, {t: Fraction(rng.randint(1, DENOM)) for t in below}
            )
            alpha = dict(enumerate(alpha_list))
            if any(alpha[x] != tab[(x, a)] for x in L.elements):
                break
    out = dict(tab)
    for x in L.elements:
        out[(x, a)] = alpha[x]
    return out


def perturb_s2(L, rows, rng: random.Random):
    """Make p(a, b) nonzero on an orthogonal pair of nonzero elements.

    Every entry stays in [0, 1] and p(1, 1) is untouched, so s1 holds and
    the validator raises S2Violation.
    """
    pairs = [
        (a, b)
        for a in L.elements
        for b in L.elements
        if L.zero not in (a, b) and a != b and L.is_orthogonal(a, b)
    ]
    a, b = rng.choice(pairs)
    out = [list(r) for r in rows]
    out[a][b] = _unit(rng, 1, DENOM)
    return out


def perturb_s3(L, rows, rng: random.Random):
    """Change p(a, c) on a non-orthogonal pair with a ∉ {0, 1}.

    s1 and s2 still hold, but p(1, c) = p(a, c) + p(a⊥, c) now fails:
    S3Violation.
    """
    a = rng.choice([x for x in L.elements if x not in (L.zero, L.one)])
    c = rng.choice([x for x in L.elements if not L.is_orthogonal(a, x)])
    out = [list(r) for r in rows]
    out[a][c] = _other_unit(rng, rows[a][c])
    return out


def observable(spec: Spec, L, rng: random.Random, avoid=()):
    """A seeded two- or three-valued observable.

    On mo(n) its events are one block {c, c'} whose atoms are not in
    ``avoid``; passing another observable's events there makes the two
    noncompatible.  On boolean(n) they are the joins of a random partition
    of the atoms.
    """
    if spec.kind == "mo":
        blocks = [blk for blk in catalog.mo_blocks(L) if blk[0] not in avoid]
        events = list(rng.choice(blocks))
    else:
        at = atoms(L)
        rng.shuffle(at)
        parts = min(len(at), rng.choice((2, 3)))
        cuts = sorted(rng.sample(range(1, len(at)), parts - 1))
        groups = [at[i:j] for i, j in zip([0] + cuts, cuts + [len(at)])]
        events = [L.join_all(g) for g in groups]
    values = rng.sample(range(-9, 10), len(events))
    return observables.make_observable(L, [(Fraction(v, 2), e) for v, e in zip(values, events)])


def asymmetric_pairs(L, rows) -> list[tuple[int, int]]:
    """The benchmark's own recomputation of the one-way independent pairs."""

    def indep(b, a):
        return rows[b][a] == rows[a][a] * rows[b][b]

    return [
        (a, b)
        for a in L.elements
        for b in L.elements
        if a != b and indep(a, b) and not indep(b, a)
    ]
