"""s-maps (simultaneous-measurement maps) and their conditional-state links.

An s-map p(a, b) gives the probability of measuring a and b together.  On
compatible pairs it collapses to the diagonal at a∧b; on noncompatible pairs
it may be asymmetric, which is where the one-way independence witnessed by
``scan_asymmetric_pairs`` lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, itemgetter
from typing import Mapping

from .errors import (
    DomainTooSmall,
    S1Violation,
    S2Violation,
    S3Violation,
    SupportNotConditionalSystem,
    NotAConditionalSystem,
)
from .lattice import OrthomodularLattice
from .states import ConditionalState, State, validate_conditional_state, validate_state

ZERO = Fraction(0)
ONE = Fraction(1)

# Bound on the common denominator s1–s3 are checked over (see
# _scale_to_integers).  Catalog and benchmark tables need 20 bits or fewer.
MAX_SCALE_BITS = 1024


@dataclass(frozen=True)
class SMap:
    """A validated two-argument measurement probability table."""

    lattice: OrthomodularLattice
    table: tuple[tuple[Fraction, ...], ...]

    def __call__(self, a: int, b: int) -> Fraction:
        return self.table[a][b]

    @property
    def support(self) -> frozenset[int]:
        """Elements with nonzero diagonal; the conditional-state domain."""
        L = self.lattice
        return frozenset(b for b in L.elements if self.table[b][b] != 0)


def _fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _scale_to_integers(rows):
    """``(vals, top)``: the table times the lcm D of its denominators, as
    lists of rows, and D.

    s1–s3 hold for ``rows`` iff they hold for ``vals`` with ``top`` in place
    of 1.  If D reaches 2**MAX_SCALE_BITS, returns ``rows`` itself (as lists)
    and ``ONE`` instead, so no table makes the scaled entries grow without
    bound.
    """
    dens = {x.denominator for row in rows for x in row}
    D = 1
    for d in dens:
        D = lcm(D, d)
        if D.bit_length() > MAX_SCALE_BITS:
            return [list(row) for row in rows], ONE
    scale = {d: D // d for d in dens}
    return [[x.numerator * scale[x.denominator] for x in row] for row in rows], D


def validate_smap(L: OrthomodularLattice, table) -> SMap:
    """Check s1–s3 exhaustively and return an SMap.

    ``table`` is a mapping (a, b) -> Fraction or a dense nested sequence.
    The axioms are checked on the table scaled to a common denominator;
    reports and the returned table hold the ``Fraction`` values.
    """
    n = len(L)
    if isinstance(table, Mapping):
        try:
            rows = tuple(
                tuple(_fraction(table[(a, b)]) for b in L.elements) for a in L.elements
            )
        except KeyError as exc:
            a, b = (L.label(x) for x in exc.args[0])
            raise S1Violation(f"table missing entry p({a}, {b})", witness=(a, b)) from exc
    else:
        rows = tuple(tuple(_fraction(v) for v in row) for row in table)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise S1Violation("table is not total")
    vals, top = _scale_to_integers(rows)
    for a, row in enumerate(vals):
        if min(row) < 0 or max(row) > top:
            b = next(b for b, x in enumerate(row) if not 0 <= x <= top)
            raise S1Violation(
                f"p({L.label(a)}, {L.label(b)}) = {rows[a][b]} outside [0,1]",
                witness=(L.label(a), L.label(b)),
            )
    if vals[L.one][L.one] != top:
        raise S1Violation(f"p(1,1) = {rows[L.one][L.one]} ≠ 1")
    for a in L.elements:
        row = vals[a]
        for b in L.elements:
            if L.is_orthogonal(a, b) and row[b] != 0:
                raise S2Violation(
                    f"p({L.label(a)}, {L.label(b)}) ≠ 0 on an orthogonal pair",
                    witness=(L.label(a), L.label(b)),
                )
    # Lists, not tuples: CPython keeps up to 2000 freed tuples of each short
    # length for reuse, so n-tuples built per pair would stay allocated.
    cols = [list(map(itemgetter(c), vals)) for c in L.elements]
    for a, b, j in L.orthogonal_pairs:
        if vals[j] == list(map(add, vals[a], vals[b])) and cols[j] == list(
            map(add, cols[a], cols[b])
        ):
            continue
        for c in L.elements:  # find the first failing c, rows before columns
            if vals[j][c] != vals[a][c] + vals[b][c]:
                raise S3Violation(
                    f"p({L.label(j)}, {L.label(c)}) ≠ "
                    f"p({L.label(a)}, {L.label(c)}) + p({L.label(b)}, {L.label(c)})",
                    witness=(L.label(c), (L.label(a), L.label(b)), "first"),
                )
            if vals[c][j] != vals[c][a] + vals[c][b]:
                raise S3Violation(
                    f"p({L.label(c)}, {L.label(j)}) ≠ "
                    f"p({L.label(c)}, {L.label(a)}) + p({L.label(c)}, {L.label(b)})",
                    witness=(L.label(c), (L.label(a), L.label(b)), "second"),
                )
    return SMap(L, rows)


def complete_smap_table(L: OrthomodularLattice, partial: Mapping[tuple[int, int], Fraction]):
    """Fill the rows/columns for 0 and 1 that s1–s3 force, where missing.

    p(x,0) = p(0,x) = 0 and p(x,1) = p(1,x) = p(x,x); everything else must be
    supplied, and a missing diagonal entry p(x,x) raises S1Violation.
    Returns a full (a, b) -> Fraction mapping.
    """
    table = dict(partial)
    diag = {}
    for x in L.elements:
        if x == L.zero:
            diag[x] = ZERO
        elif x == L.one:
            diag[x] = ONE
        elif (x, x) in table:
            diag[x] = Fraction(table[(x, x)])
        else:
            raise S1Violation(
                f"table missing entry p({L.label(x)}, {L.label(x)})",
                witness=(L.label(x), L.label(x)),
            )
    for x in L.elements:
        table.setdefault((x, L.zero), ZERO)
        table.setdefault((L.zero, x), ZERO)
        table.setdefault((x, L.one), diag[x])
        table.setdefault((L.one, x), diag[x])
    return table


def nu_state(p: SMap) -> State:
    """The diagonal state ν(b) = p(b, b)."""
    return validate_state(p.lattice, [p(b, b) for b in p.lattice.elements])


def smap_to_conditional(p: SMap) -> ConditionalState:
    """Condition the s-map on its support: f_p(a, b) = p(a, b) / p(b, b)."""
    L = p.lattice
    cs = p.support
    tab = {(a, b): p(a, b) / p(b, b) for b in cs for a in L.elements}
    try:
        return validate_conditional_state(L, cs, tab)
    except NotAConditionalSystem as exc:
        raise SupportNotConditionalSystem(
            f"support of the s-map is not a conditional system: {exc}",
            witness=exc.witness,
        ) from exc


def conditional_to_smap(f: ConditionalState) -> SMap:
    """Build p_f(a, b) = f(a, b)·f(b, 1) on the support, 0 elsewhere.

    Requires 1 among the conditions and every element of nonzero marginal
    f(., 1) to be a condition; otherwise the product is undefined.
    """
    L = f.lattice
    if L.one not in f.conditions:
        raise DomainTooSmall("1 is not a condition", witness=(L.label(L.one),))
    marginal = f.state_given(L.one)
    support = [b for b in L.elements if marginal(b) != 0]
    missing = [b for b in support if b not in f.conditions]
    if missing:
        raise DomainTooSmall(
            "conditions missing for nonzero-marginal elements "
            f"{[L.label(b) for b in missing]}",
            witness=tuple(L.label(b) for b in missing),
        )
    rows = [
        [
            f(a, b) * marginal(b) if marginal(b) != 0 else ZERO
            for b in L.elements
        ]
        for a in L.elements
    ]
    return validate_smap(L, rows)


def is_independent_product(p: SMap, b: int, a: int) -> bool:
    """b is independent of a under p iff p(b, a) = p(a, a)·p(b, b)."""
    return p(b, a) == p(a, a) * p(b, b)


def scan_asymmetric_pairs(p: SMap) -> list[tuple[int, int]]:
    """Ordered pairs (a, b) independent one way but not the other, by id."""
    L = p.lattice
    out = []
    for a in L.elements:
        for b in L.elements:
            if a != b:
                if is_independent_product(p, a, b) and not is_independent_product(p, b, a):
                    out.append((a, b))
    return out
