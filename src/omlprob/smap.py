"""s-maps (simultaneous-measurement maps) and their conditional-state links.

An s-map p(a, b) gives the probability of measuring a and b together.  On
compatible pairs it collapses to the diagonal at a∧b; on noncompatible pairs
it may be asymmetric, which is where the one-way independence witnessed by
``scan_asymmetric_pairs`` lives.

s1–s3 are checked in one integer kernel, ``_check_scaled_smap``, on the
table as ``states._scaled`` scales it.  ``validate_smap`` and the
conversions reach it through ``_check_smap``, which scales a table of
``Fraction``s.  ``files.load_smap`` first parses every literal to an integer
ratio; ``_smap_of_ratios`` fills in the entries s1–s3 force, the one place
that rule is stated, then scales and checks the ratios, and builds the
``Fraction``s only for a table that passes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from operator import itemgetter

from .errors import (
    DomainTooSmall,
    S1Violation,
    S2Violation,
    S3Violation,
    SupportNotConditionalSystem,
    NotAConditionalSystem,
)
from .lattice import OrthomodularLattice
from .rationals import exact_ratios, parse_rational
from .states import (
    ONE,
    ZERO,
    ConditionalState,
    State,
    _check_conditional_state,
    _first_nonadditive,
    _scale_to_integers,
    _scaled,
    validate_state,
)


class SMap(namedtuple("SMap", "lattice table")):
    """A validated two-argument measurement probability table."""

    __slots__ = ()

    def __call__(self, a: int, b: int) -> Fraction:
        return self.table[a][b]

    @property
    def support(self) -> frozenset[int]:
        """Elements with nonzero diagonal; the conditional-state domain."""
        L = self.lattice
        return frozenset(b for b in L.elements if self.table[b][b] != 0)


def validate_smap(L: OrthomodularLattice, table) -> SMap:
    """Check s1–s3 exhaustively and return an SMap.

    ``table`` is a mapping (a, b) -> Fraction or a dense nested sequence.
    The axioms are checked on the table scaled to a common denominator;
    reports and the returned table hold the ``Fraction`` values.
    """
    if isinstance(table, Mapping):
        # Row-major, so the first missing entry in that order is the one named.
        try:
            keyed = (map(table.__getitem__, [(a, b) for b in L.elements]) for a in L.elements)
            rows = tuple(tuple(map(parse_rational, row)) for row in keyed)
        except KeyError as exc:
            raise _missing(L, *exc.args[0]) from exc
    else:
        rows = tuple(tuple(map(parse_rational, row)) for row in table)
        if len(rows) != len(L) or any(len(r) != len(L) for r in rows):
            raise S1Violation("table is not total")
    return _check_smap(L, rows)


def _missing(L: OrthomodularLattice, a: int, b: int) -> S1Violation:
    a, b = L.label(a), L.label(b)
    return S1Violation(f"table missing entry p({a}, {b})", witness=(a, b))


def _check_smap(L: OrthomodularLattice, rows) -> SMap:
    """s1–s3 for ``rows``, a total tuple of rows of ``Fraction``s."""
    vals, top = _scale_to_integers(rows)
    _check_scaled_smap(L, vals, top, lambda a, b: rows[a][b])
    return SMap(L, rows)


def _smap_of_ratios(L: OrthomodularLattice, cell, ratios) -> SMap:
    """The SMap of ``cell``, an n×n list of rows of indices into ``ratios``
    (reduced (n, d) pairs), with None for an entry not given.

    Where not given, the entries s1–s3 force are filled in: p(x, 0) =
    p(0, x) = 0 and p(x, 1) = p(1, x) = p(x, x).  Every other entry must be
    given; the first missing diagonal entry by element, then the first
    missing entry in row-major order, raises S1Violation.  s1–s3 are checked
    on the ratios as ``_scaled`` gives them; the SMap gets one ``Fraction``
    per ratio, the ones ``_scaled`` builds past 2**MAX_SCALE_BITS.
    """
    zero, one = len(ratios), len(ratios) + 1
    ratios = [*ratios, (0, 1), (1, 1)]
    diag = [row[x] for x, row in enumerate(cell)]
    diag[L.zero], diag[L.one] = zero, one
    if None in diag:
        x = diag.index(None)
        raise _missing(L, x, x)
    for x in L.elements:
        forced = ((x, L.zero, zero), (L.zero, x, zero), (x, L.one, diag[x]), (L.one, x, diag[x]))
        for a, b, i in forced:
            if cell[a][b] is None:
                cell[a][b] = i
    for a, row in enumerate(cell):
        if None in row:
            raise _missing(L, a, row.index(None))
    scaled, top = _scaled(ratios)
    _check_scaled_smap(L, [list(map(scaled.__getitem__, row)) for row in cell], top,
                       lambda a, b: Fraction(*ratios[cell[a][b]]))
    fracs = scaled if top is ONE else [Fraction(n, d) for n, d in ratios]
    return SMap(L, tuple(tuple(map(fracs.__getitem__, row)) for row in cell))


def _check_scaled_smap(L: OrthomodularLattice, vals, top, value) -> None:
    """Raise the first s1–s3 failure of the table p, given as ``vals``, the
    rows of top·p as lists (ints, or p's ``Fraction``s with ``top`` = 1 past
    2**MAX_SCALE_BITS); ``value(a, b)`` is p(a, b), for an S1 message."""
    for a, row in enumerate(vals):
        if min(row) < 0 or max(row) > top:
            b = next(b for b, x in enumerate(row) if not 0 <= x <= top)
            raise S1Violation(
                f"p({L.label(a)}, {L.label(b)}) = {value(a, b)} outside [0,1]",
                witness=(L.label(a), L.label(b)),
            )
    if vals[L.one][L.one] != top:
        raise S1Violation(f"p(1,1) = {value(L.one, L.one)} ≠ 1")
    # s2 on both orders of every ⊥ pair and on 0 ⊥ 0; the least (a, b) is
    # the first failure an entry-by-entry walk of the rows meets.
    nonzero = [(x, y) for a, b, _ in L.orthogonal_pairs for x, y in ((a, b), (b, a)) if vals[x][y]]
    if vals[L.zero][L.zero]:
        nonzero.append((L.zero, L.zero))
    if nonzero:
        a, b = min(nonzero)
        raise S2Violation(
            f"p({L.label(a)}, {L.label(b)}) ≠ 0 on an orthogonal pair",
            witness=(L.label(a), L.label(b)),
        )
    cols = [list(map(itemgetter(c), vals)) for c in L.elements]
    hits = [
        (hit, side)
        for side, T in enumerate((vals, cols))
        if (hit := _first_nonadditive(L.orthogonal_pairs, T)) is not None
    ]
    if hits:
        # The first failing pair (pairs are in lexicographic order), then the
        # first c, a row before a column at the same c.
        ((a, b, j), c), side = min(hits)

        def entry(x):  # p(x, c) in a row, p(c, x) in a column
            x, y = (x, c) if side == 0 else (c, x)
            return f"p({L.label(x)}, {L.label(y)})"

        raise S3Violation(
            f"{entry(j)} ≠ {entry(a)} + {entry(b)}",
            witness=(L.label(c), (L.label(a), L.label(b)), ("first", "second")[side]),
        )


def nu_state(p: SMap) -> State:
    """The diagonal state ν(b) = p(b, b)."""
    return validate_state(p.lattice, [p(b, b) for b in p.lattice.elements])


def smap_to_conditional(p: SMap) -> ConditionalState:
    """Condition the s-map on its support: f_p(a, b) = p(a, b) / p(b, b), so
    section b is column b of P = D·p (``_scale_to_integers``) over P[b][b]."""
    L = p.lattice
    cs = p.support
    try:
        L.check_conditional_system(cs)
    except NotAConditionalSystem as exc:
        raise SupportNotConditionalSystem(
            f"support of the s-map is not a conditional system: {exc}",
            witness=exc.witness,
        ) from exc
    P, _ = _scale_to_integers(p.table)
    sections, R, D = {}, {}, {}
    for b in cs:
        col = [row[b] for row in P]
        if col[b] < 0:  # only in a hand-built p; _check_state needs D[b] > 0
            col = [-x for x in col]
        R[b], D[b] = col, col[b]
        sections[b] = [Fraction(x, D[b]) for x in col]
    return _check_conditional_state(L, cs, sections, R, D)


def conditional_to_smap(f: ConditionalState) -> SMap:
    """Build p_f(a, b) = f(a, b)·f(b, 1) on the support, 0 elsewhere.

    Requires 1 among the conditions and every element of nonzero marginal
    f(., 1) to be a condition; otherwise the product is undefined.
    """
    L = f.lattice
    if L.one not in f.conditions:
        raise DomainTooSmall("1 is not a condition", witness=(L.label(L.one),))
    tab = f.table
    marginal = [tab[(b, L.one)] for b in L.elements]
    missing = [b for b, m in zip(L.elements, marginal) if m != 0 and b not in f.conditions]
    if missing:
        raise DomainTooSmall(
            "conditions missing for nonzero-marginal elements "
            f"{[L.label(b) for b in missing]}",
            witness=tuple(L.label(b) for b in missing),
        )
    rows = [[ZERO] * len(L) for _ in L.elements]
    for b, m in zip(L.elements, marginal):
        if m != 0:
            col = [m] + [tab[(a, b)] for a in L.elements]
            (mn, md), *ratios = exact_ratios(col, f"f(., {L.label(b)})")
            for row, (n, d) in zip(rows, ratios):
                row[b] = Fraction(n * mn, d * md)
    return _check_smap(L, tuple(map(tuple, rows)))


def is_independent_product(p: SMap, b: int, a: int) -> bool:
    """b is independent of a under p iff p(b, a) = p(a, a)·p(b, b)."""
    (n, d), (na, da), (nb, db) = exact_ratios((p(b, a), p(a, a), p(b, b)), "the s-map table")
    return n * da * db == na * nb * d


def scan_asymmetric_pairs(p: SMap) -> list[tuple[int, int]]:
    """Ordered pairs (a, b) independent one way but not the other, by id.

    Each unordered pair is visited once.  Both directions compare with the
    same product p(a, a)·p(b, b), so a pair with p(a, b) = p(b, a) (every
    compatible pair) cannot be asymmetric and needs no product.  The test runs
    on P = D·p from ``_scale_to_integers``: P[a][b]·D = P[a][a]·P[b][b].
    """
    t, D = _scale_to_integers(p.table)
    out = []
    for a, row in enumerate(t):
        for b in range(a + 1, len(t)):
            ab, ba = row[b], t[b][a]
            if ab != ba:
                prod = row[a] * t[b][b]
                if ab * D == prod:
                    out.append((a, b))
                elif ba * D == prod:
                    out.append((b, a))
    out.sort()
    return out
