"""s-maps (simultaneous-measurement maps) and their conditional-state links.

An s-map p(a, b) gives the probability of measuring a and b together.  On
compatible pairs it collapses to the diagonal at a∧b; on noncompatible pairs
it may be asymmetric, which is where the one-way independence witnessed by
``scan_asymmetric_pairs`` lives.

s1–s3 are checked in one integer kernel, ``_check_scaled_smap``, which takes
only the table as ``states._scaled`` scales it; s3 is one list comparison
per atom split over the rows, then over the columns
(``_first_nonadditive``).  s2 has shown p(0, c) = p(c, 0) = 0 by then, so
that implies s3 on every orthogonal pair (see ``omlprob.lattice``);
``L.orthogonal_pairs`` are walked only after a failure, to name the first
failing pair.  ``validate_smap`` reads each of the caller's entries once
(``rationals._read_entries``) and scales the ratios: a mapping's n² entries
are looked up in one pass, in row-major order, and a dense table is taken
row by row; each such list is read from the slots in one pass if its
entries are all exact ``Fraction``s, and walked entry by entry otherwise,
to the first bad or missing entry;
``conditional_to_smap`` reduces each product f(a, b)·f(b, 1)
once, builds its entry from that ratio (``rationals._fraction``) and
scales the same ratios for the kernel; ``smap_to_conditional`` reads its
s-map once as rows of reduced ratios (``_ratio_rows``, the reader
``scan_asymmetric_pairs`` shares), scales them once, by columns, to
P = D·p, and after C1–C3 builds each f(a, b) = P[b][a]/P[b][b] from the
scaled column the C1–C3 check held, reduced by one gcd.
``files.load_smap`` first parses every literal to an integer ratio; ``_smap_of_ratios`` fills in
the entries s1–s3 force, the one place that rule is stated, then scales and
checks the ratios, and builds the ``Fraction``s only for a table that
passes.  Independence compares a product and scales nothing: both
``is_independent_product`` and ``scan_asymmetric_pairs`` test x = a·b on
reduced ratios (``_is_product``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from math import gcd
from operator import add

from .errors import (
    DomainTooSmall,
    S1Violation,
    S2Violation,
    S3Violation,
    SupportNotConditionalSystem,
    NotAConditionalSystem,
)
from .lattice import OrthomodularLattice
from .rationals import _fraction, _read_entries, _read_keyed, exact_ratios
from .states import (
    ONE,
    ZERO,
    ConditionalState,
    State,
    _check_conditional_state,
    _entries,
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
        _check_total(L, self.table)
        return frozenset(b for b in L.elements if self.table[b][b] != 0)


def validate_smap(L: OrthomodularLattice, table) -> SMap:
    """Check s1–s3 exhaustively and return an SMap.

    ``table`` is a mapping (a, b) -> Fraction or a dense nested sequence.
    The axioms are checked on the table scaled to a common denominator;
    reports and the returned table hold the ``Fraction`` values.
    """
    n = len(L)
    if isinstance(table, Mapping):
        # Row-major, so the first missing entry in that order is the one named.
        try:
            entries, ratios = _read_keyed(table, [(a, b) for a in L.elements for b in L.elements])
        except KeyError as exc:
            raise _missing(L, *exc.args[0]) from exc
        rows = [entries[i:i + n] for i in range(0, n * n, n)]
    else:
        read = list(map(_read_entries, table))
        rows = [row for row, _ in read]
        _check_total(L, rows)
        ratios = [r for _, rs in read for r in rs]
    vals, top = _scaled(ratios)
    _check_scaled_smap(L, [vals[i:i + n] for i in range(0, n * n, n)], top)
    return SMap(L, tuple(map(tuple, rows)))


def _missing(L: OrthomodularLattice, a: int, b: int) -> S1Violation:
    a, b = L.label(a), L.label(b)
    return S1Violation(f"table missing entry p({a}, {b})", witness=(a, b))


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
    _check_scaled_smap(L, [list(map(scaled.__getitem__, row)) for row in cell], top)
    fracs = scaled if top is ONE else [_fraction(n, d) for n, d in ratios]
    return SMap(L, tuple(tuple(map(fracs.__getitem__, row)) for row in cell))


def _first_nonadditive(pairs, T):
    """The first ``((a, b, j), i)`` with T[j][i] ≠ T[a][i] + T[b][i], or None.

    ``pairs`` holds triples (a, b, a∨b) and every T[x] is a list of the same
    length; pairs are visited in order and i ascending, and a pair that holds
    costs one list comparison.
    """
    for pair in pairs:
        a, b, j = pair
        # A list, not a tuple: CPython keeps up to 2000 freed tuples of each
        # short length for reuse, so tuples built per pair would stay allocated.
        s = list(map(add, T[a], T[b]))
        if T[j] != s:
            return pair, next(i for i, x in enumerate(s) if x != T[j][i])
    return None


def _check_scaled_smap(L: OrthomodularLattice, vals, top) -> None:
    """Raise the first s1–s3 failure of the table p, given as ``vals``, the
    rows of top·p as lists (ints, or p's ``Fraction``s with ``top`` = 1 past
    2**MAX_SCALE_BITS); a message shows p(a, b) as vals[a][b]/top."""
    for a, row in enumerate(vals):
        if min(row) < 0 or max(row) > top:
            b = next(b for b, x in enumerate(row) if not 0 <= x <= top)
            raise S1Violation(
                f"p({L.label(a)}, {L.label(b)}) = {Fraction(row[b], top)} outside [0,1]",
                witness=(L.label(a), L.label(b)),
            )
    if vals[L.one][L.one] != top:
        raise S1Violation(
            f"p(1,1) = {Fraction(vals[L.one][L.one], top)} ≠ 1",
            witness=(L.label(L.one), L.label(L.one)),
        )
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
    cols = list(map(list, zip(*vals)))
    # s2 gave p(0, c) = p(c, 0) = 0, so additivity on the atom splits implies
    # it on every orthogonal pair; only after a failure are they all walked.
    if all(_first_nonadditive(L.atom_splits, T) is None for T in (vals, cols)):
        return
    hits = [
        (hit, side)
        for side, T in enumerate((vals, cols))
        if (hit := _first_nonadditive(L.orthogonal_pairs, T)) is not None
    ]
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
    _check_total(p.lattice, p.table)
    diag = [p(b, b) for b in p.lattice.elements]
    exact_ratios(diag, "the s-map table")
    return validate_state(p.lattice, diag)


def _ratio_rows(p: SMap) -> list[list[tuple[int, int]]]:
    """The rows of p's table as reduced ratios, one ``exact_ratios`` call
    per row; a table that is not n×n is refused as ``validate_smap``
    refuses one."""
    t = [exact_ratios(row, "the s-map table") for row in p.table]
    _check_total(p.lattice, t)
    return t


def _check_total(L: OrthomodularLattice, rows) -> None:
    """Refuse a table that is not n×n: ``validate_smap``'s S1 refusal, which
    the readers of a hand-built ``SMap`` share."""
    if len(rows) != len(L) or any(len(row) != len(L) for row in rows):
        raise S1Violation("table is not total")


def smap_to_conditional(p: SMap) -> ConditionalState:
    """Condition the s-map on its support: f_p(a, b) = p(a, b) / p(b, b).

    p is read once (``_ratio_rows``) and scaled once (``_scaled``), by
    columns, so section b is column b of P = D·p over P[b][b]; a column with
    p(b, b) < 0 is negated first, so P[b][b] > 0.  Once C1–C3 hold, each
    f(a, b) is built from that column as P[b][a]/P[b][b], reduced by one
    gcd (``rationals._fraction``), or as 0 or 1; past 2**MAX_SCALE_BITS
    the column holds p's ``Fraction``s and f(a, b) is their quotient.
    """
    L = p.lattice
    # Column b negated where p(b, b) < 0 (only in a hand-built p): _check_state needs D[b] > 0.
    cols = [c if c[b][0] >= 0 else [(-x, d) for x, d in c] for b, c in enumerate(zip(*_ratio_rows(p)))]
    cs = p.support
    try:
        L.check_conditional_system(cs)
    except NotAConditionalSystem as exc:
        raise SupportNotConditionalSystem(
            f"support of the s-map is not a conditional system: {exc}",
            witness=exc.witness,
        ) from exc
    n = len(L)
    P, top = _scaled([r for col in cols for r in col])
    R = {b: P[b * n:b * n + n] for b in cs}
    _check_conditional_state(L, cs, R, {b: R[b][b] for b in cs})
    table = {}
    for b in cs:
        col = R[b]
        d = col[b]
        for a, x in enumerate(col):
            if not x:
                table[a, b] = ZERO
            elif x == d:
                table[a, b] = ONE
            elif top is ONE:  # past 2**MAX_SCALE_BITS: P holds p's Fractions
                table[a, b] = x / d
            else:
                g = gcd(x, d)
                table[a, b] = _fraction(x // g, d // g)
    return ConditionalState(L, cs, table)


def _section(f: ConditionalState, b: int) -> list:
    """The entries f(., b) by element (``states._entries``)."""
    return _entries(f, [(a, b) for a in f.lattice.elements])


def conditional_to_smap(f: ConditionalState) -> SMap:
    """Build p_f(a, b) = f(a, b)·f(b, 1) on the support, 0 elsewhere.

    Requires 1 among the conditions and every element of nonzero marginal
    f(., 1) to be a condition; otherwise the product is undefined.
    """
    L = f.lattice
    if L.one not in f.conditions:
        raise DomainTooSmall("1 is not a condition", witness=(L.label(L.one),))
    marginal = _section(f, L.one)
    missing = [b for b, m in zip(L.elements, marginal) if m != 0 and b not in f.conditions]
    if missing:
        raise DomainTooSmall(
            "conditions missing for nonzero-marginal elements "
            f"{[L.label(b) for b in missing]}",
            witness=tuple(L.label(b) for b in missing),
        )
    n = len(L)
    rows = [[ZERO] * n for _ in L.elements]
    ratios = [(0, 1)] * (n * n)  # p's reduced ratios, row-major
    for b, m in zip(L.elements, marginal):
        if m != 0:
            mr, *fcol = exact_ratios([m, *_section(f, b)], f"f(., {L.label(b)})")
            mf = _fraction(*mr)  # p(a, b) where f(a, b) = 1
            for a, (x, d) in enumerate(fcol):
                if x == d:
                    rows[a][b], ratios[a * n + b] = mf, mr
                elif x:
                    x, d = x * mr[0], d * mr[1]
                    g = gcd(x, d)
                    ratios[a * n + b] = r = x // g, d // g
                    rows[a][b] = _fraction(*r)
    vals, top = _scaled(ratios)
    _check_scaled_smap(L, [vals[i:i + n] for i in range(0, n * n, n)], top)
    return SMap(L, tuple(map(tuple, rows)))


def _is_product(x, a, b) -> bool:
    """x = a·b for reduced ratios (n, d): n·d_a·d_b = n_a·n_b·d."""
    (n, d), (na, da), (nb, db) = x, a, b
    return n * da * db == na * nb * d


def is_independent_product(p: SMap, b: int, a: int) -> bool:
    """b is independent of a under p iff p(b, a) = p(a, a)·p(b, b)."""
    _check_total(p.lattice, p.table)
    return _is_product(*exact_ratios((p(b, a), p(a, a), p(b, b)), "the s-map table"))


def scan_asymmetric_pairs(p: SMap) -> list[tuple[int, int]]:
    """Ordered pairs (a, b) independent one way but not the other, by id.

    Each row is read once into reduced ratios, and each unordered pair is
    visited once.  Both directions compare with the same product
    p(a, a)·p(b, b), so a pair with p(a, b) = p(b, a) (every compatible
    pair) cannot be asymmetric and needs no product; otherwise each
    direction is ``is_independent_product``'s test, ``_is_product``.
    """
    t = _ratio_rows(p)
    out = []
    for a, row in enumerate(t):
        for b in range(a + 1, len(t)):
            ab, ba = row[b], t[b][a]
            if ab != ba:
                if _is_product(ab, row[a], t[b][b]):
                    out.append((a, b))
                elif _is_product(ba, row[a], t[b][b]):
                    out.append((b, a))
    out.sort()
    return out
