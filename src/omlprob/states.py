"""States, conditional states and the independence relation on an OML.

All probabilities are exact ``Fraction`` values; independence and the mixing
law C3 are equality statements, so nothing here tolerates floating point.
The axioms of states, conditional states and s-maps are checked on tables
scaled to integers by the lcm of their denominators (``_scaled``, on ratios
from ``rationals.exact_ratios``); reports and returned objects hold the
``Fraction`` values.  A caller's numbers pass ``rationals.parse_rational``
and its size bound.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from operator import add, itemgetter

from .errors import (
    AlphaNotConcentrated,
    C1Violation,
    C2Violation,
    C3Violation,
    ConditionOutsideCS,
    NotAdditive,
    NotNormalized,
    NotOrthogonalFamily,
    PreconditionFCA,
    WeightsNotNormalized,
    ZeroMassCondition,
)
from .lattice import OrthomodularLattice
from .rationals import exact_ratios, parse_rational

ONE = Fraction(1)
ZERO = Fraction(0)

# Bound on the common denominator the axioms are checked over (see
# _scaled).  Catalog and benchmark tables need 20 bits or fewer.
MAX_SCALE_BITS = 1024


def _scaled(ratios):
    """``(vals, D)``: the reduced ratios ``(n, d)`` times the lcm D of their
    denominators, as a list of ints, and D.

    The axioms hold for the fractions n/d iff they hold for ``vals`` with D
    in place of 1.  If D reaches 2**MAX_SCALE_BITS, returns the ratios'
    ``Fraction``s and ``ONE`` instead, so no table makes the scaled entries
    grow without bound.
    """
    dens = {d for _, d in ratios}
    D = 1
    for d in dens:
        D = lcm(D, d)
        if D.bit_length() > MAX_SCALE_BITS:
            return [Fraction(n, d) for n, d in ratios], ONE
    scale = {d: D // d for d in dens}
    return [n * scale[d] for n, d in ratios], D


def _scale_to_integers(rows):
    """``_scaled`` of a table of rows of ints and ``Fraction``s, by rows."""
    vals, D = _scaled(exact_ratios([x for row in rows for x in row], "the s-map table"))
    it = iter(vals)
    return [list(islice(it, len(row))) for row in rows], D


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


class State(namedtuple("State", "lattice values")):
    """A normalized, orthogonally additive [0,1]-valued map on the lattice."""

    __slots__ = ()

    def __call__(self, a: int) -> Fraction:
        return self.values[a]


def validate_state(L: OrthomodularLattice, values) -> State:
    """Check normalization and additivity exhaustively, returning a State.

    ``values`` may be a sequence indexed by element id or a mapping from id.
    The checks run on the values scaled to integers.
    """
    if isinstance(values, Mapping):
        try:
            vals = tuple(parse_rational(values[a]) for a in L.elements)
        except KeyError as exc:
            a = L.label(exc.args[0])
            raise NotNormalized(f"state table missing m({a})", witness=(a,)) from None
    else:
        vals = tuple(map(parse_rational, values))
    if len(vals) != len(L):
        raise NotNormalized("state table is not total")
    ints, top = _scaled(exact_ratios(vals, "the state table"))
    return _check_state(L, vals, ints, top)


def _check_state(L: OrthomodularLattice, vals, ints, top) -> State:
    """``validate_state``'s checks of ``vals``, given also as ``ints`` =
    top·vals with top > 0 (ints, or ``Fraction``s past 2**MAX_SCALE_BITS)."""
    if min(ints) < 0 or max(ints) > top:
        a = next(a for a, x in enumerate(ints) if not 0 <= x <= top)
        raise NotNormalized(f"m({L.label(a)}) = {vals[a]} outside [0,1]", witness=(L.label(a),))
    if ints[L.zero] != 0:
        raise NotNormalized(f"m(0) = {vals[L.zero]} ≠ 0", witness=(L.label(L.zero),))
    if ints[L.one] != top:
        raise NotNormalized(f"m(1) = {vals[L.one]} ≠ 1", witness=(L.label(L.one),))
    hit = _first_nonadditive(L.orthogonal_pairs, [[x] for x in ints])
    if hit is not None:
        (a, b, _), _ = hit
        raise NotAdditive(
            f"m({L.label(a)} ∨ {L.label(b)}) ≠ "
            f"m({L.label(a)}) + m({L.label(b)})",
            witness=(L.label(a), L.label(b)),
        )
    return State(L, vals)


class ConditionalState(namedtuple("ConditionalState", "lattice conditions table")):
    """A two-place map f(b, a): probability of b given condition a.

    The condition ranges over a conditional system; each section f(., a) is a
    state, f(a, a) = 1, and conditioning mixes over orthogonal partitions of
    a condition (C3).
    """

    __slots__ = ()

    def __call__(self, b: int, a: int) -> Fraction:
        if a not in self.conditions:
            raise ConditionOutsideCS(
                f"{self.lattice.label(a)} is not a condition",
                witness=(self.lattice.label(a),),
            )
        return self.table[(b, a)]

    def state_given(self, a: int) -> State:
        return State(self.lattice, tuple(self(b, a) for b in self.lattice.elements))


def validate_conditional_state(
    L: OrthomodularLattice, cs: frozenset[int], table: Mapping[tuple[int, int], Fraction]
) -> ConditionalState:
    """Verify C1–C3 exhaustively over the finite lattice and return the state.

    C3 is checked on orthogonal pairs {a₁, a₂} ⊆ cs only, in O(|cs|²·|L|)
    time; the law for every larger orthogonal family follows.  cs is
    join-closed (``check_conditional_system``) and C1, C2 hold by then.  Take
    a family a₁…a_k in cs and let s = a₁∨…∨a_{k−1}; then s ∈ cs and s ⊥ a_k.
    For i < k, aᵢ ≤ a_k⊥ and f(a_k⊥, a_k) = 1 − f(a_k, a_k) = 0, so
    f(aᵢ, a_k) = 0.  Pair-C3 at (s, a_k) with b := aᵢ then gives
    f(aᵢ, ⋁a) = f(s, ⋁a)·f(aᵢ, s), and with any b gives
    f(b, ⋁a) = f(s, ⋁a)·f(b, s) + f(a_k, ⋁a)·f(b, a_k).  Expanding f(b, s)
    by the law for the (k−1)-family (induction on k) yields
    f(b, ⋁a) = Σᵢ f(aᵢ, ⋁a)·f(b, aᵢ).

    The axioms are checked on integers: each section f(., a) is scaled by the
    lcm D_a of its own denominators to a row R_a (past 2**MAX_SCALE_BITS the
    section keeps its ``Fraction``s and D_a = 1).  C1 bounds, f(0, a) = 0,
    f(1, a) = D_a and C2 (R_a[a] = D_a) are ``int`` comparisons, and
    additivity is checked for every section at once on the rows transposed
    to per-element lists.  C3 at a pair (a₁, a₂) with join j, multiplied
    through by D_j·D₁·D₂, is the one list comparison
    D₁·D₂·R_j = (R_j[a₁]·D₂)·R_{a₁} + (R_j[a₂]·D₁)·R_{a₂}.

    Only a failing C1/C2 stage is walked again, section by section over cs
    in the iteration order of cs (each through ``_check_state``, on R_a), to
    name its first failure.  C3 at index b is the ``Fraction`` equation
    at b times D_j·D₁·D₂ > 0, so the first index where the lists differ is
    the first failing b; only its message is computed in ``Fraction``s.
    Pairs are taken from ``L.orthogonal_pairs`` in its lexicographic order,
    keeping those with both ends in cs, with b innermost, so the first
    failure reported is the first one an exhaustive walk over families of
    increasing size would meet.
    """
    L.check_conditional_system(cs)
    sections, R, D = {}, {}, {}
    for a in cs:
        try:
            sections[a] = [parse_rational(table[(b, a)]) for b in L.elements]
        except KeyError as exc:
            b, a = (L.label(x) for x in exc.args[0])
            raise C1Violation(f"table missing f({b}, {a})", witness=(b, a)) from None
        R[a], D[a] = _scaled(exact_ratios(sections[a], "the conditional-state table"))
    return _check_conditional_state(L, cs, sections, R, D)


def _check_conditional_state(L, cs, sections, R, D) -> ConditionalState:
    """C1–C3 for the ``Fraction`` sections f(., a), a in the conditional
    system cs, given also as rows R[a] = D[a]·f(., a) with D[a] > 0 (ints,
    or ``Fraction``s past 2**MAX_SCALE_BITS); see validate_conditional_state."""
    tab = {(b, a): x for a in cs for b, x in zip(L.elements, sections[a])}
    holds = all(
        min(r) >= 0 and max(r) <= D[a] and r[L.zero] == 0 and r[L.one] == r[a] == D[a]
        for a, r in R.items()
    )
    T = [list(map(itemgetter(x), R.values())) for x in L.elements]
    if not holds or _first_nonadditive(L.orthogonal_pairs, T) is not None:
        for a in cs:
            try:
                _check_state(L, sections[a], R[a], D[a])
            except (NotNormalized, NotAdditive) as exc:
                raise C1Violation(
                    f"f(., {L.label(a)}) is not a state: {exc}",
                    witness=(L.label(a), exc.witness),
                ) from exc
            if tab[(a, a)] != 1:
                raise C2Violation(
                    f"f({L.label(a)}, {L.label(a)}) = {tab[(a, a)]} ≠ 1",
                    witness=(L.label(a),),
                )
    for a1, a2, j in L.orthogonal_pairs:
        if a1 not in cs or a2 not in cs:
            continue
        d1, d2, r = D[a1], D[a2], R[j]
        w1, w2, d12 = r[a1] * d2, r[a2] * d1, d1 * d2
        lhs = [d12 * x for x in r]
        rhs = [w1 * x + w2 * y for x, y in zip(R[a1], R[a2])]
        if lhs != rhs:
            b = next(b for b, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            mix = tab[(a1, j)] * tab[(b, a1)] + tab[(a2, j)] * tab[(b, a2)]
            fam = (L.label(a1), L.label(a2))
            raise C3Violation(
                f"f({L.label(b)}, {L.label(j)}) = {tab[(b, j)]} but the "
                f"mixture over {fam} gives {mix}",
                witness=(L.label(b), fam),
            )
    return ConditionalState(L, cs, tab)


def build_conditional_state(
    L: OrthomodularLattice,
    atoms: Sequence[int],
    alphas: Sequence[State],
    k: Sequence[Fraction],
) -> ConditionalState:
    """Construct the conditional state of the existence proposition.

    Given mutually orthogonal atoms a_i, states alpha_i concentrated on them
    and convex weights k_i, the conditions are all joins of atom subsets and

        f(d, ⋁_{i∈S} a_i) = Σ_{i∈S} (k_i / Σ_{j∈S} k_j) · alpha_i(d).

    Multi-atom subfamilies of total weight zero are rejected (they would
    leave the condition's section undetermined).
    """
    if len(atoms) != len(alphas) or len(atoms) != len(k):
        raise WeightsNotNormalized("atoms, alphas and weights must align")
    for a, b in combinations(atoms, 2):
        if not L.is_orthogonal(a, b):
            raise NotOrthogonalFamily(
                f"{L.label(a)} ⊥̸ {L.label(b)}", witness=(L.label(a), L.label(b))
            )
    for a, alpha in zip(atoms, alphas):
        if alpha(a) != 1:
            raise AlphaNotConcentrated(
                f"alpha({L.label(a)}) = {alpha(a)} ≠ 1", witness=(L.label(a),)
            )
    weights = [parse_rational(w) for w in k]
    if any(not (ZERO <= w <= ONE) for w in weights) or sum(weights) != 1:
        raise WeightsNotNormalized(f"weights {weights} are not a convex combination")

    idx = range(len(atoms))
    tab: dict[tuple[int, int], Fraction] = {}
    conditions: set[int] = set()
    for size in range(1, len(atoms) + 1):
        for S in combinations(idx, size):
            top = L.join_all(atoms[i] for i in S)
            mass = sum(weights[i] for i in S)
            if size == 1:
                section = alphas[S[0]].values
            elif mass == 0:
                raise ZeroMassCondition(
                    f"subfamily {tuple(L.label(atoms[i]) for i in S)} has weight 0",
                    witness=tuple(L.label(atoms[i]) for i in S),
                )
            else:
                section = tuple(
                    sum((weights[i] / mass) * alphas[i](d) for i in S)
                    for d in L.elements
                )
            if top in conditions:
                raise NotOrthogonalFamily(
                    f"atom subsets share the join {L.label(top)}",
                    witness=(L.label(top),),
                )
            conditions.add(top)
            for d in L.elements:
                tab[(d, top)] = section[d]
    return validate_conditional_state(L, frozenset(conditions), tab)


def is_independent(f: ConditionalState, b: int, a: int, c: int) -> bool:
    """b ≍ a with respect to f(., c): conditioning on a leaves b unchanged.

    Requires a, c in the conditional system and f(c, a) = 1; the relation is
    asymmetric in general.
    """
    L = f.lattice
    for x in (a, c):
        if x not in f.conditions:
            raise ConditionOutsideCS(
                f"{L.label(x)} is not a condition", witness=(L.label(x),)
            )
    if f(c, a) != 1:
        raise PreconditionFCA(
            f"f({L.label(c)}, {L.label(a)}) = {f(c, a)} ≠ 1",
            witness=(L.label(c), L.label(a)),
        )
    return f(b, c) == f(b, a)
