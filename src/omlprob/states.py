"""States, conditional states and the independence relation on an OML.

All probabilities are exact ``Fraction`` values; independence and the mixing
law C3 are equality statements, so nothing here tolerates floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

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

ONE = Fraction(1)
ZERO = Fraction(0)


@dataclass(frozen=True)
class State:
    """A normalized, orthogonally additive [0,1]-valued map on the lattice."""

    lattice: OrthomodularLattice
    values: tuple[Fraction, ...]

    def __call__(self, a: int) -> Fraction:
        return self.values[a]


def validate_state(L: OrthomodularLattice, values) -> State:
    """Check normalization and additivity exhaustively, returning a State.

    ``values`` may be a sequence indexed by element id or a mapping from id.
    """
    if isinstance(values, Mapping):
        vals = tuple(Fraction(values[a]) for a in L.elements)
    else:
        vals = tuple(Fraction(v) for v in values)
    if len(vals) != len(L):
        raise NotNormalized("state table is not total")
    for a in L.elements:
        if not (ZERO <= vals[a] <= ONE):
            raise NotNormalized(f"m({L.label(a)}) = {vals[a]} outside [0,1]", witness=(L.label(a),))
    if vals[L.zero] != 0:
        raise NotNormalized(f"m(0) = {vals[L.zero]} ≠ 0", witness=(L.label(L.zero),))
    if vals[L.one] != 1:
        raise NotNormalized(f"m(1) = {vals[L.one]} ≠ 1", witness=(L.label(L.one),))
    for a, b, j in L.orthogonal_pairs:
        if vals[j] != vals[a] + vals[b]:
            raise NotAdditive(
                f"m({L.label(a)} ∨ {L.label(b)}) ≠ "
                f"m({L.label(a)}) + m({L.label(b)})",
                witness=(L.label(a), L.label(b)),
            )
    return State(L, vals)


@dataclass(frozen=True)
class ConditionalState:
    """A two-place map f(b, a): probability of b given condition a.

    The condition ranges over a conditional system; each section f(., a) is a
    state, f(a, a) = 1, and conditioning mixes over orthogonal partitions of
    a condition (C3).
    """

    lattice: OrthomodularLattice
    conditions: frozenset[int]
    table: Mapping[tuple[int, int], Fraction]

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

    Pairs are taken from ``L.orthogonal_pairs`` in its lexicographic order,
    keeping those with both ends in cs, with b innermost, so the first failure
    reported is the first one an exhaustive walk over families of increasing
    size would meet.
    """
    L.check_conditional_system(cs)
    tab = {}
    for a in cs:
        for b in L.elements:
            if (b, a) not in table:
                raise C1Violation(
                    f"table missing f({L.label(b)}, {L.label(a)})",
                    witness=(L.label(b), L.label(a)),
                )
            tab[(b, a)] = Fraction(table[(b, a)])
    for a in cs:
        try:
            validate_state(L, [tab[(b, a)] for b in L.elements])
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
    for a1, a2, top in L.orthogonal_pairs:
        if a1 not in cs or a2 not in cs:
            continue
        w1, w2 = tab[(a1, top)], tab[(a2, top)]
        for b in L.elements:
            mix = w1 * tab[(b, a1)] + w2 * tab[(b, a2)]
            if tab[(b, top)] != mix:
                fam = (L.label(a1), L.label(a2))
                raise C3Violation(
                    f"f({L.label(b)}, {L.label(top)}) = {tab[(b, top)]} but the "
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
    weights = [Fraction(w) for w in k]
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
    return ConditionalState(L, frozenset(conditions), tab)


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
