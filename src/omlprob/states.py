"""States, conditional states and the independence relation on an OML.

All probabilities are exact ``Fraction`` values; independence and the mixing
law C3 are equality statements, so nothing here tolerates floating point.
The axioms of states, conditional states and s-maps are checked by kernels
that take only the table scaled to integers by the lcm of its denominators
(``_scaled``, the package's one scaler, which those kernels and both
``smap`` conversions share) and raise or return None; each entry point then
builds its record of ``Fraction`` values.  A validator reads each of a
caller's entries once, through ``rationals._read_entries``: the size bound
of ``parse_rational`` and the reduced ratio in one call, and the record
keeps an exact ``Fraction`` as the caller's object.  Tables the package builds itself are read through
``rationals.exact_ratios``.  State additivity is one scalar comparison per
atom split (``L.atom_splits``), m(a) + m(b) = m(a ∨ b) on the scaled
entries; with m(0) = 0, checked first, that implies it on every orthogonal
pair (see ``omlprob.lattice``), and ``L.orthogonal_pairs`` are walked only
after a failure, to name the first failing pair.  C1 of a conditional state
is that state check, run once per section.  C3 is one list comparison per
split (t, z∧t⊥, z) of the conditional system cs, t a minimal condition and
t < z a condition (``L.system_splits``, ``L.atom_splits`` for cs = L∖{0});
with C1 and C2 that implies C3 on every orthogonal pair of cs (see
``validate_conditional_state``).  After a split fails, only the pairs of
cs before it that are no split are walked, to name the first failing pair.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations, takewhile
from math import lcm

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
from .rationals import _fraction, _read_entries, exact_ratios, parse_rational

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
    D = 1
    for d in {d for _, d in ratios}:
        D = lcm(D, d)
        if D.bit_length() > MAX_SCALE_BITS:
            return [_fraction(n, d) for n, d in ratios], ONE
    return [n * (D // d) for n, d in ratios], D


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
            vals, ratios = _read_entries(map(values.__getitem__, L.elements))
        except KeyError as exc:
            a = L.label(exc.args[0])
            raise NotNormalized(f"state table missing m({a})", witness=(a,)) from None
    else:
        vals, ratios = _read_entries(values)
    if len(vals) != len(L):
        raise NotNormalized("state table is not total")
    _check_state(L, *_scaled(ratios))
    return State(L, tuple(vals))


def _check_state(L: OrthomodularLattice, ints, top) -> None:
    """``validate_state``'s checks of m, given as ``ints`` = top·m with top > 0
    (ints, or ``Fraction``s past 2**MAX_SCALE_BITS); m(a) shows as ints[a]/top.
    Additivity is one scalar comparison per triple of ``L.atom_splits``,
    which with m(0) = 0 implies it on every orthogonal pair; only after a
    failure are ``L.orthogonal_pairs`` walked, to name the first that fails."""
    if min(ints) < 0 or max(ints) > top:
        a = next(a for a, x in enumerate(ints) if not 0 <= x <= top)
        raise NotNormalized(
            f"m({L.label(a)}) = {Fraction(ints[a], top)} outside [0,1]", witness=(L.label(a),)
        )
    if ints[L.zero] != 0:
        raise NotNormalized(f"m(0) = {Fraction(ints[L.zero], top)} ≠ 0", witness=(L.label(L.zero),))
    if ints[L.one] != top:
        raise NotNormalized(f"m(1) = {Fraction(ints[L.one], top)} ≠ 1", witness=(L.label(L.one),))
    for a, b, j in L.atom_splits:
        if ints[a] + ints[b] != ints[j]:
            # Then some orthogonal pair fails too; name the first one.
            a, b = next((a, b) for a, b, j in L.orthogonal_pairs if ints[a] + ints[b] != ints[j])
            raise NotAdditive(
                f"m({L.label(a)} ∨ {L.label(b)}) ≠ "
                f"m({L.label(a)}) + m({L.label(b)})",
                witness=(L.label(a), L.label(b)),
            )


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
        try:
            return self.table[(b, a)]
        except KeyError:
            raise _missing_entry(self.lattice, b, a) from None

    def state_given(self, a: int) -> State:
        return State(self.lattice, tuple(self(b, a) for b in self.lattice.elements))


def validate_conditional_state(
    L: OrthomodularLattice, cs: frozenset[int], table: Mapping[tuple[int, int], Fraction]
) -> ConditionalState:
    """Verify C1–C3 exhaustively over the finite lattice and return the state.

    C3 on orthogonal pairs {a₁, a₂} ⊆ cs implies the law for every larger
    orthogonal family.  cs is join-closed (``check_conditional_system``) and
    C1, C2 hold by then.  Take a family a₁…a_k in cs and let
    s = a₁∨…∨a_{k−1}; then s ∈ cs and s ⊥ a_k.  For i < k, aᵢ ≤ a_k⊥ and
    f(a_k⊥, a_k) = 1 − f(a_k, a_k) = 0, so f(aᵢ, a_k) = 0.  Pair-C3 at
    (s, a_k) with b := aᵢ then gives f(aᵢ, ⋁a) = f(s, ⋁a)·f(aᵢ, s), and
    with any b gives f(b, ⋁a) = f(s, ⋁a)·f(b, s) + f(a_k, ⋁a)·f(b, a_k).
    Expanding f(b, s) by the law for the (k−1)-family (induction on k)
    yields f(b, ⋁a) = Σᵢ f(aᵢ, ⋁a)·f(b, aᵢ).

    C3 at the splits of cs implies it on every orthogonal pair of cs, so
    only the splits are checked (``L.system_splits``): the pairs
    (t, z∧t⊥) with join z, for t in the minimal elements M of cs and
    t < z ∈ cs.  cs is closed under relative complements, so z∧t⊥ ∈ cs,
    and it is nonzero by the orthomodular law.  For cs = L∖{0}, M is the
    atoms and the splits are ``L.atom_splits``.  Two facts are used.  If
    y ⊥ a ∈ cs, then f(y, a) ≤ f(a⊥, a) = 0.  And if a ⊥ b, the
    orthomodular law gives (a∨b)∧b⊥ = a.
    - Chain rule: for y ≤ b ≤ x with b, x ∈ cs, f(y, x) = f(b, x)·f(y, b).
      By induction on the down-set of x: if x = b, this is C2.  Otherwise
      x∧b⊥ ∈ cs is nonzero, so some t ∈ M has t ≤ x∧b⊥.  Then t < x and
      t ⊥ y, so f(y, t) = 0, and the split at x with t gives
      f(y, x) = f(x∧t⊥, x)·f(y, x∧t⊥), where b ≤ x∧t⊥ < x.  By
      induction f(y, x∧t⊥) = f(b, x∧t⊥)·f(y, b), and at y = b the same
      steps give f(b, x) = f(x∧t⊥, x)·f(b, x∧t⊥); the two combine.
    - Pairs: by induction on the down-set of the join x of a ⊥ b in cs.
      Pick t ∈ M with t ≤ b.  If t = b, the pair is the split at x with t,
      as x∧b⊥ = a.  Otherwise b' = b∧t⊥ ∈ cs is nonzero, and t, a and b'
      are mutually orthogonal with join x; so s = a∨b' = x∧t⊥ ∈ cs, and
      s < x.  Expand f(c, x) by the split at x with t, then f(c, s) by C3
      at (a, b') (its join s < x, by induction), and expand f(c, b) by the
      split at b with t.  The two sides of C3 at (a, b) then match term by
      term, by the chain rule: f(a, x) = f(s, x)·f(a, s),
      f(t, x) = f(b, x)·f(t, b), and f(s, x)·f(b', s) = f(b', x) =
      f(b, x)·f(b', b).

    Each entry is looked up and read once (``rationals._read_entries``),
    section by section in the iteration order of cs and by element id within
    one, an entry's read before the next entry's lookup; of a malformed
    entry and a missing one, the first met in that order is raised.

    The axioms are checked on integers: each section f(., a) is scaled by the
    lcm D_a of its own denominators to a row R_a (past 2**MAX_SCALE_BITS the
    section keeps its ``Fraction``s and D_a = 1).  C1 and C2 are checked in
    one walk over cs in its iteration order: section a is ``_check_state``
    on R_a (bounds, f(0, a) = 0, f(1, a) = D_a and one scalar additivity
    comparison per atom split), then C2 is R_a[a] = D_a, so the first
    failure named is the first one that walk meets.  C3 at a pair (a₁, a₂)
    with join j, multiplied through by D_j·D₁·D₂, is the one list comparison
    D₁·D₂·R_j = (R_j[a₁]·D₂)·R_{a₁} + (R_j[a₂]·D₁)·R_{a₂}.

    C3 at index b is the ``Fraction`` equation at b times D_j·D₁·D₂ > 0, so
    the first index where the lists differ is the first failing b, and its
    two sides are the two list entries over D_j·D₁·D₂.  The record is built
    only after the checks pass.
    Only after a split fails are pairs walked: those of
    ``L.orthogonal_pairs`` before it, in its lexicographic order, with both
    ends in cs and no split (the splits before it passed), with b
    innermost.  So the first failure reported is the first one an
    exhaustive walk over families of increasing size would meet.
    """
    L.check_conditional_system(cs)
    keys, entries, R, D = [], [], {}, {}
    for a in cs:
        section = [(b, a) for b in L.elements]
        try:
            read, ratios = _read_entries(map(table.__getitem__, section))
        except KeyError as exc:
            raise _missing_entry(L, *exc.args[0]) from None
        keys += section
        entries += read
        R[a], D[a] = _scaled(ratios)
    _check_conditional_state(L, cs, R, D)
    return ConditionalState(L, cs, dict(zip(keys, entries)))


def _missing_entry(L: OrthomodularLattice, b: int, a: int) -> C1Violation:
    b, a = L.label(b), L.label(a)
    return C1Violation(f"table missing f({b}, {a})", witness=(b, a))


def _entries(f: ConditionalState, keys) -> list:
    """The entries of f's table at ``keys``, in order; the first one missing
    is refused as ``validate_conditional_state`` refuses it."""
    try:
        return list(map(f.table.__getitem__, keys))
    except KeyError as exc:
        raise _missing_entry(f.lattice, *exc.args[0]) from None


def _check_conditional_state(L, cs, R, D) -> None:
    """C1–C3 for the sections f(., a), a in the conditional system cs, given
    as rows R[a] = D[a]·f(., a) with D[a] > 0 (ints, or ``Fraction``s past
    2**MAX_SCALE_BITS); see validate_conditional_state."""
    for a in cs:
        try:
            _check_state(L, R[a], D[a])
        except (NotNormalized, NotAdditive) as exc:
            raise C1Violation(
                f"f(., {L.label(a)}) is not a state: {exc}",
                witness=(L.label(a), exc.witness),
            ) from exc
        if R[a][a] != D[a]:
            raise C2Violation(
                f"f({L.label(a)}, {L.label(a)}) = {Fraction(R[a][a], D[a])} ≠ 1",
                witness=(L.label(a),),
            )
    # C3 at the splits implies it on every orthogonal pair of cs (see
    # validate_conditional_state).
    splits = L.system_splits(cs)
    hit = _first_unmixed(splits, R, D)
    if hit is None:
        return
    # Both lists are in lexicographic order, so only the pairs of cs before
    # the failing split that are no split can fail first.
    held, first = set(splits), hit[0]
    earlier = takewhile(lambda p: p != first, L.orthogonal_pairs)
    others = (p for p in earlier if p not in held and p[0] in cs and p[1] in cs)
    (a1, a2, j), b, lhs, rhs = _first_unmixed(others, R, D) or hit
    fam, scale = (L.label(a1), L.label(a2)), D[a1] * D[a2] * D[j]
    raise C3Violation(
        f"f({L.label(b)}, {L.label(j)}) = {Fraction(lhs, scale)} but the "
        f"mixture over {fam} gives {Fraction(rhs, scale)}",
        witness=(L.label(b), fam),
    )


def _first_unmixed(pairs, R, D):
    """The first ``((a1, a2, j), b, lhs, rhs)`` where C3 at a pair (a1, a2)
    with join j fails at b, or None.  Both sides are times D[j]·D[a1]·D[a2]:
    the list comparison D₁·D₂·R_j = (R_j[a₁]·D₂)·R_{a₁} + (R_j[a₂]·D₁)·R_{a₂},
    pairs visited in order and b ascending."""
    for pair in pairs:
        a1, a2, j = pair
        d1, d2, r = D[a1], D[a2], R[j]
        w1, w2, d12 = r[a1] * d2, r[a2] * d1, d1 * d2
        lhs = [d12 * x for x in r]
        rhs = [w1 * x + w2 * y for x, y in zip(R[a1], R[a2])]
        if lhs != rhs:
            b = next(b for b, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return pair, b, lhs[b], rhs[b]
    return None


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
        at_a = exact_ratios(alpha.values, f"the alpha of {L.label(a)}")[a]
        if at_a != (1, 1):
            raise AlphaNotConcentrated(
                f"alpha({L.label(a)}) = {Fraction(*at_a)} ≠ 1", witness=(L.label(a),)
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
                section = [sum(weights[i] * alphas[i](d) for i in S) / mass for d in L.elements]
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
    ca, bc, ba = exact_ratios((f(c, a), f(b, c), f(b, a)), "the conditional-state table")
    if ca != (1, 1):
        raise PreconditionFCA(
            f"f({L.label(c)}, {L.label(a)}) = {Fraction(*ca)} ≠ 1",
            witness=(L.label(c), L.label(a)),
        )
    return bc == ba
