"""Finite-valued observables, joint distributions and conditional expectation.

An observable assigns lattice events to finitely many rational values whose
events partition 1; value sets map to joins, so the range is a Boolean
subalgebra.  Joint distributions pull an s-map back through two observables
and exist even when the observables are not compatible — in which case the
two orders p_{x,y} and p_{y,x} may genuinely differ.  Expectations are
summed in reduced integer ratios ``(n, d)`` by ``rationals.exact_dot``; a
conditional expectation builds one ``Fraction`` per value of z.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations, chain

from .errors import (
    AtomOutsideCS,
    DuplicateValue,
    NoSolution,
    NotAPartition,
)
from .lattice import BooleanSubalgebra, OrthomodularLattice
from .rationals import _fraction, exact_dot, exact_ratios, parse_rational
from .states import ConditionalState, _entries, _outside_cs

# SMap in annotations names smap.SMap, not imported: a command that reads no
# s-map, such as condexp, does not load the smap module.


class Observable(namedtuple("Observable", "lattice spectrum assignment")):
    """A finite-valued observable: sorted spectrum plus value -> event map."""

    __slots__ = ()

    def event(self, values: Iterable[Fraction]) -> int:
        """The event that the outcome lies in the given value set."""
        return self.lattice.join_all(self.assignment[v] for v in values)

    def event_below(self, r: Fraction) -> int:
        """The event of an outcome strictly less than r (half line (-∞, r))."""
        r = parse_rational(r)
        return self.event(v for v in self.spectrum if v < r)

    def range_subalgebra(self) -> BooleanSubalgebra:
        """The Boolean subalgebra of the events x(S), S a set of values.

        The events are an orthogonal partition of 1, which generates a Boolean
        subalgebra: its atoms are the nonzero events, and its members the
        joins of sets of them.  No two nonzero events are equal, as e ⊥ e
        forces e = 0."""
        L = self.lattice
        atoms = tuple(sorted(e for e in self.assignment.values() if e != L.zero))
        members = frozenset(L.join_all(S) for S in _subsets(atoms))
        return BooleanSubalgebra(L, members, atoms)


def _subsets(items: Sequence):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def make_observable(
    L: OrthomodularLattice, pairs: Iterable[tuple[Fraction, int]]
) -> Observable:
    """Validate a (value, event) assignment: distinct values, events mutually
    orthogonal and joining to 1."""
    return _partition(L, [(parse_rational(v), e) for v, e in pairs])


def _partition(L: OrthomodularLattice, pairs: list[tuple[Fraction, int]]) -> Observable:
    """``make_observable`` for values that are already ``Fraction``s: computed
    ones, which the literal-size gate of ``parse_rational`` skips, and the
    ones ``files.load_observable`` has read, which are not read again.

    Orthogonality is walked over the pairs of nonzero events only, in the
    order of ``combinations``, as 0 is orthogonal to everything.  Each event
    walked in full, before the first failing pair, is orthogonal to every
    later one; such events are pairwise orthogonal, so hold distinct atoms,
    and the walk costs O(|atoms|·k) for k values."""
    assignment = dict(pairs)
    if len(assignment) != len(pairs):
        values = [v for v, _ in pairs]
        counts = Counter(values)
        dup = next(v for v in values if counts[v] > 1)
        raise DuplicateValue(f"value {dup} assigned twice", witness=(str(dup),))
    elems = [e for _, e in pairs]
    nonzero = [(v, e) for v, e in pairs if e != L.zero]
    for (v1, e1), (v2, e2) in combinations(nonzero, 2):
        if not L.is_orthogonal(e1, e2):
            raise NotAPartition(
                f"events for values {v1} and {v2} are not orthogonal",
                witness=(L.label(e1), L.label(e2)),
            )
    if L.join_all(elems) != L.one:
        raise NotAPartition(
            "events do not join to 1", witness=tuple(L.label(e) for e in elems)
        )
    return Observable(L, tuple(sorted(assignment)), assignment)


class JointDistribution(namedtuple("JointDistribution", "x y table")):
    """p_{x,y}(E, F) = p(x(E), y(F)) over all subsets of both spectra."""

    __slots__ = ()

    def __call__(self, E: Iterable[Fraction], F: Iterable[Fraction]) -> Fraction:
        return self.table[(frozenset(E), frozenset(F))]


def joint_distribution(p: SMap, x: Observable, y: Observable) -> JointDistribution:
    xs = [(frozenset(E), x.event(E)) for E in _subsets(x.spectrum)]
    ys = [(frozenset(F), y.event(F)) for F in _subsets(y.spectrum)]
    table = {(E, F): p.table[e][f] for E, e in xs for F, f in ys}
    return JointDistribution(x, y, table)


def distribution_function(
    p: SMap, x: Observable, y: Observable, r: Fraction, s: Fraction
) -> Fraction:
    """F_{x,y}(r, s) = p(x(-∞, r), y(-∞, s)) with strict half-open cutoffs."""
    return p(x.event_below(r), y.event_below(s))


def expectation(f: ConditionalState, x: Observable, b: int) -> Fraction:
    """Σ_i r_i · f(x(r_i), b): expectation of x under the section f(., b)."""
    if b not in f.conditions:
        raise _outside_cs(f.lattice, b)
    return _fraction(*_expectation(f, x, b))


def _expectation(f: ConditionalState, x: Observable, b: int) -> tuple[int, int]:
    """``expectation`` at a condition b, as a reduced ratio ``(n, d)``."""
    col = _entries(f, [(e, b) for e in x.assignment.values()])
    dot = exact_dot(x.assignment, col)
    if dot is None:  # raises, naming the first value or entry that is not exact
        exact_ratios([*x.assignment, *col], f"x and f(., {f.lattice.label(b)})")
    return dot


def _checked_members(f: ConditionalState, B: BooleanSubalgebra) -> list[int]:
    """The nonzero members of B that are conditions of f, ascending."""
    return [b for b in sorted(B.members) if b != f.lattice.zero and b in f.conditions]


def conditional_expectation(
    f: ConditionalState, x: Observable, B: BooleanSubalgebra
) -> Observable:
    """Solve for the B-valued observable z with f(x, b) = f(z, b) on B − {0}.

    z assigns to each atom of B the conditional expectation of x given that
    atom; atoms sharing a value are merged into one spectrum point at their
    join.  The defining equations are then re-verified on every nonzero
    member of B that is a condition of f, and a failure is reported with its
    witness rather than returned silently.
    """
    L = f.lattice
    if L.one not in f.conditions:
        raise AtomOutsideCS("1 is not a condition", witness=(L.label(L.one),))
    for atom in B.atoms:
        if atom not in f.conditions:
            raise AtomOutsideCS(
                f"atom {L.label(atom)} is not a condition", witness=(L.label(atom),)
            )
    fx = {b: _expectation(f, x, b) for b in _checked_members(f, B)}
    by_value: dict[tuple[int, int], list[int]] = {}
    for atom in B.atoms:
        by_value.setdefault(fx[atom], []).append(atom)
    z = _partition(L, [(_fraction(*v), L.join_all(atoms)) for v, atoms in by_value.items()])
    for b, lhs in fx.items():
        rhs = _expectation(f, z, b)
        if lhs != rhs:
            raise NoSolution(
                f"f(x, {L.label(b)}) = {Fraction(*lhs)} but the candidate gives {Fraction(*rhs)}",
                witness=(L.label(b),),
            )
    return z
