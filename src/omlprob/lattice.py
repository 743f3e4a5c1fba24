"""Finite orthomodular lattices and their derived relations.

An element is just an integer id into the lattice's label table.  The order
is kept as per-element bitmasks (``up[i]`` holds the ids above i), which makes
the exhaustive axiom checks cheap for the desk-scale lattices this package
handles; the meet of a and b is the one element whose down-set is
``down[a] & down[b]``, found by dictionary lookup (joins likewise).
Orthogonality is kept the same way (``perp[b]`` holds the ids below b⊥), and
``orthogonal_pairs`` lists every pair a < b with a ⊥ b together with a∨b,
once, for the validators' additivity and mixing laws, and ``atoms`` lists the
elements a whose down-set is {0, a}, in ascending order.

The order is closed by Kahn's topological sort of the generating pairs:
``up[i]`` is i ORed with ``up[j]`` of each successor j, in reverse
topological order, and ``down`` the mirror image forward, O(n + |pairs|)
big-int ORs.  The closure of an acyclic relation is antisymmetric, so the
antisymmetry walk runs only to name the witness of a cycle.  ⊥ is checked to
reverse the generating pairs only: a ≤ b in the closure is a chain
a = x₀ → x₁ → … → x_k = b of pairs, and x_{t+1}⊥ ≤ x_t⊥ on each link composes
to b⊥ ≤ a⊥.

A lattice is validated completely at construction time: bounded poset,
existence and uniqueness of all meets/joins, the ortholattice axioms and the
orthomodular law.  After that every query is total and pure, and the object
is immutable, so concurrent reads are safe.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    LatticeInputError,
    NotALattice,
    NotAnOrtholattice,
    NotAPoset,
    NotAConditionalSystem,
    NotOrthomodular,
    ZeroGenerated,
)


def _bits(mask: int):
    """Iterate the set bit positions of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BooleanSubalgebra(NamedTuple):
    """A Boolean subalgebra of an OML, given by its members and atoms."""

    lattice: "OrthomodularLattice"
    members: frozenset[int]
    atoms: tuple[int, ...]

    def __contains__(self, a: int) -> bool:
        return a in self.members


class OrthomodularLattice:
    """A finite bounded lattice with a validated orthocomplementation."""

    def __init__(self, labels, up, perp, pairs, ortho, zero, one, meet_table, join_table, atoms):
        self.labels: tuple[str, ...] = labels
        self.atoms: tuple[int, ...] = atoms
        self._up = up
        self._perp = perp
        self._pairs = pairs
        self._ortho = ortho
        self.zero: int = zero
        self.one: int = one
        self._meet = meet_table
        self._join = join_table
        self._index = {lab: i for i, lab in enumerate(labels)}

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def elements(self) -> range:
        return range(len(self.labels))

    @property
    def orthogonal_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(a, b, a∨b) for every a < b with a ⊥ b, in lexicographic order."""
        return self._pairs

    def label(self, a: int) -> str:
        return self.labels[a]

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise LatticeInputError(f"unknown element label {label!r}") from None

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def ortho(self, a: int) -> int:
        return self._ortho[a]

    def join_all(self, elems: Iterable[int]) -> int:
        out = self.zero
        for a in elems:
            out = self._join[out][a]
        return out

    # -- derived relations --------------------------------------------------

    def is_orthogonal(self, a: int, b: int) -> bool:
        """a ⊥ b iff a ≤ b⊥."""
        return bool(self._perp[b] >> a & 1)

    def is_compatible(self, a: int, b: int) -> bool:
        """a ↔ b iff a = (a∧b) ∨ (a∧b⊥).

        In an OML this is equivalent to the existence of mutually orthogonal
        a₁, b₁, c with a = a₁∨c and b = b₁∨c (take a∧b⊥, b∧a⊥, a∧b).
        """
        return self.join(self.meet(a, b), self.meet(a, self._ortho[b])) == a

    def boolean_subalgebra(self, d: int) -> BooleanSubalgebra:
        """The Boolean subalgebra {0, d, d⊥, 1} generated by a single element."""
        if d in (self.zero, self.one):
            return BooleanSubalgebra(self, frozenset((self.zero, self.one)), (self.one,))
        dp = self._ortho[d]
        return BooleanSubalgebra(
            self, frozenset((self.zero, d, dp, self.one)), tuple(sorted((d, dp)))
        )

    def _cs_gaps(self, members):
        """Yield ``(is_join, a, b, x)`` for each missing x = a∨b or, for
        a < b, x = a⊥∧b; a and b run over members in order, join first."""
        for a in members:
            for b in members:
                j = self.join(a, b)
                if j not in members:
                    yield True, a, b, j
                if a != b and self.leq(a, b):
                    r = self.meet(self._ortho[a], b)
                    if r not in members:
                        yield False, a, b, r

    def check_conditional_system(self, members: frozenset[int]) -> None:
        """Raise NotAConditionalSystem unless members satisfies the CS axioms."""
        if self.zero in members:
            raise NotAConditionalSystem("conditional system contains 0", witness=(self.label(self.zero),))
        for is_join, a, b, _ in self._cs_gaps(members):
            la, lb = self.label(a), self.label(b)
            raise NotAConditionalSystem(
                f"not join-closed: {la} ∨ {lb} missing"
                if is_join
                else f"not closed under relative complement of {la} in {lb}",
                witness=(la, lb),
            )

    def generate_cs(self, seed: Iterable[int]) -> frozenset[int]:
        """Smallest conditional system containing the seed set.

        The closure never reaches 0: a join of nonzero elements is nonzero,
        and for a < b the orthomodular law gives b = a ∨ (a⊥∧b), so a⊥∧b = 0
        would make b = a.
        """
        members = set(seed)
        if not members:
            raise ZeroGenerated("empty generating set")
        if self.zero in members:
            raise ZeroGenerated("generating set contains 0", witness=(self.label(self.zero),))
        while missing := {x for *_, x in self._cs_gaps(frozenset(members))}:
            members |= missing
        return frozenset(members)

    # -- subalgebra helper --------------------------------------------------

    def boolean_subalgebra_from_members(self, members: Iterable[int]) -> BooleanSubalgebra:
        """Wrap a member set as a BooleanSubalgebra, validating closure and pairwise
        compatibility: Foulis–Holland makes such a sub-ortholattice of an OML
        distributive, and a = (a∧b) ∨ (a∧b⊥) holds in a Boolean one."""
        mem = frozenset(members)
        for need in (self.zero, self.one):
            if need not in mem:
                raise LatticeInputError("Boolean subalgebra must contain 0 and 1")
        for a in mem:
            if self._ortho[a] not in mem:
                raise LatticeInputError(f"not ⊥-closed at {self.label(a)}")
            for b in mem:
                if self.meet(a, b) not in mem or self.join(a, b) not in mem:
                    raise LatticeInputError(
                        f"not lattice-closed at ({self.label(a)}, {self.label(b)})"
                    )
        for a, b in product(mem, mem):
            if not self.is_compatible(a, b):
                la, lb = self.label(a), self.label(b)
                raise LatticeInputError(
                    f"not Boolean: {la} and {lb} are not compatible", witness=(la, lb)
                )
        nonzero = [a for a in mem if a != self.zero]
        atoms = sorted(a for a in nonzero if not any(b != a and self.leq(b, a) for b in nonzero))
        return BooleanSubalgebra(self, mem, tuple(atoms))


def _raise_cycle(labels, succ) -> None:
    """Raise NotAPoset naming the first i, then the first j, with i ≤ j ≤ i
    and i ≠ j, where ≤ is the closure (by Warshall's algorithm) of the pairs
    (i, j) for j in ``succ[i]``."""
    n = len(labels)
    up = [1 << i for i in range(n)]
    for i, js in enumerate(succ):
        for j in js:
            up[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        row = up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    for i in range(n):
        for j in _bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise NotAPoset(
                    f"antisymmetry fails: {labels[i]} ≤ {labels[j]} ≤ {labels[i]}",
                    witness=(labels[i], labels[j]),
                )


def _raise_order_reversal(labels, up, ortho) -> None:
    """Raise NotAnOrtholattice naming the first a ≤ b with b⊥ ≰ a⊥."""
    for a in range(len(labels)):
        for b in _bits(up[a]):  # a ≤ b
            if not (up[ortho[b]] >> ortho[a] & 1):
                raise NotAnOrtholattice(
                    f"⊥ not order-reversing on {labels[a]} ≤ {labels[b]}",
                    witness=(labels[a], labels[b]),
                )


# Bound on the element count; the meet and join tables take n² entries each.
MAX_ELEMENTS = 1024


def build_lattice(
    labels: Sequence[str],
    leq_pairs: Iterable[tuple[str, str]],
    ortho_pairs: Iterable[tuple[str, str]],
) -> OrthomodularLattice:
    """Build and fully validate an orthomodular lattice.

    ``leq_pairs`` is a generating relation (its reflexive-transitive closure
    is taken); ``ortho_pairs`` must describe a total involutive map.
    Raises NotAPoset / NotALattice / NotAnOrtholattice / NotOrthomodular with
    a witness when the corresponding axiom group fails.
    """
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise LatticeInputError("duplicate labels")
    if n == 0:
        raise LatticeInputError("empty lattice")
    if n > MAX_ELEMENTS:
        raise LatticeInputError(f"{n} elements, more than MAX_ELEMENTS = {MAX_ELEMENTS}")
    index = {lab: i for i, lab in enumerate(labels)}

    def _id(lab):
        if lab not in index:
            raise LatticeInputError(f"unknown element label {lab!r}")
        return index[lab]

    # Kahn's topological sort of the generating pairs, self-pairs dropped;
    # an element left unplaced lies on a cycle.
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in leq_pairs:
        i, j = _id(x), _id(y)
        if i != j:
            succ[i].append(j)
            indeg[j] += 1
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # the list grows as elements are placed
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) < n:
        _raise_cycle(labels, succ)
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        for j in succ[i]:
            up[i] |= up[j]
    down = [1 << i for i in range(n)]
    for i in order:
        for j in succ[i]:
            down[j] |= down[i]

    full = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("no unique smallest/greatest element")
    zero, one = bottoms[0], tops[0]

    # Antisymmetry makes x ↦ down[x] and x ↦ up[x] injective, so the meet
    # of a and b is the element whose down-set is down[a] ∩ down[b], if any.
    meet_of = {d: x for x, d in enumerate(down)}
    join_of = {u: x for x, u in enumerate(up)}
    meet_table = [[0] * n for _ in range(n)]
    join_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            m = meet_of.get(down[a] & down[b])
            if m is None:
                raise NotALattice(
                    f"no meet for ({labels[a]}, {labels[b]})", witness=(labels[a], labels[b])
                )
            j = join_of.get(up[a] & up[b])
            if j is None:
                raise NotALattice(
                    f"no join for ({labels[a]}, {labels[b]})", witness=(labels[a], labels[b])
                )
            meet_table[a][b] = meet_table[b][a] = m
            join_table[a][b] = join_table[b][a] = j

    ortho = [-1] * n
    for x, y in ortho_pairs:
        i, j = _id(x), _id(y)
        for a, b in ((i, j), (j, i)):
            if ortho[a] not in (-1, b):
                raise LatticeInputError(f"conflicting orthocomplement for {labels[a]}")
            ortho[a] = b
    if any(o < 0 for o in ortho):
        missing = labels[ortho.index(-1)]
        raise LatticeInputError(f"orthocomplement undefined for {missing}")
    for a in range(n):
        if ortho[ortho[a]] != a:
            raise NotAnOrtholattice(
                f"involution fails at {labels[a]}", witness=(labels[a],)
            )
        if join_table[a][ortho[a]] != one:
            raise NotAnOrtholattice(
                f"{labels[a]} ∨ {labels[ortho[a]]} ≠ 1", witness=(labels[a],)
            )
    # Reversing every generating pair reverses the closure (chains compose).
    if any(not (up[ortho[j]] >> ortho[i] & 1) for i in range(n) for j in succ[i]):
        _raise_order_reversal(labels, up, ortho)

    for a in range(n):
        for b in _bits(up[a]):  # a ≤ b
            if join_table[a][meet_table[ortho[a]][b]] != b:
                raise NotOrthomodular(
                    f"orthomodular law fails on {labels[a]} ≤ {labels[b]}",
                    witness=(labels[a], labels[b]),
                )

    perp = tuple(down[o] for o in ortho)
    # An atom is an element whose strict down-set is {0}.
    atoms = tuple(a for a, d in enumerate(down) if d ^ (1 << a) == 1 << zero)
    pairs = tuple(
        (a, b, join_table[a][b]) for a in range(n) for b in _bits(perp[a]) if a < b
    )
    return OrthomodularLattice(
        labels,
        tuple(up),
        perp,
        pairs,
        tuple(ortho),
        zero,
        one,
        tuple(tuple(row) for row in meet_table),
        tuple(tuple(row) for row in join_table),
        atoms,
    )
