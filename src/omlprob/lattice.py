"""Finite orthomodular lattices and their derived relations.

An element is just an integer id into the lattice's label table.  A lattice
keeps one n×n table, the joins, and its orthocomplement ⊥, and reads the rest
from them: a ≤ b iff a∨b = b, as a∨b is the least upper bound; a ⊥ b iff
a ≤ b⊥; and a∧b = (a⊥∨b⊥)⊥ (De Morgan), as an order-reversing involution maps
least upper bounds to greatest lower bounds.  ``orthogonal_pairs`` lists every
pair a < b with a ⊥ b together with a∨b, once, for the validators' additivity
and mixing laws, and ``atoms`` the elements whose down-set is {0, a}.

``atom_splits`` is the part of ``orthogonal_pairs`` that additivity needs:
the triples (e, x∧e⊥, x), ends sorted, for each atom e < x.  By the
orthomodular law e ∨ (x∧e⊥) = x, and x∧e⊥ is the only b ⊥ e with e ∨ b = x,
so these are the pairs with an atom at one end and not 0 at the other.  If
p(0) = 0 and p is additive on them, p is additive on every orthogonal pair,
by induction on the down-set of the join.  Take a ⊥ b, both nonzero, with
x = a∨b, and pick an atom e ≤ a.  Then e, a∧e⊥ and b are mutually
orthogonal and generate a Boolean subalgebra, in which
x∧e⊥ = (a∧e⊥)∨b.  So p(x) = p(e) + p(x∧e⊥) (a split, as e ≤ a < x)
= p(e) + p(a∧e⊥) + p(b) (by induction, as x∧e⊥ < x), and
p(e) + p(a∧e⊥) = p(a) (a split at a, or a∧e⊥ = 0 if e = a).
boolean(6) has 171 splits against 364 orthogonal pairs, mo(32) 32
against 97.

``build_lattice`` closes the order by Kahn's topological sort of the
generating pairs into up-set bitmasks (``up[i]`` is i ORed with ``up[j]`` of
each successor j, in reverse topological order) and down-sets the mirror
image forward, O(n + |pairs|) big-int ORs.  An acyclic relation closes to an
antisymmetric one; a cycle is named by its two least ids.  A join is the
element whose up-set is ``up[a] & up[b]``, found by hash lookup; no meet is
looked up, as with a 0 a missing meet shows up as a missing join.  ⊥ is
checked to reverse the generating pairs only, and the first failing pair, by
id then as given, is named: a ≤ b in the closure is a chain
a = x₀ → … → x_k = b of pairs, and x_{t+1}⊥ ≤ x_t⊥ on each link composes.

A lattice is validated completely at construction time: bounded poset,
existence and uniqueness of all joins (and so of all meets), the
ortholattice axioms and the orthomodular law.  After that every query is
total and pure, and the object is immutable, so concurrent reads are safe.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import (
    LatticeInputError,
    NotALattice,
    NotAnOrtholattice,
    NotAPoset,
    NotAConditionalSystem,
    NotOrthomodular,
)
from .rationals import literal


class _LabelIndex:
    """The label -> id lookup of a lattice, the one rule for an unknown or
    unhashable label; ``build_lattice`` uses it before the lattice exists."""

    def __init__(self, index: dict):
        self._index = index

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise LatticeInputError(f"unknown element label {literal(label)}") from None


def _bits(mask: int):
    """Iterate the set bit positions of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BooleanSubalgebra(namedtuple("BooleanSubalgebra", "lattice members atoms")):
    """A Boolean subalgebra of an OML, given by its members and atoms."""

    __slots__ = ()

    def __contains__(self, a: int) -> bool:
        return a in self.members


class OrthomodularLattice(_LabelIndex):
    """A finite bounded lattice with a validated orthocomplementation."""

    def __init__(self, labels, index, join_table, ortho, zero, one, pairs, atoms, splits):
        self.labels: tuple[str, ...] = labels
        self.atoms: tuple[int, ...] = atoms
        self._index = index
        self._join = join_table
        self._ortho = ortho
        self._pairs = pairs
        self._splits = splits
        self._nonzero = frozenset(range(len(labels))) - {zero}
        self.zero: int = zero
        self.one: int = one

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

    @property
    def atom_splits(self) -> tuple[tuple[int, int, int], ...]:
        """The orthogonal pairs (e, x∧e⊥, x), ends sorted, for each atom e < x,
        in lexicographic order: additivity on these and m(0) = 0 imply
        additivity on every orthogonal pair (see the module docstring)."""
        return self._splits

    def label(self, a: int) -> str:
        return self.labels[a]

    def leq(self, a: int, b: int) -> bool:
        return self._join[a][b] == b

    def meet(self, a: int, b: int) -> int:
        o = self._ortho
        return o[self._join[o[a]][o[b]]]

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
        bp = self._ortho[b]
        return self._join[a][bp] == bp

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

    def check_conditional_system(self, members: frozenset[int]) -> None:
        """Raise NotAConditionalSystem unless members omits 0 and holds a∨b
        and, for a < b, a⊥∧b = (a∨b⊥)⊥ for all a and b in it; a and b run
        over members in order, and the join is checked first.

        L∖{0} is one set comparison: a join of nonzero elements is nonzero,
        and a < b gives a⊥∧b ≠ 0 by the orthomodular law."""
        if members == self._nonzero:
            return
        if self.zero in members:
            raise NotAConditionalSystem("conditional system contains 0", witness=(self.label(self.zero),))
        ortho = self._ortho
        for a in members:
            row = self._join[a]
            for b in members:
                j = row[b]
                if j not in members:
                    gap = "not join-closed: {} ∨ {} missing"
                elif a != b and j == b and ortho[row[ortho[b]]] not in members:  # a < b
                    gap = "not closed under relative complement of {} in {}"
                else:
                    continue
                la, lb = self.label(a), self.label(b)
                raise NotAConditionalSystem(gap.format(la, lb), witness=(la, lb))

    def system_splits(self, members: frozenset[int]) -> Sequence[tuple[int, int, int]]:
        """The splits (t, z∧t⊥, z), ends sorted, of the conditional system
        ``members``, in lexicographic order: t a minimal element of members
        and t < z ∈ members.  Relative complements make z∧t⊥ a member, so
        each is an orthogonal pair of members with its join.  For L∖{0} the
        minimal elements are the atoms and these are ``atom_splits``;
        otherwise the minimal elements M are found and the splits read from
        the join table in O(|members|·|M|)."""
        if members == self._nonzero:
            return self._splits
        J, o = self._join, self._ortho
        M = []  # an antichain that ends as the minimal elements
        for t in members:
            row = J[t]
            if all(row[m] != t for m in M):  # no m ≤ t
                M = [m for m in M if row[m] != m]  # drop each m ≥ t
                M.append(t)
        out = set()
        for t in M:
            row = J[t]
            for z in members:
                if row[z] == z != t:  # t < z
                    c = o[J[o[z]][t]]  # z∧t⊥ = (z⊥∨t)⊥
                    out.add((t, c, z) if t < c else (c, t, z))
        return sorted(out)


# Bound on the element count; the join table takes n² entries.
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
    try:
        index = {lab: i for i, lab in enumerate(labels)}
    except TypeError as exc:
        raise LatticeInputError(f"label is not hashable ({exc})") from None
    if len(index) != n:
        raise LatticeInputError("duplicate labels")
    if n == 0:
        raise LatticeInputError("empty lattice")
    if n > MAX_ELEMENTS:
        raise LatticeInputError(f"{n} elements, more than MAX_ELEMENTS = {MAX_ELEMENTS}")
    id_of = _LabelIndex(index).id_of

    # Kahn's topological sort of the generating pairs, self-pairs dropped;
    # an element left unplaced lies on or above a cycle.
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in leq_pairs:
        i, j = id_of(x), id_of(y)
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
        # An unplaced element keeps indeg > 0, so it has an unplaced
        # predecessor.  Stepping back from the least unplaced id, each time to
        # the least such predecessor, must repeat an id; the ids from the
        # repeat on form a cycle, named by its two least ids.
        back = {}
        for i in reversed(range(n)):  # the least predecessor is written last
            if indeg[i]:
                for j in succ[i]:
                    back[j] = i
        walk = [next(i for i in range(n) if indeg[i])]
        while (x := back[walk[-1]]) not in walk:
            walk.append(x)
        a, b = sorted(walk[walk.index(x):])[:2]
        raise NotAPoset(
            f"antisymmetry fails: {labels[a]} ≤ {labels[b]} ≤ {labels[a]}",
            witness=(labels[a], labels[b]),
        )
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

    # Antisymmetry makes x ↦ up[x] injective, so the join of a and b is the
    # element whose up-set is up[a] ∩ up[b], if any.  No meet is looked up:
    # in a finite poset with a least element, the common lower bounds of a
    # and b are a nonempty finite set, and their join lies below a and b, so
    # it is their meet.  Once 0 is unique and every join is found, every
    # meet exists, and a missing meet shows up as a missing join.
    join_of = {u: x for x, u in enumerate(up)}
    join_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            j = join_of.get(up[a] & up[b])
            if j is None:
                raise NotALattice(
                    f"no join for ({labels[a]}, {labels[b]})", witness=(labels[a], labels[b])
                )
            join_table[a][b] = join_table[b][a] = j

    # Each pair sets ⊥ both ways and a conflict is refused, so ⊥⊥ = id.
    ortho = [-1] * n
    for x, y in ortho_pairs:
        i, j = id_of(x), id_of(y)
        for a, b in ((i, j), (j, i)):
            if ortho[a] not in (-1, b):
                raise LatticeInputError(f"conflicting orthocomplement for {labels[a]}")
            ortho[a] = b
    if any(o < 0 for o in ortho):
        missing = labels[ortho.index(-1)]
        raise LatticeInputError(f"orthocomplement undefined for {missing}")
    for a in range(n):
        if join_table[a][ortho[a]] != one:
            raise NotAnOrtholattice(
                f"{labels[a]} ∨ {labels[ortho[a]]} ≠ 1", witness=(labels[a],)
            )
    # Reversing every generating pair reverses the closure (chains compose).
    for i in range(n):
        for j in succ[i]:
            if not up[ortho[j]] >> ortho[i] & 1:
                raise NotAnOrtholattice(
                    f"⊥ not order-reversing on {labels[i]} ≤ {labels[j]}",
                    witness=(labels[i], labels[j]),
                )

    # a ∨ (a⊥∧b) with a⊥∧b = (a∨b⊥)⊥, De Morgan now that ⊥ is checked.
    for a in range(n):
        row = join_table[a]
        for b in _bits(up[a]):  # a ≤ b
            if row[ortho[row[ortho[b]]]] != b:
                raise NotOrthomodular(
                    f"orthomodular law fails on {labels[a]} ≤ {labels[b]}",
                    witness=(labels[a], labels[b]),
                )

    # An atom is an element whose strict down-set is {0}.
    atoms = tuple(a for a, d in enumerate(down) if d ^ (1 << a) == 1 << zero)
    pairs = tuple(
        (a, b, join_table[a][b]) for a in range(n) for b in _bits(down[ortho[a]]) if a < b
    )
    # For an atom e < x, x∧e⊥ is the one b ⊥ e with e ∨ b = x, so the
    # splits are the pairs with an atom at one end and not 0 at the other.
    A = frozenset(atoms)
    splits = tuple(
        (a, b, j) for a, b, j in pairs if a in A and b != zero or b in A and a != zero
    )
    return OrthomodularLattice(
        labels,
        index,
        tuple(tuple(row) for row in join_table),
        tuple(ortho),
        zero,
        one,
        pairs,
        atoms,
        splits,
    )
