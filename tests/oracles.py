"""Exhaustive reference implementations kept as test oracles.

The library checks the mixing law C3 on the conditional system's splits
only.  The family oracle here walks every orthogonal family of the
conditional system (2^|cs| subsets), so it is only usable on small
lattices; the pair oracle walks every orthogonal pair.

The library checks additivity and s3 on ``L.atom_splits``, the orthogonal
pairs with an atom at one end and not 0 at the other, and names a failure
from ``L.orthogonal_pairs``.  The additivity and s3 oracles find every
orthogonal pair with a double loop over all elements and an orthogonality
test instead.  The atom-split oracle builds the triples (e, x∧e⊥, x) from
the meet table of the Warshall closure, and the additive-basis oracle
spans the functions additive on every orthogonal pair by exact
elimination.

The library checks s1–s3 on the s-map table scaled to a common denominator.
The s-map oracle checks them on the ``Fraction`` entries, one at a time.

The library's s-map loader fills the entries s1–s3 force into its grid of
literal indices.  The completion oracle fills them into a mapping
(a, b) -> entry, one ``setdefault`` at a time.

The library checks C1–C3 on each section scaled by its own common
denominator, one scalar comparison per atom split for additivity and one
list comparison per split (t, z∧t⊥, z) of the conditional system for C3,
t a minimal condition.  The conditional-state oracle checks them on the
``Fraction`` entries, section by section and one b at a time, with C3 on
every orthogonal pair of conditions; the split oracle finds the minimal
conditions by testing every pair of members.

The library names an observable's repeated value from one count of all
values and walks the orthogonality of its nonzero events only.  The
partition oracle counts each value with ``list.count`` and tests every pair
of events.

The library visits each unordered pair once to list asymmetric
independence.  The oracle tests both orders of every ordered pair.

The library converts between s-maps and conditional states, and sums an
expectation, on integer numerators and denominators, building one
``Fraction`` per result.  The conversion and expectation oracles evaluate
the defining formulas in ``Fraction`` arithmetic.

The library reads a lattice's atoms from the down-sets ``build_lattice``
holds, decides whether it is Boolean or MO-shaped from the atoms, and reads
an observable's range from its partition: the nonzero events are the atoms
and their joins the members.  The shape oracles scan every pair of elements
for order or compatibility.  The subalgebra oracles close a set under ⊥, ∨
and ∧ over every pair of members, then check distributivity on every
triple and that every member is a join of atoms.

The library closes the order by a topological sort of the generating pairs,
names a cycle by stepping back along unplaced predecessors, checks that ⊥
reverses the generating pairs only, and looks up joins only, as a missing
meet shows up as a missing join.  The closure oracle runs Warshall's
algorithm over every intermediate element, walks every pair of the closure
for antisymmetry and order reversal, and finds each meet and join as the
bound that lies above (below) every other common bound; the failure oracle
checks each axiom group on that closure in the library's stage order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping

from omlprob.errors import (
    C1Violation,
    LatticeInputError,
    C2Violation,
    C3Violation,
    DuplicateValue,
    NotAdditive,
    NotALattice,
    NotAnOrtholattice,
    NotAPartition,
    NotAPoset,
    NotNormalized,
    NotOrthomodular,
    S1Violation,
    S2Violation,
    S3Violation,
)
from omlprob.lattice import BooleanSubalgebra, OrthomodularLattice
from omlprob.rationals import parse_rational


def orthogonal_families(L: OrthomodularLattice, members: frozenset[int]):
    """All subsets of members of size ≥ 2 that are mutually orthogonal and
    whose join lies in members (the families quantified over by C3)."""
    elems = sorted(members)
    for size in range(2, len(elems) + 1):
        for fam in combinations(elems, size):
            if all(L.is_orthogonal(a, b) for a, b in combinations(fam, 2)):
                if L.join_all(fam) in members:
                    yield fam


def c3_exhaustive(L: OrthomodularLattice, cs: frozenset[int], tab) -> C3Violation | None:
    """The first C3 failure over all orthogonal families, or None.

    ``tab`` must be total on L × cs and satisfy C1 and C2.
    """
    for fam in orthogonal_families(L, cs):
        top = L.join_all(fam)
        for b in L.elements:
            mix = sum(tab[(a, top)] * tab[(b, a)] for a in fam)
            if tab[(b, top)] != mix:
                return C3Violation(
                    f"f({L.label(b)}, {L.label(top)}) = {tab[(b, top)]} but the "
                    f"mixture over {tuple(L.label(a) for a in fam)} gives {mix}",
                    witness=(L.label(b), tuple(L.label(a) for a in fam)),
                )
    return None


def additivity_exhaustive(L: OrthomodularLattice, vals) -> NotAdditive | None:
    """The first additivity failure of the value sequence ``vals``, or None."""
    for a in L.elements:
        for b in L.elements:
            if a < b and L.is_orthogonal(a, b):
                if vals[L.join(a, b)] != vals[a] + vals[b]:
                    return NotAdditive(
                        f"m({L.label(a)} ∨ {L.label(b)}) ≠ "
                        f"m({L.label(a)}) + m({L.label(b)})",
                        witness=(L.label(a), L.label(b)),
                    )
    return None


def s3_exhaustive(L: OrthomodularLattice, rows) -> S3Violation | None:
    """The first s3 failure of the dense table ``rows``, or None."""
    for a in L.elements:
        for b in L.elements:
            if a < b and L.is_orthogonal(a, b):
                j = L.join(a, b)
                for c in L.elements:
                    if rows[j][c] != rows[a][c] + rows[b][c]:
                        return S3Violation(
                            f"p({L.label(j)}, {L.label(c)}) ≠ "
                            f"p({L.label(a)}, {L.label(c)}) + p({L.label(b)}, {L.label(c)})",
                            witness=(L.label(c), (L.label(a), L.label(b)), "first"),
                        )
                    if rows[c][j] != rows[c][a] + rows[c][b]:
                        return S3Violation(
                            f"p({L.label(c)}, {L.label(j)}) ≠ "
                            f"p({L.label(c)}, {L.label(a)}) + p({L.label(c)}, {L.label(b)})",
                            witness=(L.label(c), (L.label(a), L.label(b)), "second"),
                        )
    return None


def smap_exhaustive(L: OrthomodularLattice, table) -> S1Violation | S2Violation | S3Violation | None:
    """The first s1–s3 failure of ``table`` (as ``validate_smap`` takes it), or None."""
    n = len(L)
    if isinstance(table, Mapping):
        try:
            rows = tuple(
                tuple(Fraction(table[(a, b)]) for b in L.elements) for a in L.elements
            )
        except KeyError as exc:
            a, b = (L.label(x) for x in exc.args[0])
            return S1Violation(f"table missing entry p({a}, {b})", witness=(a, b))
    else:
        rows = tuple(tuple(Fraction(v) for v in row) for row in table)
        if len(rows) != n or any(len(r) != n for r in rows):
            return S1Violation("table is not total")
    for a in L.elements:
        for b in L.elements:
            if not (0 <= rows[a][b] <= 1):
                return S1Violation(
                    f"p({L.label(a)}, {L.label(b)}) = {rows[a][b]} outside [0,1]",
                    witness=(L.label(a), L.label(b)),
                )
    if rows[L.one][L.one] != 1:
        return S1Violation(
            f"p(1,1) = {rows[L.one][L.one]} ≠ 1", witness=(L.label(L.one), L.label(L.one))
        )
    for a in L.elements:
        for b in L.elements:
            if L.is_orthogonal(a, b) and rows[a][b] != 0:
                return S2Violation(
                    f"p({L.label(a)}, {L.label(b)}) ≠ 0 on an orthogonal pair",
                    witness=(L.label(a), L.label(b)),
                )
    for a, b, j in L.orthogonal_pairs:
        for c in L.elements:
            if rows[j][c] != rows[a][c] + rows[b][c]:
                return S3Violation(
                    f"p({L.label(j)}, {L.label(c)}) ≠ "
                    f"p({L.label(a)}, {L.label(c)}) + p({L.label(b)}, {L.label(c)})",
                    witness=(L.label(c), (L.label(a), L.label(b)), "first"),
                )
            if rows[c][j] != rows[c][a] + rows[c][b]:
                return S3Violation(
                    f"p({L.label(c)}, {L.label(j)}) ≠ "
                    f"p({L.label(c)}, {L.label(a)}) + p({L.label(c)}, {L.label(b)})",
                    witness=(L.label(c), (L.label(a), L.label(b)), "second"),
                )
    return None


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
            diag[x] = Fraction(0)
        elif x == L.one:
            diag[x] = Fraction(1)
        elif (x, x) in table:
            diag[x] = parse_rational(table[(x, x)])
        else:
            lab = L.label(x)
            raise S1Violation(f"table missing entry p({lab}, {lab})", witness=(lab, lab))
    for x in L.elements:
        table.setdefault((x, L.zero), Fraction(0))
        table.setdefault((L.zero, x), Fraction(0))
        table.setdefault((x, L.one), diag[x])
        table.setdefault((L.one, x), diag[x])
    return table


def _state_failure(L: OrthomodularLattice, vals) -> NotNormalized | NotAdditive | None:
    for a in L.elements:
        if not (0 <= vals[a] <= 1):
            return NotNormalized(f"m({L.label(a)}) = {vals[a]} outside [0,1]", witness=(L.label(a),))
    if vals[L.zero] != 0:
        return NotNormalized(f"m(0) = {vals[L.zero]} ≠ 0", witness=(L.label(L.zero),))
    if vals[L.one] != 1:
        return NotNormalized(f"m(1) = {vals[L.one]} ≠ 1", witness=(L.label(L.one),))
    for a, b, j in L.orthogonal_pairs:
        if vals[j] != vals[a] + vals[b]:
            return NotAdditive(
                f"m({L.label(a)} ∨ {L.label(b)}) ≠ "
                f"m({L.label(a)}) + m({L.label(b)})",
                witness=(L.label(a), L.label(b)),
            )
    return None


def cstate_exhaustive(
    L: OrthomodularLattice, cs: frozenset[int], table
) -> C1Violation | C2Violation | C3Violation | None:
    """The first C1–C3 failure of ``table`` (as ``validate_conditional_state``
    takes it), or None.  ``cs`` must be a conditional system."""
    L.check_conditional_system(cs)
    tab = {}
    for a in cs:
        for b in L.elements:
            if (b, a) not in table:
                return C1Violation(
                    f"table missing f({L.label(b)}, {L.label(a)})",
                    witness=(L.label(b), L.label(a)),
                )
            tab[(b, a)] = Fraction(table[(b, a)])
    for a in cs:
        exc = _state_failure(L, [tab[(b, a)] for b in L.elements])
        if exc is not None:
            return C1Violation(
                f"f(., {L.label(a)}) is not a state: {exc}",
                witness=(L.label(a), exc.witness),
            )
        if tab[(a, a)] != 1:
            return C2Violation(
                f"f({L.label(a)}, {L.label(a)}) = {tab[(a, a)]} ≠ 1",
                witness=(L.label(a),),
            )
    return c3_pairs_exhaustive(L, cs, tab)


def c3_pairs_exhaustive(L: OrthomodularLattice, cs: frozenset[int], tab) -> C3Violation | None:
    """The first C3 failure over every orthogonal pair of ``cs``, in the
    order of ``L.orthogonal_pairs`` and b ascending, or None; ``tab`` maps
    (b, a) to a ``Fraction`` for every a in cs."""
    for a1, a2, top in L.orthogonal_pairs:
        if a1 not in cs or a2 not in cs:
            continue
        w1, w2 = tab[(a1, top)], tab[(a2, top)]
        for b in L.elements:
            mix = w1 * tab[(b, a1)] + w2 * tab[(b, a2)]
            if tab[(b, top)] != mix:
                fam = (L.label(a1), L.label(a2))
                return C3Violation(
                    f"f({L.label(b)}, {L.label(top)}) = {tab[(b, top)]} but the "
                    f"mixture over {fam} gives {mix}",
                    witness=(L.label(b), fam),
                )
    return None


def system_splits_exhaustive(L: OrthomodularLattice, cs: frozenset[int]) -> list[tuple[int, int, int]]:
    """The triples (t, z∧t⊥, z), ends sorted, for t minimal in ``cs`` and
    t < z ∈ cs, sorted: minimality by testing every pair of members."""
    minimal = [t for t in cs if not any(s != t and L.leq(s, t) for s in cs)]
    out = set()
    for t in minimal:
        for z in cs:
            if z != t and L.leq(t, z):
                c = L.meet(z, L.ortho(t))
                out.add((min(t, c), max(t, c), z))
    return sorted(out)


def conditional_system_closure(L: OrthomodularLattice, elems) -> frozenset[int]:
    """The least conditional system holding the nonzero ``elems``: closed
    under joins and under relative complements a⊥∧b of a < b."""
    cs = set(elems)
    while True:
        new = {L.join(a, b) for a in cs for b in cs}
        new |= {L.meet(L.ortho(a), b) for a in cs for b in cs if a != b and L.leq(a, b)}
        if new <= cs:
            return frozenset(cs)
        cs |= new


def partition_failure_exhaustive(
    L: OrthomodularLattice, pairs
) -> DuplicateValue | NotAPartition | None:
    """The first failure of the (value, event) list ``pairs`` as an
    observable, or None: a value that occurs twice, then a pair of events
    that are not orthogonal, then events that do not join to 1."""
    values = [v for v, _ in pairs]
    for v in values:
        if values.count(v) > 1:
            return DuplicateValue(f"value {v} assigned twice", witness=(str(v),))
    for (v1, e1), (v2, e2) in combinations(pairs, 2):
        if not L.is_orthogonal(e1, e2):
            return NotAPartition(
                f"events for values {v1} and {v2} are not orthogonal",
                witness=(L.label(e1), L.label(e2)),
            )
    elems = [e for _, e in pairs]
    if L.join_all(elems) != L.one:
        return NotAPartition(
            "events do not join to 1", witness=tuple(L.label(e) for e in elems)
        )
    return None


def asymmetric_pairs_exhaustive(p) -> list[tuple[int, int]]:
    """Ordered pairs (a, b) with p(a, b) = p(a, a)·p(b, b) ≠ p(b, a), by id."""
    L = p.lattice
    out = []
    for a in L.elements:
        for b in L.elements:
            if a != b:
                ab = p(a, b) == p(b, b) * p(a, a)
                ba = p(b, a) == p(a, a) * p(b, b)
                if ab and not ba:
                    out.append((a, b))
    return out


def smap_of_conditional(f) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of p_f(a, b) = f(a, b)·f(b, 1), 0 where f(b, 1) = 0."""
    L, tab = f.lattice, f.table
    return tuple(
        tuple(tab[(a, b)] * tab[(b, L.one)] if tab[(b, L.one)] != 0 else Fraction(0)
              for b in L.elements)
        for a in L.elements
    )


def conditional_of_smap(p) -> dict[tuple[int, int], Fraction]:
    """{(a, b): p(a, b)/p(b, b)} for b in the support of p."""
    L = p.lattice
    return {(a, b): p(a, b) / p(b, b) for b in L.elements if p(b, b) != 0 for a in L.elements}


def expectation_sum(f, x, b) -> Fraction:
    """Σ r·f(x(r), b) over the sorted spectrum of x."""
    return sum((r * f.table[(x.assignment[r], b)] for r in x.spectrum), Fraction(0))


def assert_same_failure(got, want) -> None:
    """``got`` (raised, or None) is the failure the oracle returned as ``want``."""
    assert (got is None) == (want is None)
    if got is not None:
        assert type(got) is type(want)
        assert got.witness == want.witness
        assert str(got) == str(want)


def atoms_exhaustive(L: OrthomodularLattice) -> list[int]:
    """The nonzero elements with no nonzero element strictly below, by id."""
    return [
        a
        for a in L.elements
        if a != L.zero and not any(b not in (L.zero, a) and L.leq(b, a) for b in L.elements)
    ]


def is_boolean_exhaustive(L: OrthomodularLattice) -> bool:
    """Every pair of elements is compatible."""
    return all(L.is_compatible(a, b) for a in L.elements for b in L.elements)


def mo_blocks_exhaustive(L: OrthomodularLattice) -> list[tuple[int, int]]:
    """The (element, complement) blocks, raising LatticeInputError if some
    nontrivial element is compatible with anything beyond 0, 1, itself and
    its complement."""
    blocks = []
    seen = set()
    trivial = {L.zero, L.one}
    for x in L.elements:
        if x in trivial or x in seen:
            continue
        xp = L.ortho(x)
        for y in L.elements:
            if y not in trivial | {x, xp} and L.is_compatible(x, y):
                raise LatticeInputError(
                    f"{L.label(x)} is compatible with {L.label(y)}: not MO-shaped"
                )
        blocks.append((x, xp))
        seen.update((x, xp))
    return blocks


def generated_subalgebra_exhaustive(L: OrthomodularLattice, elems) -> frozenset[int]:
    """The sub-ortholattice that ``elems`` generate: 0, 1 and ``elems``
    closed under ⊥, ∨ and ∧, one pass over every pair of members at a time."""
    members = {L.zero, L.one, *elems}
    while True:
        new = {L.ortho(a) for a in members} | {
            op(a, b) for a in members for b in members for op in (L.join, L.meet)
        }
        if new <= members:
            return frozenset(members)
        members |= new


def boolean_subalgebra_exhaustive(L: OrthomodularLattice, members) -> BooleanSubalgebra:
    """The member set as a BooleanSubalgebra, validating closure,
    distributivity on every triple and that every member is a join of atoms."""
    mem = frozenset(members)
    for need in (L.zero, L.one):
        if need not in mem:
            raise LatticeInputError("Boolean subalgebra must contain 0 and 1")
    for a in mem:
        if L.ortho(a) not in mem:
            raise LatticeInputError(f"not ⊥-closed at {L.label(a)}")
        for b in mem:
            if L.meet(a, b) not in mem or L.join(a, b) not in mem:
                raise LatticeInputError(
                    f"not lattice-closed at ({L.label(a)}, {L.label(b)})"
                )
    for a in mem:
        for b in mem:
            for c in mem:
                lhs = L.meet(a, L.join(b, c))
                rhs = L.join(L.meet(a, b), L.meet(a, c))
                if lhs != rhs:
                    raise LatticeInputError(
                        "not distributive at "
                        f"({L.label(a)}, {L.label(b)}, {L.label(c)})"
                    )
    nonzero = [a for a in mem if a != L.zero]
    atoms = tuple(
        sorted(
            a
            for a in nonzero
            if not any(b != a and L.leq(b, a) for b in nonzero)
        )
    )
    for a in mem:
        if L.join_all(x for x in atoms if L.leq(x, a)) != a:
            raise LatticeInputError(f"{L.label(a)} is not a join of atoms")
    return BooleanSubalgebra(L, mem, atoms)


def warshall_up(labels, leq_pairs) -> list[int]:
    """The reflexive-transitive closure of ``leq_pairs`` as up-set bitmasks
    by id, by Warshall's algorithm."""
    index = {lab: i for i, lab in enumerate(labels)}
    up = [1 << i for i in range(len(labels))]
    for x, y in leq_pairs:
        up[index[x]] |= 1 << index[y]
    for k in range(len(labels)):
        for i in range(len(labels)):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def antisymmetry_failure(labels, up) -> NotAPoset | None:
    """The first i, then the first j, with i ≤ j ≤ i and i ≠ j, or None."""
    for i in range(len(labels)):
        for j in _members(up[i]):
            if i != j and up[j] >> i & 1:
                return NotAPoset(
                    f"antisymmetry fails: {labels[i]} ≤ {labels[j]} ≤ {labels[i]}",
                    witness=(labels[i], labels[j]),
                )
    return None


def order_reversal_failure(labels, up, ortho) -> NotAnOrtholattice | None:
    """The first a ≤ b of the closure with b⊥ ≰ a⊥, or None."""
    for a in range(len(labels)):
        for b in _members(up[a]):
            if not up[ortho[b]] >> ortho[a] & 1:
                return NotAnOrtholattice(
                    f"⊥ not order-reversing on {labels[a]} ≤ {labels[b]}",
                    witness=(labels[a], labels[b]),
                )
    return None


def _bound(common: int, below) -> int | None:
    """The member of the mask ``common`` that ``below`` puts every other
    member under (``below`` is down for a greatest, up for a least member),
    or None."""
    best = [m for m in _members(common) if common & ~below[m] == 0]
    return best[0] if best else None


def _down(up) -> list[int]:
    n = len(up)
    return [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]


def _ortho_map(labels, ortho_pairs) -> list[int]:
    index = {lab: i for i, lab in enumerate(labels)}
    ortho = [0] * len(labels)
    for x, y in ortho_pairs:
        ortho[index[x]], ortho[index[y]] = index[y], index[x]
    return ortho


def lattice_failure_exhaustive(labels, leq_pairs, ortho_pairs):
    """The first axiom group that fails on the Warshall closure of
    ``leq_pairs``, in the library's stage order (poset, lattice, ortholattice,
    orthomodular), as an error naming the oracle's first witness, or None.
    ``ortho_pairs`` must describe a total involution.  Every meet is checked
    as well as every join."""
    n = len(labels)
    up = warshall_up(labels, leq_pairs)
    exc = antisymmetry_failure(labels, up)
    if exc is not None:
        return exc
    down = _down(up)
    full = (1 << n) - 1
    if sum(u == full for u in up) != 1 or sum(d == full for d in down) != 1:
        return NotALattice("no unique smallest/greatest element")
    join = [[_bound(up[a] & up[b], up) for b in range(n)] for a in range(n)]
    meet = [[_bound(down[a] & down[b], down) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            if join[a][b] is None or meet[a][b] is None:
                return NotALattice(
                    f"no meet or join for ({labels[a]}, {labels[b]})",
                    witness=(labels[a], labels[b]),
                )
    ortho = _ortho_map(labels, ortho_pairs)
    one = down.index(full)
    for a in range(n):
        if join[a][ortho[a]] != one:
            return NotAnOrtholattice(
                f"{labels[a]} ∨ {labels[ortho[a]]} ≠ 1", witness=(labels[a],)
            )
    exc = order_reversal_failure(labels, up, ortho)
    if exc is not None:
        return exc
    for a in range(n):
        for b in _members(up[a]):
            if join[a][meet[ortho[a]][b]] != b:
                return NotOrthomodular(
                    f"orthomodular law fails on {labels[a]} ≤ {labels[b]}",
                    witness=(labels[a], labels[b]),
                )
    return None


def lattice_tables_exhaustive(labels, leq_pairs, ortho_pairs) -> dict:
    """The up-sets, ⊥-sets, meet and join tables, orthogonal pairs, atoms,
    ⊥ and 0 of an orthomodular lattice, from the Warshall closure of
    ``leq_pairs``."""
    n = len(labels)
    up = warshall_up(labels, leq_pairs)
    down = _down(up)
    ortho = _ortho_map(labels, ortho_pairs)
    meet = tuple(tuple(_bound(down[a] & down[b], down) for b in range(n)) for a in range(n))
    join = tuple(tuple(_bound(up[a] & up[b], up) for b in range(n)) for a in range(n))
    perp = tuple(down[ortho[b]] for b in range(n))
    zero = next(i for i in range(n) if up[i] == (1 << n) - 1)
    return {
        "up": tuple(up),
        "perp": perp,
        "meet": meet,
        "join": join,
        "pairs": tuple((a, b, join[a][b]) for a in range(n) for b in range(a + 1, n)
                       if perp[a] >> b & 1),
        "atoms": tuple(a for a in range(n) if down[a] == 1 << a | 1 << zero and a != zero),
        "ortho": tuple(ortho),
        "zero": zero,
    }


def atom_splits_exhaustive(labels, leq_pairs, ortho_pairs) -> list[tuple[int, int, int]]:
    """(e, x∧e⊥, x), its first two entries sorted, for each atom e and each
    x > e of the Warshall closure of ``leq_pairs``, once each, sorted.  The
    meets come from ``lattice_tables_exhaustive``, so an ortholattice that
    is not orthomodular (o6) has them too."""
    T = lattice_tables_exhaustive(labels, leq_pairs, ortho_pairs)
    out = set()
    for e in T["atoms"]:
        for x in _members(T["up"][e]):
            if x != e:
                y = T["meet"][x][T["ortho"][e]]
                out.add((min(e, y), max(e, y), x))
    return sorted(out)


def additive_basis(n: int, zero: int, pairs) -> list[list[int]]:
    """Integer vectors spanning the functions f on range(n) with f(zero) = 0
    and f(j) = f(a) + f(b) for every (a, b, j) in ``pairs``: the null space
    of those equations, whose rows are kept in reduced row echelon form as
    sparse ``{column: Fraction}`` maps, one equation added at a time."""
    rref = {}  # pivot column -> its row, 1 at the pivot, 0 at every other pivot
    for a, b, j in [*pairs, (zero, zero, zero)]:
        row = {}
        for col, c in ((a, 1), (b, 1), (j, -1)):
            row[col] = row.get(col, 0) + c
        for col in [col for col in row if col in rref]:
            c = row.pop(col)
            for k, x in rref[col].items():
                if k != col:
                    row[k] = row.get(k, 0) - c * x
        row = {k: Fraction(x) for k, x in row.items() if x}
        if row:
            col = min(row)
            row = {k: x / row[col] for k, x in row.items()}
            for other in rref.values():
                c = other.pop(col, 0)
                for k, x in row.items():
                    if k != col and c:
                        other[k] = other.get(k, 0) - c * x
                for k in [k for k, x in other.items() if not x]:
                    del other[k]
            rref[col] = row
    basis = []
    for free in (c for c in range(n) if c not in rref):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for col, row in rref.items():
            v[col] = -row.get(free, 0)
        scale = lcm(*(Fraction(x).denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis
