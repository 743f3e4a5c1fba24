from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

import omlprob as q
from omlprob.catalog import o6_raw, raw_structure
from omlprob.errors import (
    LatticeInputError,
    NotAConditionalSystem,
    NotALattice,
    NotAnOrtholattice,
    NotAPoset,
    NotOrthomodular,
)

from conftest import pasting_raw
from oracles import lattice_tables_exhaustive


def with_oracle(raw):
    """The lattice of ``raw`` and its tables built by the Warshall oracle."""
    args = raw["labels"], raw["leq"], raw["ortho"]
    return q.build_lattice(*args), lattice_tables_exhaustive(*args)


CS_KINDS = {
    "boolean3": with_oracle(raw_structure("boolean", 3)),
    "mo3": with_oracle(raw_structure("mo", 3)),
    "pasting": with_oracle(pasting_raw()),
}


def brute_meet(L, a, b):
    """Oracle: scan all common lower bounds for the greatest one."""
    lower = [x for x in L.elements if L.leq(x, a) and L.leq(x, b)]
    best = [m for m in lower if all(L.leq(x, m) for x in lower)]
    assert len(best) == 1
    return best[0]


def brute_join(L, a, b):
    upper = [x for x in L.elements if L.leq(a, x) and L.leq(b, x)]
    best = [j for j in upper if all(L.leq(j, x) for x in upper)]
    assert len(best) == 1
    return best[0]


def brute_cs_closure(T, seed):
    """Oracle: fixed-point closure under join and relative complement, on the
    tables ``T`` of ``lattice_tables_exhaustive``."""
    join, meet, up, ortho = T["join"], T["meet"], T["up"], T["ortho"]
    members = set(seed)
    while True:
        new = set()
        for a in members:
            for b in members:
                new.add(join[a][b])
                if a != b and up[a] >> b & 1:
                    new.add(meet[ortho[a]][b])
        if new <= members:
            return frozenset(members)
        members |= new


def brute_cs_failure(T, labels, members):
    """Oracle: (message, witness) of the first failing conditional-system
    axiom, or None.  0 comes first, then a and b over members in iteration
    order, the join before the relative complement, on the tables ``T``."""
    join, meet, up, ortho, zero = T["join"], T["meet"], T["up"], T["ortho"], T["zero"]
    if zero in members:
        return "conditional system contains 0", (labels[zero],)
    for a in members:
        for b in members:
            la, lb = labels[a], labels[b]
            if join[a][b] not in members:
                return f"not join-closed: {la} ∨ {lb} missing", (la, lb)
            if a != b and up[a] >> b & 1 and meet[ortho[a]][b] not in members:
                return f"not closed under relative complement of {la} in {lb}", (la, lb)
    return None


class TestBuild:
    def test_two_element_chain(self):
        L = q.build_lattice(["0", "1"], [["0", "1"]], [["0", "1"]])
        assert len(L) == 2 and L.zero != L.one

    def test_mo2(self, mo2):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert mo2.meet(a, b) == mo2.zero
        assert mo2.join(a, b) == mo2.one

    def test_o6_not_orthomodular(self):
        raw = o6_raw()
        with pytest.raises(NotOrthomodular) as exc:
            q.build_lattice(raw["labels"], raw["leq"], raw["ortho"])
        assert exc.value.witness == ("a", "b")

    def test_o6_witness_against_oracle(self):
        # Exhaustively find every failing pair of the orthomodular law on the
        # hexagon, using only the order and the orthocomplement map.
        labels = ["0", "a", "b", "b'", "a'", "1"]
        leq = {
            (x, y)
            for x in labels
            for y in labels
            if x == "0" or y == "1" or x == y
        } | {("a", "b"), ("b'", "a'")}
        ortho = {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"}

        def meet(x, y):
            lower = [z for z in labels if (z, x) in leq and (z, y) in leq]
            return next(m for m in lower if all((z, m) in leq for z in lower))

        def join(x, y):
            upper = [z for z in labels if (x, z) in leq and (y, z) in leq]
            return next(m for m in upper if all((m, z) in leq for z in upper))

        failing = [
            (x, y)
            for x in labels
            for y in labels
            if (x, y) in leq and join(x, meet(ortho[x], y)) != y
        ]
        assert ("a", "b") in failing

    def test_antisymmetry_violation(self):
        with pytest.raises(NotAPoset):
            q.build_lattice(["0", "x", "y", "1"],
                            [["0", "x"], ["x", "y"], ["y", "x"], ["y", "1"]],
                            [["0", "1"], ["x", "y"]])

    def test_missing_bounds(self):
        with pytest.raises(NotALattice):
            q.build_lattice(["a", "b"], [], [["a", "b"]])

    def test_no_unique_join(self):
        # a, b < c, d < 1: the pair (a, b) has minimal upper bounds c and d.
        labels = ["0", "a", "b", "c", "d", "1"]
        leq = [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
               ["b", "d"], ["c", "1"], ["d", "1"]]
        with pytest.raises(NotALattice) as exc:
            q.build_lattice(labels, leq, [["0", "1"], ["a", "b"], ["c", "d"]])
        assert exc.value.witness == ("a", "b")

    def test_no_unique_meet(self):
        # c, d < a, b: the pair (a, b) has maximal lower bounds c and d, so
        # (c, d) has minimal upper bounds a and b: no meet shows as no join.
        labels = ["0", "a", "b", "c", "d", "1"]
        leq = [["0", "c"], ["0", "d"], ["c", "a"], ["c", "b"], ["d", "a"],
               ["d", "b"], ["a", "1"], ["b", "1"]]
        with pytest.raises(NotALattice) as exc:
            q.build_lattice(labels, leq, [["0", "1"], ["a", "b"], ["c", "d"]])
        assert exc.value.witness == ("c", "d")
        assert str(exc.value) == "no join for (c, d)"

    def test_complement_law_violation(self):
        with pytest.raises(NotAnOrtholattice):
            q.build_lattice(["0", "a", "1"], [["0", "a"], ["a", "1"]],
                            [["0", "1"], ["a", "a"]])

    def test_duplicate_labels(self):
        with pytest.raises(LatticeInputError):
            q.build_lattice(["0", "0"], [], [])

    @pytest.mark.parametrize("labels, leq, ortho, message", [
        (["0", "1"], [(["x"], "1")], [("0", "1")], "unknown element label ['x']"),
        (["0", "1"], [("0", "1")], [({"x": 1}, "1")], "unknown element label {'x': 1}"),
        (["0", "1", ["a"]], [], [], "label is not hashable (unhashable type: 'list')"),
        ([], [], [], "empty lattice"),
        (["0", "a", "a'", "1"], [["0", "a"], ["a", "1"], ["0", "a'"], ["a'", "1"]],
         [["0", "1"], ["a", "a'"], ["a", "1"]], "conflicting orthocomplement for a"),
    ], ids=["unhashable-in-leq", "unhashable-in-ortho", "unhashable-label", "empty",
            "conflicting-ortho"])
    def test_malformed_input_is_refused(self, labels, leq, ortho, message):
        with pytest.raises(LatticeInputError) as exc:
            q.build_lattice(labels, leq, ortho)
        assert str(exc.value) == message

    def test_partial_ortho_map(self):
        with pytest.raises(LatticeInputError):
            q.build_lattice(["0", "a", "a'", "1"],
                            [["0", "a"], ["a", "1"], ["0", "a'"], ["a'", "1"]],
                            [["0", "1"]])


class TestDerivedRelations:
    def test_meet_join_against_oracle(self, mo2):
        for a in mo2.elements:
            for b in mo2.elements:
                assert mo2.meet(a, b) == brute_meet(mo2, a, b)
                assert mo2.join(a, b) == brute_join(mo2, a, b)

    @pytest.mark.parametrize(
        "kind, n", [("boolean", n) for n in range(1, 7)] + [("mo", n) for n in range(1, 13)]
    )
    def test_meet_join_against_oracle_on_catalog(self, kind, n):
        L = q.build_catalog(kind, n)
        for a in L.elements:
            for b in L.elements:
                assert L.meet(a, b) == brute_meet(L, a, b)
                assert L.join(a, b) == brute_join(L, a, b)

    def test_meet_with_one_is_identity(self, mo2):
        for a in mo2.elements:
            assert mo2.meet(a, mo2.one) == a

    def test_mo2_cross_block_join(self, mo2):
        a, bp = mo2.id_of("a"), mo2.id_of("b'")
        assert mo2.join(a, bp) == mo2.one

    def test_orthogonality(self, mo2):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert mo2.is_orthogonal(a, mo2.ortho(a))
        assert not mo2.is_orthogonal(a, b)
        for x in mo2.elements:
            assert mo2.is_orthogonal(mo2.zero, x)

    def test_orthogonality_symmetric(self, mo2):
        for a in mo2.elements:
            for b in mo2.elements:
                assert mo2.is_orthogonal(a, b) == mo2.is_orthogonal(b, a)

    def test_compatibility(self, mo2):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert mo2.is_compatible(a, mo2.ortho(a))
        assert not mo2.is_compatible(a, b)
        assert mo2.is_compatible(a, mo2.one)

    def test_compatibility_witness_triple(self, mo2):
        for a in mo2.elements:
            for b in mo2.elements:
                if mo2.is_compatible(a, b):
                    c = mo2.meet(a, b)
                    a1 = mo2.meet(a, mo2.ortho(b))
                    b1 = mo2.meet(b, mo2.ortho(a))
                    assert mo2.join(a1, c) == a
                    assert mo2.join(b1, c) == b
                    assert mo2.is_orthogonal(a1, b1)

    def test_de_morgan(self):
        for kind, n in (("mo", 2), ("boolean", 3)):
            L = q.build_catalog(kind, n)
            for a in L.elements:
                for b in L.elements:
                    assert L.ortho(L.join(a, b)) == L.meet(L.ortho(a), L.ortho(b))

    def test_distributivity_over_compatible_orthogonal_families(self):
        # b ∧ (⋁ a_i) = ⋁ (a_i ∧ b) when b is compatible with every a_i of a
        # mutually orthogonal family.
        for kind, n in (("mo", 2), ("mo", 3), ("boolean", 3)):
            L = q.build_catalog(kind, n)
            for size in (2, 3):
                for fam in combinations(L.elements, size):
                    if not all(
                        L.is_orthogonal(x, y) for x, y in combinations(fam, 2)
                    ):
                        continue
                    for b in L.elements:
                        if all(L.is_compatible(x, b) for x in fam):
                            lhs = L.meet(b, L.join_all(fam))
                            rhs = L.join_all(L.meet(x, b) for x in fam)
                            assert lhs == rhs


class TestBooleanSubalgebra:
    def test_generated_by_one(self, mo2):
        B = mo2.boolean_subalgebra(mo2.one)
        assert B.members == frozenset((mo2.zero, mo2.one))
        assert B.atoms == (mo2.one,)

    def test_generated_by_atom(self, mo2):
        for lab in ("a", "b"):
            d = mo2.id_of(lab)
            B = mo2.boolean_subalgebra(d)
            assert B.members == frozenset((mo2.zero, d, mo2.ortho(d), mo2.one))
            assert set(B.atoms) == {d, mo2.ortho(d)}

    def test_membership_is_of_the_members(self, mo2):
        B = mo2.boolean_subalgebra(mo2.id_of("a"))
        assert [x for x in mo2.elements if x in B] == sorted(B.members)
        assert mo2.id_of("b") not in B


class TestConditionalSystems:
    @pytest.mark.parametrize("members, message, witness", [
        (("0", "1"), "conditional system contains 0", ("0",)),
        (("a", "b"), "not join-closed: a ∨ b missing", ("a", "b")),
        (("a", "1"), "not closed under relative complement of a in 1", ("a", "1")),
    ])
    def test_check_names_the_first_missing_element(self, members, message, witness):
        L = q.build_catalog("boolean", 2)
        with pytest.raises(NotAConditionalSystem) as exc:
            L.check_conditional_system(frozenset(map(L.id_of, members)))
        assert str(exc.value) == message
        assert exc.value.witness == witness

    @given(st.sampled_from(sorted(CS_KINDS)), st.integers(0, 2**12 - 1))
    def test_check_accepts_exactly_the_closed_sets(self, kind, bits):
        L, T = CS_KINDS[kind]
        members = frozenset(x for x in L.elements if x != L.zero and bits >> x & 1)
        assume(members)
        try:
            L.check_conditional_system(members)
        except NotAConditionalSystem:
            closed = False
        else:
            closed = True
        assert closed == (brute_cs_closure(T, members) == members)

    @pytest.mark.parametrize("kind", sorted(CS_KINDS))
    def test_check_and_closure_match_the_oracle_on_every_member_set(self, kind):
        L, T = CS_KINDS[kind]
        for bits in range(1 << len(L)):
            members = frozenset(x for x in L.elements if bits >> x & 1)
            try:
                L.check_conditional_system(members)
            except NotAConditionalSystem as exc:
                got = str(exc), exc.witness
            else:
                got = None
            assert got == brute_cs_failure(T, L.labels, members)


@pytest.mark.parametrize("kind,n", [("boolean", 1), ("boolean", 2), ("boolean", 4),
                                    ("mo", 1), ("mo", 4), ("chain2", 1)])
def test_catalog_lattices_validate(kind, n):
    L = q.build_catalog(kind, n)
    # Re-check every axiom clause directly on the built object.
    for a in L.elements:
        assert L.ortho(L.ortho(a)) == a
        assert L.join(a, L.ortho(a)) == L.one
        for b in L.elements:
            if L.leq(a, b):
                assert L.leq(L.ortho(b), L.ortho(a))
                assert L.join(a, L.meet(L.ortho(a), b)) == b
