from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob.errors import (
    AlphaNotConcentrated,
    C1Violation,
    C2Violation,
    C3Violation,
    ConditionOutsideCS,
    LatticeInputError,
    NotAConditionalSystem,
    NotAdditive,
    NotNormalized,
    NotOrthogonalFamily,
    ParseError,
    PreconditionFCA,
    WeightsNotNormalized,
    ZeroMassCondition,
)
from conftest import two_blocks_table


def mo2_state(L, ma, mb):
    vals = [F(0)] * len(L)
    vals[L.one] = F(1)
    vals[L.id_of("a")] = F(ma)
    vals[L.id_of("a'")] = 1 - F(ma)
    vals[L.id_of("b")] = F(mb)
    vals[L.id_of("b'")] = 1 - F(mb)
    return vals


class TestValidateState:
    def test_example_diagonal(self, mo2):
        m = q.validate_state(mo2, mo2_state(mo2, F(2, 5), F(3, 10)))
        assert m(mo2.id_of("a")) == F(2, 5)
        assert m(mo2.id_of("b'")) == F(7, 10)

    def test_constant_one_not_normalized(self, mo2):
        with pytest.raises(NotNormalized):
            q.validate_state(mo2, [F(1)] * len(mo2))

    def test_not_additive_witness(self, mo2):
        vals = mo2_state(mo2, F(1, 2), F(3, 10))
        vals[mo2.id_of("a'")] = F(3, 5)
        with pytest.raises(NotAdditive) as exc:
            q.validate_state(mo2, vals)
        assert set(exc.value.witness) == {"a", "a'"}

    def test_partial_mapping_names_the_first_missing_element(self, mo2):
        first = mo2.label(next(a for a in mo2.elements if a not in (mo2.zero, mo2.one)))
        with pytest.raises(NotNormalized) as exc:
            q.validate_state(mo2, {mo2.zero: 0, mo2.one: 1})
        assert str(exc.value) == f"state table missing m({first})"
        assert exc.value.witness == (first,)

    def test_out_of_range(self, mo2):
        vals = mo2_state(mo2, F(2, 5), F(3, 10))
        vals[mo2.id_of("b")] = F(-1, 10)
        with pytest.raises(NotNormalized):
            q.validate_state(mo2, vals)

    def test_short_sequence_is_not_total(self, mo2):
        with pytest.raises(NotNormalized) as exc:
            q.validate_state(mo2, mo2_state(mo2, F(2, 5), F(3, 10))[:-1])
        assert str(exc.value) == "state table is not total"


class TestValidateConditionalState:
    def test_call_outside_cs_is_refused(self, mo2, example_f):
        with pytest.raises(ConditionOutsideCS) as exc:
            example_f(mo2.id_of("a"), mo2.zero)
        assert str(exc.value) == "0 is not a condition"
        assert exc.value.witness == ("0",)

    def test_example_table_valid(self, example_f, mo2):
        assert example_f(mo2.id_of("b"), mo2.id_of("a'")) == F(11, 30)
        assert example_f.conditions == frozenset(
            mo2.id_of(x) for x in ("a", "a'", "b", "b'", "1")
        )

    def test_c3_violation_witness(self, mo2):
        # Corrupt the b-row of column a (keeping the section a state, so C1
        # still holds): the mixture 2/5·1/4 + 3/5·11/30 no longer gives 3/10.
        cs, table = two_blocks_table(mo2)
        a = mo2.id_of("a")
        table[(mo2.id_of("b"), a)] = F(1, 4)
        table[(mo2.id_of("b'"), a)] = F(3, 4)
        with pytest.raises(C3Violation) as exc:
            q.validate_conditional_state(mo2, cs, table)
        b, fam = exc.value.witness
        assert b == "b" and set(fam) == {"a", "a'"}

    def test_single_entry_corruption_breaks_a_section(self, mo2):
        cs, table = two_blocks_table(mo2)
        table[(mo2.id_of("b"), mo2.id_of("a"))] = F(1, 4)
        with pytest.raises(C1Violation):
            q.validate_conditional_state(mo2, cs, table)

    def test_empty_conditional_system_has_the_empty_table(self, mo2):
        f = q.validate_conditional_state(mo2, frozenset(), {})
        assert f.conditions == frozenset() and f.table == {}

    def test_c2_violation(self, mo2):
        cs, table = two_blocks_table(mo2)
        a, ap = mo2.id_of("a"), mo2.id_of("a'")
        table[(a, a)] = F(9, 10)
        table[(ap, a)] = F(1, 10)
        with pytest.raises(C2Violation):
            q.validate_conditional_state(mo2, cs, table)


class TestReadOrder:
    """A table with two faults raises the one met first when the sections
    (conditions in the iteration order of cs) are read one after another,
    each entry by element id, its lookup and its read together."""

    def _faults(self, L, first, second):
        """A valid table with ``first`` and ``second``, each ("bad" or
        "missing", (b, a)), applied."""
        cs, table = two_blocks_table(L)
        for kind, key in (first, second):
            if kind == "bad":
                table[key] = "zz"
            else:
                del table[key]
        return cs, table

    def _outcome(self, L, cs, table):
        with pytest.raises((ParseError, C1Violation)) as exc:
            q.validate_conditional_state(L, cs, table)
        return type(exc.value), str(exc.value)

    @pytest.mark.parametrize("order", ["bad-first", "missing-first"])
    def test_across_sections(self, mo2, order):
        cs, _ = two_blocks_table(mo2)
        early, late = list(cs)[0], list(cs)[-1]
        b = mo2.id_of("b")
        faults = [("bad", (b, early)), ("missing", (b, late))]
        if order == "missing-first":
            faults = [("missing", (b, early)), ("bad", (b, late))]
        got = self._outcome(mo2, *self._faults(mo2, *faults))
        if order == "bad-first":
            assert got == (ParseError, "not a rational: 'zz'")
        else:
            assert got == (C1Violation, f"table missing f(b, {mo2.label(early)})")

    @pytest.mark.parametrize("order", ["bad-first", "missing-first"])
    def test_within_a_section(self, mo2, order):
        a = mo2.one
        x, y = sorted((mo2.id_of("a"), mo2.id_of("b'")))
        kinds = ("bad", "missing") if order == "bad-first" else ("missing", "bad")
        got = self._outcome(mo2, *self._faults(mo2, (kinds[0], (x, a)), (kinds[1], (y, a))))
        if order == "bad-first":
            assert got == (ParseError, "not a rational: 'zz'")
        else:
            assert got == (C1Violation, f"table missing f({mo2.label(x)}, 1)")

    @pytest.mark.parametrize("order", ["bad-first", "missing-first"])
    def test_state_mapping(self, mo2, order):
        values = dict(enumerate(mo2_state(mo2, F(2, 5), F(3, 10))))
        x, y = sorted((mo2.id_of("a"), mo2.id_of("b'")))
        bad, missing = (x, y) if order == "bad-first" else (y, x)
        values[bad] = "zz"
        del values[missing]
        with pytest.raises((ParseError, NotNormalized)) as exc:
            q.validate_state(mo2, values)
        if order == "bad-first":
            assert (type(exc.value), str(exc.value)) == (ParseError, "not a rational: 'zz'")
        else:
            assert (type(exc.value), str(exc.value)) == (
                NotNormalized, f"state table missing m({mo2.label(x)})"
            )


class TestBuildConditionalState:
    def test_single_condition(self, mo2):
        alpha = q.validate_state(mo2, mo2_state(mo2, F(1, 3), F(1, 4)))
        f = q.build_conditional_state(mo2, [mo2.one], [alpha], [F(1)])
        assert f.conditions == frozenset({mo2.one})
        for d in mo2.elements:
            assert f(d, mo2.one) == alpha(d)

    def _block_alphas(self, mo2, example_f):
        a, ap = mo2.id_of("a"), mo2.id_of("a'")
        return (
            [a, ap],
            [example_f.state_given(a), example_f.state_given(ap)],
        )

    def test_reproduces_marginal_column(self, mo2, example_f):
        atoms, alphas = self._block_alphas(mo2, example_f)
        f = q.build_conditional_state(mo2, atoms, alphas, [F(2, 5), F(3, 5)])
        b = mo2.id_of("b")
        # 2/5 · 1/5 + 3/5 · 11/30 = 3/10
        assert f(b, mo2.one) == F(3, 10)
        assert f.conditions == frozenset({*atoms, mo2.one})

    def test_degenerate_weights(self, mo2, example_f):
        atoms, alphas = self._block_alphas(mo2, example_f)
        f = q.build_conditional_state(mo2, atoms, alphas, [F(1), F(0)])
        b = mo2.id_of("b")
        assert f(b, mo2.one) == example_f(b, mo2.id_of("a")) == F(1, 5)

    def test_output_passes_validation(self, mo2, example_f):
        atoms, alphas = self._block_alphas(mo2, example_f)
        f = q.build_conditional_state(mo2, atoms, alphas, [F(1, 3), F(2, 3)])
        q.validate_conditional_state(mo2, f.conditions, f.table)

    def test_not_orthogonal_family(self, mo2, example_f):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        alphas = [example_f.state_given(a), example_f.state_given(b)]
        with pytest.raises(NotOrthogonalFamily):
            q.build_conditional_state(mo2, [a, b], alphas, [F(1, 2), F(1, 2)])

    def test_alpha_not_concentrated(self, mo2, example_f):
        a, ap = mo2.id_of("a"), mo2.id_of("a'")
        alphas = [example_f.state_given(ap), example_f.state_given(ap)]
        with pytest.raises(AlphaNotConcentrated):
            q.build_conditional_state(mo2, [a, ap], alphas, [F(1, 2), F(1, 2)])

    def test_misaligned_inputs(self, mo2, example_f):
        atoms, alphas = self._block_alphas(mo2, example_f)
        with pytest.raises(WeightsNotNormalized) as exc:
            q.build_conditional_state(mo2, atoms, alphas[:1], [F(1, 2), F(1, 2)])
        assert str(exc.value) == "atoms, alphas and weights must align"

    def test_weights_not_normalized(self, mo2, example_f):
        atoms, alphas = self._block_alphas(mo2, example_f)
        with pytest.raises(WeightsNotNormalized):
            q.build_conditional_state(mo2, atoms, alphas, [F(1, 2), F(1, 4)])

    def test_rejects_an_alpha_that_is_not_a_state(self, mo2, example_f):
        """The table is validated: an unchecked State that is concentrated on
        its atom but not additive breaks C1 in every section mixed from it,
        first (in the iteration order of the conditions) at 1."""
        a, ap = mo2.id_of("a"), mo2.id_of("a'")
        vals = list(example_f.state_given(a).values)
        vals[mo2.id_of("b")] += F(1, 10)
        alphas = [q.State(mo2, tuple(vals)), example_f.state_given(ap)]
        with pytest.raises(C1Violation) as exc:
            q.build_conditional_state(mo2, [a, ap], alphas, [F(1, 2), F(1, 2)])
        assert exc.value.witness == ("1", ("b", "b'"))
        assert str(exc.value) == "f(., 1) is not a state: m(b ∨ b') ≠ m(b) + m(b')"

    def test_atom_subsets_sharing_a_join(self, mo2, example_f):
        """0 is orthogonal to a, so [0, a] passes the family check, but {a}
        and {0, a} both join to a."""
        a = mo2.id_of("a")
        at_zero = q.State(mo2, tuple(F(x == mo2.zero) for x in mo2.elements))
        alphas = [at_zero, example_f.state_given(a)]
        with pytest.raises(NotOrthogonalFamily) as exc:
            q.build_conditional_state(mo2, [mo2.zero, a], alphas, [F(1, 2), F(1, 2)])
        assert str(exc.value) == "atom subsets share the join a"
        assert exc.value.witness == ("a",)

    def test_sub_mixtures_are_renormalized(self):
        """The section at a₁ ∨ a₂ of three atoms is the mixture of α₁ and α₂
        with weights k₁/(k₁ + k₂) and k₂/(k₁ + k₂)."""
        L = q.build_catalog("boolean", 3)
        deltas = [q.validate_state(L, [F(L.leq(atom, x)) for x in L.elements])
                  for atom in L.atoms]
        k = [F(1, 2), F(1, 3), F(1, 6)]
        f = q.build_conditional_state(L, L.atoms, deltas, k)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            top = L.join(L.atoms[i], L.atoms[j])
            assert f(L.atoms[i], top) == k[i] / (k[i] + k[j])

    def test_zero_mass_subfamily(self):
        L = q.build_catalog("boolean", 3)
        atoms = [x for x in L.elements
                 if x != L.zero and all(not L.leq(y, x) or y in (L.zero, x)
                                        for y in L.elements)]
        deltas = [
            q.validate_state(L, [F(1) if L.leq(atom, x) else F(0) for x in L.elements])
            for atom in atoms
        ]
        with pytest.raises(ZeroMassCondition):
            q.build_conditional_state(L, atoms, deltas, [F(1), F(0), F(0)])


class TestIndependence:
    def test_worked_example_directions(self, mo2, example_f):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert q.is_independent(example_f, a, b, mo2.one)
        assert not q.is_independent(example_f, b, a, mo2.one)

    def test_top_always_independent(self, mo2, example_f):
        for a in example_f.conditions:
            assert q.is_independent(example_f, mo2.one, a, mo2.one)

    def test_precondition_enforced(self, mo2, example_f):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        with pytest.raises(PreconditionFCA):
            q.is_independent(example_f, a, a, b)  # f(b, a) = 1/5 ≠ 1

    def test_condition_outside_cs(self, mo2, example_f):
        a, ap = mo2.id_of("a"), mo2.id_of("a'")
        f = q.build_conditional_state(
            mo2,
            [a, ap],
            [example_f.state_given(a), example_f.state_given(ap)],
            [F(2, 5), F(3, 5)],
        )
        with pytest.raises(ConditionOutsideCS):
            q.is_independent(f, a, mo2.id_of("b"), mo2.one)


class TestIdsThatAreNotElements:
    """An id outside ``range(len(L))`` is refused by name, never wrapped
    around as a negative index nor let out as an IndexError."""

    @pytest.mark.parametrize("a", [-1, len(q.build_catalog("mo", 2)), 99])
    def test_label(self, mo2, a):
        with pytest.raises(LatticeInputError, match=rf"^{a} is not an element id$"):
            mo2.label(a)

    @pytest.mark.parametrize("a", [-1, 99])
    def test_condition_that_is_no_element(self, mo2, a):
        f = q.random_conditional_state(mo2, 0)
        with pytest.raises(NotAConditionalSystem, match=rf"^{a} is not an element$") as exc:
            q.validate_conditional_state(mo2, f.conditions | {a}, f.table)
        assert exc.value.witness == (str(a),)

    def test_zero_is_named_before_an_id_that_is_no_element(self, mo2):
        with pytest.raises(NotAConditionalSystem, match="^conditional system contains 0$"):
            mo2.check_conditional_system(frozenset({mo2.zero, 99}))

    def test_independence_given_no_element(self, mo2):
        f = q.random_conditional_state(mo2, 0)
        with pytest.raises(ConditionOutsideCS, match="^99 is not a condition$") as exc:
            q.is_independent(f, 1, 2, 99)
        assert exc.value.witness == ("99",)


class TestIndependenceProperties:
    """The three listed consequences of the definition, at c = 1, plus the
    classical reduction, over the shared random instance set."""

    def _admissible(self, L, f):
        return [a for a in f.conditions if L.ortho(a) in f.conditions]

    def test_complement_in_condition(self, instances):
        for L, f, _ in instances:
            for a in self._admissible(L, f):
                for b in L.elements:
                    assert q.is_independent(f, b, a, L.one) == q.is_independent(
                        f, b, L.ortho(a), L.one
                    )

    def test_complement_in_event(self, instances):
        for L, f, _ in instances:
            for a in f.conditions:
                for b in L.elements:
                    assert q.is_independent(f, b, a, L.one) == q.is_independent(
                        f, L.ortho(b), a, L.one
                    )

    def test_symmetry_under_compatibility(self, instances):
        for L, f, _ in instances:
            for a in f.conditions:
                for b in f.conditions:
                    if L.is_compatible(a, b):
                        assert q.is_independent(f, b, a, L.one) == q.is_independent(
                            f, a, b, L.one
                        )

    def test_classical_reduction(self):
        L = q.build_catalog("boolean", 3)
        for seed in range(10):
            f = q.random_conditional_state(L, seed)
            m = f.state_given(L.one)
            for a in f.conditions:
                for b in L.elements:
                    product = m(L.meet(a, b)) == m(a) * m(b)
                    assert q.is_independent(f, b, a, L.one) == product


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([("mo", 2), ("mo", 3), ("boolean", 3)]))
def test_random_conditional_states_validate(seed, kind):
    L = q.build_catalog(*kind)
    f = q.random_conditional_state(L, seed)
    q.validate_conditional_state(L, f.conditions, f.table)
