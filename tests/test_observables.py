from fractions import Fraction as F

import pytest

import omlprob as q
from omlprob.errors import AtomOutsideCS, DuplicateValue, NotAPartition, ParseError

from oracles import expectation_sum


@pytest.fixture
def obs_x(mo2):
    return q.make_observable(mo2, [(1, mo2.id_of("a")), (2, mo2.id_of("a'"))])


@pytest.fixture
def obs_y(mo2):
    return q.make_observable(mo2, [(1, mo2.id_of("b")), (2, mo2.id_of("b'"))])


class TestMakeObservable:
    def test_block_observable(self, mo2, obs_x):
        assert obs_x.spectrum == (F(1), F(2))
        B = obs_x.range_subalgebra()
        assert B.members == mo2.boolean_subalgebra(mo2.id_of("a")).members

    def test_constant_observable(self, mo2):
        c = q.make_observable(mo2, [(F(7, 2), mo2.one)])
        assert c.range_subalgebra().members == frozenset({mo2.zero, mo2.one})

    def test_cross_block_pair_is_not_a_partition(self, mo2):
        with pytest.raises(NotAPartition):
            q.make_observable(mo2, [(1, mo2.id_of("a")), (2, mo2.id_of("b"))])

    def test_incomplete_join_rejected(self, mo2):
        with pytest.raises(NotAPartition):
            q.make_observable(mo2, [(1, mo2.id_of("a"))])

    def test_duplicate_value(self, mo2):
        with pytest.raises(DuplicateValue):
            q.make_observable(mo2, [(1, mo2.id_of("a")), (F(1), mo2.id_of("a'"))])


class TestJointDistribution:
    def test_singleton_cell(self, example_smap, obs_x, obs_y):
        jd = q.joint_distribution(example_smap, obs_x, obs_y)
        assert jd([1], [1]) == F(3, 25)

    def test_empty_set_vanishes(self, example_smap, obs_x, obs_y):
        jd = q.joint_distribution(example_smap, obs_x, obs_y)
        for Fset in ([], [1], [2], [1, 2]):
            assert jd([], Fset) == 0

    def test_order_matters_for_noncompatible_observables(
        self, example_smap, obs_x, obs_y
    ):
        pxy = q.joint_distribution(example_smap, obs_x, obs_y)
        pyx = q.joint_distribution(example_smap, obs_y, obs_x)
        assert pxy([1], [1]) == F(3, 25)
        assert pyx([1], [1]) == F(2, 25)
        assert pxy([1], [1]) != pyx([1], [1])

    def test_marginals_match_diagonal_state(self, example_smap, obs_x, obs_y):
        nu = q.nu_state(example_smap)
        jd = q.joint_distribution(example_smap, obs_x, obs_y)
        full_x, full_y = obs_x.spectrum, obs_y.spectrum
        for Eset in ([], [1], [2], [1, 2]):
            assert jd(Eset, full_y) == nu(obs_x.event(Eset))
            assert jd(full_x, [v for v in Eset]) == nu(obs_y.event(Eset))


class TestDistributionFunction:
    def test_saturates_at_one(self, example_smap, obs_x, obs_y):
        assert q.distribution_function(example_smap, obs_x, obs_y, 10, 10) == 1

    def test_vanishes_below_spectrum(self, example_smap, obs_x, obs_y):
        assert q.distribution_function(example_smap, obs_x, obs_y, 0, 10) == 0

    def test_half_open_capture(self, example_smap, obs_x, obs_y):
        got = q.distribution_function(example_smap, obs_x, obs_y, F(3, 2), F(3, 2))
        assert got == F(3, 25)

    def test_cutoff_at_spectrum_point_excludes_it(self, example_smap, obs_x, obs_y):
        assert q.distribution_function(example_smap, obs_x, obs_y, 1, 10) == 0

    def test_monotone_in_both_arguments(self, example_smap, obs_x, obs_y):
        grid = [F(1, 2), 1, F(3, 2), 2, 3]
        for s in grid:
            values = [
                q.distribution_function(example_smap, obs_x, obs_y, r, s)
                for r in grid
            ]
            assert values == sorted(values)
        for r in grid:
            values = [
                q.distribution_function(example_smap, obs_x, obs_y, r, s)
                for s in grid
            ]
            assert values == sorted(values)

    def test_cutoffs_are_read_exactly(self, example_smap, mo2):
        x = q.make_observable(mo2, [(F(1, 10), mo2.id_of("a")), (2, mo2.id_of("a'"))])
        assert q.distribution_function(example_smap, x, x, F(1, 10), 3) == 0
        assert q.distribution_function(example_smap, x, x, "1/10", "3") == 0
        assert x.event_below("1/10") == mo2.zero
        want = q.distribution_function(example_smap, x, x, F(2), F(3))
        assert q.distribution_function(example_smap, x, x, 2, 3) == want
        with pytest.raises(ParseError):
            q.distribution_function(example_smap, x, x, 0.1, 3)
        with pytest.raises(ParseError):
            x.event_below(0.1)


class TestExpectation:
    def test_marginal_expectation(self, example_f, obs_x, mo2):
        assert q.expectation(example_f, obs_x, mo2.one) == F(8, 5)
        for cond in ("b", "b'"):
            assert q.expectation(example_f, obs_x, mo2.id_of(cond)) == F(8, 5)

    def test_conditioned_expectation(self, example_f, obs_y, mo2):
        assert q.expectation(example_f, obs_y, mo2.id_of("a")) == F(9, 5)
        assert q.expectation(example_f, obs_y, mo2.id_of("a'")) == F(49, 30)

    def test_constant_observable(self, example_f, mo2):
        c = q.make_observable(mo2, [(F(7, 2), mo2.one)])
        for cond in example_f.conditions:
            assert q.expectation(example_f, c, cond) == F(7, 2)


class TestConditionalExpectation:
    def test_independent_case_collapses_to_constant(self, example_f, obs_x, mo2):
        B = mo2.boolean_subalgebra(mo2.id_of("b"))
        z = q.conditional_expectation(example_f, obs_x, B)
        assert z.spectrum == (F(8, 5),)
        assert z.assignment[F(8, 5)] == mo2.one

    def test_dependent_case(self, example_f, obs_y, mo2):
        B = mo2.boolean_subalgebra(mo2.id_of("a"))
        z = q.conditional_expectation(example_f, obs_y, B)
        assert z.assignment == {
            F(9, 5): mo2.id_of("a"),
            F(49, 30): mo2.id_of("a'"),
        }
        assert q.expectation(example_f, z, mo2.one) == F(17, 10)
        assert q.expectation(example_f, obs_y, mo2.one) == F(17, 10)

    def test_projection_on_measurable_observables(self):
        # x with range inside B is reproduced exactly.
        L = q.build_catalog("boolean", 3)
        d = L.atoms[0]
        for seed in range(5):
            f = q.random_conditional_state(L, seed)
            x = q.make_observable(L, [(3, d), (5, L.ortho(d))])
            B = L.boolean_subalgebra(d)
            z = q.conditional_expectation(f, x, B)
            assert z.assignment == x.assignment

    def test_law_of_total_expectation(self, instances):
        for L, f, _ in instances:
            nontrivial = [d for d in L.elements if d not in (L.zero, L.one)]
            if not nontrivial:
                continue
            d = nontrivial[0]
            x = q.make_observable(L, [(0, d), (1, L.ortho(d))])
            for c in nontrivial[:3]:
                z = q.conditional_expectation(f, x, L.boolean_subalgebra(c))
                assert q.expectation(f, z, L.one) == q.expectation(f, x, L.one)

    def test_values_past_the_literal_bound(self):
        """z is built from computed values, which may have more digits than
        ``parse_rational`` lets a caller's literal have."""
        L = q.build_catalog("boolean", 5)
        f = q.random_conditional_state(L, 0)
        x = q.make_observable(L, [(F(1, 10**999 + k), a) for k, a in zip((1, 3, 7, 9, 13), L.atoms)])
        B = L.boolean_subalgebra(L.atoms[0])
        z = q.conditional_expectation(f, x, B)
        assert z.assignment == {expectation_sum(f, x, b): b for b in B.atoms}
        assert max(v.denominator for v in z.spectrum) > 10**1000
        assert expectation_sum(f, z, L.one) == expectation_sum(f, x, L.one)

    def test_atom_outside_cs(self, mo2, example_f, obs_x):
        a, ap = mo2.id_of("a"), mo2.id_of("a'")
        f = q.build_conditional_state(
            mo2,
            [a, ap],
            [example_f.state_given(a), example_f.state_given(ap)],
            [F(2, 5), F(3, 5)],
        )
        with pytest.raises(AtomOutsideCS):
            q.conditional_expectation(f, obs_x, mo2.boolean_subalgebra(mo2.id_of("b")))


class TestCompatibleObservablesCommute:
    def test_same_block_joint_distributions(self, instances):
        for L, _, p in instances:
            nontrivial = [d for d in L.elements if d not in (L.zero, L.one)]
            if not nontrivial:
                continue
            d = nontrivial[0]
            x = q.make_observable(L, [(1, d), (2, L.ortho(d))])
            y = q.make_observable(L, [(4, d), (5, L.ortho(d))])
            pxy = q.joint_distribution(p, x, y)
            pyx = q.joint_distribution(p, y, x)
            for Eset in ([], [1], [2], [1, 2]):
                for Fset in ([], [4], [5], [4, 5]):
                    assert pxy(Eset, Fset) == pyx(Fset, Eset)
