from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import files, rationals
from omlprob.catalog import mo_blocks
from omlprob.errors import (
    AtomOutsideCS,
    ConditionOutsideCS,
    DuplicateValue,
    NotAPartition,
    ParseError,
)
from omlprob.lattice import OrthomodularLattice
from omlprob.observables import Observable, _checked_members
from omlprob.states import ConditionalState

from conftest import DATA
from oracles import assert_same_failure, expectation_sum, partition_failure_exhaustive


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


class TestLargeAssignments:
    """A repeated value is named from one count of the values, and zero
    events are left out of the pairwise walk, so ``is_orthogonal`` runs at
    most |atoms|·k times for k values, not k²/2."""

    K = 20_000

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        is_orthogonal = OrthomodularLattice.is_orthogonal

        def spy(L, a, b):
            calls.append((a, b))
            return is_orthogonal(L, a, b)

        monkeypatch.setattr(OrthomodularLattice, "is_orthogonal", spy)
        return calls

    @staticmethod
    def _document(pairs):
        return {"type": "observable",
                "assignment": [{"value": str(v), "element": e} for v, e in pairs]}

    def test_zero_events_are_not_walked(self, mo2, calls):
        pairs = [(v, "0") for v in range(self.K)] + [(self.K, "a"), (self.K + 1, "a'")]
        x = files.load_observable(self._document(pairs), mo2)
        assert len(x.spectrum) == len(pairs)
        assert len(calls) <= len(mo2.atoms) * len(pairs)

    def test_repeated_value(self, mo2, calls):
        pairs = [(v, "0") for v in range(self.K)] + [(self.K - 1, "1")]
        with pytest.raises(DuplicateValue) as exc:
            files.load_observable(self._document(pairs), mo2)
        assert str(exc.value) == f"value {self.K - 1} assigned twice"
        assert calls == []

    def test_late_failure(self, calls):
        L = _catalog("boolean", 3)
        a, b, c = L.atoms
        pairs = [(0, a), (1, b)] + [(v, L.zero) for v in range(2, self.K)]
        pairs += [(self.K, c), (self.K + 1, c)]
        with pytest.raises(NotAPartition) as exc:
            q.make_observable(L, pairs)
        assert str(exc.value) == f"events for values {self.K} and {self.K + 1} are not orthogonal"
        assert exc.value.witness == ("c", "c")
        assert len(calls) <= len(L.atoms) * len(pairs)


class TestLoadObservable:
    def test_each_value_is_read_once(self, monkeypatch):
        reads = []
        ratio = rationals._ratio
        monkeypatch.setattr(rationals, "_ratio", lambda v: reads.append(v) or ratio(v))
        doc = files.load_document(str(DATA / "obs_x.json"))
        x = files.load_typed(doc)
        assert reads == [e["value"] for e in doc["assignment"]]
        assert x.spectrum == (F(1), F(2))

    @pytest.mark.parametrize("first", ["a", "nowhere"])
    def test_a_value_is_read_before_its_element_and_the_next_entry(self, mo2, first):
        doc = {"type": "observable", "assignment": [{"value": "1/0", "element": first},
                                                    {"value": "1", "element": "nowhere"}]}
        with pytest.raises(ParseError) as exc:
            files.load_observable(doc, mo2)
        assert str(exc.value) == "not a rational: '1/0'"


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

    def test_one_outside_cs(self, mo2, example_f, obs_x):
        f = ConditionalState(mo2, example_f.conditions - {mo2.one}, example_f.table)
        with pytest.raises(AtomOutsideCS) as exc:
            q.conditional_expectation(f, obs_x, mo2.boolean_subalgebra(mo2.id_of("a")))
        assert str(exc.value) == "1 is not a condition"
        assert exc.value.witness == ("1",)

    def test_expectation_outside_cs(self, mo2, example_f, obs_x):
        with pytest.raises(ConditionOutsideCS) as exc:
            q.expectation(example_f, obs_x, mo2.zero)
        assert str(exc.value) == "0 is not a condition"

    @pytest.mark.parametrize("bad", [0.4, True, "2/5", None], ids=repr)
    @pytest.mark.parametrize("entry", ["1", "a"])
    def test_a_non_exact_entry_raises_the_parse_error_of_expectation(
        self, example_f, obs_x, mo2, entry, bad
    ):
        """x given {0, b, b', 1} is the constant 8/5 on 1, so f(1, b) is read
        only when f(z, b) is checked, and f(a, b) only for f(x, b).  Either
        raises the ParseError that expectation raises there, never a
        TypeError."""
        b = mo2.id_of("b")
        f = ConditionalState(mo2, example_f.conditions, example_f.table | {(mo2.id_of(entry), b): bad})
        z = q.make_observable(mo2, [(F(8, 5), mo2.one)])
        with pytest.raises(ParseError) as want:
            q.expectation(f, z if entry == "1" else obs_x, b)
        with pytest.raises(ParseError) as got:
            q.conditional_expectation(f, obs_x, mo2.boolean_subalgebra(b))
        assert str(got.value) == str(want.value)
        assert got.value.witness == want.value.witness


@cache
def _catalog(kind, n):
    return q.build_catalog(kind, n)


def _values(k):
    """k distinct values, some with more digits than a literal may have."""
    small = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    huge = st.builds(lambda s, j: F(s, 10**999 + j), st.sampled_from((-1, 1)), st.integers(1, 50))
    return st.lists(st.one_of(small, huge), min_size=k, max_size=k, unique=True)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("boolean", n) for n in range(2, 6)] + [("mo", n) for n in range(2, 9)]),
    st.integers(0, 2**16),
    st.sampled_from((2, 3)),
    st.data(),
)
def test_conditional_expectation_matches_the_sums(shape, seed, k, data):
    """z, and f(x, b) and f(z, b) on each checked member, equal the
    ``Fraction`` sums of ``expectation_sum`` on a random conditional state,
    for an observable with 2 or 3 values on the atoms of boolean(n) or on
    one block of mo(n) (an event may be 0 or 1); every value is a
    ``Fraction``."""
    L = _catalog(*shape)
    f = q.random_conditional_state(L, seed)
    parts = L.atoms if shape[0] == "boolean" else data.draw(st.sampled_from(mo_blocks(L)))
    group = data.draw(st.lists(st.integers(0, k - 1), min_size=len(parts), max_size=len(parts)))
    events = [L.join_all(a for a, g in zip(parts, group) if g == i) for i in range(k)]
    x = q.make_observable(L, zip(data.draw(_values(k)), events))
    B = L.boolean_subalgebra(data.draw(st.sampled_from(L.elements)))
    by_value = {}
    for atom in B.atoms:
        by_value.setdefault(expectation_sum(f, x, atom), []).append(atom)
    want = {v: L.join_all(atoms) for v, atoms in by_value.items()}
    z = q.conditional_expectation(f, x, B)
    assert z == Observable(L, tuple(sorted(want)), want)
    assert all(type(v) is F for v in z.spectrum)
    for b in _checked_members(f, B):
        for obs in (x, z):
            got = q.expectation(f, obs, b)
            assert got == expectation_sum(f, x, b) and type(got) is F


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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([("boolean", n) for n in (2, 3)] + [("mo", n) for n in (2, 3)]),
    st.data(),
)
def test_partition_matches_the_pairwise_walk(shape, data):
    """make_observable raises the failure that the k² walk of
    ``partition_failure_exhaustive`` finds first, or builds the observable,
    on short assignments: a partition of the atoms of boolean(n) or of one
    block of mo(n) into up to 4 events, some 0, with extra 0 events and
    perhaps one event replaced, in any order, and values that may repeat."""
    L = _catalog(*shape)
    parts = L.atoms if shape[0] == "boolean" else data.draw(st.sampled_from(mo_blocks(L)))
    group = data.draw(st.lists(st.integers(0, 3), min_size=len(parts), max_size=len(parts)))
    events = [L.join_all(a for a, g in zip(parts, group) if g == i) for i in range(4)]
    events += [L.zero] * data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        events[data.draw(st.integers(0, len(events) - 1))] = data.draw(st.sampled_from(L.elements))
    events = data.draw(st.permutations(events))
    k, unique = len(events), data.draw(st.booleans())
    values = data.draw(st.lists(st.integers(0, 2 * k), min_size=k, max_size=k, unique=unique))
    pairs = list(zip(values, events))
    want = partition_failure_exhaustive(L, [(F(v), e) for v, e in pairs])
    try:
        x, got = q.make_observable(L, pairs), None
    except (DuplicateValue, NotAPartition) as exc:
        got = exc
    assert_same_failure(got, want)
    if got is None:
        assignment = {F(v): e for v, e in pairs}
        assert x == Observable(L, tuple(sorted(assignment)), assignment)
