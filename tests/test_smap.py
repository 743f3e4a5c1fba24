from fractions import Fraction as F

import pytest

import omlprob as q
from omlprob.errors import (
    DomainTooSmall,
    ParseError,
    S1Violation,
    S2Violation,
    S3Violation,
    SupportNotConditionalSystem,
)

from oracles import complete_smap_table


def example_inner_table(L):
    """The worked 4×4 measurement table on the two-block lattice."""
    i = L.id_of
    a, ap, b, bp = i("a"), i("a'"), i("b"), i("b'")
    rows = {
        a: {a: F(2, 5), ap: 0, b: F(3, 25), bp: F(7, 25)},
        ap: {a: 0, ap: F(3, 5), b: F(9, 50), bp: F(21, 50)},
        b: {a: F(2, 25), ap: F(11, 50), b: F(3, 10), bp: 0},
        bp: {a: F(8, 25), ap: F(19, 50), b: 0, bp: F(7, 10)},
    }
    return {(r, c): F(v) for r, row in rows.items() for c, v in row.items()}


class TestValidateSMap:
    def test_example_table_with_forced_extension(self, mo2):
        p = q.validate_smap(mo2, complete_smap_table(mo2, example_inner_table(mo2)))
        assert p(mo2.id_of("a"), mo2.id_of("b")) == F(3, 25)
        assert p(mo2.id_of("b"), mo2.one) == F(3, 10)

    def test_s2_violation(self, mo2):
        table = example_inner_table(mo2)
        table[(mo2.id_of("a"), mo2.id_of("a'"))] = F(1, 10)
        with pytest.raises(S2Violation):
            q.validate_smap(mo2, complete_smap_table(mo2, table))

    def test_s3_violation_witness(self, mo2):
        table = example_inner_table(mo2)
        table[(mo2.id_of("b"), mo2.id_of("a"))] = F(1, 10)
        with pytest.raises(S3Violation) as exc:
            q.validate_smap(mo2, complete_smap_table(mo2, table))
        c, fam, side = exc.value.witness
        assert c == "b" and set(fam) == {"a", "a'"} and side == "second"

    def test_missing_diagonal_refused(self, mo2):
        with pytest.raises(S1Violation):
            q.validate_smap(mo2, {})

    @pytest.mark.parametrize("bad, gone, error, message", [
        ("b", "b'", ParseError, "not a rational: 'zz'"),
        ("b'", "b", S1Violation, "table missing entry p(a, b)"),
    ])
    def test_mapping_is_read_entry_by_entry(self, mo2, bad, gone, error, message):
        """A mapping is read in row-major order, each entry parsed as it is
        looked up: in row a, a bad literal and a missing entry are reported
        in the order of their columns."""
        table = complete_smap_table(mo2, example_inner_table(mo2))
        a = mo2.id_of("a")
        table[(a, mo2.id_of(bad))] = "zz"
        del table[(a, mo2.id_of(gone))]
        with pytest.raises(error) as exc:
            q.validate_smap(mo2, table)
        assert str(exc.value) == message


    def test_top_entry_names_its_pair(self, mo2):
        rows = [[F(0)] * len(mo2) for _ in mo2.elements]
        with pytest.raises(S1Violation) as exc:
            q.validate_smap(mo2, rows)
        assert str(exc.value) == "p(1,1) = 0 ≠ 1"
        assert exc.value.witness == ("1", "1")

    @pytest.mark.parametrize("cut", ["row", "entry"])
    def test_short_table_is_not_total(self, mo2, cut):
        rows = [[F(0)] * len(mo2) for _ in mo2.elements]
        if cut == "row":
            rows.pop()
        else:
            rows[-1].pop()
        with pytest.raises(S1Violation) as exc:
            q.validate_smap(mo2, rows)
        assert str(exc.value) == "table is not total"


class TestNuState:
    def test_example_diagonal(self, example_smap, mo2):
        nu = q.nu_state(example_smap)
        assert nu(mo2.id_of("a")) == F(2, 5)
        assert nu(mo2.id_of("b")) == F(3, 10)
        assert nu(mo2.one) == 1
        assert nu(mo2.zero) == 0


class TestConversions:
    def test_smap_recovers_conditional_state(self, example_smap, example_f, mo2):
        f = q.smap_to_conditional(example_smap)
        assert f.conditions == example_f.conditions
        for c in f.conditions:
            for x in mo2.elements:
                assert f(x, c) == example_f(x, c)
        # 11/50 over 3/5 gives the 11/30 entry back.
        assert f(mo2.id_of("b"), mo2.id_of("a'")) == F(11, 30)

    def test_sections_normalized_on_support(self, example_smap):
        f = q.smap_to_conditional(example_smap)
        for b in f.conditions:
            assert f(b, b) == 1

    def test_top_section_is_diagonal(self, example_smap, mo2):
        f = q.smap_to_conditional(example_smap)
        for a in mo2.elements:
            assert f(a, mo2.one) == example_smap(a, a)

    def test_conditional_to_smap_matches_table(self, example_f, mo2):
        p = q.conditional_to_smap(example_f)
        want = complete_smap_table(mo2, example_inner_table(mo2))
        for key, value in want.items():
            assert p(*key) == value

    def test_zero_marginal_column_is_zero(self):
        # Columns for elements of zero marginal vanish entirely.
        L = q.build_catalog("boolean", 2)
        a, b = L.id_of("a"), L.id_of("b")
        delta = {a: [0, 1, 0, 1], b: [0, 0, 1, 1], L.one: [0, 1, 0, 1]}
        cs = frozenset(delta)
        table = {
            (x, c): F(delta[c][x]) for c in cs for x in L.elements
        }
        f = q.validate_conditional_state(L, cs, table)
        p = q.conditional_to_smap(f)
        for x in L.elements:
            assert p(x, b) == 0

    def test_degenerate_support_is_rejected_on_reconversion(self):
        # The same degenerate table has support {a, 1}, which is not closed
        # under the relative complement a' = b.
        L = q.build_catalog("boolean", 2)
        a, b = L.id_of("a"), L.id_of("b")
        delta = {a: [0, 1, 0, 1], b: [0, 0, 1, 1], L.one: [0, 1, 0, 1]}
        table = {(x, c): F(delta[c][x]) for c in delta for x in L.elements}
        p = q.conditional_to_smap(q.validate_conditional_state(L, frozenset(delta), table))
        with pytest.raises(SupportNotConditionalSystem):
            q.smap_to_conditional(p)

    def test_support_not_conditional_system_witness(self):
        # p(x, y) = m(x∧y) with m(a) = 1, m(b) = 0 has support {a, 1}.
        L = q.build_catalog("boolean", 2)
        m = q.validate_state(L, [F(L.leq(L.id_of("a"), x)) for x in L.elements])
        p = q.validate_smap(L, [[m(L.meet(x, y)) for y in L.elements] for x in L.elements])
        with pytest.raises(SupportNotConditionalSystem) as exc:
            q.smap_to_conditional(p)
        assert str(exc.value) == (
            "support of the s-map is not a conditional system: "
            "not closed under relative complement of a in 1"
        )
        assert exc.value.witness == ("a", "1")

    def test_round_trips(self, instances):
        for L, f, p in instances:
            f2 = q.smap_to_conditional(p)
            assert f2.conditions == f.conditions
            for c in f.conditions:
                for x in L.elements:
                    assert f2(x, c) == f(x, c)
            p2 = q.conditional_to_smap(f2)
            assert p2.table == p.table


    def test_conditional_state_without_one_has_no_smap(self):
        L = q.build_catalog("boolean", 2)
        a = L.id_of("a")
        f = q.validate_conditional_state(
            L, frozenset({a}), {(x, a): F(L.leq(a, x)) for x in L.elements}
        )
        with pytest.raises(DomainTooSmall) as exc:
            q.conditional_to_smap(f)
        assert str(exc.value) == "1 is not a condition"
        assert exc.value.witness == ("1",)

    def test_nonzero_marginal_needs_a_condition(self):
        L = q.build_catalog("boolean", 2)
        m = {L.zero: F(0), L.id_of("a"): F(1, 2), L.id_of("b"): F(1, 2), L.one: F(1)}
        f = q.validate_conditional_state(
            L, frozenset({L.one}), {(x, L.one): m[x] for x in L.elements}
        )
        with pytest.raises(DomainTooSmall) as exc:
            q.conditional_to_smap(f)
        assert str(exc.value) == (
            "conditions missing for nonzero-marginal elements ['a', 'b']"
        )
        assert exc.value.witness == ("a", "b")


class TestMeasurementConsequences:
    """Exhaustive checks of the five derived s-map properties."""

    def _all_smaps(self, example_smap, instances):
        yield example_smap.lattice, example_smap
        for L, _, p in instances:
            yield L, p

    def test_compatible_pairs_collapse_to_diagonal(self, example_smap, instances):
        for L, p in self._all_smaps(example_smap, instances):
            for a in L.elements:
                for b in L.elements:
                    if L.is_compatible(a, b):
                        m = L.meet(a, b)
                        assert p(a, b) == p(m, m) == p(b, a)

    def test_smaller_argument_wins(self, example_smap, instances):
        for L, p in self._all_smaps(example_smap, instances):
            for a in L.elements:
                for b in L.elements:
                    if L.leq(a, b):
                        assert p(a, b) == p(a, a)

    def test_monotone_in_first_argument(self, example_smap, instances):
        for L, p in self._all_smaps(example_smap, instances):
            for a in L.elements:
                for b in L.elements:
                    if L.leq(a, b):
                        for c in L.elements:
                            assert p(a, c) <= p(b, c)

    def test_bounded_by_diagonal(self, example_smap, instances):
        for L, p in self._all_smaps(example_smap, instances):
            for a in L.elements:
                for b in L.elements:
                    assert p(a, b) <= p(b, b)

    def test_diagonal_is_a_state(self, example_smap, instances):
        for L, p in self._all_smaps(example_smap, instances):
            q.nu_state(p)


class TestProductIndependence:
    def test_worked_example_asymmetry(self, example_smap, mo2):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert q.is_independent_product(example_smap, a, b)
        assert not q.is_independent_product(example_smap, b, a)

    def test_top_independent_of_everything(self, example_smap, mo2):
        for a in mo2.elements:
            assert q.is_independent_product(example_smap, mo2.one, a)

    def test_coherence_with_conditional_state(self, example_smap, instances):
        for L, p in [(example_smap.lattice, example_smap)] + [
            (L, p) for L, _, p in instances
        ]:
            f = q.smap_to_conditional(p)
            for a in f.conditions:
                for b in L.elements:
                    assert q.is_independent(f, b, a, L.one) == q.is_independent_product(
                        p, b, a
                    )


class TestAsymmetryScan:
    def test_example_scan(self, example_smap, mo2):
        pairs = q.scan_asymmetric_pairs(example_smap)
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert (a, b) in pairs
        assert (b, a) not in pairs
        assert pairs == sorted(pairs)

    def test_boolean_product_smap_is_symmetric(self):
        L = q.build_catalog("boolean", 3)
        for seed in range(5):
            p = q.random_smap(L, seed)
            for a in L.elements:
                for b in L.elements:
                    assert p(a, b) == p(b, a)
            assert q.scan_asymmetric_pairs(p) == []

    def test_two_element_chain(self):
        L = q.build_catalog("chain2")
        p = q.random_smap(L, 7)
        assert q.scan_asymmetric_pairs(p) == []
