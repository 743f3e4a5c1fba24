"""Acceptance gate: the eight release criteria, each with its time budget.

Every numeric comparison is exact rational equality (tolerance zero).  Each
test prints one ``criterion N ... PASS/FAIL`` line; run with ``pytest -s
tests/test_acceptance.py`` to see them live.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

import omlprob as q
from omlprob.errors import C3Violation, NotOrthomodular, S3Violation

from conftest import two_blocks_table
from oracles import complete_smap_table


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS in {elapsed:.3f}s "
          f"(budget {limit_seconds}s)")
    assert elapsed < limit_seconds


def block_pair(L):
    """A nontrivial element and its complement, for building observables."""
    d = next(x for x in L.elements if x not in (L.zero, L.one))
    return d, L.ortho(d)


def test_criterion_1_table_reproduction(example_f, example_smap, mo2):
    with criterion(1, "table reproduction", 1):
        i = mo2.id_of
        p = example_smap
        nu = q.nu_state(p)
        assert p(i("a"), i("b")) == F(3, 25)
        assert p(i("b"), i("a")) == F(2, 25)
        assert p(i("b"), i("a'")) == F(11, 50)
        assert p(i("b'"), i("a'")) == F(19, 50)
        assert nu(i("a")) == F(2, 5)
        assert nu(i("b")) == F(3, 10)


def test_criterion_2_asymmetric_independence(example_smap, mo2):
    with criterion(2, "asymmetric independence witness", 1):
        a, b = mo2.id_of("a"), mo2.id_of("b")
        assert q.is_independent_product(example_smap, a, b) is True
        assert q.is_independent_product(example_smap, b, a) is False
        assert (a, b) in q.scan_asymmetric_pairs(example_smap)


def test_criterion_3_conditional_expectation(example_f, mo2):
    with criterion(3, "conditional expectation", 1):
        i = mo2.id_of
        x = q.make_observable(mo2, [(1, i("a")), (2, i("a'"))])
        y = q.make_observable(mo2, [(1, i("b")), (2, i("b'"))])
        z = q.conditional_expectation(example_f, x, mo2.boolean_subalgebra(i("b")))
        assert z.assignment == {F(8, 5): mo2.one}
        z = q.conditional_expectation(example_f, y, mo2.boolean_subalgebra(i("a")))
        assert z.assignment == {F(9, 5): i("a"), F(49, 30): i("a'")}
        assert q.expectation(example_f, z, mo2.one) == F(17, 10)
        assert q.expectation(example_f, y, mo2.one) == F(17, 10)


def test_criterion_4_round_trip_laws(instances):
    with criterion(4, "round-trip laws, 200 seeded instances", 30):
        for L, f, p in instances:
            p2 = q.conditional_to_smap(q.smap_to_conditional(p))
            for a in L.elements:
                for b in L.elements:
                    assert p2(a, b) == p(a, b)
            f2 = q.smap_to_conditional(q.conditional_to_smap(f))
            assert f2.conditions == f.conditions
            for c in f.conditions:
                for x in L.elements:
                    assert f2(x, c) == f(x, c)


def test_criterion_5_measurement_consequences(instances):
    with criterion(5, "derived s-map properties (1)-(5)", 30):
        for L, _, p in instances:
            for a in L.elements:
                for b in L.elements:
                    if L.is_compatible(a, b):
                        m = L.meet(a, b)
                        assert p(a, b) == p(m, m) == p(b, a)
                    if L.leq(a, b):
                        assert p(a, b) == p(a, a)
                        for c in L.elements:
                            assert p(a, c) <= p(b, c)
                    assert p(a, b) <= p(b, b)
            q.nu_state(p)  # raises unless the diagonal is a state


def test_criterion_6_independence_properties(instances):
    with criterion(6, "independence properties (i)-(iii)", 30):
        for L, f, _ in instances:
            one = L.one
            for a in f.conditions:
                both = L.ortho(a) in f.conditions
                for b in L.elements:
                    left = q.is_independent(f, b, a, one)
                    if both:
                        assert left == q.is_independent(f, b, L.ortho(a), one)
                    assert left == q.is_independent(f, L.ortho(b), a, one)
                    if b in f.conditions and L.is_compatible(a, b):
                        assert left == q.is_independent(f, a, b, one)
        L = q.build_catalog("boolean", 3)
        for seed in range(10):
            f = q.random_conditional_state(L, seed)
            m = f.state_given(L.one)
            for a in f.conditions:
                for b in L.elements:
                    assert q.is_independent(f, b, a, L.one) == (
                        m(L.meet(a, b)) == m(a) * m(b)
                    )


def test_criterion_7_negative_controls(mo2):
    with criterion(7, "negative controls", 1):
        with pytest.raises(NotOrthomodular) as exc:
            q.build_catalog("o6")
        assert exc.value.witness == ("a", "b")

        # Corrupted conditional-state table: move mass within the b-column
        # of condition a so the section stays a state but C3 breaks.
        cs, table = two_blocks_table(mo2)
        table[(mo2.id_of("b"), mo2.id_of("a"))] = F(1, 4)
        table[(mo2.id_of("b'"), mo2.id_of("a"))] = F(3, 4)
        with pytest.raises(C3Violation) as exc:
            q.validate_conditional_state(mo2, cs, table)
        assert exc.value.witness[0] == "b"

        # Corrupted s-map table: p(b,a) -> 1/10 breaks the s3 row sum.
        from test_smap import example_inner_table

        inner = example_inner_table(mo2)
        inner[(mo2.id_of("b"), mo2.id_of("a"))] = F(1, 10)
        with pytest.raises(S3Violation) as exc:
            q.validate_smap(mo2, complete_smap_table(mo2, inner))
        assert exc.value.witness[0] == "b"


def test_criterion_8_joint_distribution_marginals(instances):
    with criterion(8, "joint-distribution marginals", 10):
        for L, _, p in instances:
            nu = q.nu_state(p)
            d, dp = block_pair(L)
            x = q.make_observable(L, [(1, d), (2, dp)])
            y = q.make_observable(L, [(4, d), (5, dp)])
            pxy = q.joint_distribution(p, x, y)
            pyx = q.joint_distribution(p, y, x)
            sets_x = ([], [1], [2], [1, 2])
            sets_y = ([], [4], [5], [4, 5])
            for Eset in sets_x:
                assert pxy(Eset, [4, 5]) == nu(x.event(Eset))
            for Fset in sets_y:
                assert pxy([1, 2], Fset) == nu(y.event(Fset))
            # x and y share a block, hence are compatible and must commute.
            for Eset in sets_x:
                for Fset in sets_y:
                    assert pxy(Eset, Fset) == pyx(Fset, Eset)
