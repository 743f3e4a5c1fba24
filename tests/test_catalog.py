import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob.catalog import mo_blocks, is_boolean_lattice
from omlprob.errors import LatticeInputError, NotOrthomodular


class TestBuiltins:
    def test_boolean_one_atom_is_chain(self):
        L = q.build_catalog("boolean", 1)
        assert len(L) == 2

    def test_mo2_shape(self):
        L = q.build_catalog("mo", 2)
        assert len(L) == 6
        assert len(mo_blocks(L)) == 2

    def test_mo_sizes(self):
        for n in (1, 2, 3, 5):
            assert len(q.build_catalog("mo", n)) == 2 * n + 2

    def test_o6_rejected(self):
        with pytest.raises(NotOrthomodular) as exc:
            q.build_catalog("o6")
        assert exc.value.witness == ("a", "b")

    def test_unknown_kind(self):
        with pytest.raises(LatticeInputError):
            q.build_catalog("projective", 3)

    def test_largest_kinds_within_the_bound(self):
        assert len(q.catalog.raw_structure("boolean", 10)["labels"]) == q.lattice.MAX_ELEMENTS
        assert len(q.catalog.raw_structure("mo", 511)["labels"]) == q.lattice.MAX_ELEMENTS

    @pytest.mark.parametrize("kind, n", [("boolean", 11), ("boolean", 10**6), ("mo", 512)])
    def test_kinds_beyond_the_bound_are_refused(self, kind, n):
        with pytest.raises(LatticeInputError, match="MAX_ELEMENTS"):
            q.catalog.raw_structure(kind, n)

    def test_block_compatibility_structure(self):
        for n in (2, 3):
            L = q.build_catalog("mo", n)
            blocks = {x: i for i, (c, cp) in enumerate(mo_blocks(L)) for x in (c, cp)}
            trivial = (L.zero, L.one)
            for x in L.elements:
                for y in L.elements:
                    if x in trivial or y in trivial or x in (y, L.ortho(y)):
                        assert L.is_compatible(x, y)
                    else:
                        assert L.is_compatible(x, y) == (blocks[x] == blocks[y])

    def test_boolean_detection(self):
        assert is_boolean_lattice(q.build_catalog("boolean", 3))
        assert not is_boolean_lattice(q.build_catalog("mo", 2))


class TestGenerators:
    def test_smap_deterministic(self):
        L = q.build_catalog("mo", 2)
        assert q.random_smap(L, 42).table == q.random_smap(L, 42).table

    def test_state_deterministic(self):
        L = q.build_catalog("boolean", 3)
        assert q.random_state(L, 5).values == q.random_state(L, 5).values

    def test_seeds_differ(self):
        L = q.build_catalog("mo", 2)
        assert q.random_smap(L, 1).table != q.random_smap(L, 2).table

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([("mo", 2), ("mo", 3), ("boolean", 2), ("boolean", 3)]),
    )
    def test_random_smaps_validate(self, seed, kind):
        L = q.build_catalog(*kind)
        p = q.random_smap(L, seed)
        q.validate_smap(L, p.table)

    @pytest.mark.parametrize("generate", [q.random_state, q.random_conditional_state, q.random_smap])
    def test_one_element_lattice_is_refused(self, generate):
        L = q.build_lattice(["0"], [], [["0", "0"]])
        with pytest.raises(LatticeInputError, match="admits no state"):
            generate(L, 0)

    def test_boolean_smap_symmetric(self):
        L = q.build_catalog("boolean", 3)
        p = q.random_smap(L, 9)
        for a in L.elements:
            for b in L.elements:
                assert p(a, b) == p(b, a)


IDENTITY_KINDS = (
    [("boolean", n) for n in range(1, 7)] + [("mo", n) for n in range(1, 17)] + [("chain2", 1)]
)


@pytest.mark.parametrize("kind", IDENTITY_KINDS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_generators_are_linked_by_conditioning(kind):
    """The two generators give an s-map and its conditional state, each the
    other's conversion; on an MO lattice each entry p(x, c) at atoms of two
    blocks lies in the Fréchet interval of m = p's diagonal."""
    L = q.build_catalog(*kind)
    for seed in range(4):
        p, f = q.random_smap(L, seed), q.random_conditional_state(L, seed)
        assert q.smap_to_conditional(p) == f
        assert q.conditional_to_smap(f) == p
        if is_boolean_lattice(L):
            continue
        block = {x: i for i, b in enumerate(mo_blocks(L)) for x in b}
        for x in L.atoms:
            for c in L.atoms:
                if block[x] != block[c]:
                    m_x, m_c = p(x, x), p(c, c)
                    assert max(0, m_x + m_c - 1) <= p(x, c) <= min(m_x, m_c)
