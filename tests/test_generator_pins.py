"""The seeded generators and ``mo_blocks`` are pinned to recorded outputs.

Each digest is the first 16 hex digits of the SHA-256 of an output's exact
text (labels and ``Fraction`` strings), over seeds 0..3.  A change to the
catalog that moves a seeded output, or reorders a block list, fails here.
"""

from hashlib import sha256

import pytest

import omlprob as q
from omlprob.catalog import mo_blocks
from omlprob.errors import LatticeInputError

SEEDS = range(4)

# (kind, n) -> digests of random_state, random_conditional_state, random_smap.
DIGESTS = {
    ('boolean', 1): ('6241b38ac30bcff1', '89d32dec9c915a53', 'edf2dfedc573f275'),
    ('boolean', 2): ('ceb73e27b4f5c637', 'e16359cf252ee59a', '434a9e32e6263fe5'),
    ('boolean', 3): ('4e7384dbc5e2aa1e', '8a29eb028085bf51', '7593eaa60cb6c0d7'),
    ('boolean', 4): ('4f6c6bc231828353', '8db6a259691d435c', 'c80e8e169fb06ad2'),
    ('boolean', 5): ('03a79a19240b1451', '8805c5b8bd37761a', '8e641f2418d20718'),
    ('mo', 1): ('fda77d81c8a91587', 'cc45e291e19496b0', '00f0aa2f143cfa59'),
    ('mo', 2): ('bc892c619bed2212', '8a329ec3c2082121', '380c73ebf12bbe2a'),
    ('mo', 3): ('f960770fbb86df9d', 'cfae745451f133f1', 'a4a15f8a49150440'),
    ('mo', 5): ('f20ad38dd2d78d20', '1f1bc87ca28776da', 'd10a7e280b1db077'),
    ('mo', 8): ('fff0b27f7eb41cf0', '6a5f46604cd63069', 'a924690466e5064a'),
    ('mo', 16): ('89599f85ec97b272', 'fcb7a181228f5a35', '005f4c40a753c6d3'),
    ('chain2', 1): ('6241b38ac30bcff1', '89d32dec9c915a53', 'edf2dfedc573f275'),
}

# (kind, n) -> the mo_blocks list by label, or None where it is refused.
BLOCKS = {
    ('boolean', 1): [],
    ('boolean', 2): [('a', 'b')],
    ('boolean', 3): None,
    ('boolean', 4): None,
    ('boolean', 5): None,
    ('mo', 1): [('a', "a'")],
    ('mo', 2): [('a', "a'"), ('b', "b'")],
    ('mo', 3): [('a', "a'"), ('b', "b'"), ('c', "c'")],
    ('mo', 5): [('a', "a'"), ('b', "b'"), ('c', "c'"), ('d', "d'"), ('e', "e'")],
    ('mo', 8): [
        ('a', "a'"), ('b', "b'"), ('c', "c'"), ('d', "d'"), ('e', "e'"), ('f', "f'"),
        ('g', "g'"), ('h', "h'")
    ],
    ('mo', 16): [
        ('a', "a'"), ('b', "b'"), ('c', "c'"), ('d', "d'"), ('e', "e'"), ('f', "f'"),
        ('g', "g'"), ('h', "h'"), ('i', "i'"), ('j', "j'"), ('k', "k'"), ('l', "l'"),
        ('m', "m'"), ('n', "n'"), ('o', "o'"), ('p', "p'")
    ],
    ('chain2', 1): [],
}


def _digest(lines):
    return sha256("\n".join(lines).encode()).hexdigest()[:16]


def _outputs(L, seed):
    lab = L.label
    m = q.random_state(L, seed)
    f = q.random_conditional_state(L, seed)
    p = q.random_smap(L, seed)
    yield "state", " ".join(map(str, m.values))
    yield "cstate", " ".join(
        f"{lab(x)}|{lab(c)}={v}" for (x, c), v in sorted(f.table.items())
    ) + " cs=" + " ".join(lab(c) for c in sorted(f.conditions))
    yield "smap", "\n".join(" ".join(map(str, row)) for row in p.table)


def generator_digests(L):
    lines = {"state": [], "cstate": [], "smap": []}
    for seed in SEEDS:
        for name, text in _outputs(L, seed):
            lines[name].append(text)
    return tuple(_digest(lines[name]) for name in ("state", "cstate", "smap"))


def block_labels(L):
    try:
        return [(L.label(c), L.label(cp)) for c, cp in mo_blocks(L)]
    except LatticeInputError:
        return None


@pytest.mark.parametrize("kind", sorted(DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_seeded_generators_are_pinned(kind):
    assert generator_digests(q.build_catalog(*kind)) == DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(BLOCKS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_mo_blocks_are_pinned(kind):
    assert block_labels(q.build_catalog(*kind)) == BLOCKS[kind]
