import pathlib
from fractions import Fraction as F

import pytest

import omlprob as q

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

# Seeds/kinds shared by the round-trip and property suites (200 instances).
INSTANCE_KINDS = (("mo", 2), ("mo", 3), ("boolean", 2), ("boolean", 3))
SEEDS = range(50)


@pytest.fixture(scope="session")
def mo2():
    return q.build_catalog("mo", 2)


def pasting_raw():
    """Two three-atom Boolean blocks {a, b, c} and {c, d, e} pasted at c, so
    that c' = a∨b = d∨e: an OML that is neither Boolean nor MO-shaped."""
    atoms = "abcde"
    leq = [("0", t) for t in atoms] + [(t + "'", "1") for t in atoms]
    for block in ("abc", "cde"):
        leq += [(t, u + "'") for t in block for u in block if t != u]
    ortho = [("0", "1")] + [(t, t + "'") for t in atoms]
    labels = ["0", "1", *atoms, *(t + "'" for t in atoms)]
    return {"labels": labels, "leq": leq, "ortho": ortho}


def product_raw(raw1, raw2):
    """The direct product of two raw lattices: labels ``x|y``, each factor's
    ``leq`` pairs lifted componentwise, and ⊥ taken componentwise."""
    def ortho_map(raw):
        return {x: y for a, b in raw["ortho"] for x, y in ((a, b), (b, a))}

    def lab(x, y):
        return f"{x}|{y}"

    l1, l2 = raw1["labels"], raw2["labels"]
    o1, o2 = ortho_map(raw1), ortho_map(raw2)
    leq = [(lab(a, y), lab(b, y)) for a, b in raw1["leq"] for y in l2]
    leq += [(lab(x, a), lab(x, b)) for a, b in raw2["leq"] for x in l1]
    return {
        "labels": [lab(x, y) for x in l1 for y in l2],
        "leq": leq,
        "ortho": [(lab(x, y), lab(o1[x], o2[y])) for x in l1 for y in l2],
        "zero": lab(raw1["zero"], raw2["zero"]),
        "one": lab(raw1["one"], raw2["one"]),
    }


def pasting_lattice():
    raw = pasting_raw()
    return q.build_lattice(raw["labels"], raw["leq"], raw["ortho"])


@pytest.fixture(scope="session")
def pasting():
    return pasting_lattice()


@pytest.fixture(scope="session")
def mo2_ids(mo2):
    return {lab: mo2.id_of(lab) for lab in mo2.labels}


def two_blocks_table(L):
    """The worked 6-element conditional-state table (columns a, a', b, b', 1)."""
    i = L.id_of
    a, ap, b, bp = i("a"), i("a'"), i("b"), i("b'")
    cols = {
        a: {a: 1, ap: 0, b: F(1, 5), bp: F(4, 5)},
        ap: {a: 0, ap: 1, b: F(11, 30), bp: F(19, 30)},
        b: {a: F(2, 5), ap: F(3, 5), b: 1, bp: 0},
        bp: {a: F(2, 5), ap: F(3, 5), b: 0, bp: 1},
        L.one: {a: F(2, 5), ap: F(3, 5), b: F(3, 10), bp: F(7, 10)},
    }
    table = {}
    for c, col in cols.items():
        for x, v in col.items():
            table[(x, c)] = F(v)
        table[(L.zero, c)] = F(0)
        table[(L.one, c)] = F(1)
    return frozenset(cols), table


@pytest.fixture(scope="session")
def example_f(mo2):
    cs, table = two_blocks_table(mo2)
    return q.validate_conditional_state(mo2, cs, table)


@pytest.fixture(scope="session")
def example_smap(example_f):
    return q.conditional_to_smap(example_f)


@pytest.fixture(scope="session")
def instances():
    """200 seeded (lattice, conditional state, s-map) triples."""
    out = []
    for kind in INSTANCE_KINDS:
        L = q.build_catalog(*kind)
        for seed in SEEDS:
            f = q.random_conditional_state(L, seed)
            out.append((L, f, q.conditional_to_smap(f)))
    return out
