"""The value records are immutable named tuples, and the CLI imports no
code-generation machinery at start-up."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import omlprob as q
from omlprob.lattice import BooleanSubalgebra
from omlprob.observables import JointDistribution, Observable
from omlprob.smap import SMap
from omlprob.states import ConditionalState, State

from conftest import two_blocks_table

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_cli_import_skips_dataclasses_and_inspect():
    code = (
        "import sys, omlprob.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _records(L):
    """``(cls, names, fields)`` for each record type, with its field names
    and the fields as the benchmark and the validators pass them:
    positionally, in declaration order."""
    a, ap = L.id_of("a"), L.id_of("a'")
    cs, tab = two_blocks_table(L)
    f = q.validate_conditional_state(L, cs, tab)
    p = q.conditional_to_smap(f)
    x = q.make_observable(L, [(1, a), (2, ap)])
    B = L.boolean_subalgebra(a)
    return [
        (BooleanSubalgebra, "lattice members atoms", (L, B.members, B.atoms)),
        (State, "lattice values", (L, f.state_given(L.one).values)),
        (ConditionalState, "lattice conditions table", (L, cs, tab)),
        (SMap, "lattice table", (L, p.table)),
        (Observable, "lattice spectrum assignment", (L, x.spectrum, x.assignment)),
        (JointDistribution, "x y table", (x, x, q.joint_distribution(p, x, x).table)),
    ]


@pytest.mark.parametrize("i", range(6))
def test_record_contract(mo2, i):
    cls, names, fields = _records(mo2)[i]
    names = names.split()
    r = cls(*fields)
    assert tuple(getattr(r, name) for name in names) == fields
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        r.extra = None
    twin = cls(*fields)
    assert twin == r and not twin != r
    if cls in (BooleanSubalgebra, State, SMap):  # the others hold a dict
        assert hash(twin) == hash(r)
    assert repr(r).startswith(f"{cls.__name__}({names[0]}=")


def test_records_act_as_tuples(mo2):
    m = State(mo2, tuple(F(x == mo2.one) for x in mo2.elements))
    lattice, values = m
    assert len(m) == 2 and lattice is mo2 and values is m.values
    assert m == (mo2, m.values)
