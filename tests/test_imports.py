"""Each command loads only the modules it runs.

``import omlprob`` loads none of its modules: a name of the package is read
from its module on first use.  Each check runs a child under ``-S``, so no
``.pth`` file of the environment loads ``typing`` or anything else first.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from omlprob import catalog

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _child(code: str) -> object:
    """The JSON value that ``code``, run in a ``-S`` child, prints."""
    child = subprocess.run([sys.executable, "-S", "-c", code], env=ENV,
                           capture_output=True, encoding="utf-8", check=True)
    return json.loads(child.stdout)


_LOADED = 'sorted(m for m in sys.modules if m.startswith("omlprob.") or m == "typing")'


def test_import_omlprob_loads_no_module():
    assert _child(f"import json, sys, omlprob; print(json.dumps({_LOADED}))") == []


def _commands(out):
    """(argv, the modules the command must not load), on the data/ documents
    and the README's commands."""
    lattice, f, p, y = (str(DATA / name) for name in (
        "mo2_lattice.json", "two_blocks_f.json", "two_blocks_smap.json", "obs_y.json"))
    tables_only = {"omlprob.catalog", "omlprob.observables"}
    return {
        "validate": (["validate", lattice, f, p], tables_only),
        "convert": (["convert", f, "-o", str(out / "p.json")], tables_only),
        "indep-scan": (["indep", p, "--scan"], tables_only),
        "indep-pair": (["indep", p, "--pair", "a", "b"], tables_only),
        "condexp": (
            ["condexp", "--f", f, "--observable", y, "--atom", "a"],
            {"omlprob.catalog", "omlprob.smap"},
        ),
        "gen": (
            ["gen", "--kind", "mo", "--n", "3", "--emit", "lattice,smap,conditional_state",
             "-o", str(out)],
            {"omlprob.observables"},
        ),
    }


@pytest.mark.parametrize(
    "command", ["validate", "convert", "indep-scan", "indep-pair", "condexp", "gen"])
def test_command_loads_only_what_it_runs(tmp_path, command):
    argv, unused = _commands(tmp_path)[command]
    code = (
        "import contextlib, io, json, sys\n"
        "from omlprob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, {_LOADED}]))\n"
    )
    status, loaded = _child(code)
    assert status == 0
    assert not unused & set(loaded), loaded
    assert "typing" not in loaded


def test_every_exported_name_resolves():
    code = (
        "import json, omlprob\n"
        "missing = [n for n in omlprob.__all__ if n not in dir(omlprob)]\n"
        "modules = {n: getattr(omlprob, n).__module__ for n in omlprob.__all__}\n"
        "try:\n"
        "    omlprob.no_such_name\n"
        "    refused = False\n"
        "except AttributeError as exc:\n"
        "    refused = 'no_such_name' in str(exc)\n"
        "ns = {}\n"
        "exec('from omlprob import *', ns)\n"
        "star = sorted(n for n in omlprob.__all__ if n not in ns)\n"
        "print(json.dumps([missing, modules, refused, star]))\n"
    )
    missing, modules, refused, star = _child(code)
    assert missing == [] and star == [] and refused
    assert set(modules) == {
        "BooleanSubalgebra", "ConditionalState", "JointDistribution", "Observable",
        "OrthomodularLattice", "SMap", "State", "build_catalog", "build_conditional_state",
        "build_lattice", "conditional_expectation", "conditional_to_smap",
        "distribution_function", "expectation", "is_independent", "is_independent_product",
        "joint_distribution", "make_observable", "nu_state", "random_conditional_state",
        "random_smap", "random_state", "raw_structure", "scan_asymmetric_pairs",
        "smap_to_conditional", "validate_conditional_state", "validate_smap", "validate_state",
    }
    assert all(m.startswith("omlprob.") for m in modules.values())


def test_gen_refuses_an_unknown_kind_with_the_kinds(tmp_path):
    out = tmp_path / "out"
    child = subprocess.run(
        [sys.executable, "-S", "-m", "omlprob.cli", "gen", "--kind", "zz", "-o", str(out)],
        env=ENV, capture_output=True, encoding="utf-8",
    )
    assert child.returncode == 2
    assert "'zz'" in child.stderr
    assert all(repr(kind) in child.stderr for kind in catalog.KINDS)
    assert not out.exists()
