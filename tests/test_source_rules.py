"""Rules on the source of src/omlprob, enforced by the tier-1 suite."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "omlprob"
MODULES = sorted(SRC.glob("*.py"))


def test_no_unused_import():
    """Every module, __init__.py included, uses each name it imports."""
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name} is imported but unused")
    assert MODULES
    assert unused == []


def test_as_integer_ratio_only_in_rationals():
    """Record entries become integer ratios only through
    rationals.exact_ratios, so no other module calls as_integer_ratio."""
    found = [
        f"{path.name}:{lineno}"
        for path in MODULES
        if path.name != "rationals.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "as_integer_ratio" in line
    ]
    assert found == []


def test_fraction_slots_only_in_rationals():
    """Only the rationals module names a ``Fraction``'s slots: ``_fraction``
    sets them and ``exact_dot`` reads them.  A Python whose ``Fraction``
    changes its slots fails the tests of those two, not a hidden caller."""
    found = [
        f"{path.name}:{lineno}"
        for path in MODULES
        if path.name != "rationals.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "_numerator" in line or "_denominator" in line
    ]
    assert MODULES
    assert found == []


def test_no_assert_in_src():
    """No check or message of the package is an ``assert``, which
    ``python -O`` strips."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert MODULES
    assert found == []


def test_one_scaler():
    """``states._scaled`` is the one function that computes a common
    denominator: no other module names ``lcm``, and states.py names it only
    in its import and in ``_scaled``."""
    def names_lcm(node):
        return any(
            isinstance(n, ast.Name) and n.id == "lcm"
            or isinstance(n, ast.Attribute) and n.attr == "lcm"
            or isinstance(n, ast.alias) and n.name == "lcm"
            for n in ast.walk(node)
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if names_lcm(node) and not (
            path.name == "states.py"
            and (isinstance(node, ast.ImportFrom) or getattr(node, "name", "") == "_scaled")
        )
    ]
    assert MODULES
    assert found == []
