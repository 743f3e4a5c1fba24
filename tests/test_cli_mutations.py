"""Structured mutations of the data documents through the CLI.

Each case copies the ``data/`` documents, mutates the JSON structure of one
of them (a key dropped or renamed, a value retyped, a list duplicated or
cut short, a huge, negative or malformed literal put in) and runs
``validate``, ``convert``, ``indep --scan`` and ``condexp`` on the result.
Every command ends in exit 0, 1 or 2 with a rendered report, no traceback
and no ``Fraction`` repr, and a case stays within a wall-time bound.  The
byte-level damage of the same documents is fuzzed in ``test_files_cli``.
"""

import copy
import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from omlprob.cli import main

from conftest import DATA

DOCUMENTS = {
    p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.json"))
}

# A retyped value: JSON types the schemas refuse, an unknown label, and the
# literals that must be refused before any number is built.
REPLACEMENTS = (
    None, True, 1.5, [], {}, ["a", "1"], {"a": "1"}, "zz",
    "1" * 1001, "1e1001", "1/0", -1, "-1",
)
# A renamed key becomes another field name, a label, or an unknown name.
KEYS = ("type", "lattice", "labels", "table", "values", "a", "1", "zz")

COMMANDS = (
    ("validate", *DOCUMENTS),
    ("convert", "two_blocks_f.json", "-o", "out.json"),
    ("convert", "two_blocks_smap.json", "-o", "out.json"),
    ("indep", "two_blocks_smap.json", "--scan"),
    ("indep", "two_blocks_f.json", "--scan"),
    ("condexp", "--f", "two_blocks_f.json", "--observable", "obs_x.json", "--atom", "a"),
    ("condexp", "--f", "two_blocks_f.json", "--observable", "obs_y.json", "--atom", "b"),
)
CASE_SECONDS = 2.0


def _containers(node, path=()):
    """The path of every non-empty object or list of a JSON tree, the root
    first."""
    if isinstance(node, (dict, list)) and node:
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, path + (key,))


def _mutate(data, doc):
    """Apply one structural mutation, drawn from ``data``, to ``doc`` in place.

    The depth is drawn first and then a container at that depth, so that a
    top-level field or a table row is as likely a target as a single cell."""
    by_depth = {}
    for path in _containers(doc):
        by_depth.setdefault(len(path), []).append(path)
    if not by_depth:
        return
    node = doc
    for key in data.draw(st.sampled_from(by_depth[data.draw(st.sampled_from(sorted(by_depth)))])):
        node = node[key]
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    ops = ["retype", *(("drop", "rename") if isinstance(node, dict) else ("duplicate", "truncate"))]
    op = data.draw(st.sampled_from(ops))
    key = data.draw(st.sampled_from(keys))
    if op == "retype":
        node[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif op == "drop":
        del node[key]
    elif op == "rename":
        node[data.draw(st.sampled_from(KEYS))] = node.pop(key)
    elif op == "duplicate":
        node.insert(key, copy.deepcopy(node[key]))
    else:
        del node[key:]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_mutated_documents_exit_with_a_report(capsys, tmp_path, name, data):
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    for other, content in DOCUMENTS.items():
        text = json.dumps(doc if other == name else content, indent=2)
        (tmp_path / other).write_text(text, encoding="utf-8")
    start = time.perf_counter()
    for command in COMMANDS:
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, out, err)
        assert "Traceback" not in err, (argv, err)
        assert (out if code < 2 else err).startswith("status: "), (argv, out, err)
        assert "Fraction(" not in out + err, (argv, out, err)
    assert time.perf_counter() - start < CASE_SECONDS
