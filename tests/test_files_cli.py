import json
import pathlib
import re
import shlex
import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import omlprob as q
from omlprob import cli, errors, files
from omlprob.cli import main
from omlprob.errors import ParseError, SchemaError

from conftest import DATA
from oracles import expectation_sum

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
README = DATA.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestFileLoading:
    def test_lattice_file(self):
        L = files.load_lattice(files.load_document(str(DATA / "mo2_lattice.json")))
        assert set(L.labels) == {"0", "1", "a", "a'", "b", "b'"}

    def test_tables_resolve_lattice_reference(self):
        f = files.load_conditional_state(
            files.load_document(str(DATA / "two_blocks_f.json"))
        )
        L = f.lattice
        assert f(L.id_of("b"), L.id_of("a'")) == q.validate_smap(
            L, q.conditional_to_smap(f).table
        )(L.id_of("b"), L.id_of("a'")) / q.nu_state(q.conditional_to_smap(f))(
            L.id_of("a'")
        )

    def test_decimal_literals_parse_exactly(self, tmp_path, mo2):
        doc = {
            "type": "state",
            "values": {"0": 0, "1": 1, "a": 0.4, "a'": 0.6, "b": "3/10", "b'": 0.7},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        m = files.load_state(files.load_document(str(path)), mo2)
        from fractions import Fraction

        assert m(mo2.id_of("a")) == Fraction(2, 5)

    def test_unknown_fields_rejected(self, tmp_path):
        doc = json.loads((DATA / "mo2_lattice.json").read_text())
        doc["extra"] = 1
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load_lattice(files.load_document(str(path)))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            files.load_document(str(path))

    def test_path_field_is_refused(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_smap.json").read_text())
        doc["lattice"] = str(DATA / "mo2_lattice.json")
        doc["__path__"] = "/etc/passwd"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "unknown fields for smap: ['__path__']" in capsys.readouterr().err
        # In memory, the field would move where "mo2_lattice.json" resolves.
        doc = json.loads((DATA / "two_blocks_smap.json").read_text())
        doc["__path__"] = str(DATA / "p.json")
        with pytest.raises(SchemaError, match=r"unknown fields for smap: \['__path__'\]"):
            files.load_typed(doc)

    def test_empty_lattice_reference_is_refused(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_f.json").read_text())
        doc["lattice"] = ""
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            files.load_typed(files.load_document(str(path)))
        assert str(exc.value) == "'lattice' must be a lattice object or a non-empty path"
        assert main(["validate", str(path)]) == 2
        assert "'lattice' must be" in capsys.readouterr().err

    def test_documents_round_trip(self, tmp_path, example_f, example_smap):
        fdoc = files.conditional_state_document(example_f)
        fdoc["lattice"] = files.lattice_document(example_f.lattice)
        path = tmp_path / "f.json"
        files.write_document(str(path), fdoc)
        f2 = files.load_conditional_state(files.load_document(str(path)))
        for c in example_f.conditions:
            for x in example_f.lattice.elements:
                lab = example_f.lattice.label
                assert f2(f2.lattice.id_of(lab(x)), f2.lattice.id_of(lab(c))) == example_f(x, c)


# One valid document of each kind, by file name (the state is written inline).
KIND_FILES = {
    "lattice": "mo2_lattice.json",
    "conditional_state": "two_blocks_f.json",
    "smap": "two_blocks_smap.json",
    "observable": "obs_y.json",
}
LOADERS = {
    "lattice": lambda doc, L: files.load_lattice(doc),
    "state": files.load_state,
    "conditional_state": files.load_conditional_state,
    "smap": files.load_smap,
    "observable": files.load_observable,
}


def _kind_document(kind):
    if kind == "state":
        return {"type": "state",
                "values": {"0": 0, "1": 1, "a": "2/5", "a'": "3/5", "b": "3/10", "b'": "7/10"}}
    return files.load_document(str(DATA / KIND_FILES[kind]))


class TestDocumentKinds:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_loader_refuses_another_declared_kind(self, mo2, kind):
        doc = _kind_document(kind)
        LOADERS[kind](doc, mo2)
        doc["type"] = "smap" if kind == "lattice" else "lattice"
        with pytest.raises(SchemaError, match=f"expected an? {kind} document, got '{doc['type']}'"):
            LOADERS[kind](doc, mo2)

    def test_condexp_refuses_conditional_state_declared_as_smap(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_f.json").read_text())
        doc["type"] = "smap"
        doc["lattice"] = str(DATA / "mo2_lattice.json")
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        argv = ["condexp", "--f", str(path), "--observable", str(DATA / "obs_y.json"), "--atom", "a"]
        assert main(argv) == 2
        assert "expected a conditional_state document, got 'smap'" in capsys.readouterr().err

    def test_lattice_flag_refuses_a_table_document(self, capsys):
        code = main(["validate", str(DATA / "two_blocks_f.json"),
                     "--lattice", str(DATA / "two_blocks_smap.json")])
        assert code == 2
        assert "expected a lattice document, got 'smap'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["convert", "indep"])
    @pytest.mark.parametrize("kind", ["lattice", "observable"])
    def test_convert_and_indep_refuse_without_loading(self, capsys, monkeypatch, tmp_path,
                                                       command, kind):
        def never(*args):
            raise AssertionError("loaded a document the command does not read")

        for name in ("load_lattice", "load_observable"):
            monkeypatch.setattr(files, name, never)
        argv = {"convert": ["-o", str(tmp_path / "out.json")], "indep": ["--scan"]}[command]
        assert main([command, str(DATA / KIND_FILES[kind]), *argv]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("fields, kind", [
        ({"conditions", "table"}, "conditional_state"),
        ({"table"}, "smap"),
        ({"labels", "table"}, "lattice"),
        ({"values", "assignment"}, "state"),
        ({"assignment", "table"}, "observable"),
    ])
    def test_untyped_documents_are_inferred_in_order(self, fields, kind):
        assert files.document_type(dict.fromkeys(fields, [])) == kind

    def test_kind_stages_are_the_error_stages(self):
        stages = [kind[2] for kind in files.DOCUMENT_KINDS.values()]
        assert all(len(set(names)) == len(names) for names in stages)
        assert {name for names in stages for name in names} == {
            cls.stage for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.OmlError) and cls.stage
        }

    def test_untyped_document_without_marker_is_refused(self):
        with pytest.raises(SchemaError, match="cannot infer document type"):
            files.document_type({"lattice": "mo2_lattice.json", "leq": []})


class TestElementBound:
    def test_oversized_lattice_file_exits_2(self, capsys, tmp_path):
        labels = [f"e{i}" for i in range(q.lattice.MAX_ELEMENTS + 1)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"labels": labels, "leq": [], "ortho": []}))
        assert main(["validate", str(path)]) == 2
        assert "1025 elements, more than MAX_ELEMENTS = 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, n", [("boolean", 11), ("mo", 512)])
    def test_gen_beyond_the_bound_exits_2(self, capsys, tmp_path, kind, n):
        assert main(["gen", "--kind", kind, "--n", str(n), "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("status: error") and "MAX_ELEMENTS = 1024" in err
        assert list(tmp_path.iterdir()) == []


class TestInternalError:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch, fmt):
        def broken(args, fmt_value):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        code = main(["--format", fmt, "validate", str(DATA / "mo2_lattice.json")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 3
        assert captured.out == ""
        assert "internal error: RuntimeError: boom" in captured.err
        assert "Traceback" in captured.err


class TestGlobalFlags:
    @pytest.mark.parametrize("flags", [("--format", "json"), ("--decimal",)])
    def test_flags_before_the_subcommand_match_after(self, capsys, flags):
        cmd = ["indep", str(DATA / "two_blocks_smap.json"), "--pair", "a", "b"]
        before = run(capsys, *flags, *cmd)
        after = run(capsys, *cmd, *flags)
        assert before == after
        code, out = before
        assert code == 0
        if flags[0] == "--format":
            assert json.loads(out)["values"]["p(a,b)"] == "3/25"
        else:
            assert "p(a,b) = 0.12" in out


class TestDecimalOutput:
    CONDEXP = ("condexp", "--f", str(DATA / "two_blocks_f.json"),
               "--observable", str(DATA / "obs_y.json"), "--atom", "a")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonterminating_decimal_exits_2(self, capsys, fmt):
        code = main(["--decimal", "--format", fmt, *self.CONDEXP])
        captured = capsys.readouterr()
        assert code == cli.EXIT_IO == 2
        assert captured.out == ""
        assert "49/30 has no exact decimal form" in captured.err
        assert "Traceback" not in captured.err
        if fmt == "json":
            assert json.loads(captured.err)["status"] == "error"

    @staticmethod
    def _tiny_smap(t):
        """The mo(2) s-map with p(a, a) = p(b, b) = t and p(a, b) = p(b, a) = 0."""
        p = {x: {x + "'": "0"} for x in "ab"} | {x + "'": {x: "0"} for x in "ab"}
        for x, y in ("ab", "ba"):
            p[x] |= {x: str(t), y: "0", y + "'": str(t)}
            p[x + "'"] |= {x + "'": str(1 - t), y: str(t), y + "'": str(1 - 2 * t)}
        return {"type": "smap", "lattice": str(DATA / "mo2_lattice.json"), "table": p}

    @pytest.mark.parametrize("case", ["long_exact", "float_overflow"])
    def test_unprintable_decimals_exit_2(self, capsys, tmp_path, case):
        """p(a, a)·p(b, b) = 1/2^6642 has an exact decimal past Python's
        4300-digit int -> str limit; 10^400/3 overflows a float."""
        if case == "long_exact":
            path = tmp_path / "p.json"
            path.write_text(json.dumps(self._tiny_smap(Fraction(1, 2**3321))))
            assert main(["validate", str(path)]) == 0
            argv = ["--decimal", "indep", str(path), "--pair", "b", "a"]
            message = "has an exact decimal form too long to print (use p/q)"
        else:
            doc = json.loads((DATA / "obs_x.json").read_text())
            doc["lattice"] = str(DATA / "mo2_lattice.json")
            doc["assignment"][0]["value"] = "1" + "0" * 400 + "/3"
            path = tmp_path / "x.json"
            path.write_text(json.dumps(doc))
            argv = ["--decimal", "--approx", *self.CONDEXP]
            argv[argv.index(str(DATA / "obs_y.json"))] = str(path)
            message = "has no exact decimal form and is out of float range (use p/q)"
        capsys.readouterr()
        assert main(argv) == cli.EXIT_IO == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_approx_and_exact_decimals_exit_0(self, capsys):
        code, out = run(capsys, "--decimal", "--approx", *self.CONDEXP)
        assert code == 0 and "1.8 vs 1.8" in out
        code, out = run(capsys, "--decimal", "indep", str(DATA / "two_blocks_smap.json"), "--scan")
        assert code == 0


def _broken_document(kind):
    """A data file with one label (or the type) replaced by a list."""
    name = {"element": "obs_y.json", "type": "two_blocks_smap.json"}.get(kind, "two_blocks_f.json")
    doc = json.loads((DATA / name).read_text())
    doc["lattice"] = str(DATA / "mo2_lattice.json")
    if kind == "conditions":
        doc["conditions"].append(["a"])
    elif kind == "table":
        doc["table"][2][1] = {"label": "1"}
    elif kind == "element":
        doc["assignment"][0]["element"] = ["b"]
    else:
        doc["type"] = ["smap"]
    return doc


@pytest.mark.parametrize("kind", ["conditions", "table", "element", "type"])
def test_unhashable_label_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_broken_document(kind)))
    if kind == "element":
        argv = ["condexp", "--f", str(DATA / "two_blocks_f.json"),
                "--observable", str(path), "--atom", "a"]
    else:
        argv = ["validate", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "status: error" in err
    assert "Traceback" not in err


def _with_cells(name, cells):
    """A data file with table cells replaced: {(row, column): value} for an
    s-map, {index: value} for a conditional state's triples."""
    doc = json.loads((DATA / name).read_text())
    doc["lattice"] = str(DATA / "mo2_lattice.json")
    for key, v in cells.items():
        if isinstance(key, tuple):
            doc["table"][key[0]][key[1]] = v
        else:
            doc["table"][key][2] = v
    return doc


# Table cells are parsed through a memo of the strings of one document.  A
# bool must not hit the entry of "1" or 1, an unhashable cell must not reach
# the memo, and the first bad cell in document order names the error.
@pytest.mark.parametrize("name, cells, message", [
    ("two_blocks_smap.json", {("0", "0"): "1", ("0", "1"): 1, ("b'", "b'"): True},
     "not a rational: true"),
    ("two_blocks_smap.json", {("a", "b"): [1]}, "not a rational: [1]"),
    ("two_blocks_smap.json", {("a", "b"): "zz", ("b", "a"): "zz", ("b'", "a"): "1/0"},
     "not a rational: 'zz'"),
    ("two_blocks_f.json", {0: "1", 1: 1, 7: True}, "not a rational: true"),
    ("two_blocks_f.json", {3: [1]}, "not a rational: [1]"),
])
def test_bad_table_cell_exits_2(capsys, tmp_path, name, cells, message):
    path = tmp_path / name
    path.write_text(json.dumps(_with_cells(name, cells)))
    with pytest.raises(ParseError) as exc:
        files.load_typed(files.load_document(str(path)))
    assert str(exc.value) == message
    assert main(["validate", str(path)]) == 2
    assert f"error = {message}\n" in capsys.readouterr().err


def test_equal_literals_load_to_equal_entries(tmp_path):
    """p(1, a) = p(a, 1) = p(a, a) = 2/5, written three ways."""
    path = tmp_path / "p.json"
    cells = {("1", "a"): "2/5", ("a", "1"): "4/10", ("a", "a"): "0.4"}
    path.write_text(json.dumps(_with_cells("two_blocks_smap.json", cells)))
    p = files.load_typed(files.load_document(str(path)))
    want = files.load_typed(files.load_document(str(DATA / "two_blocks_smap.json")))
    a = p.lattice.id_of("a")
    assert p(p.lattice.one, a) == p(a, p.lattice.one) == p(a, a) == Fraction(2, 5)
    assert p.table == want.table


def test_equal_strings_load_to_one_fraction(tmp_path):
    """Cells of one s-map document written as the same string are the same
    ``Fraction`` object; "2/5" and "0.4" are equal but need not be."""
    doc = _with_cells("two_blocks_smap.json", {("a", "a"): "0.4"})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    p = files.load_typed(files.load_document(str(path)))
    L, first = p.lattice, {}
    for rlab, row in doc["table"].items():
        for clab, text in row.items():
            x = p(L.id_of(rlab), L.id_of(clab))
            assert first.setdefault(text, x) is x
    assert len(first) < len(L) ** 2


# A JSON value where a type, a label or a declared bound belongs is shown as
# the file holds it: a number as its decimal, never as a Fraction repr.
SHOWN = pytest.mark.parametrize("value, shown", [
    (1.5, "1.5"), ([1.5, "a"], "[1.5, 'a']"), (True, "true"), (None, "null"),
    ({"k": -0.25}, "{'k': -0.25}"),
], ids=["number", "list", "true", "null", "object"])


def _run_document(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    return code, capsys.readouterr().err


@SHOWN
def test_unknown_document_type_is_shown_as_written(capsys, tmp_path, value, shown):
    doc = json.loads((DATA / "mo2_lattice.json").read_text(encoding="utf-8"))
    doc["type"] = value
    code, err = _run_document(capsys, tmp_path, doc)
    assert code == 2
    assert f"error = unknown document type {shown}\n" in err


@SHOWN
def test_unexpected_kind_is_shown_as_written(tmp_path, value, shown):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"type": value, "labels": []}), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        files.load_lattice(files.load_document(str(path)))
    assert str(exc.value) == f"expected a lattice document, got {shown}"


@SHOWN
def test_declared_zero_is_shown_as_written(capsys, tmp_path, value, shown):
    doc = json.loads((DATA / "mo2_lattice.json").read_text(encoding="utf-8"))
    doc["zero"] = value
    code, err = _run_document(capsys, tmp_path, doc)
    assert code == 2
    assert f"error = declared zero = {shown} but the order has '0'\n" in err


@SHOWN
def test_unknown_condition_label_is_shown_as_written(capsys, tmp_path, value, shown):
    doc = json.loads((DATA / "two_blocks_f.json").read_text(encoding="utf-8"))
    doc["lattice"] = str(DATA / "mo2_lattice.json")
    doc["conditions"][0] = value
    code, err = _run_document(capsys, tmp_path, doc)
    assert code == 2
    assert f"error = unknown element label {shown}\n" in err


def test_unknown_row_label_exits_2(capsys, tmp_path):
    """An s-map row whose label is no element is refused, even with no cells."""
    doc = _with_cells("two_blocks_smap.json", {})
    doc["table"]["zz"] = {}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "error = unknown element label 'zz'\n" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ('"a": {', '"a": {"b": "1/7", ', "b"),
    ('"table": {', '"table": {"a": {}, ', "a"),
    ('{"type": "smap"', '{"type": "smap", "type": "smap"', "type"),
], ids=["cell", "row", "field"])
def test_repeated_json_key_exits_2(capsys, tmp_path, old, new, key):
    """``json`` keeps the last of two equal keys; a document that repeats a
    cell, a row label or a top-level field is refused, even when both values
    agree."""
    text = json.dumps(_with_cells("two_blocks_smap.json", {}))
    assert text.count(old) == 1
    path = tmp_path / "p.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    message = f"{path}: key {key!r} is repeated in an object"
    with pytest.raises(ParseError) as exc:
        files.load_document(str(path))
    assert str(exc.value) == message
    assert main(["validate", str(path)]) == 2
    assert f"error = {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1/7", "2/5"], ids=["conflicting", "consistent"])
def test_repeated_conditional_state_entry_exits_2(capsys, tmp_path, value):
    """A second f(a, 1) is refused, whether or not it equals the first."""
    doc = _with_cells("two_blocks_f.json", {})
    doc["table"].append(["a", "1", value])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^'table' gives f\(a, 1\) twice$"):
        files.load_typed(files.load_document(str(path)))
    assert main(["validate", str(path)]) == 2
    assert "error = 'table' gives f(a, 1) twice\n" in capsys.readouterr().err


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    """Every command of the README's CLI block exits 0, in order, with its
    /tmp paths moved under a fresh directory."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("omlprob ")]
    assert len(commands) == 7
    monkeypatch.chdir(DATA.parent)
    for argv in commands:
        argv = [a.replace("/tmp", str(tmp_path)) for a in argv]
        assert main(argv) == 0, argv
    capsys.readouterr()


class TestValidateCommand:
    def test_examples_pass(self, capsys):
        code, out = run(
            capsys,
            "validate",
            str(DATA / "mo2_lattice.json"),
            str(DATA / "two_blocks_f.json"),
            str(DATA / "two_blocks_smap.json"),
        )
        assert code == 0
        assert "FAIL" not in out

    def test_o6_fails_with_witness(self, capsys):
        code, out = run(capsys, "validate", str(DATA / "o6_lattice.json"))
        assert code == 1
        assert "orthomodular" in out and "a ≤ b" in out

    def test_lattice_error_of_a_table_is_one_check(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_f.json").read_text())
        doc["lattice"] = str(DATA / "o6_lattice.json")
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path), "--format", "json")
        assert code == 1
        assert [c["name"] for c in json.loads(out)["checks"]] == ["NotOrthomodular"]

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1,")
        code = main(["validate", str(path)])
        assert code == 2

    @pytest.mark.parametrize("literal", ["1e3000000", "9" * 5000])
    def test_huge_json_literal_exits_2(self, capsys, tmp_path, literal):
        path = tmp_path / "huge.json"
        path.write_text(f"[{literal}]")
        with pytest.raises(ParseError, match="numeric literal"):
            files.load_document(str(path))
        assert main(["validate", str(path)]) == 2

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        with pytest.raises(ParseError, match="nested too deeply"):
            files.load_document(str(path))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "nested too deeply" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("referenced", [False, True], ids=["document", "lattice"])
    def test_invalid_utf8_exits_2(self, capsys, tmp_path, referenced):
        bad = b'{"labels": ["\xff"]}'
        path = tmp_path / "doc.json"
        if referenced:
            (tmp_path / "lattice.json").write_bytes(bad)
            doc = json.loads((DATA / "two_blocks_smap.json").read_text(encoding="utf-8"))
            doc["lattice"] = "lattice.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            path.write_bytes(bad)
        bad_path = path.with_name("lattice.json") if referenced else path
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error = {bad_path} is not valid UTF-8: " in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_huge_string_literal_exits_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_smap.json").read_text())
        doc["lattice"] = json.loads((DATA / "mo2_lattice.json").read_text())
        doc["table"]["a"]["b"] = "1e3000000"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "numeric literal" in capsys.readouterr().err

    def test_missing_diagonal_fails_s1(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_smap.json").read_text())
        doc["lattice"] = json.loads((DATA / "mo2_lattice.json").read_text())
        del doc["table"]["a"]["a"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL p.json:s1  (table missing entry p(a, a))" in out

    def test_missing_off_diagonal_fails_s1(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_smap.json").read_text())
        doc["lattice"] = json.loads((DATA / "mo2_lattice.json").read_text())
        del doc["table"]["a"]["b"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL p.json:s1  (table missing entry p(a, b))" in out

    @staticmethod
    def _obs_x_with(tmp_path, i, element):
        """obs_x.json with the element of assignment i replaced; its path."""
        doc = json.loads((DATA / "obs_x.json").read_text())
        doc["lattice"] = str(DATA / "mo2_lattice.json")
        doc["assignment"][i]["element"] = element
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_observable_label_error_exits_2(self, capsys, tmp_path):
        assert main(["validate", self._obs_x_with(tmp_path, 0, "zz")]) == 2
        captured = capsys.readouterr()
        assert "status: error" in captured.err and "'zz'" in captured.err
        assert "FAIL" not in captured.out

    def test_non_orthogonal_observable_fails_partition(self, capsys, tmp_path):
        code, out = run(capsys, "validate", self._obs_x_with(tmp_path, 1, "b"))
        assert code == 1
        assert "FAIL obs.json:partition  (events for values 1 and 2 are not orthogonal)" in out

    def test_corrupted_conditional_state(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_f.json").read_text())
        doc["lattice"] = json.loads((DATA / "mo2_lattice.json").read_text())
        for row in doc["table"]:
            if row[0] == "b" and row[1] == "a":
                row[2] = "1/4"
            if row[0] == "b'" and row[1] == "a":
                row[2] = "3/4"
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL f.json:C3" in out

    def test_golden_report(self, capsys):
        code, out = run(
            capsys,
            "validate",
            str(DATA / "mo2_lattice.json"),
            str(DATA / "two_blocks_f.json"),
            str(DATA / "two_blocks_smap.json"),
            "--format",
            "json",
        )
        # Golden comparison is on the parsed document so key order is free.
        assert json.loads(out) == json.loads(
            (GOLDEN / "validate_examples.json").read_text()
        )

    def test_report_round_trips_through_schema(self, capsys):
        code, out = run(
            capsys, "validate", str(DATA / "mo2_lattice.json"), "--format", "json"
        )
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert set(doc) == {"schema_version", "status", "checks", "values"}
        assert json.loads(json.dumps(doc)) == doc


class TestConvertCommand:
    def test_f_to_smap_matches_stored_table(self, capsys, tmp_path):
        out_path = tmp_path / "smap.json"
        code, _ = run(
            capsys, "convert", str(DATA / "two_blocks_f.json"), "-o", str(out_path)
        )
        assert code == 0
        got = json.loads(out_path.read_text())
        want = json.loads((DATA / "two_blocks_smap.json").read_text())
        assert got["table"] == want["table"]

    def test_round_trip_through_files(self, capsys, tmp_path, mo2):
        smap_out = tmp_path / "smap.json"
        f_out = tmp_path / "f.json"
        run(capsys, "convert", str(DATA / "two_blocks_f.json"), "-o", str(smap_out))
        code, _ = run(
            capsys,
            "convert",
            str(smap_out),
            "-o",
            str(f_out),
            "--lattice",
            str(DATA / "mo2_lattice.json"),
        )
        assert code == 0
        f = files.load_conditional_state(files.load_document(str(f_out)), mo2)
        orig = files.load_conditional_state(
            files.load_document(str(DATA / "two_blocks_f.json")), mo2
        )
        for c in orig.conditions:
            for x in mo2.elements:
                assert f(x, c) == orig(x, c)

    def test_written_smap_with_long_entries_reads_back(self, capsys, tmp_path, mo2):
        """Each side of a written "p/q" is within the digit bound, so the
        document loads, although 1 − t takes 1203 characters in all."""
        t = Fraction(3, 10**600 + 7)
        ones = [{mo2.one, mo2.id_of("a"), mo2.id_of("b")},
                {mo2.one, mo2.id_of("a'"), mo2.id_of("b'")}]
        rows = [[t * (x in ones[0] and y in ones[0]) + (1 - t) * (x in ones[1] and y in ones[1])
                 for y in mo2.elements] for x in mo2.elements]
        p = q.validate_smap(mo2, rows)
        files.write_document(str(tmp_path / "mo2.json"), files.lattice_document(mo2))
        path = tmp_path / "smap.json"
        files.write_document(str(path), files.smap_document(p, "mo2.json"))
        assert len(files.smap_document(p)["table"]["a'"]["a'"]) == 1203
        assert files.load_smap(files.load_document(str(path))).table == p.table
        code, _ = run(capsys, "convert", str(path), "-o", str(tmp_path / "f.json"))
        assert code == 0

    def test_inline_lattice_is_written_through(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_smap.json").read_text())
        doc["lattice"] = json.loads((DATA / "mo2_lattice.json").read_text())
        path, out = tmp_path / "p.json", tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "convert", str(path), "-o", str(out))[0] == 0
        assert json.loads(out.read_text())["lattice"] == doc["lattice"]
        assert run(capsys, "validate", str(out))[0] == 0
        assert run(capsys, "convert", str(out), "-o", str(tmp_path / "p2.json"))[0] == 0
        got = json.loads((tmp_path / "p2.json").read_text())
        assert got["lattice"] == doc["lattice"] and got["table"] == doc["table"]

    def test_invalid_input_surfaces_violation(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_blocks_f.json").read_text())
        doc["lattice"] = json.loads((DATA / "mo2_lattice.json").read_text())
        for row in doc["table"]:
            if row[0] == "a" and row[1] == "a":
                row[2] = "9/10"
            if row[0] == "a'" and row[1] == "a":
                row[2] = "1/10"
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "convert", str(path), "-o", str(tmp_path / "o.json"))
        assert code == 1
        assert "C2Violation" in out


class TestIndepCommand:
    def test_pair_golden(self, capsys):
        code, out = run(
            capsys,
            "indep",
            str(DATA / "two_blocks_smap.json"),
            "--pair",
            "a",
            "b",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == json.loads((GOLDEN / "indep_pair_a_b.json").read_text())

    def test_reverse_pair_not_independent(self, capsys):
        code, out = run(
            capsys,
            "indep",
            str(DATA / "two_blocks_smap.json"),
            "--pair",
            "b",
            "a",
            "--format",
            "json",
        )
        assert json.loads(out)["values"]["independent"] is False

    def test_scan_golden(self, capsys):
        code, out = run(
            capsys,
            "indep",
            str(DATA / "two_blocks_smap.json"),
            "--scan",
            "--format",
            "json",
        )
        assert json.loads(out) == json.loads((GOLDEN / "indep_scan.json").read_text())

    def test_scan_on_boolean_random_smap(self, capsys, tmp_path):
        run(
            capsys,
            "gen",
            "--kind",
            "boolean",
            "--n",
            "3",
            "--seed",
            "11",
            "--emit",
            "lattice,smap",
            "-o",
            str(tmp_path),
        )
        code, out = run(
            capsys,
            "indep",
            str(tmp_path / "boolean3_smap.json"),
            "--scan",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["values"]["asymmetric_pairs"] == []


class TestCondexpCommand:
    def test_constant_solution_golden(self, capsys):
        code, out = run(
            capsys,
            "condexp",
            "--f",
            str(DATA / "two_blocks_f.json"),
            "--observable",
            str(DATA / "obs_x.json"),
            "--atom",
            "b",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == json.loads(
            (GOLDEN / "condexp_x_given_b.json").read_text()
        )

    def test_two_point_solution_golden(self, capsys):
        code, out = run(
            capsys,
            "condexp",
            "--f",
            str(DATA / "two_blocks_f.json"),
            "--observable",
            str(DATA / "obs_y.json"),
            "--atom",
            "a",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == json.loads(
            (GOLDEN / "condexp_y_given_a.json").read_text()
        )

    def test_constant_observable_is_fixed_point(self, capsys, tmp_path):
        doc = {
            "type": "observable",
            "lattice": "mo2_lattice.json",
            "assignment": [{"value": "5", "element": "1"}],
        }
        path = tmp_path / "const.json"
        path.write_text(json.dumps(doc))
        code, out = run(
            capsys,
            "condexp",
            "--f",
            str(DATA / "two_blocks_f.json"),
            "--observable",
            str(path),
            "--atom",
            "b",
            "--lattice",
            str(DATA / "mo2_lattice.json"),
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["values"]["z"] == [["5", "1"]]


    def test_values_past_the_literal_bound_exit_0(self, capsys, tmp_path):
        """z, and f(z, b) in the check lines, have more digits than a literal
        may have, and f(z, 1) more than Python's int -> str limit."""
        run(capsys, "gen", "--kind", "boolean", "--n", "5",
            "--emit", "lattice,conditional_state", "-o", str(tmp_path))
        values = {a: Fraction(1, 10**999 + k) for a, k in zip("abcde", (1, 3, 7, 9, 13))}
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({
            "type": "observable", "lattice": "boolean5_lattice.json",
            "assignment": [{"value": str(v), "element": a} for a, v in values.items()],
        }))
        f_path = tmp_path / "boolean5_conditional_state.json"
        code, out = run(capsys, "condexp", "--f", str(f_path), "--observable", str(obs),
                        "--atom", "a", "--format", "json")
        assert code == 0
        f = files.load_conditional_state(files.load_document(str(f_path)))
        L = f.lattice
        x = q.make_observable(L, [(v, L.id_of(a)) for a, v in values.items()])
        report = json.loads(out)
        want = {expectation_sum(f, x, b): L.label(b) for b in L.boolean_subalgebra(L.id_of("a")).atoms}
        assert {Fraction(v): lab for v, lab in report["values"]["z"]} == want
        assert all(c["passed"] for c in report["checks"])
        assert max(len(c["witness"]) for c in report["checks"]) > 2 * 4300


class TestGenCommand:
    def test_emitted_files_validate(self, capsys, tmp_path):
        code, _ = run(
            capsys,
            "gen",
            "--kind",
            "mo",
            "--n",
            "2",
            "--seed",
            "42",
            "--emit",
            "lattice,smap,conditional_state",
            "-o",
            str(tmp_path),
        )
        assert code == 0
        code, out = run(
            capsys,
            "validate",
            str(tmp_path / "mo2_lattice.json"),
            str(tmp_path / "mo2_smap.json"),
            str(tmp_path / "mo2_conditional_state.json"),
        )
        assert code == 0 and "FAIL" not in out

    def test_gen_deterministic(self, capsys, tmp_path):
        for sub in ("one", "two"):
            run(
                capsys,
                "gen",
                "--kind",
                "mo",
                "--n",
                "3",
                "--seed",
                "7",
                "--emit",
                "smap",
                "-o",
                str(tmp_path / sub),
            )
        assert (tmp_path / "one" / "mo3_smap.json").read_text() == (
            tmp_path / "two" / "mo3_smap.json"
        ).read_text()

    @pytest.mark.parametrize("kind, emit, message", [
        ("mo", "lattice,smpa", "unknown --emit items ['smpa']"),
        ("o6", "lattice,smap", "only its lattice can be emitted"),
    ], ids=["unknown-item", "o6-table"])
    def test_refused_emit_writes_nothing(self, capsys, tmp_path, kind, emit, message):
        assert main(["gen", "--kind", kind, "--emit", emit, "-o", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_emitted_table_validates_alone(self, capsys, tmp_path):
        """The lattice a table names is written with it, whatever --emit."""
        out = tmp_path / "d"
        assert main(["gen", "--kind", "mo", "--n", "2", "--emit", "smap", "-o", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["mo2_lattice.json", "mo2_smap.json"]
        capsys.readouterr()
        assert main(["validate", str(out / "mo2_smap.json")]) == 0

    def test_o6_emits_raw_lattice_only(self, capsys, tmp_path):
        code, _ = run(capsys, "gen", "--kind", "o6", "-o", str(tmp_path))
        assert code == 0
        code, _ = run(capsys, "validate", str(tmp_path / "o6_lattice.json"))
        assert code == 1


DOCUMENTS = sorted(p.name for p in DATA.glob("*.json"))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(DOCUMENTS), st.booleans(), st.integers(min_value=0),
       st.integers(0x80, 0xFF))
def test_damaged_data_documents_exit_with_a_report(name, cut, at, byte):
    """Each data document with a non-ASCII byte inserted, or cut short, is
    validated next to the intact others: exit 0, 1 or 2, never an internal
    error (3)."""
    data = (DATA / name).read_bytes()
    at %= len(data) + 1
    with tempfile.TemporaryDirectory() as tmp:
        for other in DOCUMENTS:
            shutil.copy(DATA / other, tmp)
        damaged = data[:at] if cut else data[:at] + bytes([byte]) + data[at:]
        pathlib.Path(tmp, name).write_bytes(damaged)
        code = main(["validate", *(str(pathlib.Path(tmp, d)) for d in DOCUMENTS)])
    assert code in (0, 1, 2)
