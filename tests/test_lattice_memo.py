"""A lattice named by path is built once per file content.

``build_lattice`` is counted through ``files`` to see when a load builds and
when it reuses the lattice of identical bytes.
"""

import json
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest

from omlprob import files
from omlprob.catalog import raw_structure
from omlprob.errors import NotOrthomodular, ParseError

from conftest import DATA


@pytest.fixture
def builds(monkeypatch):
    """A fresh memo, and the list of label tuples of every build since."""
    monkeypatch.setattr(files, "_lattice_memo", {})
    calls = []
    build = files.build_lattice

    def counted(labels, leq, ortho):
        calls.append(tuple(labels))
        return build(labels, leq, ortho)

    monkeypatch.setattr(files, "build_lattice", counted)
    return calls


def _observable(path, lattice_ref):
    """A one-value observable document on the lattice ``lattice_ref``."""
    doc = {"type": "observable", "lattice": lattice_ref,
           "assignment": [{"value": "1", "element": "1"}]}
    path.write_text(json.dumps(doc))
    return files.load_document(str(path))


def _load(path):
    return files.load_typed(files.load_document(str(path)))


def test_documents_naming_one_file_share_one_lattice(builds, tmp_path):
    for name in ("mo2_lattice.json", "two_blocks_f.json", "two_blocks_smap.json"):
        shutil.copy(DATA / name, tmp_path / name)
    f = _load(tmp_path / "two_blocks_f.json")
    p = _load(tmp_path / "two_blocks_smap.json")
    assert p.lattice is f.lattice
    assert len(builds) == 1


def test_identical_bytes_under_another_path_share_the_lattice(builds, tmp_path):
    (tmp_path / "sub").mkdir()
    shutil.copy(DATA / "mo2_lattice.json", tmp_path / "sub" / "copy.json")
    x = files.load_typed(_observable(tmp_path / "x.json", "sub/copy.json"))
    y = files.load_typed(_observable(tmp_path / "y.json", str(DATA / "mo2_lattice.json")))
    assert x.lattice is y.lattice
    assert len(builds) == 1


def test_rewritten_file_is_rebuilt(builds, tmp_path):
    lattice = tmp_path / "lattice.json"
    raw = raw_structure("mo", 2)
    lattice.write_text(json.dumps(raw))
    first = files.load_typed(_observable(tmp_path / "x.json", "lattice.json"))
    raw["labels"] = raw["labels"][::-1]
    lattice.write_text(json.dumps(raw))
    second = files.load_typed(_observable(tmp_path / "x.json", "lattice.json"))
    assert second.lattice is not first.lattice
    assert second.lattice.labels == tuple(raw["labels"])
    assert len(builds) == 2


@pytest.mark.parametrize("content, error, message", [
    (json.dumps(raw_structure("o6")), NotOrthomodular, "orthomodular law fails on a ≤ b"),
    ("{not json", ParseError, "is not valid JSON: Expecting property name"),
])
def test_broken_lattice_file_fails_alike_every_time(builds, tmp_path, content, error, message):
    (tmp_path / "lattice.json").write_text(content)
    doc = _observable(tmp_path / "x.json", "lattice.json")
    messages = []
    for _ in range(3):
        with pytest.raises(error, match=message) as exc:
            files.load_typed(doc)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert files._lattice_memo == {}
    assert len(builds) == (3 if error is NotOrthomodular else 0)


def test_memo_keeps_the_newest_files_up_to_its_bound(builds, tmp_path):
    bound = files._LATTICE_MEMO_SIZE
    docs = []
    for n in range(1, bound + 4):
        (tmp_path / f"mo{n}.json").write_text(json.dumps(raw_structure("mo", n)))
        docs.append(_observable(tmp_path / f"x{n}.json", f"mo{n}.json"))
    for doc in docs:
        files.load_typed(doc)
    assert len(files._lattice_memo) == bound
    assert len(builds) == bound + 3
    files.load_typed(docs[-1])
    assert len(builds) == bound + 3
    files.load_typed(docs[0])  # evicted first, so built again
    assert len(builds) == bound + 4
    assert len(files._lattice_memo) == bound


def test_inline_and_direct_lattices_always_build(builds):
    lattice_doc = files.load_document(str(DATA / "mo2_lattice.json"))
    inline = {"type": "observable", "lattice": dict(lattice_doc),
              "assignment": [{"value": "1", "element": "1"}]}
    for _ in range(2):
        files.load_lattice(lattice_doc)
        files.load_typed(inline)
    assert len(builds) == 4
    assert files._lattice_memo == {}


def test_concurrent_loads_agree(builds, tmp_path):
    shutil.copy(DATA / "mo2_lattice.json", tmp_path / "mo2_lattice.json")
    doc = _observable(tmp_path / "x.json", "mo2_lattice.json")
    with ThreadPoolExecutor(max_workers=4) as pool:
        lattices = list(pool.map(lambda _: files.load_typed(doc).lattice, range(16)))
    assert {L.labels for L in lattices} == {lattices[0].labels}
    assert len(files._lattice_memo) == 1
    assert files.load_typed(doc).lattice is next(iter(files._lattice_memo.values()))
