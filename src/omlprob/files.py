"""JSON file schemas for lattices, states, s-maps and observables.

All rationals in files are strings ("3/25", "0.12") or integers; decimals
are parsed exactly as fractions over powers of ten.  Each distinct string of
an s-map table is parsed once per load, through a memo that lives for that
load only; every other literal, a conditional-state cell included, goes
through ``parse_rational`` once.  A key repeated in any JSON object is a
parse error.  Every document may carry a "type" field ("lattice", "state",
"conditional_state", "smap", "observable"), which must name the kind its
reader expects; an untyped document's kind is inferred from its fields
(``DOCUMENT_KINDS``).  A table document may name its lattice in a "lattice"
field, inline or as a path relative to the document.  Unknown fields are
rejected.

An s-map table is loaded integer-first: every literal is parsed to a
reduced integer ratio and placed by position, a cell's value read before
its column label, which is looked up in the lattice's label dict; then
s1–s3 are checked on the ratios scaled to a common denominator
(``states._scaled``); only a table that passes is built, one ``Fraction``
per distinct literal.  Past
2**MAX_SCALE_BITS the scaler returns those ``Fraction``s, which are checked
themselves and kept.

A lattice named by path is built once per file content: the file is read on
every load, and a lattice built from the same bytes is reused from a memo of
the last ``_LATTICE_MEMO_SIZE`` contents, oldest out first.  Changed bytes
are a new key, so an edited file is never served stale; a failure is never
stored, and an inline lattice or a direct ``load_lattice`` always builds.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Mapping
from fractions import Fraction

from .errors import ParseError, SchemaError
from .lattice import OrthomodularLattice, build_lattice
from .rationals import _ratio, format_rational, literal, parse_rational
from .states import ConditionalState, State, validate_conditional_state, validate_state

# The readers of s-maps and observables import their module when called, so
# a command loads only the modules of the documents it reads; in annotations
# SMap and Observable name smap.SMap and observables.Observable.

def _json_int(text: str) -> int:
    return _ratio(text)[0]  # bounds the digit count first


class _Document(dict):
    """A document read from the file at ``path``; a relative lattice
    reference resolves against that file's directory."""

    __slots__ = ("path",)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _object(pairs: list) -> dict:
    """A JSON object; a key given twice is refused, where ``json`` would
    keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"key {key!r} is repeated in an object")
    return obj


def _parse(path: str, data: bytes) -> dict:
    """The document in the bytes ``data`` read from ``path``, decoded as
    UTF-8, the encoding RFC 8259 requires of JSON."""
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_object,
                         parse_float=parse_rational, parse_int=_json_int)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    doc = _Document(doc)
    doc.path = path
    return doc


def load_document(path: str) -> dict:
    return _parse(path, _read(path))


_LATTICE_MEMO_SIZE = 8
_lattice_memo: dict[bytes, OrthomodularLattice] = {}  # file bytes -> lattice
_lattice_memo_lock = threading.Lock()


def _referenced_lattice(path: str) -> OrthomodularLattice:
    """The lattice of the file at ``path``, built once per file content."""
    data = _read(path)
    with _lattice_memo_lock:
        L = _lattice_memo.get(data)
    if L is None:
        L = load_lattice(_parse(path, data))
        with _lattice_memo_lock:
            _lattice_memo[data] = L
            if len(_lattice_memo) > _LATTICE_MEMO_SIZE:
                del _lattice_memo[next(iter(_lattice_memo))]
    return L


def document_type(doc: Mapping) -> str:
    """The declared or inferred document type."""
    if "type" in doc:
        kind = doc["type"]
        if not isinstance(kind, str) or kind not in DOCUMENT_KINDS:
            raise SchemaError(f"unknown document type {literal(kind)}")
        return kind
    for kind, (marker, *_) in DOCUMENT_KINDS.items():
        if marker in doc:
            return kind
    raise SchemaError("cannot infer document type")


def _expected(kinds, kind) -> SchemaError:
    article = "an" if kinds[0][0] in "aeiou" else "a"
    return SchemaError(f"expected {article} {' or '.join(kinds)} document, got {literal(kind)}")


def _open(doc: Mapping, kind: str, L: OrthomodularLattice | None = None):
    """Check that a declared "type" is ``kind`` and every field one it allows.

    Returns the lattice of a table document: ``L`` if given, else the one its
    "lattice" field holds inline or names by a path relative to the document.
    A "lattice" field that is neither is refused, whether or not ``L`` is
    given.
    """
    if doc.get("type", kind) != kind:
        raise _expected((kind,), doc["type"])
    fields = DOCUMENT_KINDS[kind][1]
    unknown = set(doc) - fields - {"type"}
    if unknown:
        raise SchemaError(f"unknown fields for {kind}: {sorted(unknown)}")
    ref = doc.get("lattice")
    if "lattice" in doc and not (isinstance(ref, dict) or isinstance(ref, str) and ref):
        raise SchemaError("'lattice' must be a lattice object or a non-empty path")
    if L is not None or "lattice" not in fields:
        return L
    if ref is None:
        raise SchemaError("no lattice given and the document does not reference one")
    if isinstance(ref, dict):
        return load_lattice(ref)
    base = os.path.dirname(getattr(doc, "path", "."))
    return _referenced_lattice(os.path.join(base, ref))


def _pairs(doc, field):
    raw = doc.get(field)
    if isinstance(raw, list):
        pairs = [tuple(p) for p in raw if isinstance(p, list) and len(p) == 2
                 and isinstance(p[0], str) and isinstance(p[1], str)]
        if len(pairs) == len(raw):
            return pairs
    raise SchemaError(f"{field!r} must be a list of [label, label] pairs")


def load_lattice(doc: Mapping) -> OrthomodularLattice:
    _open(doc, "lattice")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("'labels' must be a list of strings")
    L = build_lattice(labels, _pairs(doc, "leq"), _pairs(doc, "ortho"))
    for key, want in (("zero", L.zero), ("one", L.one)):
        if key in doc and doc[key] != L.label(want):
            raise SchemaError(
                f"declared {key} = {literal(doc[key])} but the order has {L.label(want)!r}"
            )
    return L


def load_state(doc: Mapping, L: OrthomodularLattice | None = None) -> State:
    L = _open(doc, "state", L)
    raw = doc.get("values")
    if not isinstance(raw, dict):
        raise SchemaError("'values' must be an object keyed by element label")
    values = {L.id_of(lab): parse_rational(v) for lab, v in raw.items()}
    if set(values) != set(L.elements):
        raise SchemaError("'values' must cover every element exactly once")
    return validate_state(L, values)


def load_conditional_state(
    doc: Mapping, L: OrthomodularLattice | None = None
) -> ConditionalState:
    L = _open(doc, "conditional_state", L)
    conds = doc.get("conditions")
    if not isinstance(conds, list):
        raise SchemaError("'conditions' must be a list of element labels")
    cs = frozenset(L.id_of(lab) for lab in conds)
    raw = doc.get("table")
    if not isinstance(raw, list) or not all(
        isinstance(t, list) and len(t) == 3 for t in raw
    ):
        raise SchemaError("'table' must be a list of [element, condition, value] triples")
    table = {}
    for b, a, v in raw:
        key = L.id_of(b), L.id_of(a)
        if key in table:
            raise SchemaError(f"'table' gives f({b}, {a}) twice")
        if key[1] not in cs:
            raise SchemaError(f"'table' gives f({b}, {a}) but {a} is not a condition")
        table[key] = parse_rational(v)
    # Rows the state axioms force may be omitted: f(0, a) = 0, f(1, a) = 1.
    for a in cs:
        table.setdefault((L.zero, a), Fraction(0))
        table.setdefault((L.one, a), Fraction(1))
    return validate_conditional_state(L, cs, table)


def load_smap(doc: Mapping, L: OrthomodularLattice | None = None) -> SMap:
    from .smap import _smap_of_ratios

    L = _open(doc, "smap", L)
    raw = doc.get("table")
    if not isinstance(raw, dict) or not all(isinstance(r, dict) for r in raw.values()):
        raise SchemaError("'table' must be an object of row objects keyed by label")
    ratios, memo = [], {}  # memo: a str cell -> its index in ratios

    def index(v):  # the index in ratios of the reduced (n, d) of v
        # Only a str is remembered: True == 1 would hit the entry of 1, and
        # a list is unhashable.
        if type(v) is str:
            i = memo.get(v)
            if i is None:
                ratios.append(_ratio(v))
                i = memo[v] = len(ratios) - 1
            return i
        ratios.append(_ratio(v))
        return len(ratios) - 1

    ids = L._index  # the label dict; a row's keys are hashable, so `in` cannot raise
    cell = [[None] * len(L) for _ in L.elements]
    for rlab, row in raw.items():
        r = cell[L.id_of(rlab)]
        for clab, v in row.items():
            # index(v) runs first: a bad literal is named before its label.
            r[ids[clab] if clab in ids else L.id_of(clab)] = index(v)
    return _smap_of_ratios(L, cell, ratios)


def load_observable(doc: Mapping, L: OrthomodularLattice | None = None) -> Observable:
    from .observables import _partition

    L = _open(doc, "observable", L)
    raw = doc.get("assignment")
    if not isinstance(raw, list) or not all(
        isinstance(e, dict) and set(e) == {"value", "element"} for e in raw
    ):
        raise SchemaError("'assignment' must be a list of {value, element} objects")
    return _partition(L, [(parse_rational(e["value"]), L.id_of(e["element"])) for e in raw])


# kind -> (the field that marks an untyped document of the kind, the fields
# it allows besides "type", the stages of its checks in order, its loader),
# in inference order: a conditional state also has a "table", so it precedes
# the s-map.
DOCUMENT_KINDS = {
    "lattice": ("labels", {"labels", "leq", "ortho", "zero", "one"},
                ("poset", "lattice", "ortholattice", "orthomodular"),
                lambda doc, L: load_lattice(doc)),
    "state": ("values", {"lattice", "values"}, ("normalized", "additive"), load_state),
    "conditional_state": ("conditions", {"lattice", "conditions", "table"}, ("C1", "C2", "C3"),
                          load_conditional_state),
    "observable": ("assignment", {"lattice", "assignment"}, ("partition",), load_observable),
    "smap": ("table", {"lattice", "table"}, ("s1", "s2", "s3"), load_smap),
}


def load_typed(doc: Mapping, L: OrthomodularLattice | None = None, kinds=()):
    """Dispatch on the document type; returns the validated object.

    A non-empty ``kinds`` lists the kinds the caller accepts; a document of
    any other kind is refused before anything of it is loaded.
    """
    kind = document_type(doc)
    if kinds and kind not in kinds:
        raise _expected(kinds, kind)
    return DOCUMENT_KINDS[kind][3](doc, L)


# --- writers -----------------------------------------------------------------

def lattice_document(L: OrthomodularLattice) -> dict:
    leq = [
        [L.label(a), L.label(b)]
        for a in L.elements
        for b in L.elements
        if a != b and L.leq(a, b)
    ]
    ortho = [
        [L.label(a), L.label(L.ortho(a))] for a in L.elements if a <= L.ortho(a)
    ]
    return {
        "type": "lattice",
        "labels": list(L.labels),
        "leq": leq,
        "ortho": ortho,
        "zero": L.label(L.zero),
        "one": L.label(L.one),
    }


def _document(kind: str, lattice_ref: str | dict | None, **body) -> dict:
    head = {"type": kind, "lattice": lattice_ref} if lattice_ref else {"type": kind}
    return head | body


def state_document(m: State, lattice_ref: str | None = None) -> dict:
    L = m.lattice
    values = {L.label(a): format_rational(m(a)) for a in L.elements}
    return _document("state", lattice_ref, values=values)


def conditional_state_document(f: ConditionalState, lattice_ref: str | dict | None = None) -> dict:
    L = f.lattice
    conds = sorted(f.conditions)
    table = [[L.label(b), L.label(a), format_rational(f(b, a))] for a in conds for b in L.elements]
    return _document(
        "conditional_state", lattice_ref, conditions=[L.label(a) for a in conds], table=table
    )


def smap_document(p: SMap, lattice_ref: str | dict | None = None) -> dict:
    L = p.lattice
    table = {
        L.label(a): {L.label(b): format_rational(p(a, b)) for b in L.elements}
        for a in L.elements
    }
    return _document("smap", lattice_ref, table=table)


def observable_document(x: Observable, lattice_ref: str | None = None) -> dict:
    L = x.lattice
    assignment = [
        {"value": format_rational(v), "element": L.label(x.assignment[v])} for v in x.spectrum
    ]
    return _document("observable", lattice_ref, assignment=assignment)


def write_document(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
