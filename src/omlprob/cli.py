"""Command-line front door: validate, convert, indep, condexp, gen.

Exit codes: 0 on success, 1 when a validation check fails, 2 on I/O or
schema problems, 3 on an internal error (a bug, reported to stderr with its
traceback).  Reports are printed as text or as versioned JSON
(``--format json``); rationals print as "p/q" unless ``--decimal`` is given,
and a non-terminating decimal is an error (exit 2) unless ``--approx`` allows
a float approximation.

``main`` makes the one ``Report``, and each ``cmd_*`` fills it in.  ``main``
alone maps it to an exit code: 0 if every check passed, 1 if one failed; an
error a command raises replaces it.  ``--lattice`` is declared once, for the
four table commands validate, convert, indep and condexp.

Each subcommand imports, inside its function, the modules that only it
runs, so a command loads and compiles no code it does not run: ``validate`` loads
neither ``catalog`` nor ``observables``, and ``files`` imports ``smap`` or
``observables`` only to read such a document.  ``gen --kind`` is checked
by ``catalog.raw_structure``, whose refusal of an unknown kind exits 2 and
lists the kinds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import files
from .errors import InputError, OmlError, SchemaError
from .lattice import OrthomodularLattice
from .rationals import format_rational

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


class Report:
    def __init__(self, status: str = "ok", values: dict | None = None):
        self.status = status
        self.checks: list = []
        self.values = {} if values is None else values

    def check(self, name: str, passed, witness=None) -> None:
        self.checks.append({"name": name, "passed": passed, "witness": witness})
        if passed is False:
            self.status = "error"

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": self.status,
            "checks": self.checks,
            "values": self.values,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)
        lines = [f"status: {self.status}"]
        for c in self.checks:
            mark = {True: "PASS", False: "FAIL", None: "SKIP"}[c["passed"]]
            suffix = f"  ({c['witness']})" if c["witness"] else ""
            lines.append(f"{mark} {c['name']}{suffix}")
        for k, v in self.values.items():
            lines.append(f"{k} = {v}")
        return "\n".join(lines)


def _staged_checks(report: Report, prefix: str, stages, loader) -> None:
    """Run a loader whose checks are the named ``stages``, in check order.

    The stage of the error it raises is marked failed; earlier ones pass,
    later ones are skipped.  An error of no stage in ``stages`` propagates.
    """
    failed, message = len(stages), None
    try:
        loader()
    except OmlError as exc:
        if exc.stage not in stages:
            raise
        failed, message = stages.index(exc.stage), str(exc)
    for i, name in enumerate(stages):
        if i == failed:
            report.check(f"{prefix}:{name}", False, message)
        else:
            report.check(f"{prefix}:{name}", True if i < failed else None)


def _load_context_lattice(args) -> OrthomodularLattice | None:
    if args.lattice:
        return files.load_typed(files.load_document(args.lattice), kinds=("lattice",))
    return None


def cmd_validate(args, report: Report, fmt_value) -> None:
    L = _load_context_lattice(args)
    for path in args.paths:
        doc = files.load_document(path)
        stages = files.DOCUMENT_KINDS[files.document_type(doc)][2]
        _staged_checks(report, os.path.basename(path), stages, lambda: files.load_typed(doc, L))


def cmd_convert(args, report: Report, fmt_value) -> None:
    from .smap import SMap, conditional_to_smap, smap_to_conditional

    L = _load_context_lattice(args)
    doc = files.load_document(args.path)
    ref = doc.get("lattice")
    obj = files.load_typed(doc, L, ("smap", "conditional_state"))
    if isinstance(obj, SMap):
        out = files.conditional_state_document(smap_to_conditional(obj), ref)
        report.check("convert:smap->conditional_state", True)
    else:
        out = files.smap_document(conditional_to_smap(obj), ref)
        report.check("convert:conditional_state->smap", True)
    files.write_document(args.output, out)
    report.values["output"] = args.output


def cmd_indep(args, report: Report, fmt_value) -> None:
    from .smap import SMap, conditional_to_smap, is_independent_product, scan_asymmetric_pairs

    L = _load_context_lattice(args)
    p = files.load_typed(files.load_document(args.path), L, ("smap", "conditional_state"))
    if not isinstance(p, SMap):
        p = conditional_to_smap(p)
    L = p.lattice
    if args.scan:
        pairs = scan_asymmetric_pairs(p)
        report.values["asymmetric_pairs"] = [
            [L.label(a), L.label(b)] for a, b in pairs
        ]
    else:
        blab, alab = args.pair
        b, a = L.id_of(blab), L.id_of(alab)
        report.values["independent"] = is_independent_product(p, b, a)
        report.values["independent_reversed"] = is_independent_product(p, a, b)
        report.values[f"p({blab},{alab})"] = fmt_value(p(b, a))
        report.values[f"p({alab},{alab})*p({blab},{blab})"] = fmt_value(p(a, a) * p(b, b))


def cmd_condexp(args, report: Report, fmt_value) -> None:
    from .observables import _checked_members, conditional_expectation, expectation

    L = _load_context_lattice(args)
    f = files.load_typed(files.load_document(args.f), L, ("conditional_state",))
    L = f.lattice
    x = files.load_typed(files.load_document(args.observable), L, ("observable",))
    B = L.boolean_subalgebra(L.id_of(args.atom))
    z = conditional_expectation(f, x, B)
    report.values["z"] = [
        [fmt_value(v), L.label(z.assignment[v])] for v in z.spectrum
    ]
    # conditional_expectation has raised NoSolution unless f(x, b) = f(z, b).
    for b in _checked_members(f, B):
        lhs, rhs = fmt_value(expectation(f, x, b)), fmt_value(expectation(f, z, b))
        report.check(f"condexp:f(x,{L.label(b)})=f(z,{L.label(b)})", True, f"{lhs} vs {rhs}")


def cmd_gen(args, report: Report, fmt_value) -> None:
    from .catalog import random_smap, raw_structure
    from .smap import smap_to_conditional

    emit = {item.strip() for item in args.emit.split(",")} - {""}
    unknown = emit - {"lattice", "smap", "conditional_state"}
    if unknown:
        raise SchemaError(f"unknown --emit items {sorted(unknown)}")
    if args.kind == "o6" and emit - {"lattice"}:
        raise SchemaError("o6 fails validation; only its lattice can be emitted")
    raw = raw_structure(args.kind, args.n)
    raw["type"] = "lattice"
    os.makedirs(args.outdir, exist_ok=True)
    stem = args.kind if args.kind in ("o6", "chain2") else f"{args.kind}{args.n}"
    lattice_name = f"{stem}_lattice.json"
    docs = {"lattice": raw}  # the tables name it
    if emit - {"lattice"}:
        p = random_smap(files.load_lattice(raw), args.seed)
        if "conditional_state" in emit:
            docs["conditional_state"] = files.conditional_state_document(
                smap_to_conditional(p), lattice_name
            )
        if "smap" in emit:
            docs["smap"] = files.smap_document(p, lattice_name)
    for kind, doc in docs.items():
        report.values[kind] = os.path.join(args.outdir, f"{stem}_{kind}.json")
        files.write_document(report.values[kind], doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omlprob",
        description="Finite quantum-logic event structures: validate files, "
        "convert between s-maps and conditional states, query independence "
        "and solve conditional expectations.",
    )
    # Output flags are accepted both before and after the subcommand; the
    # SUPPRESS default keeps the subparser from clobbering a value given
    # up front.
    common = argparse.ArgumentParser(add_help=False)
    for flag, text, kw in (
        ("--format", "report format (default: text)",
         {"choices": ("text", "json"), "default": "text"}),
        ("--decimal", "print rationals as decimals", {"action": "store_true"}),
        ("--approx", "allow approximate decimals for non-terminating rationals",
         {"action": "store_true"}),
    ):
        parser.add_argument(flag, **kw)
        common.add_argument(flag, **{**kw, "default": argparse.SUPPRESS}, help=text)
    parser.set_defaults(lattice=None)  # gen reads no lattice
    tables = argparse.ArgumentParser(add_help=False, parents=[common])
    tables.add_argument("--lattice", help="lattice file for table documents")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check files against their axioms", parents=[tables])
    sp.add_argument("paths", nargs="+")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("convert", help="s-map <-> conditional state", parents=[tables])
    sp.add_argument("path")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("indep", help="product-form independence queries", parents=[tables])
    sp.add_argument("path", help="s-map (or conditional state) file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--scan", action="store_true", help="list asymmetric pairs")
    group.add_argument(
        "--pair", nargs=2, metavar=("B", "A"), help="test whether B is independent of A"
    )
    sp.set_defaults(fn=cmd_indep)

    sp = sub.add_parser("condexp", help="conditional expectation onto {0,d,d',1}", parents=[tables])
    sp.add_argument("--f", required=True, help="conditional state file")
    sp.add_argument("--observable", required=True, help="observable file")
    sp.add_argument("--atom", required=True, help="generator d of the subalgebra")
    sp.set_defaults(fn=cmd_condexp)

    sp = sub.add_parser("gen", help="emit catalog lattices and random tables", parents=[common])
    sp.add_argument("--kind", required=True, help="catalog kind (an unknown one exits 2)")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--emit", default="lattice",
        help="comma list: lattice,smap,conditional_state (the lattice is always written)",
    )
    sp.add_argument("-o", "--outdir", default=".")
    sp.set_defaults(fn=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def fmt_value(q):
        return format_rational(q, decimal=args.decimal, approx=args.approx)

    def fail(error: str, code: int) -> int:
        print(Report("error", {"error": error}).render(args.format), file=sys.stderr)
        return code

    report = Report()
    try:
        args.fn(args, report, fmt_value)
    except (InputError, OSError) as exc:
        return fail(str(exc), EXIT_IO)
    except OmlError as exc:
        report = Report()
        report.check(type(exc).__name__, False, str(exc))
    except Exception as exc:
        code = fail(f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)
        import traceback  # only on this path: the import slows start-up

        traceback.print_exc()
        return code
    print(report.render(args.format))
    return EXIT_OK if report.status == "ok" else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
