"""The three benchmark workloads: seeded set-up, ops and output checks.

An op is one call into the program: ``call`` is timed, ``check`` is not and
judges the outcome (the return value, or the exception raised).  Ops are
grouped into rounds, each run in a seeded order.  A round holds every op of
the workload once, so a run that stops on a round boundary always measures
the same mix, and each op is repeated across the whole measured window.

- cstate_ladder: C3.  Queries on prebuilt tables of mo(2..8) ∪ boolean(2..4);
  the ``states`` layer takes almost all the time, ``build_lattice`` and
  ``files`` none.  mo(9) is left out only because one op there takes about
  a second.
- smap_files: the s-map kernel.  Load and validate JSON documents of
  boolean(5..7) and mo(16..48); C3 is never called.
- cli_session: one ``omlprob`` child process per op, as a CLI user runs it;
  start-up, import, argparse and JSON I/O dominate.  Each command kind runs
  once per format in a round, on a document set drawn by the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from omlprob import catalog, cli, files, observables, smap, states
from omlprob.errors import C1Violation, C3Violation, S2Violation, S3Violation
from omlprob.lattice import OrthomodularLattice

import inputs
from inputs import Spec

CLI_TIMEOUT_S = 60


class Op(NamedTuple):
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], bool]


class Prepared(NamedTuple):
    ops: list[Op]  # one round: every op of the workload once
    trace_ops: list[Op]  # the same work in-process, for the traced pass
    lattices: dict[str, int]  # element count of every lattice used


def expect(exc_type):
    return lambda out, exc: isinstance(exc, exc_type)


def returns(pred):
    return lambda out, exc: exc is None and pred(out)


def round_ops(ops: list[Op], seed: int, r: int) -> list[Op]:
    """The ops of round r, in an order drawn from the seed."""
    ops = list(ops)
    random.Random(f"{seed}:{r}").shuffle(ops)
    return ops


def _expectation(tab, x, b) -> Fraction:
    """Σ r·f(x(r), b), recomputed from the table rather than the library."""
    return sum((v * tab[(e, b)] for v, e in x.assignment.items()), Fraction(0))


# --- cstate_ladder -------------------------------------------------------------

CSTATE_LADDER = [Spec("mo", n) for n in range(2, 9)] + [Spec("boolean", n) for n in (2, 3, 4)]
CSTATE_VARIANTS = 2  # seeded tables per lattice in a round


def _cstate_ops(spec: Spec, L, rng: random.Random) -> list[Op]:
    m = inputs.random_measure(spec, L, rng)
    cs, tab = inputs.conditional_table(spec, L, m, rng)
    f = states.ConditionalState(L, cs, tab)
    rows = inputs.smap_rows(L, tab)
    p = smap.SMap(L, tuple(tuple(r) for r in rows))
    want_pairs = inputs.asymmetric_pairs(L, rows)
    name = spec.name
    ops = [
        Op(f"{name}:valid", lambda: states.validate_conditional_state(L, cs, tab),
           returns(lambda out: out.table == tab and out.conditions == cs)),
    ]
    bad = inputs.perturb_c1(L, cs, tab, rng)
    ops.append(Op(f"{name}:c1", lambda: states.validate_conditional_state(L, cs, bad),
                  expect(C1Violation)))
    bad3 = inputs.perturb_c3(spec, L, cs, tab, rng)
    if bad3 is not None:
        ops.append(Op(f"{name}:c3", lambda: states.validate_conditional_state(L, cs, bad3),
                      expect(C3Violation)))
    ops.append(Op(
        f"{name}:roundtrip",
        lambda: smap.smap_to_conditional(smap.conditional_to_smap(f)),
        returns(lambda out: out.table == tab and out.conditions == cs),
    ))
    ops.append(Op(
        f"{name}:scan",
        lambda: smap.scan_asymmetric_pairs(p),
        returns(lambda out: out == want_pairs and (spec.kind != "boolean" or out == [])),
    ))
    x = inputs.observable(spec, L, rng)
    ds = inputs.atoms(L)

    def condexp():
        return [(d, observables.conditional_expectation(f, x, L.boolean_subalgebra(d))) for d in ds]

    def condexp_ok(out):
        for d, z in out:
            members = {L.zero, L.one, d, L.ortho(d)}
            if not set(z.assignment.values()) <= members:
                return False
            for b in members - {L.zero}:
                if _expectation(tab, x, b) != _expectation(tab, z, b):
                    return False
        return len(out) == len(ds)

    ops.append(Op(f"{name}:condexp", condexp, returns(condexp_ok)))
    return ops


def setup_cstate_ladder(root: str, workdir: str, seed: int) -> Prepared:
    rng = random.Random(seed)
    lattices = {spec: inputs.build(spec) for spec in CSTATE_LADDER}
    ops = [
        op
        for _ in range(CSTATE_VARIANTS)
        for spec, L in lattices.items()
        for op in _cstate_ops(spec, L, random.Random(rng.random()))
    ]
    return Prepared(ops, ops, {s.name: len(L) for s, L in lattices.items()})


# --- smap_files ----------------------------------------------------------------

SMAP_LATTICE_DOCS = [Spec("boolean", n) for n in (5, 6, 7)] + [Spec("mo", n) for n in (16, 32, 48)]
SMAP_TABLE_DOCS = [Spec("boolean", 5), Spec("boolean", 6), Spec("mo", 16), Spec("mo", 32)]
SMAP_VARIANTS = 2  # seeded documents per table spec in a round; one of each perturbation


def _load(path: str):
    return files.load_typed(files.load_document(path))


def _marginals_ok(p_rows, L, x, y, jd) -> bool:
    """p_{x,y}(E, spec y) = ν(x(E)) and p_{x,y}(spec x, F) = ν(y(F))."""
    def nu_of(obs, values):
        e = L.join_all(obs.assignment[v] for v in values)
        return p_rows[e][e]

    for E in jd.table:
        e_vals, f_vals = E
        if f_vals == frozenset(y.spectrum) and jd.table[E] != nu_of(x, e_vals):
            return False
        if e_vals == frozenset(x.spectrum) and jd.table[E] != nu_of(y, f_vals):
            return False
    return len(jd.table) == 2 ** (len(x.spectrum) + len(y.spectrum))


def _smap_ops(spec: Spec, L, lattice_name: str, docdir: str, rng: random.Random, variant: int) -> list[Op]:
    name = spec.name
    m = inputs.random_measure(spec, L, rng)
    _, tab = inputs.conditional_table(spec, L, m, rng)
    rows = inputs.smap_rows(L, tab)
    stem = os.path.join(docdir, f"{name}_v{variant}")
    files.write_document(f"{stem}_state.json", files.state_document(states.State(L, tuple(m)), lattice_name))
    files.write_document(f"{stem}_smap.json", files.smap_document(smap.SMap(L, rows), lattice_name))
    if variant % 2 == 0:
        bad, bad_exc = inputs.perturb_s2(L, rows, rng), S2Violation
    else:
        bad, bad_exc = inputs.perturb_s3(L, rows, rng), S3Violation
    files.write_document(f"{stem}_bad_smap.json", files.smap_document(smap.SMap(L, bad), lattice_name))
    x = inputs.observable(spec, L, rng)
    y = inputs.observable(spec, L, rng, avoid=tuple(x.assignment.values()))
    want_pairs = inputs.asymmetric_pairs(L, rows)
    diag = tuple(rows[b][b] for b in L.elements)

    def smap_op(path=f"{stem}_smap.json"):
        p = _load(path)
        return p, smap.nu_state(p), smap.scan_asymmetric_pairs(p), observables.joint_distribution(p, x, y)

    def smap_ok(out):
        p, nu, pairs, jd = out
        return (
            [list(r) for r in p.table] == rows
            and nu.values == diag
            and pairs == want_pairs
            and (spec.kind != "boolean" or pairs == [])
            and _marginals_ok(rows, L, x, y, jd)
        )

    return [
        Op(f"{name}:state", lambda: _load(f"{stem}_state.json"),
           returns(lambda out: out.values == tuple(m))),
        Op(f"{name}:smap", smap_op, returns(smap_ok)),
        Op(f"{name}:bad_smap", lambda: _load(f"{stem}_bad_smap.json"), expect(bad_exc)),
    ]


def setup_smap_files(root: str, workdir: str, seed: int) -> Prepared:
    rng = random.Random(seed)
    docdir = os.path.join(workdir, "smap_files")
    os.makedirs(docdir, exist_ok=True)
    sizes = {}
    lattice_ops = []
    for spec in SMAP_LATTICE_DOCS:
        raw = catalog.raw_structure(spec.kind, spec.n)
        raw["type"] = "lattice"
        path = os.path.join(docdir, f"{spec.name}_lattice.json")
        files.write_document(path, raw)
        n = sizes[spec.name] = len(raw["labels"])
        lattice_ops.append(Op(
            f"{spec.name}:lattice", lambda path=path: _load(path),
            returns(lambda out, n=n: isinstance(out, OrthomodularLattice) and len(out) == n),
        ))
    lattices = {spec: inputs.build(spec) for spec in SMAP_TABLE_DOCS}
    ops = lattice_ops + [
        op
        for v in range(SMAP_VARIANTS)
        for spec, L in lattices.items()
        for op in _smap_ops(spec, L, f"{spec.name}_lattice.json", docdir, random.Random(rng.random()), v)
    ]
    return Prepared(ops, ops, sizes)


# --- cli_session ---------------------------------------------------------------

CLI_GEN = [Spec("mo", n) for n in (2, 3, 4, 5)] + [Spec("boolean", n) for n in (2, 3)]


class CliResult(NamedTuple):
    code: int
    out: str


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _status_ok(fmt: str, want: str, res: CliResult):
    """The report's status line (text) or ``status`` field (json); the parsed
    JSON document is returned for further checks."""
    if fmt == "text":
        return res.out.startswith(f"status: {want}\n"), None
    doc = json.loads(res.out)
    return doc.get("status") == want and doc.get("schema_version") == cli.SCHEMA_VERSION, doc


def _cli_check(fmt: str, want_code: int, extra=None):
    want = "ok" if want_code == 0 else "error"

    def check(res: CliResult, exc):
        if exc is not None or res.code != want_code:
            return False
        ok, doc = _status_ok(fmt, want, res)
        return ok and (extra is None or extra(doc))

    return check


class _Cli:
    """Runs one argv either as an ``omlprob`` child process or in-process."""

    def __init__(self, root: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root

    def child(self, argv: list[str]) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "omlprob.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return CliResult(proc.returncode, proc.stdout)

    @staticmethod
    def inprocess(argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return CliResult(code, out.getvalue())


def _cli_commands(spec_name: str, lattice: str, f_path: str, p_path: str, obs_path: str,
                  outdir: str, rng: random.Random, bad: tuple[str, str] | None = None,
                  gen: tuple[list[str], dict[str, bytes]] | None = None):
    """(argv, wanted exit code, extra check of the JSON report, wanted files)."""
    L = files.load_lattice(files.load_document(lattice))
    f = files.load_conditional_state(files.load_document(f_path), L)
    p_rows = [
        [f(a, b) * f(b, L.one) if b in f.conditions else Fraction(0) for b in L.elements]
        for a in L.elements
    ]
    x = files.load_observable(files.load_document(obs_path), L)
    out_p = os.path.join(outdir, f"{spec_name}_p.json")
    out_f = os.path.join(outdir, f"{spec_name}_f.json")
    want_p, want_f = _read(p_path), _read(f_path)

    nontrivial = [e for e in L.elements if e not in (L.zero, L.one)]
    b, a = rng.sample(nontrivial, 2)

    def indep_ok(doc):
        v = doc["values"]
        return (
            v["independent"] == (p_rows[b][a] == p_rows[a][a] * p_rows[b][b])
            and v["independent_reversed"] == (p_rows[a][b] == p_rows[a][a] * p_rows[b][b])
        )

    want_pairs = [[L.label(a), L.label(b)] for a, b in inputs.asymmetric_pairs(L, p_rows)]
    d = rng.choice(inputs.atoms(L))

    def condexp_ok(doc):
        zpairs = [(Fraction(v), L.id_of(lab)) for v, lab in doc["values"]["z"]]
        z = observables.Observable(L, tuple(sorted(v for v, _ in zpairs)), dict(zpairs))
        members = [m for m in (d, L.ortho(d), L.one) if m in f.conditions]
        return all(_expectation(f.table, x, m) == _expectation(f.table, z, m) for m in members) and all(
            e in (L.zero, L.one, d, L.ortho(d)) for _, e in zpairs
        )

    cmds = [
        (["validate", lattice, f_path, p_path], 0, None, None),
        (["convert", f_path, "-o", out_p], 0, None, {out_p: want_p}),
        (["convert", p_path, "-o", out_f, "--lattice", lattice], 0, None, {out_f: want_f}),
        (["indep", p_path, "--pair", L.label(b), L.label(a)], 0, indep_ok, None),
        (["indep", p_path, "--scan"], 0, lambda doc: doc["values"]["asymmetric_pairs"] == want_pairs, None),
        (["condexp", "--f", f_path, "--observable", obs_path, "--atom", L.label(d)], 0, condexp_ok, None),
    ]
    if bad is not None:
        bad_path, stage = bad
        cmds.append((["validate", bad_path], 1, lambda doc: [
            c["name"].rsplit(":", 1)[1] for c in doc["checks"] if c["passed"] is False
        ] == [stage], None))
    if gen is not None:
        gen_argv, gen_files = gen
        cmds.append((gen_argv, 0, None, gen_files))
    return cmds


def setup_cli_session(root: str, workdir: str, seed: int) -> Prepared:
    rng = random.Random(seed)
    gendir = os.path.join(workdir, "cli_gen")
    outdir = os.path.join(workdir, "cli_out")
    regen = os.path.join(workdir, "cli_regen")
    for d in (gendir, outdir, regen):
        os.makedirs(d, exist_ok=True)
    data = os.path.join(root, "data")
    sizes = {"data_mo2": 6}
    doc_sets = []
    for i, spec in enumerate(CLI_GEN):
        stem = f"{spec.kind}{spec.n}"
        gen_args = ["gen", "--kind", spec.kind, "--n", str(spec.n), "--seed", str(rng.randrange(10**6)),
                    "--emit", "lattice,smap,conditional_state"]
        _Cli.inprocess(gen_args + ["-o", gendir])
        lattice = os.path.join(gendir, f"{stem}_lattice.json")
        f_path = os.path.join(gendir, f"{stem}_conditional_state.json")
        p_path = os.path.join(gendir, f"{stem}_smap.json")
        L = files.load_lattice(files.load_document(lattice))
        sizes[spec.name] = len(L)
        p = files.load_smap(files.load_document(p_path), L)
        rows = [list(r) for r in p.table]
        perturb, stage = (inputs.perturb_s2, "s2") if i % 2 else (inputs.perturb_s3, "s3")
        bad = perturb(L, rows, rng)
        bad_path = os.path.join(gendir, f"{stem}_bad_smap.json")
        files.write_document(bad_path, files.smap_document(smap.SMap(L, bad), os.path.basename(lattice)))
        obs_path = os.path.join(gendir, f"{stem}_obs.json")
        files.write_document(obs_path, files.observable_document(
            inputs.observable(spec, L, rng), os.path.basename(lattice)))
        gen_files = {
            os.path.join(regen, os.path.basename(path)): _read(path) for path in (lattice, f_path, p_path)
        }
        doc_sets.append(_cli_commands(stem, lattice, f_path, p_path, obs_path, outdir, rng,
                                      (bad_path, stage), (gen_args + ["-o", regen], gen_files)))
    doc_sets.append(_cli_commands(
        "data", os.path.join(data, "mo2_lattice.json"), os.path.join(data, "two_blocks_f.json"),
        os.path.join(data, "two_blocks_smap.json"), os.path.join(data, "obs_y.json"), outdir, rng,
    ))
    cmds = _pick_commands(doc_sets, rng)
    runner = _Cli(root)

    def ops(run):
        out = []
        for (argv, code, extra, want_files), fmt in cmds:
            full = ["--format", fmt, *argv]
            check = _cli_check(fmt, code, extra if fmt == "json" else None)
            if want_files is not None:
                check = _with_files(check, want_files)
            out.append(Op(f"{argv[0]}:{fmt}", lambda full=full: run(full), check))
        return out

    return Prepared(ops(runner.child), ops(runner.inprocess), sizes)


def _pick_commands(doc_sets, rng: random.Random):
    """One (command, format) pair per command kind and format.

    Kind k is the k-th command of a document set (the data set has no
    perturbed document and no gen).  The sets are taken in a seeded rotation,
    so each is used about equally often.  Keeping the round this short lets a
    run repeat every command some fifteen times, which the per-op best times
    need; one command costs about one interpreter start whatever its document.
    """
    slots = [(k, fmt) for k in range(max(map(len, doc_sets))) for fmt in ("text", "json")]
    rng.shuffle(slots)
    order = rng.sample(doc_sets, len(doc_sets))
    picked = []
    for j, (k, fmt) in enumerate(slots):
        cands = [order[(j + t) % len(order)] for t in range(len(order))]
        picked.append((next(c for c in cands if len(c) > k)[k], fmt))
    return picked


def _with_files(check, want_files: dict[str, bytes]):
    """Also require each written file to be byte-equal to its expected bytes."""

    def both(res, exc):
        return check(res, exc) and all(_read(path) == data for path, data in want_files.items())

    return both


SETUPS = {
    "cstate_ladder": setup_cstate_ladder,
    "smap_files": setup_smap_files,
    "cli_session": setup_cli_session,
}
