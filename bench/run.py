"""omlprob benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]   # every workload, both runs
    python3 bench/run.py --self-test                # tiny run on seed 0

Every workload is a closed loop with one caller: one op at a time, and for
cli_session one child process at a time.  The workload seed makes every input;
the program only receives them.  Each op's output is checked.

--trace 0 measures the end-to-end metrics with tracing off.  Each op runs
once per round, and rounds repeat over the whole measured window.  Every run
of an op is credited with the op's best (lowest) time in the window, and the
latency metrics are taken over these credited samples.  A shared host, such
as a small VM, can change speed by tens of percent for seconds to minutes at
a time, so the raw samples of one run mix fast and slow phases in a
proportion that differs from run to run; an op's best time does not.  The
raw figures are printed in the ``meta`` line as raw_*.  The metrics:

- throughput_ops_s: runs of ops that passed every check, divided by the sum
  of the credited times (the caller's output checks are off the clock);
- latency_p50_ms: the median credited time;
- latency_tail_ms: the highest percentile of credited times with at least
  10 samples beyond it; the run prints which percentile that is and the
  sample count;
- setup_s: importing omlprob plus the median of SETUP_REPS set-ups (lattice
  builds, input generation, file emission): one before the measured window
  and the rest between its rounds;
- peak_rss_mb: ru_maxrss of this process, or of the largest child process
  for cli_session;
- failed_ratio: failed / attempted ops, printed with the others; it is the
  ``failed`` and ``attempted`` of the result line.

--trace 1 ignores --seconds: it runs one round once untraced and once
through the span shims of ``tracing.py``, and reports the per-layer
metrics, the size ladder of ``ladder.py`` and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Reports and spans are written to .bench_out/ in the checkout.

The program is run from the ``src/`` tree of the checkout this file sits in;
the benchmark exits with code 2 if that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cstate_ladder", "smap_files", "cli_session")
SETUP_REPS = 7
WARMUP_S = 1.0
DEFAULT_SECONDS = 35
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

SPAN_METRICS = {
    "states.validate_conditional_state": ("calls", "self_ms", "total_ms", "accept_ms", "reject_ms"),
    "states.validate_state": ("calls", "self_ms", "accept_ms", "reject_ms"),
    "smap.validate_smap": ("calls", "self_ms", "total_ms", "accept_ms", "reject_ms"),
    "smap.scan_asymmetric_pairs": ("calls", "self_ms"),
    "smap.conditional_to_smap": ("self_ms",),
    "smap.smap_to_conditional": ("self_ms",),
    "lattice.build_lattice": ("calls", "self_ms"),
    "lattice.OrthomodularLattice.check_conditional_system": ("self_ms",),
    "files.load_document": ("calls", "self_ms"),
    "files.load_typed": ("calls", "self_ms", "total_ms"),
    "rationals.parse_rational": ("calls", "self_ms"),
    "observables.joint_distribution": ("self_ms",),
    "observables.conditional_expectation": ("self_ms",),
    "cli.main": ("calls", "self_ms", "total_ms"),
}
# Accepted calls check every axiom instance; their count and self time give
# the time per instance.
WORK_METRICS = {
    "states.validate_conditional_state": "c3",
    "smap.validate_smap": "s3",
}
MODULES = ("lattice", "states", "smap", "observables", "files", "rationals", "cli", "catalog")
_STAT_KEYS = {"self_ms": "self_ns", "total_ms": "total_ns", "accept_ms": "accept_ns", "reject_ms": "reject_ns"}


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> float:
    """Import omlprob from this checkout's src/ and return the time taken."""
    if not (SRC / "omlprob" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        _fail(f"no program to run: {SRC / 'omlprob'} or {ROOT / 'data'} is missing")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import omlprob
    import omlprob.cli  # noqa: F401  (part of the measured import)
    elapsed = perf_counter() - t0
    if Path(omlprob.__file__).resolve().parent != SRC / "omlprob":
        _fail(f"imported omlprob from {omlprob.__file__}, not from {SRC}")
    return elapsed


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(op, tracer=None, op_id=None) -> tuple[int, bool]:
    """Time one op (traced under op_id when a tracer is given), then check it."""
    if tracer is not None:
        tracer.op = op_id
    t0 = perf_counter_ns()
    try:
        out, exc = op.call(), None
    except Exception as e:  # judged by the op's check
        out, exc = None, e
    dt = perf_counter_ns() - t0
    if tracer is not None:
        tracer.op = None
    try:
        ok = bool(op.check(out, exc))
    except Exception:
        ok = False
    return dt, ok


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def add(self, op, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[op.label] = self.failures.get(op.label, 0) + 1


def closed_loop(prep, seed: int, seconds: float, tally: Tally, setup):
    """Warm up for WARMUP_S, then run whole rounds until ``seconds`` have
    passed.  Returns every measured latency (ns) of each op, keyed by op, the
    ops that failed a check at least once, and the times of SETUP_REPS - 1
    more set-ups run between rounds, spread evenly over the window so that
    their median does not rest on the host's speed at one moment."""
    from workloads import round_ops

    r = 0
    t0 = perf_counter()
    while perf_counter() - t0 < WARMUP_S:
        for op in round_ops(prep.ops, seed, r):
            tally.add(op, run_op(op)[1])
        r += 1
    times: dict[int, list[int]] = {}
    bad: set[int] = set()
    setup_times: list[float] = []
    extra = SETUP_REPS - 1
    t0 = perf_counter()
    while (elapsed := perf_counter() - t0) < seconds:
        if len(setup_times) < extra and elapsed >= (len(setup_times) + 0.5) * seconds / extra:
            s0 = perf_counter()
            setup()
            setup_times.append(perf_counter() - s0)
        for op in round_ops(prep.ops, seed, r):
            dt, ok = run_op(op)
            tally.add(op, ok)
            times.setdefault(id(op), []).append(dt)
            if not ok:
                bad.add(id(op))
        r += 1
    while len(setup_times) < extra:  # a window too short for all of them
        s0 = perf_counter()
        setup()
        setup_times.append(perf_counter() - s0)
    return times, bad, setup_times


def end_to_end(workload: str, seed: int, seconds: float, import_s: float):
    from workloads import SETUPS

    tally = Tally()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        def setup():
            return SETUPS[workload](str(ROOT), workdir, seed)

        t0 = perf_counter()
        prep = setup()
        setup_times = [perf_counter() - t0]
        times, bad, more = closed_loop(prep, seed, seconds, tally, setup)
        setup_times += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Each run of an op is credited with the op's best time in the window.
    best = {k: min(v) for k, v in times.items()}
    lat = sorted(best[k] for k, v in times.items() for _ in v)
    raw = sorted(dt for v in times.values() for dt in v)
    good = sum(len(v) for k, v in times.items() if k not in bad)
    n = len(lat)
    # 1-based rank of the highest sample with TAIL_BEYOND samples above it
    # (the maximum when a run has too few samples for that to lie above the
    # median).
    tail_rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    metrics = {
        "throughput_ops_s": (good / (sum(lat) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_tail_ms": (lat[tail_rank - 1] / 1e6, "ms"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "samples": n,
        "ops": len(best),
        "runs_per_op": [min(map(len, times.values())), max(map(len, times.values()))],
        "raw_throughput_ops_s": round(n / (sum(raw) / 1e9), 4),
        "raw_p50_ms": round(statistics.median(raw) / 1e6, 4),
        "raw_tail_ms": round(raw[tail_rank - 1] / 1e6, 4),
        "tail_percentile": round(100 * tail_rank / n, 2),
        "tail_samples_beyond": n - tail_rank,
        "measured_s": round(sum(raw) / 1e9, 3),
        "setup_reps_s": [round(t, 4) for t in setup_times],
        "import_s": round(import_s, 4),
        "failed_ratio": tally.failed / max(tally.attempted, 1),
    }
    return metrics, notes, tally, prep.lattices


def traced(workload: str, seed: int):
    import ladder
    import tracing
    from workloads import SETUPS, round_ops

    tally = Tally()
    tracer = tracing.Tracer()
    shims = tracing.Shims(tracer)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        prep = SETUPS[workload](str(ROOT), workdir, seed)
        metrics = {k: (v, "ms") for k, v in ladder.measure(seed).items()}
        metrics.update({k: (v, "ms") for k, v in ladder.cli_floor(str(ROOT)).items()})
        ops = round_ops(prep.trace_ops, seed, 0)
        for op in ops:  # warm-up pass
            tally.add(op, run_op(op)[1])
        # Each op runs untraced and traced back to back, in alternating order,
        # so a drift in machine speed does not show up as tracing overhead.
        untraced_ns = traced_ns = 0
        for op_id, op in enumerate(ops):
            for with_trace in (op_id % 2 == 0, op_id % 2 == 1):
                if with_trace:
                    shims.install()
                    try:
                        dt, ok = run_op(op, tracer, op_id)
                    finally:
                        shims.remove()
                    traced_ns += dt
                else:
                    dt, ok = run_op(op)
                    untraced_ns += dt
                tally.add(op, ok)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_name, by_module = tracer.aggregate()
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "accept_ns": 0, "reject_ns": 0,
             "work": 0, "accept_self_ns": 0}
    for name, stats in SPAN_METRICS.items():
        agg = by_name.get(name, empty)
        for stat in stats:
            if stat == "calls":
                metrics[f"{name}.calls"] = (agg["calls"], "count")
            else:
                metrics[f"{name}.{stat}"] = (agg[_STAT_KEYS[stat]] / 1e6, "ms")
    for name, axiom in WORK_METRICS.items():
        agg = by_name.get(name, empty)
        metrics[f"{name}.{axiom}_instances"] = (agg["work"], "count")
        metrics[f"{name}.ns_per_{axiom}_instance"] = (
            agg["accept_self_ns"] / agg["work"] if agg["work"] else 0.0, "ns")
    for module in MODULES:
        metrics[f"layer.{module}.self_ms"] = (by_module.get(module, 0) / 1e6, "ms")
    metrics["trace.wall_ms"] = (traced_ns / 1e6, "ms")
    metrics["trace.untraced_ms"] = (untraced_ns / 1e6, "ms")
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    spans_path = OUT / f"spans-{workload}-s{seed}.jsonl.gz"
    tracer.write(str(spans_path))
    notes = {
        "ops_per_pass": len(ops),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_ratio": tally.failed / max(tally.attempted, 1),
    }
    return metrics, notes, tally, prep.lattices


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(workload: str, seed: int, seconds: float, trace: int, import_s: float) -> int:
    OUT.mkdir(exist_ok=True)
    if trace:
        metrics, notes, tally, lattices = traced(workload, seed)
    else:
        metrics, notes, tally, lattices = end_to_end(workload, seed, seconds, import_s)
    meta = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "loop": "closed, 1 caller" + (", 1 child process at a time" if workload == "cli_session" else ""),
        "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
        "lattices": lattices, **notes,
    }
    print(f"workload {workload}  seed {seed}  trace {trace}  ({meta['loop']})")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{notes['tail_percentile']}, {notes['tail_samples_beyond']} of {notes['samples']} samples beyond)"
        print(f"  {name:58s} {_fmt(value):>12s} {unit}{extra}")
    print(f"  {'failed_ratio':58s} {_fmt(notes['failed_ratio']):>12s} ratio  ({tally.failed}/{tally.attempted})")
    for label, count in sorted(tally.failures.items()):
        print(f"  FAILED {label}: {count}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{workload}-s{seed}-t{trace}.json", "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {workload} trace {trace} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, self_test: bool) -> int:
    """Every workload untraced then traced, with the workload-split summary.
    With self_test, also require a clean run and exactly the declared metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = results[workload, trace] = _child(workload, seed, seconds, trace)
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace {trace}: {res['failed']}/{res['attempted']} ops failed")
            got = set(res["metrics"])
            if got != declared[trace]:
                problems.append(f"{workload} trace {trace}: missing metrics {sorted(declared[trace] - got)}, "
                                f"undeclared metrics {sorted(got - declared[trace])}")
    summary = _split_summary(results)
    print("\nend-to-end (trace 0)")
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"  {'workload':16s}" + "".join(f"{n:>18s}" for n in names) + f"{'failed_ratio':>18s}")
    for workload in WORKLOADS:
        res = results[workload, 0]
        m = res["metrics"]
        print(f"  {workload:16s}" + "".join(f"{_fmt(m[n]['value']) + ' ' + m[n]['unit']:>18s}" for n in names)
              + f"{_fmt(res['failed'] / res['attempted']) + ' ratio':>18s}")
    print("\nworkload split (trace 1)")
    for line in summary:
        print("  " + line)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"summary-s{seed}.json", "w") as fh:
        json.dump({f"{w}/trace{t}": r for (w, t), r in results.items()} | {"split": summary}, fh, indent=1)
    if self_test:
        for p in problems:
            print("SELF-TEST FAIL " + p)
        print("self-test " + ("failed" if problems else "passed"))
        return 1 if problems else 0
    return 0


def _split_summary(results) -> list[str]:
    def val(workload, trace, name):
        return results[workload, trace]["metrics"][name]["value"]

    wall = val("cstate_ladder", 1, "trace.wall_ms")
    c3 = val("cstate_ladder", 1, "states.validate_conditional_state.self_ms")
    lines = [f"cstate_ladder: states.validate_conditional_state self {c3:.1f} ms of {wall:.1f} ms traced wall ({c3 / wall:.0%})"]
    wall = val("smap_files", 1, "trace.wall_ms")
    kernel = (val("smap_files", 1, "layer.smap.self_ms") + val("smap_files", 1, "states.validate_state.self_ms")
              + val("smap_files", 1, "lattice.build_lattice.self_ms"))
    calls = val("smap_files", 1, "states.validate_conditional_state.calls")
    lines.append(f"smap_files: smap + states.validate_state + lattice.build_lattice self {kernel:.1f} ms "
                 f"of {wall:.1f} ms traced wall ({kernel / wall:.0%}); validate_conditional_state calls {calls}")
    start = val("cli_session", 1, "cli.interp_floor_ms") + val("cli_session", 1, "cli.import_ms")
    p50 = val("cli_session", 0, "latency_p50_ms")
    lines.append(f"cli_session: interpreter floor + import {start:.1f} ms of latency_p50 {p50:.1f} ms ({start / p50:.0%})")
    for workload in WORKLOADS:
        lines.append(f"{workload}: trace.overhead_ratio {val(workload, 1, 'trace.overhead_ratio'):.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    import_s = _import_program()
    sys.path.insert(0, str(BENCH))
    if args.self_test:
        return run_all(0, 1, self_test=True)
    if args.workload is None:
        return run_all(args.seed, args.seconds, self_test=False)
    return run_one(args.workload, args.seed, args.seconds, args.trace, import_s)


if __name__ == "__main__":
    sys.exit(main())
