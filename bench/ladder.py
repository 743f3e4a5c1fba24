"""Size ladder of single layer calls, and the CLI start-up floor.

Each rung times one call on one lattice size, untraced, as the median of
REPS calls.  The ladder is the same on every workload; it shows how a layer's
cost grows with the lattice.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

from omlprob import catalog, lattice, smap, states

import inputs
from inputs import Spec
from workloads import CSTATE_LADDER

REPS = 3
CLI_REPS = 7
SMAP_RUNGS = [Spec("boolean", 5), Spec("boolean", 6), Spec("mo", 16), Spec("mo", 32)]
BUILD_RUNGS = [Spec("boolean", n) for n in (5, 6, 7)] + [Spec("mo", n) for n in (16, 32, 48)]


def _median_ms(call) -> float:
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure(seed: int) -> dict[str, float]:
    """ladder.<layer>.<rung>_ms for every rung; raises if a valid input is
    rejected."""
    rng = random.Random(seed)
    out = {}
    for spec in CSTATE_LADDER:
        L = inputs.build(spec)
        cs, tab = inputs.conditional_table(spec, L, inputs.random_measure(spec, L, rng), rng)
        out[f"ladder.states.validate_conditional_state.{spec.name}_ms"] = _median_ms(
            lambda: states.validate_conditional_state(L, cs, tab))
    for spec in SMAP_RUNGS:
        L = inputs.build(spec)
        cs, tab = inputs.conditional_table(spec, L, inputs.random_measure(spec, L, rng), rng)
        rows = inputs.smap_rows(L, tab)
        out[f"ladder.smap.validate_smap.{spec.name}_ms"] = _median_ms(lambda: smap.validate_smap(L, rows))
    for spec in BUILD_RUNGS:
        raw = catalog.raw_structure(spec.kind, spec.n)
        out[f"ladder.lattice.build_lattice.{spec.name}_ms"] = _median_ms(
            lambda: lattice.build_lattice(raw["labels"], raw["leq"], raw["ortho"]))
    return out


def cli_floor(root: str) -> dict[str, float]:
    """cli.interp_floor_ms (``python -c pass``) and cli.import_ms (``import
    omlprob.cli`` above that floor), each the median of CLI_REPS children."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def child_ms(code: str) -> float:
        times = []
        for _ in range(CLI_REPS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
            times.append(perf_counter() - t0)
        return statistics.median(times) * 1e3

    floor = child_ms("pass")
    return {"cli.interp_floor_ms": floor, "cli.import_ms": child_ms("import omlprob.cli") - floor}
