"""Span tracing of the omlprob layers through shims, without editing src/.

``Shims`` finds every public module-level function of the ``omlprob.*``
modules, plus ``OrthomodularLattice.check_conditional_system`` and
``.boolean_subalgebra``, and rebinds each in every ``omlprob`` namespace that
holds it, so calls between modules go through the shim too.  The lattice
primitives (``meet``, ``join``, ``leq``, ``is_orthogonal``) are methods and
are left alone: millions of calls would swamp the trace.

A span is (name, op id, start, end, self time, parent span, ok, work count).
Self time is the span's duration minus the time its child spans cover.
Spans are kept in memory and written out once the traced pass has ended.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter_ns

from omlprob.lattice import OrthomodularLattice

TRACED_METHODS = ("check_conditional_system", "boolean_subalgebra")


def _orthogonal_pairs(L, members) -> int:
    ms = sorted(members)
    return sum(1 for i, a in enumerate(ms) for b in ms[i + 1:] if L.is_orthogonal(a, b))


def s3_instances(L, table) -> int:
    """Instances of s3 that validate_smap checks: ⊥ pairs × |L| × 2."""
    return _orthogonal_pairs(L, L.elements) * len(L) * 2


def c3_instances(L, cs, table) -> int:
    """Instances of pair-form C3: ⊥ pairs inside the conditional system × |L|."""
    return _orthogonal_pairs(L, cs) * len(L)


# Work counted from each call's input, before the span's clock starts.
WORK_COUNTS = {
    "smap.validate_smap": s3_instances,
    "states.validate_conditional_state": c3_instances,
}


class Tracer:
    """Records spans while ``op`` is set; calls outside an op pass through."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []

    def shim(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self
        count = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            work = 0
            if count:
                c0 = perf_counter_ns()
                work = count(*args)
                if stack:  # keep the counting out of the caller's self time
                    stack[-1][1] += perf_counter_ns() - c0
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            spans.append(None)
            stack.append(frame)
            ok = False
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[index] = (name, tracer.op, start, end, dur - frame[1], parent, ok, work)

        return traced

    def aggregate(self) -> tuple[dict, dict]:
        """Per-name and per-module totals over all recorded spans."""
        by_name: dict[str, dict] = {}
        by_module: dict[str, int] = {}
        for name, _op, start, end, self_ns, _parent, ok, work in self.spans:
            agg = by_name.setdefault(
                name,
                {"calls": 0, "self_ns": 0, "total_ns": 0, "accept_ns": 0,
                 "reject_ns": 0, "work": 0, "accept_self_ns": 0},
            )
            dur = end - start
            agg["calls"] += 1
            agg["self_ns"] += self_ns
            agg["total_ns"] += dur
            if ok:
                agg["accept_ns"] += dur
                agg["accept_self_ns"] += self_ns
                agg["work"] += work
            else:
                agg["reject_ns"] += dur
            module = name.split(".", 1)[0]
            by_module[module] = by_module.get(module, 0) + self_ns
        return by_name, by_module

    def write(self, path: str) -> None:
        origin = min((s[2] for s in self.spans), default=0)
        with gzip.open(path, "wt") as fh:
            for name, op, start, end, self_ns, parent, ok, work in self.spans:
                fh.write(json.dumps({
                    "name": name, "op": op, "start_ns": start - origin,
                    "end_ns": end - origin, "self_ns": self_ns, "parent": parent,
                    "ok": ok, "work": work,
                }) + "\n")


def _targets():
    """(span name, function) for every public function of omlprob.*."""
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("omlprob.") or mod is None:
            continue
        short = modname.split(".", 1)[1]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == modname and not attr.startswith("_"):
                yield f"{short}.{attr}", fn


class Shims:
    """Installs and removes the tracing shims."""

    def __init__(self, tracer: Tracer):
        self._shim_of = {fn: tracer.shim(name, fn) for name, fn in _targets()}
        self._methods = {
            m: (getattr(OrthomodularLattice, m),
                tracer.shim(f"lattice.OrthomodularLattice.{m}", getattr(OrthomodularLattice, m)))
            for m in TRACED_METHODS
        }
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "omlprob" or modname.startswith("omlprob.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._shim_of:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, self._shim_of[val])
        for m, (orig, shim) in self._methods.items():
            self._saved.append((OrthomodularLattice, m, orig))
            setattr(OrthomodularLattice, m, shim)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
