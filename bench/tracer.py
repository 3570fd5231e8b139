"""Out-of-program tracing of the mcfsolve layers.

``Tracer.install`` replaces each traced function at every binding site inside
the ``mcfsolve`` package (the defining module, ``from x import f`` copies in
other modules, and the package namespace) with a wrapper that records a span:
layer id, start, end and the index of the enclosing span.  Spans stay in
memory until the run ends; ``summarize`` turns the spans of one pass into
per-layer call counts, busy time and self time (busy time minus the time
covered by direct child spans).

A traced name that a later refactor removed is reported as absent; it is not
an error.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (layer, defining module, attribute).  ``linalg.splu`` is SciPy's SuperLU
# entry point; only its bindings inside mcfsolve are wrapped, never SciPy.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("geometry.make_geometry", "mcfsolve.geometry", "make_geometry"),
    ("grids.make_grid", "mcfsolve.grids", "make_grid"),
    ("config.parse_config", "mcfsolve.config", "parse_config"),
    ("config.emit_outputs", "mcfsolve.config", "emit_outputs"),
    ("cli.main", "mcfsolve.cli", "main"),
    ("operators.ghost_fill", "mcfsolve.operators", "ghost_fill"),
    ("operators.mcf_from_extended", "mcfsolve.operators", "mcf_from_extended"),
    ("operators.capillary_residual", "mcfsolve.operators", "capillary_residual"),
    ("operators.capillary_jacobian", "mcfsolve.operators", "capillary_jacobian"),
    ("operators.semi_implicit_matrix", "mcfsolve.operators", "semi_implicit_matrix"),
    ("flow.step", "mcfsolve.flow", "step"),
    ("flow.run_until", "mcfsolve.flow", "run_until"),
    ("flow.eta_monitor", "mcfsolve.flow", "eta_monitor"),
    ("flow.speed_estimate", "mcfsolve.flow", "speed_estimate"),
    ("soliton.solve_soliton", "mcfsolve.soliton", "solve_soliton"),
    ("existence.check_existence", "mcfsolve.existence", "check_existence"),
    ("diagnostics.run_to_stationarity", "mcfsolve.diagnostics", "run_to_stationarity"),
    ("linalg.splu", "scipy.sparse.linalg", "splu"),
)
LU_SOLVE = "linalg.lu_solve"
# Work the tracer itself does inside a traced call (fill counts, file sizes);
# a child span, so it never lands in a layer's self time.
HOOK = "trace.hook"


class _TracedLU:
    """SuperLU factor whose ``solve`` is traced as ``linalg.lu_solve``."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.absent: List[str] = []
        self._patched: List[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        layer_id = self._id(name)
        hook_id = self._id(HOOK)

        def traced(*args, **kwargs):
            idx = self._open(layer_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                hook = self._open(hook_id)
                try:
                    out = after(out)
                finally:
                    self._close(hook)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_splu(self, lu):
        self.counters["linalg.splu.fill_nnz"] += int(lu.L.nnz + lu.U.nnz)
        return _TracedLU(lu, self.wrap(LU_SOLVE, lu.solve))

    def _after_emit(self, written):
        self.counters["config.emit_outputs.bytes"] += sum(p.stat().st_size for p in written)
        return written

    def install(self) -> None:
        """Wrap every target at every binding inside the loaded mcfsolve."""
        after = {"linalg.splu": self._after_splu, "config.emit_outputs": self._after_emit}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mcfsolve" or n.startswith("mcfsolve."))]
        self.absent = []
        self._id(LU_SOLVE)
        for name, mod_name, attr in TARGETS:
            self._id(name)
            original = getattr(sys.modules.get(mod_name), attr, None)
            sites = [(m, k) for m in modules for k, v in list(vars(m).items())
                     if original is not None and v is original]
            if not sites:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, after.get(name))
            for mod, key in sites:
                setattr(mod, key, wrapper)
                self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def mark(self) -> Tuple[int, Counter]:
        """Position to pass to ``summarize`` for the spans recorded after it."""
        return len(self.start), Counter(self.counters)

    def summarize(self, since: Tuple[int, Counter]) -> dict:
        """Per-layer calls, busy and self seconds of the spans after ``since``,
        plus the child-classified residual counts and the hook counters."""
        first, counters0 = since
        n_layers = len(self.layers)
        calls = [0] * n_layers
        busy = [0.0] * n_layers
        child = [0.0] * n_layers
        jac = self._ids.get("operators.capillary_jacobian")
        res = self._ids.get("operators.capillary_residual")
        probes = 0
        for i in range(first, len(self.start)):
            lid = self.layer[i]
            dur = self.end[i] - self.start[i]
            calls[lid] += 1
            busy[lid] += dur
            p = self.parent[i]
            if p >= first:
                child[self.layer[p]] += dur
                if lid == res and self.layer[p] == jac:
                    probes += 1
        out = {name: {"calls": calls[k], "s": busy[k], "self_s": busy[k] - child[k]}
               for k, name in enumerate(self.layers)}
        out["operators.jacobian_probes"] = probes
        out["soliton.residual_evals"] = calls[res] - probes if res is not None else 0
        for key in ("linalg.splu.fill_nnz", "config.emit_outputs.bytes"):
            out[key] = self.counters[key] - counters0[key]
        return out
