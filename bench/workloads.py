"""Seeded inputs, timed passes and correctness gates of the three workloads.

Every workload is closed loop: one case follows another in one process and one
thread.  A workload's constructor is its set-up: it builds the inputs from the
seed and warms the package's lazy caches.  ``run_pass`` runs every case once,
timing only the calls into the package, then checks each output against the
acceptance suite's pinned tolerances.  A case that raises or misses a gate counts as failed; the
pass goes on.

All calls go through module attributes at call time, so the wrappers that
``tracer.Tracer`` installs see them.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Optional

import numpy as np

# Tolerances pinned by tests/test_acceptance.py; nothing else is gated.
CLOSED_FORM_TOL = 1e-3  # criterion 1: grim-reaper speed vs its closed form
FLUX_TOL = 1e-12        # criterion 2: discrete flux telescoping
SPEED_GAP_TOL = 1e-3    # criteria 2 and 3: speed estimators agree
W_GROWTH_TOL = 1e-6     # criterion 6: max W growth after stationarity

CRITERION_6 = ("flat_ball_n2", "flat_ball_n3", "hyperbolic_ball_n2",
               "pinched_ball_n3", "disk_fourier")
ANGLE_JITTER = 0.1      # relative perturbation of the catalog angle data
HEIGHT_AMPLITUDE = 0.02  # size of the seeded smooth initial height
EXPLICIT_N_R = 64
EXPLICIT_ROWS = 10_000  # explicit steps per pass; the history grows to 10^4 rows


def package_modules() -> dict:
    """The loaded mcfsolve modules, by name."""
    return {n: m for n, m in sys.modules.items() if n == "mcfsolve" or n.startswith("mcfsolve.")}


def load_package() -> SimpleNamespace:
    """Import mcfsolve afresh (empty module-level caches) and return its modules."""
    restore_package({})
    names = ("cli", "config", "diagnostics", "flow", "operators")
    importlib.import_module("mcfsolve")
    return SimpleNamespace(**{n: importlib.import_module(f"mcfsolve.{n}") for n in names})


def restore_package(modules: dict) -> None:
    """Make ``modules`` (from ``package_modules``) the loaded mcfsolve again."""
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(modules)


@dataclass
class PassResult:
    wall_s: float = 0.0
    wall_1d_s: float = 0.0
    wall_disk_s: Optional[float] = None
    flow_s: Optional[float] = None
    steps: Optional[int] = None
    newton_iters: Optional[int] = None
    history_rows: Optional[int] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, attr: str, value) -> None:
        setattr(self, attr, (getattr(self, attr) or 0) + value)


@dataclass
class Case:
    name: str
    is_disk: bool
    call: Callable[[], object]
    gate: Callable[[object, PassResult], List[str]]


def _run_cases(cases: List[Case]) -> PassResult:
    res = PassResult()
    for case in cases:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = case.call()
        except Exception as exc:  # a failing case is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        res.wall_s += elapsed
        if case.is_disk:
            res.add("wall_disk_s", elapsed)
        else:
            res.wall_1d_s += elapsed
        if isinstance(out, Exception):
            problems = [f"{type(out).__name__}: {out}"]
        else:
            try:
                problems = case.gate(out, res)
            except Exception as exc:
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            res.failures.append(f"{case.name}: " + "; ".join(problems))
    return res


def _smooth_height(grid, rng: random.Random) -> np.ndarray:
    """A smooth seeded height of size HEIGHT_AMPLITUDE: a few even cosine
    modes in the normalized radius (or x), times a tilt on the disk."""
    if grid.geom.kind == "interval":
        s = (grid.nodes - grid.geom.a) / (grid.geom.b - grid.geom.a)
    else:
        s = grid.nodes / grid.nodes[-1]
    f = sum(rng.gauss(0.0, 1.0) * np.cos(k * math.pi * s) for k in range(1, 5))
    f = HEIGHT_AMPLITUDE * f / max(1e-12, float(np.max(np.abs(f))))
    if grid.is_disk:
        tilt = rng.gauss(0.0, 1.0) * np.cos(grid.theta) + rng.gauss(0.0, 1.0) * np.sin(grid.theta)
        f = f[:, None] * (1.0 + 0.5 * s[:, None] * tilt[None, :])
    return f


def _flux_speed(ops, grid, angle, ext) -> float:
    """Flux-balance speed of a state: -int phi / int 1/W."""
    w_node = ops.node_area_element(grid, ext)
    return -ops.integrate_boundary(grid, angle) / ops.integrate_domain(grid, 1.0 / w_node)


def _flow_gates(pkg, grid, angle, state, first_steps: dict, name: str,
                res: PassResult, c_exact: Optional[float] = None) -> List[str]:
    """Gates shared by the flow workloads; also tallies steps and rows."""
    ops = pkg.operators
    hist = state.history
    steps = len(hist) - 1
    res.add("steps", steps)
    res.add("history_rows", len(hist))
    problems = []
    if first_steps.setdefault(name, steps) != steps:
        problems.append(f"steps {steps} differ from the first pass's {first_steps[name]}")
    ext = state.field.values
    gap = abs(ops.flux_balance(grid, ext)[2])
    if not gap <= FLUX_TOL:
        problems.append(f"flux telescoping gap {gap:.3e} > {FLUX_TOL:g}")
    speed = hist.speed[-1]
    c_flux = _flux_speed(ops, grid, angle, ext)
    if not abs(speed - c_flux) <= SPEED_GAP_TOL:
        problems.append(f"windowed speed {speed!r} vs flux-balance speed {c_flux!r}")
    if c_exact is not None and not abs(speed - c_exact) <= CLOSED_FORM_TOL:
        problems.append(f"windowed speed {speed!r} vs closed form {c_exact!r}")
    return problems


class Translator:
    """Every catalog case through ``mcfsolve soliton``, plus ``mcfsolve
    check`` on the ball and disk cases, with seeded angle data."""

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.workdir = workdir
        rng = random.Random(seed)
        self.cases = []
        for name, cfg in pkg.diagnostics.catalog_cases():
            cfg = copy.deepcopy(cfg)
            c_exact = None
            if name == "grim_reaper":
                # keep phi = -sin(c) so the closed-form speed c stays known
                c_exact = 0.5 * (1.0 + ANGLE_JITTER * rng.uniform(-1.0, 1.0))
                cfg["angle"]["phi"] = f"const:{-math.sin(c_exact)!r}"
            else:
                head, _, body = cfg["angle"]["phi"].partition(":")
                coeffs = [float(v) * (1.0 + ANGLE_JITTER * rng.uniform(-1.0, 1.0))
                          for v in body.split(",")]
                cfg["angle"]["phi"] = head + ":" + ",".join(repr(v) for v in coeffs)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            parsed = pkg.config.parse_config(path)
            geom, grid, angle = pkg.config.build_problem(parsed)
            # fills the coloring caches the Newton Jacobians use
            pkg.operators.capillary_jacobian(grid, np.zeros(grid.shape), angle, 1.0)
            self.cases.append((name, path, geom.kind, c_exact))
        self.first_bytes: dict = {}

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.pkg.cli.main(list(argv))

    def _same_bytes(self, key: str, path: Path) -> List[str]:
        data = path.read_bytes()
        if self.first_bytes.setdefault(key, data) != data:
            return [f"{key} differs from the first pass's bytes"]
        return []

    def run_pass(self) -> PassResult:
        cases = []
        for name, path, kind, c_exact in self.cases:
            out = self.workdir / name
            checked = kind != "interval"

            def call(path=path, out=out, checked=checked):
                code = self._cli("soliton", "--config", str(path), "--out", str(out / "soliton"))
                check = (self._cli("check", "--config", str(path), "--out", str(out / "check"))
                         if checked else 0)
                return code, check

            def gate(codes, res, name=name, out=out, checked=checked, c_exact=c_exact):
                code, check = codes
                if code != 0:
                    return [f"soliton exit code {code}"]
                report_path = out / "soliton" / "report.json"
                report = json.loads(report_path.read_text())
                res.add("newton_iters", sum(report["newton_iterations"]))
                problems = self._same_bytes(f"{name}/soliton/report.json", report_path)
                if not report["flux_gap"] <= FLUX_TOL:
                    problems.append(f"flux_gap {report['flux_gap']:.3e} > {FLUX_TOL:g}")
                if not report["speed_gap"] <= SPEED_GAP_TOL:
                    problems.append(f"speed_gap {report['speed_gap']:.3e} > {SPEED_GAP_TOL:g}")
                if c_exact is not None:
                    for key in ("C_eps", "C_quad"):
                        if not abs(report[key] - c_exact) <= CLOSED_FORM_TOL:
                            problems.append(f"{key}={report[key]!r} vs closed form {c_exact!r}")
                if checked:
                    if check != 0:
                        problems.append(f"check exit code {check}")
                    else:
                        problems += self._same_bytes(f"{name}/check/report.json",
                                                     out / "check" / "report.json")
                return problems

            cases.append(Case(name, kind == "polar_disk", call, gate))
        return _run_cases(cases)


class Stationarity:
    """Semi-implicit flow to speed stationarity on the criterion-6 set from a
    seeded smooth initial height."""

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        rng = random.Random(seed)
        catalog = dict(pkg.diagnostics.catalog_cases())
        self.cases = []
        for name in CRITERION_6:
            parsed = pkg.config.parse_config(catalog[name])
            _, grid, angle = pkg.config.build_problem(parsed)
            u0 = _smooth_height(grid, rng)
            policy = pkg.flow.StepPolicy()
            # fills the coloring caches the lagged matrices use
            ext = pkg.flow.initial_state(grid, angle, u0).field.values
            pkg.operators.semi_implicit_matrix(grid, ext, angle, pkg.flow.auto_dt(grid, policy))
            self.cases.append((name, grid, angle, u0, policy))
        self.first_steps: dict = {}

    def run_pass(self) -> PassResult:
        pkg = self.pkg
        cases = []
        for name, grid, angle, u0, policy in self.cases:
            def call(grid=grid, angle=angle, u0=u0, policy=policy):
                return pkg.diagnostics.run_to_stationarity(grid, angle, policy, u0=u0,
                                                           snapshot_interval=None)

            def gate(out, res, name=name, grid=grid, angle=angle):
                state, t_stat = out
                problems = _flow_gates(pkg, grid, angle, state, self.first_steps, name, res)
                t_arr = np.asarray(state.history.t)
                w_arr = np.asarray(state.history.max_w)
                growth = float(np.max(w_arr)) - float(np.max(w_arr[t_arr <= t_stat]))
                if not growth <= W_GROWTH_TOL:
                    problems.append(f"max W grew by {growth:.3e} after stationarity")
                return problems

            cases.append(Case(name, grid.is_disk, call, gate))
        res = _run_cases(cases)
        res.flow_s = res.wall_s
        return res


class ExplicitLong:
    """Explicit steps on the grim-reaper interval until the history holds
    EXPLICIT_ROWS + 1 rows, from a seeded smooth initial height."""

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        rng = random.Random(seed)
        parsed = pkg.config.parse_config({"preset": "grim_reaper", "solver": {
            "N_r": EXPLICIT_N_R, "scheme": "explicit"}})
        _, self.grid, self.angle = pkg.config.build_problem(parsed)
        self.policy = parsed.step_policy()
        self.t_end = EXPLICIT_ROWS * pkg.flow.auto_dt(self.grid, self.policy)
        self.u0 = _smooth_height(self.grid, rng)
        ext = pkg.flow.initial_state(self.grid, self.angle, self.u0).field.values
        pkg.operators.mcf_from_extended(self.grid, ext)
        self.first_steps: dict = {}

    def run_pass(self) -> PassResult:
        pkg, grid, angle = self.pkg, self.grid, self.angle

        def call():
            state = pkg.flow.initial_state(grid, angle, self.u0)
            return pkg.flow.run_until(state, self.policy, angle, t_end=self.t_end)

        def gate(state, res):
            return _flow_gates(pkg, grid, angle, state, self.first_steps,
                               "grim_reaper_explicit", res, c_exact=0.5)

        res = _run_cases([Case("grim_reaper_explicit", False, call, gate)])
        res.flow_s = res.wall_s
        return res


WORKLOADS = {
    "translator": Translator,
    "stationarity": Stationarity,
    "explicit_long": ExplicitLong,
}
