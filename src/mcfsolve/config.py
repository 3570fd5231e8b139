"""Run configuration parsing, validation, and deterministic output writing.

A run is described by a JSON object with three blocks::

    {
      "geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
      "angle":    {"phi": "const:-0.2"},
      "solver":   {"N_r": 200, "N_theta": 64, "scheme": "semi_implicit",
                   "dt": null, "tol": 1e-10, "max_iter": 30,
                   "safety": 0.4}
    }

Unknown keys are rejected with the offending field path.  ``{"preset":
"grim_reaper"}`` expands to the closed-form reference case (optionally
deep-merged with overrides).  Angle magnitudes at or above 0.95 are
rejected here; the boundary closure degenerates as |phi| -> 1.

Outputs are deterministic: floats are written with their shortest
round-trip decimal (Python repr), so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .flow import StepPolicy
from .geometry import config_number, make_geometry
from .grids import Field, Grid, angle_from_spec, angle_values, make_grid
from .soliton import NewtonPolicy

__all__ = ["ConfigError", "RunConfig", "SolverSettings", "parse_config",
           "build_problem", "emit_outputs", "PRESETS"]

PHI_LIMIT = 0.95


class ConfigError(ValueError):
    pass


_SOLVER_DEFAULTS = {
    "N_r": 200,
    "N_theta": 64,
    "scheme": "semi_implicit",
    "dt": None,
    "tol": 1e-10,
    "max_iter": 30,
    "safety": 0.4,
}

PRESETS = {
    "grim_reaper": {
        "geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
        "angle": {"phi": f"const:{-math.sin(0.5)!r}"},
        "solver": {"N_r": 200},
    },
}


@dataclass(frozen=True)
class SolverSettings:
    n_r: int = 200
    n_theta: int = 64
    scheme: str = "semi_implicit"
    dt: Optional[float] = None
    tol: float = 1e-10
    max_iter: int = 30
    safety: float = 0.4


@dataclass(frozen=True)
class RunConfig:
    geometry: dict
    angle: str
    solver: SolverSettings
    preset: Optional[str] = None

    @property
    def is_disk(self) -> bool:
        return self.geometry.get("kind") == "polar_disk"

    def with_resolution(self, n_r: int, n_theta: Optional[int] = None) -> "RunConfig":
        solver = replace(self.solver, n_r=int(n_r),
                         n_theta=int(n_theta) if n_theta else self.solver.n_theta)
        return replace(self, solver=solver)

    def newton_policy(self) -> NewtonPolicy:
        s = self.solver
        return NewtonPolicy(tol=s.tol, max_iter=s.max_iter)

    def step_policy(self) -> StepPolicy:
        s = self.solver
        return StepPolicy(scheme=s.scheme, dt=s.dt, safety=s.safety)

    def resolved(self) -> dict:
        s = self.solver
        return {
            "geometry": _pyify(self.geometry),
            "angle": {"phi": self.angle},
            "solver": {
                "N_r": s.n_r, "N_theta": s.n_theta, "scheme": s.scheme,
                "dt": s.dt, "tol": s.tol, "max_iter": s.max_iter,
                "safety": s.safety,
            },
        }


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _check_phi_spec(spec: str, kind: str) -> None:
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False) if kind == "polar_disk" else None
    try:
        vals = angle_values(spec, theta)
    except ValueError as exc:
        raise ConfigError(f"angle.phi: {exc}") from None
    if float(np.max(np.abs(vals))) >= PHI_LIMIT:
        raise ConfigError("angle.phi: contact angle too steep (|phi| must stay below 0.95)")


def _solver_value(block: dict, key: str, kind: type, ok, need: str):
    """block[key] as kind (int or float), checked by ok; a ConfigError
    naming solver.<key> otherwise."""
    try:
        v = config_number(block[key], f"solver.{key}", kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not ok(v):
        raise ConfigError(f"solver.{key}: {need}")
    return v


def parse_config(source: Union[str, Path, dict, "RunConfig"]) -> RunConfig:
    """Load and validate a run configuration from a path, a preset name,
    a mapping, or an existing RunConfig (returned as-is)."""
    if isinstance(source, RunConfig):
        return source
    if isinstance(source, (str, Path)):
        name = str(source)
        if name in PRESETS and not os.path.exists(name):
            raw: dict = {"preset": name}
        else:
            path = Path(source)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                raw = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    preset_name = raw.pop("preset", None)
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(f"preset: unknown preset {preset_name!r}")
        raw = _deep_merge(PRESETS[preset_name], raw)

    unknown = set(raw) - {"geometry", "angle", "solver"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "geometry" not in raw:
        raise ConfigError("geometry: block is required")
    try:
        geom = make_geometry(raw["geometry"])  # full validation, field paths in messages
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    angle_block = raw.get("angle", {"phi": "const:0.0"})
    if not isinstance(angle_block, dict) or set(angle_block) - {"phi"}:
        raise ConfigError("angle: block must be {'phi': <spec>}")
    phi_spec = angle_block.get("phi", "const:0.0")
    if not isinstance(phi_spec, str):
        raise ConfigError("angle.phi: must be a string spec like 'const:-0.2'")
    _check_phi_spec(phi_spec, geom.kind)

    solver_block = raw.get("solver", {})
    if not isinstance(solver_block, dict):
        raise ConfigError("solver: block must be an object")
    unknown = set(solver_block) - set(_SOLVER_DEFAULTS)
    if unknown:
        raise ConfigError(f"solver: unknown keys {sorted(unknown)}")
    merged = {**_SOLVER_DEFAULTS, **solver_block}
    dt = None if merged["dt"] in (None, "auto") else \
        _solver_value(merged, "dt", float, lambda v: v > 0, "must be positive")
    if merged["scheme"] not in ("semi_implicit", "explicit"):
        raise ConfigError(f"solver.scheme: unknown scheme {merged['scheme']!r}")
    solver = SolverSettings(
        n_r=_solver_value(merged, "N_r", int, lambda v: v >= 8, "must be at least 8"),
        n_theta=_solver_value(merged, "N_theta", int, lambda v: v >= 8 and v % 2 == 0,
                              "must be even and at least 8"),
        scheme=merged["scheme"], dt=dt,
        tol=_solver_value(merged, "tol", float, lambda v: v > 0, "must be positive"),
        max_iter=_solver_value(merged, "max_iter", int, lambda v: v >= 1, "must be at least 1"),
        safety=_solver_value(merged, "safety", float, lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    )
    return RunConfig(geometry=_pyify(raw["geometry"]), angle=phi_spec,
                     solver=solver, preset=preset_name)


def build_problem(cfg: Union[RunConfig, dict, str, Path]):
    """(geometry, grid, angle) for a configuration."""
    cfg = parse_config(cfg)
    geom = make_geometry(cfg.geometry)
    grid = make_grid(geom, cfg.solver.n_r,
                     cfg.solver.n_theta if geom.kind == "polar_disk" else None)
    angle = angle_from_spec(grid, cfg.angle)
    return geom, grid, angle


# -- deterministic writers -----------------------------------------------------


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    return obj


def _fmt(x) -> str:
    x = float(x)
    return repr(x)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_pyify(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def field_rows(grid: Grid, field_or_values):
    values = field_or_values.interior if isinstance(field_or_values, Field) else np.asarray(field_or_values)
    if grid.is_disk:
        header = ("r", "theta", "value")
        rows = [(grid.nodes[i], grid.theta[j], values[i, j])
                for i in range(grid.n_nodes) for j in range(grid.n_theta)]
    else:
        coord = "x" if grid.geom.kind == "interval" else "r"
        header = (coord, "value")
        rows = list(zip(grid.nodes, values))
    return header, rows


def emit_outputs(out_dir: Union[str, Path], artifacts: dict) -> list:
    """Write a deterministic file set.  Artifact values are
    ("json", obj), ("csv", header, rows), or ("field", grid, field)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    for name, art in artifacts.items():
        path = out / name
        try:
            if art[0] == "json":
                write_json(path, art[1])
            elif art[0] == "csv":
                write_csv(path, art[1], art[2])
            elif art[0] == "field":
                header, rows = field_rows(art[1], art[2])
                write_csv(path, header, rows)
            else:
                raise ValueError(f"unknown artifact kind {art[0]!r}")
        except OSError as exc:
            raise ConfigError(f"failed writing {path}: {exc}") from exc
        written.append(path)
    return written
