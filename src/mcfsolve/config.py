"""Run configuration parsing, validation, and deterministic output writing.

A run is described by one JSON object with three blocks and nothing else;
the command line adds only where to write and how long or finely to run::

    {
      "geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
      "angle":    {"phi": "const:-0.2"},
      "solver":   {"N_r": 200, "N_theta": 64, "scheme": "semi_implicit",
                   "dt": null, "tol": 1e-10, "max_iter": 30}
    }

Unknown keys are rejected with the offending field path.  ``{"preset":
"grim_reaper"}`` expands to the closed-form reference case (optionally
deep-merged with overrides).  Angle magnitudes at or above 0.95 are
rejected here; the boundary closure degenerates as |phi| -> 1.
``RunConfig.solver`` is this block with every default filled in (those of
StepPolicy and NewtonPolicy where they have one) and every value checked.

``emit_outputs`` writes a run's files: ``resolved_config.json`` and each
named file, JSON with sorted keys or, for a ``.csv`` name, a table whose
floats take their shortest round-trip decimal (Python repr), integers
stay integers and text cells are written as they are; ``field_table`` lays
a field out ring by ring on the disk, with each coordinate's text formatted
once.  Identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from .flow import StepPolicy
from .geometry import config_number, make_geometry
from .grids import Grid, angle_from_spec, angle_values, make_grid
from .soliton import NewtonPolicy

__all__ = ["ConfigError", "RunConfig", "parse_config", "build_problem", "emit_outputs",
           "field_table", "PRESETS"]

PHI_LIMIT = 0.95


class ConfigError(ValueError):
    pass


_SOLVER_DEFAULTS = {
    "N_r": 200,
    "N_theta": 64,
    "scheme": StepPolicy.scheme,
    "dt": StepPolicy.dt,
    "tol": NewtonPolicy.tol,
    "max_iter": NewtonPolicy.max_iter,
}

PRESETS = {
    "grim_reaper": {
        "geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
        "angle": {"phi": f"const:{-math.sin(0.5)!r}"},
        "solver": {"N_r": 200},
    },
}


@dataclass(frozen=True)
class RunConfig:
    geometry: dict
    angle: str
    solver: dict  # the solver block, defaulted and validated

    def with_resolution(self, n_r: int, n_theta: int) -> "RunConfig":
        return replace(self, solver={**self.solver, "N_r": n_r, "N_theta": n_theta})

    def newton_policy(self) -> NewtonPolicy:
        s = self.solver
        return NewtonPolicy(tol=s["tol"], max_iter=s["max_iter"])

    def step_policy(self) -> StepPolicy:
        s = self.solver
        return StepPolicy(scheme=s["scheme"], dt=s["dt"])

    def resolved(self) -> dict:
        return {"geometry": _pyify(self.geometry), "angle": {"phi": self.angle},
                "solver": _pyify(self.solver)}


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
    solver = {
        "N_r": _solver_value(merged, "N_r", int, lambda v: v >= 8, "must be at least 8"),
        "N_theta": _solver_value(merged, "N_theta", int, lambda v: v >= 8 and v % 2 == 0,
                                 "must be even and at least 8"),
        "scheme": merged["scheme"], "dt": dt,
        "tol": _solver_value(merged, "tol", float, lambda v: v > 0, "must be positive"),
        "max_iter": _solver_value(merged, "max_iter", int, lambda v: v >= 1, "must be at least 1"),
    }
    return RunConfig(geometry=_pyify(raw["geometry"]), angle=phi_spec, solver=solver)


def build_problem(cfg: Union[RunConfig, dict, str, Path]):
    """(geometry, grid, angle) for a configuration."""
    cfg = parse_config(cfg)
    geom = make_geometry(cfg.geometry)
    grid = make_grid(geom, cfg.solver["N_r"],
                     cfg.solver["N_theta"] if geom.kind == "polar_disk" else None)
    angle = angle_from_spec(grid, cfg.angle)
    return geom, grid, angle


# -- deterministic writers -----------------------------------------------------


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    return obj


def field_table(grid: Grid, values) -> tuple:
    """(header, rows) of an interior array: one (coordinate..., value) row
    per node, ring by ring on the disk.  Each coordinate is a str, its
    shortest round-trip text, formatted once per distinct radius and ray
    angle; the values stay floats."""
    nodes, values = [repr(x) for x in grid.nodes.tolist()], np.asarray(values).tolist()
    if grid.is_disk:
        theta = [repr(th) for th in grid.theta.tolist()]
        return ("r", "theta", "value"), [(r, th, v) for r, ring in zip(nodes, values)
                                         for th, v in zip(theta, ring)]
    return ("x" if grid.geom.kind == "interval" else "r", "value"), list(zip(nodes, values))


def emit_outputs(out_dir: Union[str, Path], cfg: RunConfig, files: dict) -> list:
    """Write resolved_config.json (``cfg.resolved()``), then each entry of
    files, into out_dir and return the paths written.  A ``.csv`` name takes
    a (header, rows) table, whose str cells are written as they are, any
    other name a JSON-able object."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    for name, data in {"resolved_config.json": cfg.resolved(), **files}.items():
        path = out / name
        if name.endswith(".csv"):
            header, rows = data
            lines = [",".join(header)]
            # a plain float, as every field_table value is, skips _pyify's checks
            lines += [",".join([repr(v) if type(v) is float else v if type(v) is str
                                else repr(_pyify(v)) for v in row]) for row in rows]
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(_pyify(data), indent=2, sort_keys=True) + "\n"
        try:
            path.write_text(text)
        except OSError as exc:
            raise ConfigError(f"failed writing {path}: {exc}") from exc
        written.append(path)
    return written
