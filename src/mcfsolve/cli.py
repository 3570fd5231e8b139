"""Command-line front end: mcfsolve {soliton|flow|check|verify|study}.

Every subcommand takes its run from one JSON config (path or preset
name) and nothing else; the options name the config, the output
directory, and how long or how finely to run (``flow --t-end`` and
``--snapshot-interval``, ``verify --tol``, ``study --levels``).  Each
echoes the fully resolved configuration next to its outputs and writes
CSV/JSON artifacts.  Exit codes: 0 success or verification pass, 2
verification failure, 1 error, a usage error included.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import diagnostics, existence, flow, soliton
from .config import ConfigError, build_problem, emit_outputs, field_table, parse_config
from .flow import SolverError


def cmd_soliton(cfg, args) -> int:
    geom, grid, angle = build_problem(cfg)
    result = soliton.solve_soliton(grid, angle, cfg.newton_policy())
    report = soliton.verify_compatibility(result)
    report["newton_iterations"] = result.newton_iters
    report["chord_corrections"] = result.chord_corrections
    emit_outputs(args.out, cfg, {"u_inf.csv": field_table(grid, result.u_inf.interior),
                                 "report.json": report})
    print(f"soliton: C_eps={result.C_eps:.6f} C_quad={result.C_quad:.6f} C_h={result.C_h:.6f} "
          f"residual={result.residual:.3e} -> {args.out}")
    return 0


def cmd_flow(cfg, args) -> int:
    geom, grid, angle = build_problem(cfg)
    policy = cfg.step_policy()
    state = flow.initial_state(grid, angle)
    flow.run_until(state, policy, angle, t_end=args.t_end,
                   snapshot_interval=args.snapshot_interval)
    files = {"history.csv": (state.history.COLUMNS, state.history.rows())}
    for t, snap in state.snapshots:
        files[f"u_t{t:g}.csv"] = field_table(grid, snap)
    emit_outputs(args.out, cfg, files)
    print(f"flow: t={state.t:g} osc={state.history.osc_u[-1]:.3e} "
          f"speed={state.history.speed[-1]:.6f} -> {args.out}")
    return 0


def cmd_check(cfg, args) -> int:
    geom, grid, angle = build_problem(cfg)
    report = existence.check_existence(geom, angle)
    emit_outputs(args.out, cfg, {"report.json": report.to_dict()})
    verdict = "pass" if report.overall else "fail"
    print(f"check: {verdict} (eps0={report.eps0:.6f}, phi0={report.phi0:.6f})")
    return 0 if report.overall else 2


def cmd_verify(cfg, args) -> int:
    if not 0 < args.tol < math.inf:  # before the solve and the flow it would judge
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    geom, grid, angle = build_problem(cfg)
    sol = soliton.solve_soliton(grid, angle, cfg.newton_policy())
    policy = cfg.step_policy()
    state, t_stat = diagnostics.run_to_stationarity(grid, angle, policy)
    report = diagnostics.verify_convergence(state, sol, tol=args.tol)
    payload = report.to_dict()
    payload.update({"t_stationary": t_stat, "t_final": state.t,
                    "C_eps": sol.C_eps, "C_quad": sol.C_quad, "C_h": sol.C_h})
    emit_outputs(args.out, cfg, {"report.json": payload,
                                 "osc_trace.csv": (("t", "osc_u_minus_uinf"), report.osc_trace),
                                 "w_envelope.csv": (("t", "max_W"), report.w_envelope)})
    print(f"verify: {'pass' if report.passed else 'fail'} "
          + " ".join(f"{k}={v[0]:.3e}" for k, v in report.checks.items()))
    return 0 if report.passed else 2


def cmd_study(cfg, args) -> int:
    table = diagnostics.refinement_study(cfg, levels=args.levels)
    rows = [(r["level"], r["h_r"], r["C_quad"], r["C_error"], r["u_error"])
            for r in table["rows"]]
    emit_outputs(args.out, cfg, {
        "study.csv": (("level", "h_r", "C_quad", "C_error", "u_error"), rows),
        "report.json": {"c_orders": table["c_orders"], "u_orders": table["u_orders"]},
    })
    print(f"study: C orders {['%.2f' % o for o in table['c_orders']]} "
          f"u orders {['%.2f' % o for o in table['u_orders']]}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command's parser, built once: a parser is a web of reference
    cycles, so one per call would be left for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="mcfsolve",
        description="Contact-angle graph flow laboratory: translators, flows, "
                    "existence checks, and verification studies.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="JSON config path or preset name (e.g. grim_reaper)")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("soliton", help="solve the translator profile and speed")
    common(p)
    p.set_defaults(fn=cmd_soliton)

    p = sub.add_parser("flow", help="run the parabolic flow")
    common(p)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--snapshot-interval", type=float, dest="snapshot_interval")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("check", help="existence hypothesis check")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="flow-vs-translator convergence verification")
    common(p)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("study", help="grid refinement order study")
    common(p)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(fn=cmd_study)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is an error, exit 1; --help exits 0
        return 1 if exc.code else 0
    try:
        return args.fn(parse_config(args.config), args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
