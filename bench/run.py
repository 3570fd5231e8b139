"""mcfsolve benchmark runner.

    python3 bench/run.py --workload {translator,stationarity,explicit_long} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (or any checkout of it): the package is imported
from ``src/`` next to this directory.  One run sets up the workload several
times (fresh import, config parse, grid build, lazy-cache fill) and reports the
median as ``setup_s``; then it runs whole passes of the workload, one after
another in this process and thread, until the next pass would end past
``--seconds`` (always at least one).  With ``--trace 1`` untraced and traced
passes alternate; the traced ones give the per-layer metrics, and the
difference of their median wall times is the tracing overhead.

The full report (every metric of README.md, machine and versions, failures)
is printed as one JSON line; the last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import os

# Single-threaded BLAS/OpenMP, pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 5

# (metric, unit) of the per-layer run; "<layer>.<calls|s|self_s>" read the
# span summary, the rest are computed in ``per_layer``.
PER_LAYER = [
    ("operators.semi_implicit_matrix.calls", "count"),
    ("operators.semi_implicit_matrix.s", "s"),
    ("operators.capillary_jacobian.calls", "count"),
    ("operators.capillary_jacobian.s", "s"),
    ("operators.capillary_jacobian.self_s", "s"),
    ("operators.jacobian_probes", "count"),
    ("operators.capillary_residual.calls", "count"),
    ("operators.capillary_residual.s", "s"),
    ("linalg.splu.calls", "count"),
    ("linalg.splu.s", "s"),
    ("linalg.splu.fill_nnz", "count"),
    ("linalg.lu_solve.calls", "count"),
    ("linalg.lu_solve.s", "s"),
    ("soliton.solve_soliton.calls", "count"),
    ("soliton.solve_soliton.s", "s"),
    ("soliton.solve_soliton.self_s", "s"),
    ("soliton.residual_evals", "count"),
    ("soliton.newton_iters", "count"),
    ("soliton.accept_ratio", "ratio"),
    ("flow.step.calls", "count"),
    ("flow.step.s", "s"),
    ("flow.step.self_s", "s"),
    ("flow.eta_monitor.calls", "count"),
    ("flow.eta_monitor.s", "s"),
    ("flow.speed_estimate.calls", "count"),
    ("flow.speed_estimate.s", "s"),
    ("flow.run_until.calls", "count"),
    ("flow.run_until.s", "s"),
    ("flow.run_until.self_s", "s"),
    ("flow.history_rows", "count"),
    ("operators.mcf_from_extended.calls", "count"),
    ("operators.mcf_from_extended.s", "s"),
    ("operators.ghost_fill.calls", "count"),
    ("operators.ghost_fill.s", "s"),
    ("diagnostics.run_to_stationarity.calls", "count"),
    ("diagnostics.run_to_stationarity.s", "s"),
    ("diagnostics.run_to_stationarity.self_s", "s"),
    ("config.parse_config.calls", "count"),
    ("config.parse_config.s", "s"),
    ("config.parse_config.self_s", "s"),
    ("config.emit_outputs.calls", "count"),
    ("config.emit_outputs.s", "s"),
    ("config.emit_outputs.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("existence.check_existence.calls", "count"),
    ("existence.check_existence.s", "s"),
    ("geometry.make_geometry.calls", "count"),
    ("geometry.make_geometry.s", "s"),
    ("grids.make_grid.calls", "count"),
    ("grids.make_grid.s", "s"),
    ("trace.overhead_s", "s"),
]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100 * (n - 10) // n, "value": sorted(samples)[n - 11]}


def run_passes(workload, seed: int, tmp: Path, seconds: float, traced: bool):
    """Set up, then run whole passes until the next one would end past
    ``seconds``.  With tracing, untraced and traced passes alternate, at least
    one of each.  Between passes (and after the last, up to SETUP_REPEATS) the
    set-up is timed again on a throwaway fresh import, so that ``setup_s``
    samples the whole run; the passes keep using the first set-up."""
    from tracer import Tracer
    from workloads import WORKLOADS, load_package, package_modules, restore_package

    setup_times = []

    def set_up():
        workdir = tmp / f"setup{len(setup_times)}"
        workdir.mkdir()
        t0 = time.perf_counter()
        prepared = WORKLOADS[workload](load_package(), seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        return prepared

    def sample_setup():
        kept = package_modules()
        set_up()
        restore_package(kept)

    prepared = set_up()
    tracer = Tracer() if traced else None
    plain, with_trace, durations = [], [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        if traced and len(with_trace) < len(plain):
            tracer.install()
            mark = tracer.mark()
            try:
                res = prepared.run_pass()
            finally:
                tracer.uninstall()
            with_trace.append((res, tracer.summarize(mark)))
        else:
            plain.append(prepared.run_pass())
        durations.append(time.perf_counter() - start)
        if not (traced and not with_trace) and (
                time.perf_counter() - t0 + statistics.median(durations) > seconds):
            break
        sample_setup()
    while len(setup_times) < SETUP_REPEATS:
        sample_setup()
    return setup_times, plain, with_trace, tracer


def end_to_end(plain, setup_times) -> dict:
    """Every end-to-end metric of README.md; None where it does not apply."""
    flow_steps = [p.flow_s / p.steps * 1e6 for p in plain if p.steps]
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median(p.wall_s for p in plain), "s"),
        "wall_1d_s": (median(p.wall_1d_s for p in plain), "s"),
        "wall_disk_s": (median(p.wall_disk_s for p in plain), "s"),
        "step_us": (median(flow_steps), "us"),
        "steps": (median(p.steps for p in plain), "count"),
        "newton_iters": (median(p.newton_iters for p in plain), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(with_trace, plain) -> dict:
    """Median over traced passes of every PER_LAYER metric; an absent or idle
    layer reads 0."""
    rows = []
    for res, summary in with_trace:
        row = {}
        for name, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "s", "self_s") and layer in summary:
                row[name] = summary[layer][field]
            elif name in summary:
                row[name] = summary[name]
        row["soliton.newton_iters"] = res.newton_iters or 0
        evals = row.get("soliton.residual_evals", 0)
        row["soliton.accept_ratio"] = row["soliton.newton_iters"] / evals if evals else 0.0
        row["flow.history_rows"] = res.history_rows or 0
        rows.append(row)
    out = {name: median(row.get(name, 0) for row in rows) for name, _ in PER_LAYER}
    out["trace.overhead_s"] = (median(r.wall_s for r, _ in with_trace)
                               - median(p.wall_s for p in plain))
    return out


def self_check(with_trace, absent) -> list:
    """Trace consistency: step spans match flow steps, Jacobians match Newton
    iterations, factorizations match Jacobians plus lagged matrices.  A check
    that needs an absent layer is skipped."""
    problems = []
    for k, (res, s) in enumerate(with_trace):
        def calls(layer):
            return s.get(layer, {}).get("calls", 0)

        pairs = [("flow.step", calls("flow.step"), res.steps or 0, ("flow.step",))]
        if res.newton_iters is not None:
            pairs.append(("capillary_jacobian vs newton_iters",
                          calls("operators.capillary_jacobian"), res.newton_iters,
                          ("operators.capillary_jacobian",)))
        pairs.append(("splu vs jacobians + lagged matrices", calls("linalg.splu"),
                      calls("operators.capillary_jacobian")
                      + calls("operators.semi_implicit_matrix"),
                      ("linalg.splu", "operators.capillary_jacobian",
                       "operators.semi_implicit_matrix")))
        for what, got, want, needs in pairs:
            if not set(needs) & set(absent) and got != want:
                problems.append(f"traced pass {k}: {what}: {got} != {want}")
    return problems


def main(argv=None) -> int:
    # The package's dependencies load once, here, after the thread pinning.
    t0 = time.perf_counter()
    import scipy.sparse.linalg  # noqa: F401
    from workloads import WORKLOADS
    deps_import_s = time.perf_counter() - t0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mcfsolve").is_dir():
        parser.error(f"no mcfsolve sources under {ROOT / 'src'}")

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        setup_times, plain, with_trace, tracer = run_passes(
            args.workload, args.seed, Path(tmp), args.seconds, bool(args.trace))

    passes = plain + [res for res, _ in with_trace]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    absent = tracer.absent if tracer else []
    problems = self_check(with_trace, absent)
    e2e = end_to_end(plain, setup_times)
    e2e["failed_frac"] = (len(failures) / attempted, "ratio")
    walls = [p.wall_s for p in plain]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall_s_samples": len(walls), "wall_s_tail": tail(walls),
        "setup_s_samples": setup_times, "deps_import_s": deps_import_s, "failures": failures,
        "absent_layers": absent, "self_check_failures": problems,
    }
    for line in failures + problems:
        print(f"FAIL {line}", file=sys.stderr)

    if args.trace:
        values = per_layer(with_trace, plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        report["per_layer"] = metrics
    else:
        metrics = {k: report["metrics"][k] for k in ("setup_s", "wall_s", "wall_1d_s", "peak_rss_mb")}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
