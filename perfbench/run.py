"""Closed-loop walking benchmark for dcmwalk.

Run from the repository root:

    python3 perfbench/run.py --workload steady-pi --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with only the run observer
installed. `--trace 1` alternates untraced batches and traced batches, which
have a hook on every layer, and reports the per-layer metrics. The last line of
standard output is one JSON object; the full record, with the environment,
run outcomes and every per-layer figure, goes to `.perfbench_out/`.
"""

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs single-threaded, set before numpy loads. With the library default
# (one thread per core) the host's busy spells stall threaded BLAS calls by
# tens to hundreds of ms, in most cycles for minutes at a time, and no timing
# repeats from run to run. The inherited values go in the record.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
INHERITED_THREADS = {v: os.environ.get(v, "unset") for v in THREAD_VARS}
if __name__ == "__main__":
    os.environ.update({v: "1" for v in THREAD_VARS})

from layers import hooks, layer_metrics, span_sources  # noqa: E402
from tracing import Tracer, beyond, install, percentile  # noqa: E402
from workloads import (WORKLOADS, max_velocities, outcome_summary,  # noqa: E402
                       run_batches, RunObserver)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "control_ref.p5": "ref",
    "control_ref.period_mean_p5": "ref",
}

PER_LAYER = (
    "harness.self_ms.p50",
    "harness.realized_support_us.p50",
    "harness.fall_detector_us.p50",
    "harness.support_polygon_at.calls_per_cycle",
    "harness.support_polygon_at.ms_per_cycle",
    "harness.overrun_share",
    "harness.runs_per_arch",
    "lipm.step_us.p50",
    "unicycle.build_gait_ms",
    "unicycle.phase_at.calls_per_cycle",
    "dcm_planner.build_ms",
    "dcm_planner.eval.calls_per_cycle",
    "control.pi_us_per_cycle",
    "control.mpc_ms_per_cycle",
    "control.mpc_assemble_ms_per_cycle",
    "control.hull.calls_per_cycle",
    "control.hull_us_per_cycle",
    "qp.wb.solve_ms.p50",
    "qp.wb.solve_ms.p99",
    "qp.wb.iterations.p50",
    "qp.wb.iterations.max",
    "qp.wb.status.infeasible",
    "qp.wb.status.max_iter",
    "qp.wb.phase1.calls_per_solve",
    "qp.mpc.solves_per_cycle",
    "qp.mpc.solve_ms_per_cycle",
    "qp.mpc.iterations.max",
    "qp.mpc.status.infeasible",
    "qp.mpc.status.max_iter",
    "qp.phase1.calls_per_cycle",
    "qp.phase1_ms_per_cycle",
    "qp.kkt_violations",
    "kinematics.cache.builds_per_cycle",
    "kinematics.cache_us.p50",
    "wholebody.cycle_ms.p50",
    "wholebody.cycle_ms.p99",
    "wholebody.self_ms.p50",
    "wholebody.assemble_ms.p50",
    "wholebody.fallback.count",
    "trace.overhead_share",
)


def import_program():
    """dcmwalk from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import dcmwalk
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dcmwalk from {SRC}: {exc}")
    if Path(dcmwalk.__file__).resolve().parent != SRC / "dcmwalk":
        raise SystemExit(f"error: dcmwalk was imported from {dcmwalk.__file__}, "
                         f"not from {SRC}")
    return dcmwalk


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name", "unknown"),
                "version": blas.get("version", "unknown")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "blas": blas,
        **{v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "inherited": INHERITED_THREADS,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(repeats):
    """Wall time of `setup_probe.py` in fresh interpreters, one at a time.

    The wait blocks until the child exits: a wait with a timeout polls, at
    most every 50 ms, and would round the times up to that step.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def period_means(run):
    """Mean control time over each MPC period of a run (10 cycles, so one
    MPC solve on a predictive run)."""
    c, n = run.control_ms, run.period
    return [statistics.fmean(c[i:i + n]) for i in range(0, len(c) - n + 1, n)]


def in_reference_units(runs):
    """Per run, the 5th percentile of its control times divided by the 5th
    percentile of the reference kernel times taken around and during it;
    the median over each architecture's runs, then the geometric mean over
    architectures.

    A low percentile of each reads the machine in its fast spells, and the
    ratio cancels the drift of the host's speed that remains.
    """
    arches = {}
    for r in runs:
        if r.control_ms:
            arches.setdefault((r.controller, r.mode), []).append(r)

    def combined(samples_of):
        if not arches:
            return None
        return statistics.geometric_mean(
            statistics.median(percentile(samples_of(r), 5)
                              / percentile(r.reference_ms, 5) for r in rs)
            for rs in arches.values())

    return {
        "control_ref.p5": combined(lambda r: r.control_ms),
        "control_ref.period_mean_p5": combined(period_means),
        "reference_ms.p5": percentile([t for r in runs for t in r.reference_ms], 5),
    }


def batch_figures(batches):
    """End-to-end figures of one pass: medians over batches, pooled cycles."""
    runs = [r for b in batches for r in b.runs]
    control = [c for r in runs for c in r.control_ms]
    # A low percentile over all periods: the control load including the MPC,
    # on stretches when the machine was idle.
    periods = [m for r in runs for m in period_means(r)]
    completed = [r for r in runs if r.outcome == "completed"]
    figures = {
        "cycles_per_s": statistics.median(
            sum(r.cycles for r in b.runs) / sum(r.wall_s for r in b.runs)
            for b in batches),
        **{f"control_ms.p{q}": percentile(control, q) for q in (25, 50, 99)},
        "control_ms.samples": len(control),
        "control_ms.beyond_p99": beyond(control, 99),
        "control_ms.period_mean_p10": percentile(periods, 10),
        "control_ms.periods": len(periods),
        "batch_s": statistics.median(b.wall_s for b in batches),
        "batches": len(batches),
        "dcm_error_mm.max": max((r.dcm_error_mm for r in completed), default=None),
        "foot_error_mm.max": max((r.foot_error_mm for r in completed), default=None),
    }
    figures.update(in_reference_units(runs))
    if batches[0].rows is not None:
        figures["compare_s"] = figures["batch_s"]
        figures.update(max_velocities(batches[0].rows))
    figures.update(outcome_summary(runs))
    return figures


def problems_of(batches):
    found = [p for b in batches for p in b.problems]
    for b in batches:
        for r in b.runs:
            found.extend(f"{r.controller}+{r.mode} at {r.velocity} m/s: {p}"
                         for p in r.problems)
    return found


def untraced(dcmwalk, args):
    setup = measure_setup(SETUP_REPEATS)
    observer = RunObserver()
    with install(observer.hooks(during=True), Tracer()) as installed:
        if "dcmwalk.harness.run_scenario" in installed.missing:
            raise SystemExit("error: the run observer cannot be installed")
        batches = run_batches(dcmwalk, observer, args.workload, args.seed,
                              args.seconds)
    figures = batch_figures(batches)
    figures["setup_s"] = statistics.median(setup)
    figures["setup_s.samples"] = setup
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, {"end_to_end": figures}, observer.runs, problems_of(batches)


def traced(dcmwalk, args):
    observer = RunObserver()
    tracer = Tracer()
    violations = {"checked": 0, "count": 0, "worst": 0.0}
    hook_list = observer.hooks() + hooks(dcmwalk, violations)
    batch = WORKLOADS[args.workload]
    plain, batches = [], []
    t0 = time.perf_counter()
    # Untraced and traced batches alternate, so a slow spell of the shared
    # machine falls on both sides of trace.overhead_share.
    while True:
        with install(observer.hooks(), Tracer()) as installed:
            if installed.missing:
                raise SystemExit("error: the run observer cannot be installed")
            plain.append(batch(dcmwalk, observer, args.seed))
        with install(hook_list, tracer) as installed:
            batches.append(batch(dcmwalk, observer, args.seed))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(batches) + 1) / len(batches) > args.seconds:
            break
    plain_runs = [r for b in plain for r in b.runs]
    traced_runs = [r for b in batches for r in b.runs]
    per_layer = layer_metrics(tracer, span_sources(hook_list), installed.missing,
                              violations, plain_runs, traced_runs)
    problems = problems_of(plain + batches)
    if violations["count"]:
        problems.append(f"{violations['count']} optimal QP solutions exceed "
                        f"the KKT bound (worst {violations['worst']:.3g})")
    metrics = {}
    for name in PER_LAYER:
        entry = per_layer.get(name)
        if entry is None or entry["value"] is None:
            why = "not computed" if entry is None else entry["absent"]
            print(f"warning: {name} is absent: {why}", file=sys.stderr)
            continue
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    record = {"per_layer": per_layer, "missing_hooks": installed.missing,
              "untraced": batch_figures(plain), "traced": batch_figures(batches),
              "kkt_checked": violations["checked"]}
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"{args.workload}.spans.json.gz", "wt") as f:
        json.dump(tracer.to_records(), f)
    return metrics, record, observer.runs, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dcmwalk = import_program()
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    measure = traced if args.trace else untraced
    metrics, record, runs, problems = measure(dcmwalk, args)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record.update(environment=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, problems=problems)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({k: v for k, v in record.items() if k != "per_layer"},
                     default=str))
    result = {"correct": not problems, "attempted": len(runs),
              "failed": sum(r.outcome == "unclassified" for r in runs),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
