"""A/B timing of two checkouts in alternating pairs.

    python tests/ab_pairs.py PARENT CHANGE --workload steady-pi [--workload calls ...]
                             [--seed SEED]
    python tests/ab_pairs.py --summarize FILE

Each of 10 pairs runs every workload once per side at seed SEED (0 unless
`--seed` gives another, such as a held-out seed), the parent first in even
pairs. Each run copies its side to one fixed path in a temporary directory,
as timings move with the checkout's path. A perfbench workload runs
`perfbench/run.py --seed SEED --seconds 20 --trace 0`: the gated metrics
and, ungated, 1000 / the `cycles_per_s` it prints on its second-to-last
line, the wall ms per cycle with set-up included. The workload `calls`
runs a child process that imports `dcmwalk` from the copy's `src`, BLAS on
one thread, and walks the predictive architecture at 0.19 m/s for 12 s per
mode: in µs per mode, the p5 and p50 of each call of
`WholeBodyController.cycle` and `PredictiveDcmController.control`
(`wholebody.cycle/position.p50_us`), and the sums of the set-up calls
`PlanTable.__init__` and `PredictiveDcmController.sample`
(`setup.plan_table/position.sum_us`). It reads `correct: false` when
`dcmwalk` came from elsewhere.

Each run is one JSON line of `ab_pairs.jsonl` in the current directory,
which a new A/B replaces; `--summarize` prints the table again from a log.
Per workload and metric it gives each side's median and quartiles, the
change's wins (pairs where it is lower; ties count for neither), whether
the medians differ by more than the parent's quartile spread, and per side
the runs that read `correct: false`. Stdlib only; a `calls` child also
needs the checkout's own dependencies.
"""

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 20
LOG = Path("ab_pairs.jsonl")
UNGATED = ("wall_ms_per_cycle",)
IGNORE = shutil.ignore_patterns(".git", ".perfbench_out", "__pycache__",
                                ".pytest_cache", ".hypothesis")
CALLS = "calls"
WALK_SECONDS = 12.0
MODES = ("position", "velocity")
# The methods a `calls` run times; a "setup." name is summed per walk.
TIMED = {"wholebody.cycle": ("dcmwalk.wholebody", "WholeBodyController", "cycle"),
         "mpc.control": ("dcmwalk.control", "PredictiveDcmController", "control"),
         "setup.plan_table": ("dcmwalk.harness", "PlanTable", "__init__"),
         "setup.mpc_sample": ("dcmwalk.control", "PredictiveDcmController", "sample")}


def cuts(values, n):
    """The n - 1 points that cut `values` into n equal groups, inclusive
    method; each is the value itself when there is only one."""
    if len(values) == 1:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    return tuple(cuts(values, 4))


def summarize(parent, change):
    """Summary of one metric over paired runs, lower is better:
    `parent[i]` and `change[i]` are the values of pair i (None where a run
    gave none). Each side needs at least one value."""
    pairs = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    pq = quartiles([a for a in parent if a is not None])
    cq = quartiles([b for b in change if b is not None])
    spread = pq[2] - pq[0]
    return {"parent": pq, "change": cq, "wins": sum(b < a for a, b in pairs),
            "losses": sum(b > a for a, b in pairs), "pairs": len(pairs),
            "spread": spread, "outside": abs(cq[1] - pq[1]) > spread}


def table(records):
    """Text table of the log `records` (dicts with pair, side, workload,
    correct and metrics)."""
    lines = []
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        n_pairs = 1 + max(r["pair"] for r in runs)
        by = {(r["pair"], r["side"]): r for r in runs}
        complete = [i for i in range(n_pairs) if all((i, s) in by for s in SIDES)]
        wrong = {s: sum(not r["correct"] for r in runs if r["side"] == s) for s in SIDES}
        lines.append(f"{workload}: {len(complete)} pairs; correct: false in "
                     f"{wrong['parent']} parent and {wrong['change']} change runs")
        names = sorted({m for r in runs for m in r["metrics"]} - set(UNGATED))
        names += [m for m in UNGATED if any(m in r["metrics"] for r in runs)]
        for name in names:
            label = f"{name} (ungated)" if name in UNGATED else name
            vals = {s: [by[i, s]["metrics"].get(name) for i in complete] for s in SIDES}
            empty = [s for s in SIDES if all(v is None for v in vals[s])]
            if empty:
                lines.append(f"  {label:34s} n/a: no value from the {' or '.join(empty)} runs")
                continue
            s = summarize(vals["parent"], vals["change"])
            (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
            rel = (cm - pm) / pm * 100.0 if pm else float("nan")
            lines.append(
                f"  {label:34s} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  "
                f"change {cm:.4f} [{c1:.4f}, {c3:.4f}]  {rel:+.1f}%  "
                f"wins {s['wins']}/{s['pairs']}  IQR {s['spread']:.4f}  "
                f"{'OUTSIDE' if s['outside'] else 'inside'} the parent's spread")
    return "\n".join(lines)


def time_calls(seconds, seed=0):
    """{"<name>/<mode>": [seconds per call]} of one predictive walk per mode,
    timed in this process with the `dcmwalk` it imports; a method the
    checkout lacks is left out, and every patched one is restored."""
    from dcmwalk.harness import Scenario, run_scenario

    times, originals = {}, []

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            times.setdefault(f"{name}/{mode}", []).append(time.perf_counter() - start)
            return out
        return call

    try:
        for name, (module, cls, method) in TIMED.items():
            owner = getattr(importlib.import_module(module), cls, None)
            if owner is not None and method in vars(owner):
                originals.append((owner, method, vars(owner)[method]))
                setattr(owner, method, timed(name, vars(owner)[method]))
        for mode in MODES:
            run_scenario(Scenario(controller="predictive", mode=mode, forward_velocity=0.19,
                                  duration=seconds), seed=seed)
    finally:
        for owner, method, fn in originals:
            setattr(owner, method, fn)
    return times


def child(seconds, seed):
    """Print a `calls` run's record in perfbench's form; `correct` when
    `dcmwalk` comes from under the working directory."""
    import dcmwalk

    metrics = {}
    for key, calls in time_calls(seconds, seed).items():
        us = [1e6 * t for t in calls]
        p = cuts(us, 20)
        stats = {"sum_us": sum(us)} if key.startswith("setup.") else {"p5_us": p[0], "p50_us": p[9]}
        metrics.update({f"{key}.{k}": {"value": v, "unit": "us"} for k, v in stats.items()})
    here = Path(dcmwalk.__file__).resolve().is_relative_to(Path.cwd().resolve())
    print(json.dumps({"correct": here, "metrics": metrics}))


def run_once(side_dir, run_path, workload, seed):
    """Copy `side_dir` to `run_path` and run `workload` there with `seed`;
    the result record (correct, metrics) or a failed one."""
    shutil.copytree(side_dir, run_path, ignore=IGNORE)
    try:
        env = None
        if workload == CALLS:
            path = os.pathsep.join([str(run_path / "src"), str(Path(__file__).resolve().parent)])
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            cmd = [sys.executable, "-c", f"import ab_pairs; ab_pairs.child({WALK_SECONDS!r}, {seed})"]
        else:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run_path, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(run_path)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    try:
        metrics["wall_ms_per_cycle"] = 1e3 / json.loads(lines[-2])["end_to_end"]["cycles_per_s"]
    except (IndexError, ValueError, KeyError, TypeError, ZeroDivisionError):
        pass
    return {"correct": bool(result["correct"]), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--summarize", type=Path, metavar="FILE")
    args = parser.parse_args(argv)

    if args.summarize:
        print(table([json.loads(l) for l in args.summarize.read_text().splitlines() if l]))
        return 0
    if not (args.parent and args.change and args.workload):
        parser.error("give PARENT, CHANGE and at least one --workload")
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    records = []
    with tempfile.TemporaryDirectory(prefix="dcmwalk-ab-") as tmp, open(LOG, "w") as log:
        run_path = Path(tmp) / "dcmwalk"
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                for side in order:
                    record = run_once(sides[side], run_path, workload, args.seed)
                    record.update(pair=pair, side=side, workload=workload, seed=args.seed)
                    records.append(record)
                    print(json.dumps(record), file=log, flush=True)
                    print(f"pair {pair} {workload} {side}: correct "
                          f"{record['correct']} {record['metrics']}", flush=True)
    print(table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
