"""Per-call wall time of the two control layers on two checkouts, in
alternating rounds.

    python tests/layer_timer.py PARENT CHANGE [--rounds 3] [--seconds 12]

It times each call of `WholeBodyController.cycle` and of
`PredictiveDcmController.control` with `time.perf_counter`, on walks of the
predictive architecture at 0.19 m/s, SECONDS long, in position and in
velocity mode, at seed 0. Each round runs one child process per side: the
parent first in even rounds and the change first in odd ones. Before each
run the side is copied to one fixed path inside a temporary directory that
the script makes and removes, and the child imports `dcmwalk` from that
copy's `src`, so that both sides run from the same directory, as
`tests/ab_pairs.py` does. BLAS runs single-threaded in the child.

It prints, per layer and mode, each side's p5 and p50 in microseconds over
every call of every round, the change's p50 relative to the parent's, and
each round's p50 per side, which shows the spread between rounds. These are
per-layer figures for orientation; the gated metrics come from perfbench.
Stdlib only (the child also needs the checkout's own dependencies).
"""

import argparse
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
MODES = ("position", "velocity")
LAYERS = {"wholebody.cycle": ("dcmwalk.wholebody", "WholeBodyController", "cycle"),
          "mpc.control": ("dcmwalk.control", "PredictiveDcmController", "control")}
IGNORE = shutil.ignore_patterns(".git", ".perfbench_out", "__pycache__",
                                ".pytest_cache", ".hypothesis")


def time_calls(seconds):
    """{"<layer>/<mode>": [seconds per call]} of one walk per mode, timed in
    this process with the `dcmwalk` it imports; the methods are restored."""
    import importlib

    from dcmwalk.harness import Scenario, run_scenario

    times = {}
    mode = None
    originals = []

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.setdefault(f"{name}/{mode}", []).append(time.perf_counter() - start)
        return call

    for name, (module, cls, method) in LAYERS.items():
        owner = getattr(importlib.import_module(module), cls)
        originals.append((owner, method, getattr(owner, method)))
        setattr(owner, method, timed(name, getattr(owner, method)))
    try:
        for mode in MODES:
            run_scenario(Scenario(controller="predictive", mode=mode, forward_velocity=0.19,
                                  duration=seconds))
    finally:
        for owner, method, fn in originals:
            setattr(owner, method, fn)
    return times


def percentiles(values):
    """(p5, p50) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[0], cuts[9]


def table(rounds):
    """Text table of `rounds`: a list of {side: {"<layer>/<mode>": [s]}}."""
    lines = [f"{len(rounds)} rounds; microseconds per call"]
    for key in sorted({k for r in rounds for side in SIDES for k in r[side]}):
        pooled = {s: [t for r in rounds for t in r[s].get(key, [])] for s in SIDES}
        if not all(pooled.values()):
            lines.append(f"  {key:26s} n/a: no calls on the "
                         f"{' or '.join(s for s in SIDES if not pooled[s])} side")
            continue
        (pp5, pp50), (cp5, cp50) = (percentiles(pooled[s]) for s in SIDES)
        per_round = {s: " ".join(f"{1e6 * statistics.median(r[s][key]):.1f}"
                                 for r in rounds if r[s].get(key)) for s in SIDES}
        lines.append(
            f"  {key:26s} parent p5 {1e6 * pp5:.1f} p50 {1e6 * pp50:.1f}  "
            f"change p5 {1e6 * cp5:.1f} p50 {1e6 * cp50:.1f}  "
            f"{(cp50 - pp50) / pp50 * 100.0:+.1f}% p50  calls {len(pooled['change'])}  "
            f"round p50s parent [{per_round['parent']}] change [{per_round['change']}]")
    return "\n".join(lines)


def run_once(side_dir, run_path, seconds):
    """Copy `side_dir` to `run_path` and time its layers in a child process."""
    shutil.copytree(side_dir, run_path, ignore=IGNORE)
    env = dict(os.environ, PYTHONPATH=str(run_path / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                               "--seconds", str(seconds)],
                              cwd=run_path, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(run_path)
    if proc.returncode != 0:
        raise RuntimeError(f"{side_dir}: layer timing failed\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(record["dcmwalk"]).resolve().is_relative_to(run_path.resolve()):
        raise RuntimeError(f"{side_dir}: imported dcmwalk from {record['dcmwalk']}")
    return record["times"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        import dcmwalk
        print(json.dumps({"dcmwalk": dcmwalk.__file__, "times": time_calls(args.seconds)}))
        return 0
    if not (args.parent and args.change):
        parser.error("give PARENT and CHANGE")
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    rounds = []
    with tempfile.TemporaryDirectory(prefix="dcmwalk-layers-") as tmp:
        run_path = Path(tmp) / "dcmwalk"
        for i in range(args.rounds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            rounds.append({side: run_once(sides[side], run_path, args.seconds)
                           for side in order})
            print(f"round {i} done", file=sys.stderr, flush=True)
    print(table(rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
