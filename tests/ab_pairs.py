"""A/B timing of two checkouts with perfbench, in alternating pairs.

    python tests/ab_pairs.py PARENT CHANGE --workload steady-pi [--workload steady-mpc ...]
                             [--seed SEED]
    python tests/ab_pairs.py --summarize FILE

Each of 10 pairs runs `perfbench/run.py --seed SEED --seconds 20 --trace 0`
once on each side, per workload; SEED is 0 unless `--seed` gives another, such
as a seed held out while the change was written. Even pairs run the parent
first and odd pairs the change. Before each run the side is copied to one
fixed path inside a temporary directory that the script makes and removes, so
that both sides run from the same directory: perfbench timings move with the
checkout's path.
Every run's outcome is written to `ab_pairs.jsonl` in the current directory
(replacing an earlier log) as one JSON line, and `--summarize` prints the
table again from a log.

Per workload and end-to-end metric the table gives each side's median and
quartiles, the change's wins (pairs where it is lower; ties count for
neither), whether the gap between the medians exceeds the parent's quartile
spread, and per side the count of runs that read `correct: false`. Beside
the gated metrics it gives, marked ungated, the wall time per cycle in ms:
1000 / `cycles_per_s` of the `end_to_end` record that perfbench prints on
its second-to-last line. That figure includes each run's set-up, such as
the plan table built before the first cycle, which no gated metric times.
Stdlib only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 20
LOG = Path("ab_pairs.jsonl")
UNGATED = ("wall_ms_per_cycle",)
IGNORE = shutil.ignore_patterns(".git", ".perfbench_out", "__pycache__",
                                ".pytest_cache", ".hypothesis")


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change):
    """Summary of one metric over paired runs, lower is better:
    `parent[i]` and `change[i]` are the values of pair i (None where a run
    gave none). Each side needs at least one value."""
    pairs = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    pq = quartiles([a for a in parent if a is not None])
    cq = quartiles([b for b in change if b is not None])
    spread = pq[2] - pq[0]
    return {
        "parent": pq, "change": cq,
        "wins": sum(b < a for a, b in pairs),
        "losses": sum(b > a for a, b in pairs),
        "pairs": len(pairs),
        "spread": spread,
        "outside": abs(cq[1] - pq[1]) > spread,
    }


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
                lines.append(f"  {label:28s} n/a: no value from the {' or '.join(empty)} runs")
                continue
            s = summarize(vals["parent"], vals["change"])
            (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
            rel = (cm - pm) / pm * 100.0 if pm else float("nan")
            lines.append(
                f"  {label:28s} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  "
                f"change {cm:.4f} [{c1:.4f}, {c3:.4f}]  {rel:+.1f}%  "
                f"wins {s['wins']}/{s['pairs']}  IQR {s['spread']:.4f}  "
                f"{'OUTSIDE' if s['outside'] else 'inside'} the parent's spread")
    return "\n".join(lines)


def run_once(side_dir, run_path, workload, seed):
    """Copy `side_dir` to `run_path` and run perfbench there with `seed`;
    the result record (correct, metrics) or a failed one. The metrics are
    the gated ones and, when perfbench printed `cycles_per_s`,
    `wall_ms_per_cycle`."""
    shutil.copytree(side_dir, run_path, ignore=IGNORE)
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run_path, capture_output=True, text=True)
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
        records = [json.loads(l) for l in args.summarize.read_text().splitlines() if l]
        print(table(records))
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
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    print(f"pair {pair} {workload} {side}: correct "
                          f"{record['correct']} {record['metrics']}", flush=True)
    print(table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
