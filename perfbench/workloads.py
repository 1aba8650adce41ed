"""Workloads, the run observer and the output checks.

Each workload is a closed batch of public-API calls made one after another
from one process: `run_scenario` twice on the steady workloads,
`compare_architectures` once on the ranking grid. The benchmark repeats the
batch with the same seed until its time is used up.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from reference import time_kernel
from tracing import Hook, percentile

# Criterion 7 (hard-task residual) and criterion 5 (KKT residual) bounds.
HARD_RESIDUAL_BOUND = 1e-8
KKT_BOUND = 1e-8

STEADY_VELOCITY = 0.19
STEADY_DURATION = 6.0
GRID_VELOCITIES = (0.19, 0.37, 0.49)
# The shortest walk whose footstep plan still yields every seed-0 failure of
# the 12 s grid; the latest of them ends at t = 5.93 s.
GRID_DURATION = 8.0
# Reference kernel calls timed right before and right after each run, and
# one call timed every REFERENCE_EVERY cycles during it.
REFERENCE_REPEATS = 10
REFERENCE_EVERY = 8

OUTCOMES = ("completed", "fell", "wholebody_solver", "mpc_solver", "unclassified")
SOLVER_OUTCOMES = ("wholebody_solver", "mpc_solver", "unclassified")


def classify(fallen, error):
    """How a run ended, from `fallen` and the prefix of `summary["error"]`."""
    if error is None:
        return "fell" if fallen else "completed"
    if not isinstance(error, str):
        return "unclassified"
    if error.startswith("wholebody:"):
        return "wholebody_solver"
    if error.startswith("mpc:"):
        return "mpc_solver"
    return "unclassified"


@dataclass
class RunRecord:
    controller: str
    mode: str
    velocity: float
    seed: int
    outcome: str
    cycles: int
    wall_s: float
    dt: float
    control_ms: list        # per-cycle control time, first cycle dropped
    period: int             # cycles per MPC period
    reference_ms: list      # reference kernel times around and during the run
    dcm_error_mm: float
    foot_error_mm: float
    problems: list = field(default_factory=list)


def _run_problems(result, outcome):
    """Output checks on one run; empty when the run is sound."""
    if outcome != "completed":
        return []
    problems = []
    for key, values in result.traces.items():
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            problems.append(f"trace {key!r} is not finite")
    residual = result.metrics.get("max_hard_residual")
    if residual is None or not residual <= HARD_RESIDUAL_BOUND:
        problems.append(f"max_hard_residual {residual} exceeds {HARD_RESIDUAL_BOUND}")
    return problems


class RunObserver:
    """Records every `run_scenario` call, through a hook on the name
    `dcmwalk.harness.run_scenario` that `compare_architectures` calls, and
    times the reference kernel right before and right after each call.

    With `during=True` it also times the kernel every REFERENCE_EVERY
    cycles, through a hook on `dcmwalk.harness.realized_support_polygon`,
    which the harness calls once per cycle outside its timed control
    section. Without that hook, only the times around the run are taken.
    """

    def __init__(self):
        self.runs = []
        self.reference_s = 0.0  # wall time spent in the reference kernel
        self._samples = []
        self._run_reference_s = 0.0
        self._calls = 0

    def hooks(self, during=False):
        run = Hook("dcmwalk.harness.run_scenario", "harness.run",
                   after=self.record, before=self.calibrate)
        if not during:
            return [run]
        return [run, Hook("dcmwalk.harness.realized_support_polygon",
                          "bench.reference", before=self.tick)]

    def _time_reference(self, repeats):
        t0 = time.perf_counter()
        self._samples.extend(time_kernel(repeats))
        spent = time.perf_counter() - t0
        self.reference_s += spent
        return spent

    def calibrate(self):
        self._samples = []
        self._time_reference(REFERENCE_REPEATS)
        self._run_reference_s = 0.0
        self._calls = 0

    def tick(self):
        self._calls += 1
        if self._calls % REFERENCE_EVERY == 0:
            self._run_reference_s += self._time_reference(1)

    def record(self, tracer, index, args, kwargs, result):
        self._time_reference(REFERENCE_REPEATS)
        scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
        seed = kwargs["seed"] if "seed" in kwargs else (args[1] if len(args) > 1 else 0)
        metrics = result.metrics
        error = result.summary.get("error")
        outcome = classify(bool(metrics.get("fallen")), error)
        cycle_time = np.asarray(result.traces.get("cycle_time", ()), dtype=float)
        foot = max((metrics.get(f"max_foot_error_{a}", math.nan) for a in "xyz"),
                   default=math.nan)
        self.runs.append(RunRecord(
            controller=scenario.controller, mode=scenario.mode,
            velocity=float(scenario.forward_velocity), seed=int(seed),
            outcome=outcome, cycles=int(cycle_time.size),
            wall_s=tracer.duration(index) - self._run_reference_s,
            dt=float(scenario.dt),
            control_ms=(cycle_time[1:] * 1e3).tolist(),
            period=max(1, round(scenario.mpc_period / scenario.dt)),
            reference_ms=self._samples,
            dcm_error_mm=1e3 * metrics.get("max_dcm_error", math.nan),
            foot_error_mm=1e3 * foot,
            problems=_run_problems(result, outcome)))


@dataclass
class Batch:
    wall_s: float
    runs: list
    rows: list = None       # compare_architectures table, ranking grid only
    problems: list = field(default_factory=list)


def _steady(controller):
    def batch(dcmwalk, observer, seed):
        harness = dcmwalk.harness
        first = len(observer.runs)
        ref0 = observer.reference_s
        t0 = time.perf_counter()
        for mode in ("position", "velocity"):
            scenario = harness.Scenario(controller=controller, mode=mode,
                                        forward_velocity=STEADY_VELOCITY,
                                        duration=STEADY_DURATION,
                                        noise=harness.NoiseModel())
            harness.run_scenario(scenario, seed=seed)
        wall = time.perf_counter() - t0 - (observer.reference_s - ref0)
        runs = observer.runs[first:]
        out = Batch(wall_s=wall, runs=runs)
        if len(runs) != 2:
            out.problems.append(f"run observer saw {len(runs)} runs, expected 2")
        return out
    return batch


def _ranking_grid(dcmwalk, observer, seed):
    harness = dcmwalk.harness
    first = len(observer.runs)
    base = harness.Scenario(controller="instantaneous", mode="position",
                            forward_velocity=GRID_VELOCITIES[0],
                            duration=GRID_DURATION, noise=harness.NoiseModel())
    ref0 = observer.reference_s
    t0 = time.perf_counter()
    rows = harness.compare_architectures(base, velocities=GRID_VELOCITIES, seed=seed)
    wall = time.perf_counter() - t0 - (observer.reference_s - ref0)
    runs = observer.runs[first:]
    out = Batch(wall_s=wall, runs=runs, rows=rows)
    if len(runs) < len(rows):
        # Runs moved out of this process would otherwise read as no failures.
        out.problems.append(f"run observer saw {len(runs)} runs for "
                            f"{len(rows)} architectures")
    out.problems.extend(row_problems(rows, runs))
    return out


def row_problems(rows, runs):
    """Each row's velocity must be one the observer saw complete, or 0."""
    problems = []
    for row in rows:
        arch = (row["SimplifiedModelControl"], row["WholeBodyQPControl"])
        v = float(row["MaxStraightVelocity"])
        seen = {r.velocity for r in runs
                if (r.controller, r.mode) == arch and r.outcome == "completed"}
        if v != 0.0 and v not in seen:
            problems.append(f"{arch[0]}+{arch[1]} reports {v} m/s, "
                            f"completed runs: {sorted(seen)}")
    return problems


WORKLOADS = {
    "steady-pi": _steady("instantaneous"),
    "steady-mpc": _steady("predictive"),
    "ranking-grid": _ranking_grid,
}


def run_batches(dcmwalk, observer, workload, seed, seconds):
    """Run the workload's batch at least once, then again while another one
    is expected to fit in `seconds`."""
    batch = WORKLOADS[workload]
    batches = []
    t0 = time.perf_counter()
    while True:
        batches.append(batch(dcmwalk, observer, seed))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            return batches


def arch_key(controller, mode):
    return f"{controller[:4]}_{mode[:3]}"


def outcome_summary(runs):
    counts = {o: sum(r.outcome == o for r in runs) for o in OUTCOMES}
    n = len(runs)
    return {
        "attempted": n,
        "outcomes": counts,
        "failed_share": sum(counts[o] for o in SOLVER_OUTCOMES) / n,
        "completed_share": counts["completed"] / n,
        "runs": [{"arch": arch_key(r.controller, r.mode), "velocity": r.velocity,
                  "seed": r.seed, "outcome": r.outcome, "cycles": r.cycles,
                  "control_ms.p5": percentile(r.control_ms, 5),
                  "reference_ms.p5": percentile(r.reference_ms, 5)}
                 for r in runs],
    }


def max_velocities(rows):
    return {f"max_velocity.{arch_key(r['SimplifiedModelControl'], r['WholeBodyQPControl'])}":
            float(r["MaxStraightVelocity"]) for r in rows}
