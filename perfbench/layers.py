"""Traced pass: the hooks on each layer and the per-layer metrics.

Every hook patches a name where its caller looks it up, so the program is
measured as it is, from outside. A cycle is the stretch of a run between two
calls of `harness.realized_support_polygon`, which the harness makes once
per cycle; the direct `phase_at` call that opens the first cycle is moved
into it, so per-cycle counts are exact.
"""

import bisect
import math
import sys

from tracing import BENCH_PREFIX, Hook, percentile
from workloads import KKT_BOUND

RUN = "harness.run"
MARKER = "harness.realized_support"


def _qp_after(kkt_residuals, violations):
    def after(tracer, index, args, kwargs, sol):
        status = getattr(sol.status, "value", str(sol.status))
        tracer.attrs[index] = {"status": status, "iterations": int(sol.iterations)}
        if status != "optimal" or kkt_residuals is None:
            return
        problem = kwargs["problem"] if "problem" in kwargs else args[1]
        i = tracer.begin(BENCH_PREFIX + "kkt")
        try:
            worst = max(kkt_residuals(problem, sol).values())
        finally:
            tracer.end(i)
        violations["checked"] += 1
        violations["worst"] = max(violations["worst"], worst)
        if not worst <= KKT_BOUND:
            violations["count"] += 1
    return after


def _wholebody_after(tracer, index, args, kwargs, result):
    _, diag = result
    tracer.attrs[index] = {"fallback": bool(diag.get("fallback", False))}


def hooks(dcmwalk, violations):
    """Hooks for the traced pass (the run observer is added separately)."""
    kkt = getattr(getattr(dcmwalk, "qp", None), "kkt_residuals", None)
    if kkt is None:
        print("warning: dcmwalk.qp.kkt_residuals is missing; "
              "qp.kkt_violations is absent", file=sys.stderr)
        violations["checked"] = None
    return [
        Hook("dcmwalk.harness.build_gait", "unicycle.build_gait"),
        Hook("dcmwalk.dcm_planner.build_trajectory", "dcm_planner.build"),
        Hook("dcmwalk.harness.realized_support_polygon", MARKER),
        Hook("dcmwalk.harness.fall_detector", "harness.fall_detector"),
        Hook("dcmwalk.harness.support_polygon_at", "harness.support_polygon_at"),
        Hook("dcmwalk.harness.Plant.step", "lipm.step"),
        Hook("dcmwalk.harness.KinematicsCache", "kinematics.cache"),
        Hook("dcmwalk.wholebody.KinematicsCache", "kinematics.cache"),
        Hook("dcmwalk.unicycle.GaitTimeline.phase_at", "unicycle.phase_at"),
        Hook("dcmwalk.dcm_planner.DcmTrajectory.eval", "dcm_planner.eval"),
        Hook("dcmwalk.dcm_planner.DcmTrajectory.dcm", "dcm_planner.dcm"),
        Hook("dcmwalk.control.InstantaneousDcmController.control", "control.pi"),
        Hook("dcmwalk.control.PredictiveDcmController.control", "control.mpc"),
        Hook("dcmwalk.control.PredictiveDcmController.assemble", "control.mpc_assemble"),
        Hook("dcmwalk.control.SupportPolygon.from_points", "control.hull"),
        Hook("dcmwalk.wholebody.WholeBodyController.cycle", "wholebody.cycle",
             after=_wholebody_after),
        Hook("dcmwalk.wholebody.build_wholebody_qp", "wholebody.assemble"),
        Hook("dcmwalk.qp.QpSolver.solve", "qp.solve",
             after=_qp_after(kkt, violations)),
        Hook("dcmwalk.qp.linprog", "qp.phase1"),
    ]


def span_sources(hook_list):
    """Span name -> hook targets that record it."""
    sources = {}
    for h in hook_list:
        sources.setdefault(h.span, []).append(h.target)
    return sources


def assign_cycles(tracer):
    """Cycle index of every span (-1: run set-up, None: outside any run) and
    the start time of each cycle, per run."""
    names, starts = tracer.names, tracer.starts
    kids = tracer.children()
    roots = [i for i in kids[-1] if names[i] == RUN]
    cycle_of = [None] * len(tracer)
    runs = []
    for r, root in enumerate(roots):
        stop = roots[r + 1] if r + 1 < len(roots) else len(tracer)
        direct = kids.get(root, [])
        pos = [j for j, i in enumerate(direct) if names[i] == MARKER]
        bounds = [starts[direct[j]] for j in pos]
        if pos and pos[0] > 0 and names[direct[pos[0] - 1]] == "unicycle.phase_at":
            bounds[0] = starts[direct[pos[0] - 1]]
        for i in range(root + 1, stop):
            cycle_of[i] = bisect.bisect_right(bounds, starts[i]) - 1
        runs.append((root, direct, bounds))
    return cycle_of, runs


def harness_self_per_cycle(tracer, cycle_of, runs):
    """Run-span time per cycle not spent in a hooked call, for every cycle
    but the first (warm-up) and the last (ends with the run's teardown)."""
    out = []
    for root, direct, bounds in runs:
        busy = [0.0] * len(bounds)
        for i in direct:
            k = cycle_of[i]
            if k is not None and k >= 0:
                busy[k] += tracer.duration(i)
        edges = bounds + [tracer.ends[root]]
        for k in range(1, len(bounds) - 1):
            out.append(edges[k + 1] - edges[k] - busy[k])
    return out


def caller_of(tracer, i):
    """'wb' or 'mpc': the layer whose call led to span i."""
    p = tracer.parents[i]
    while p >= 0:
        if tracer.names[p] == "wholebody.cycle":
            return "wb"
        if tracer.names[p] == "control.mpc":
            return "mpc"
        p = tracer.parents[p]
    return "other"


def _p(values, q, scale=1.0):
    v = percentile(values, q)
    return None if v is None else v * scale


def _ratio(num, den):
    return None if not den else num / den


def layer_metrics(tracer, sources, missing, violations, untraced_runs, traced_runs):
    """Per-layer metrics by name: (value, unit); value None means absent."""
    names = tracer.names
    cycle_of, runs = assign_cycles(tracer)
    eff = tracer.effective_durations()
    own = tracer.self_times()
    n_cycles = sum(len(b) for _, _, b in runs)
    in_cycle = {}
    every = {}
    for i, name in enumerate(names):
        every.setdefault(name, []).append(i)
        if cycle_of[i] is not None and cycle_of[i] >= 0:
            in_cycle.setdefault(name, []).append(i)

    def spans(name, cycles_only=True):
        return (in_cycle if cycles_only else every).get(name, [])

    def dur(name, cycles_only=True):
        return [eff[i] for i in spans(name, cycles_only)]

    def per_cycle(count):
        return _ratio(count, n_cycles)

    qp = {c: [i for i in spans("qp.solve") if caller_of(tracer, i) == c]
          for c in ("wb", "mpc")}
    phase1 = {c: [i for i in spans("qp.phase1") if caller_of(tracer, i) == c]
              for c in ("wb", "mpc")}
    evals = [i for i in spans("dcm_planner.eval") + spans("dcm_planner.dcm")
             if tracer.parents[i] < 0
             or not names[tracer.parents[i]].startswith("dcm_planner.")]
    mpc_calls = len(spans("control.mpc"))
    spa = spans("harness.support_polygon_at")
    archs = {(r.controller, r.mode) for r in traced_runs}

    m = {}

    def put(name, unit, needs, value, cycles=True):
        # Per-cycle figures also need the cycle marker.
        m[name] = (value, unit, needs + [MARKER] if cycles else needs)

    put("harness.self_ms.p50", "ms", [RUN, MARKER] + list(sources),
        _p(harness_self_per_cycle(tracer, cycle_of, runs), 50, 1e3))
    put("harness.realized_support_us.p50", "us", [MARKER], _p(dur(MARKER), 50, 1e6))
    put("harness.fall_detector_us.p50", "us", ["harness.fall_detector"],
        _p(dur("harness.fall_detector"), 50, 1e6))
    spa_needs = ["harness.support_polygon_at", "control.mpc"]
    put("harness.support_polygon_at.calls_per_mpc", "count", spa_needs,
        _ratio(len(spa), mpc_calls))
    put("harness.support_polygon_at.ms_per_mpc", "ms", spa_needs,
        _ratio(1e3 * sum(eff[i] for i in spa), mpc_calls))
    put("harness.support_polygon_at.calls_per_cycle", "count", spa_needs[:1],
        per_cycle(len(spa)))
    put("harness.support_polygon_at.ms_per_cycle", "ms", spa_needs[:1],
        per_cycle(1e3 * sum(eff[i] for i in spa)))
    warm = [(c, r.dt) for r in untraced_runs for c in r.control_ms]
    put("harness.overrun_share", "ratio", [],
        _ratio(sum(c > 1e3 * dt for c, dt in warm), len(warm)), cycles=False)
    put("harness.runs_per_arch", "count", [],
        _ratio(len(traced_runs), len(archs)), cycles=False)

    put("lipm.step_us.p50", "us", ["lipm.step"], _p(dur("lipm.step"), 50, 1e6))
    put("unicycle.build_gait_ms", "ms", ["unicycle.build_gait"],
        _p(dur("unicycle.build_gait", False), 50, 1e3), cycles=False)
    put("unicycle.phase_at.calls_per_cycle", "count", ["unicycle.phase_at"],
        per_cycle(len(spans("unicycle.phase_at"))))
    put("dcm_planner.build_ms", "ms", ["dcm_planner.build"],
        _p(dur("dcm_planner.build", False), 50, 1e3), cycles=False)
    put("dcm_planner.eval.calls_per_cycle", "count",
        ["dcm_planner.eval", "dcm_planner.dcm"], per_cycle(len(evals)))

    put("control.pi_us.p50", "us", ["control.pi"], _p(dur("control.pi"), 50, 1e6))
    put("control.pi_us_per_cycle", "us", ["control.pi"],
        per_cycle(1e6 * sum(dur("control.pi"))))
    put("control.mpc_ms.p50", "ms", ["control.mpc"], _p(dur("control.mpc"), 50, 1e3))
    put("control.mpc_ms.p99", "ms", ["control.mpc"], _p(dur("control.mpc"), 99, 1e3))
    put("control.mpc_ms_per_cycle", "ms", ["control.mpc"],
        per_cycle(1e3 * sum(dur("control.mpc"))))
    put("control.mpc_assemble_ms.p50", "ms", ["control.mpc_assemble"],
        _p(dur("control.mpc_assemble"), 50, 1e3))
    put("control.mpc_assemble_ms_per_cycle", "ms", ["control.mpc_assemble"],
        per_cycle(1e3 * sum(dur("control.mpc_assemble"))))
    put("control.hull.calls_per_cycle", "count", ["control.hull"],
        per_cycle(len(spans("control.hull"))))
    put("control.hull_us_per_cycle", "us", ["control.hull"],
        per_cycle(1e6 * sum(dur("control.hull"))))

    for c in ("wb", "mpc"):
        idx = qp[c]
        times = [eff[i] for i in idx]
        iters = [tracer.attrs[i]["iterations"] for i in idx if i in tracer.attrs]
        statuses = [tracer.attrs[i]["status"] for i in idx if i in tracer.attrs]
        needs = ["qp.solve", "wholebody.cycle" if c == "wb" else "control.mpc"]
        put(f"qp.{c}.solve_ms.p50", "ms", needs, _p(times, 50, 1e3))
        put(f"qp.{c}.solve_ms.p99", "ms", needs, _p(times, 99, 1e3))
        put(f"qp.{c}.solve_ms_per_cycle", "ms", needs, per_cycle(1e3 * sum(times)))
        put(f"qp.{c}.solves_per_cycle", "count", needs, per_cycle(len(idx)))
        put(f"qp.{c}.iterations.p50", "count", needs, _p(iters, 50))
        put(f"qp.{c}.iterations.max", "count", needs, max(iters, default=0))
        for s in ("optimal", "infeasible", "max_iter"):
            put(f"qp.{c}.status.{s}", "count", needs, statuses.count(s))
        put(f"qp.{c}.phase1.calls_per_solve", "count", needs + ["qp.phase1"],
            _ratio(len(phase1[c]), len(idx)))
    put("qp.phase1_ms.p50", "ms", ["qp.phase1"], _p(dur("qp.phase1"), 50, 1e3))
    put("qp.phase1.calls_per_cycle", "count", ["qp.phase1"],
        per_cycle(len(spans("qp.phase1"))))
    put("qp.phase1_ms_per_cycle", "ms", ["qp.phase1"],
        per_cycle(1e3 * sum(dur("qp.phase1"))))
    checked = violations["checked"]
    put("qp.kkt_violations", "count", ["qp.solve"],
        None if checked is None else violations["count"], cycles=False)
    put("qp.kkt_worst", "1", ["qp.solve"],
        None if not checked else violations["worst"], cycles=False)

    put("kinematics.cache.builds_per_cycle", "count", ["kinematics.cache"],
        per_cycle(len(spans("kinematics.cache"))))
    put("kinematics.cache_us.p50", "us", ["kinematics.cache"],
        _p(dur("kinematics.cache"), 50, 1e6))

    put("wholebody.cycle_ms.p50", "ms", ["wholebody.cycle"],
        _p(dur("wholebody.cycle"), 50, 1e3))
    put("wholebody.cycle_ms.p99", "ms", ["wholebody.cycle"],
        _p(dur("wholebody.cycle"), 99, 1e3))
    put("wholebody.self_ms.p50", "ms", ["wholebody.cycle"] + list(sources),
        _p([own[i] for i in spans("wholebody.cycle")], 50, 1e3))
    put("wholebody.assemble_ms.p50", "ms", ["wholebody.assemble"],
        _p(dur("wholebody.assemble"), 50, 1e3))
    put("wholebody.fallback.count", "count", ["wholebody.cycle"],
        sum(tracer.attrs.get(i, {}).get("fallback", False)
            for i in spans("wholebody.cycle", False)), cycles=False)

    untraced_cps = _ratio(sum(r.cycles for r in untraced_runs),
                          sum(r.wall_s for r in untraced_runs))
    traced_cps = _ratio(sum(r.cycles for r in traced_runs),
                        sum(r.wall_s for r in traced_runs))
    put("trace.overhead_share", "ratio", [],
        None if not traced_cps or untraced_cps is None
        else untraced_cps / traced_cps - 1.0, cycles=False)

    out = {}
    for name, (value, unit, needs) in m.items():
        lost = list(dict.fromkeys(t for n in needs for t in sources.get(n, ())
                                  if t in missing))
        if lost or value is None or (isinstance(value, float) and math.isnan(value)):
            out[name] = {"value": None, "unit": unit,
                         "absent": ("hook missing: " + ", ".join(lost)) if lost
                         else "no samples on this workload"}
        else:
            out[name] = {"value": value, "unit": unit}
    return out
