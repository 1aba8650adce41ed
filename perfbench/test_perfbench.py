"""Tests of the benchmark's own arithmetic and hook machinery.

Run from the repository root: python3 -m pytest perfbench
"""

import io
import json
import sys
import types
from pathlib import Path

import pytest

from layers import assign_cycles, harness_self_per_cycle, layer_metrics
from tracing import BENCH_PREFIX, Hook, Tracer, beyond, install, percentile
from workloads import RunRecord, classify, row_problems


def clock(*ticks):
    return iter(ticks).__next__


def test_percentile_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert percentile(values, 100) == 1000
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) is None


def test_beyond_counts_samples_above_the_percentile():
    values = list(range(1, 1001))
    assert beyond(values, 99) == 10
    assert beyond(values[::-1], 99) == 10
    assert beyond([1.0] * 50, 99) == 0
    assert beyond([], 99) == 0


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    t = Tracer(clock=clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = t.begin("root")
    a = t.begin("a")
    a1 = t.begin("a1")
    t.end(a1)
    t.end(a)
    b = t.begin("b")
    t.end(b)
    t.end(root)
    own = t.self_times()
    assert own[root] == 10 - 3 - 4
    assert own[a] == 3 - 1
    assert own[a1] == 1
    assert own[b] == 4
    assert t.parents == [-1, root, a, root]
    assert t.runs == [0, 0, 0, 0]


def test_bench_spans_leave_self_time_and_totals():
    # layer [0, 10] > work [1, 3], bench check [4, 8]
    t = Tracer(clock=clock(0, 1, 3, 4, 8, 10))
    layer = t.begin("layer")
    work = t.begin("work")
    t.end(work)
    check = t.begin(BENCH_PREFIX + "check")
    t.end(check)
    t.end(layer)
    assert t.self_times()[layer] == 10 - 2 - 4
    assert t.effective_durations()[layer] == 10 - 4
    assert t.effective_durations()[work] == 2


def test_root_spans_start_new_runs():
    t = Tracer(clock=clock(*range(8)))
    for _ in range(2):
        outer = t.begin("run")
        inner = t.begin("step")
        t.end(inner)
        t.end(outer)
    assert t.runs[:4] == [0, 0, 1, 1]


def test_out_of_order_end_is_an_error():
    t = Tracer(clock=clock(0, 1, 2))
    outer = t.begin("outer")
    t.begin("inner")
    with pytest.raises(RuntimeError):
        t.end(outer)


@pytest.mark.parametrize("fallen, error, outcome", [
    (False, None, "completed"),
    (True, None, "fell"),
    (False, "wholebody: whole-body QP failed: infeasible", "wholebody_solver"),
    (False, "mpc: QP solver failed to converge", "mpc_solver"),
    (True, "mpc: support polygon constraints are infeasible", "mpc_solver"),
    (False, "plant: something new", "unclassified"),
    (False, {"layer": "wholebody"}, "unclassified"),
])
def test_classify(fallen, error, outcome):
    assert classify(fallen, error) == outcome


def _record(controller, mode, velocity, outcome, control_ms=(), reference_ms=(1.0,)):
    return RunRecord(controller=controller, mode=mode, velocity=velocity, seed=0,
                     outcome=outcome, cycles=10, wall_s=0.1, dt=0.01,
                     control_ms=list(control_ms), period=10,
                     reference_ms=list(reference_ms), dcm_error_mm=0.0,
                     foot_error_mm=0.0)


def test_reference_units_cancel_host_speed_and_weigh_architectures_alike():
    from run import in_reference_units
    ramp = [1.0 + i / 100 for i in range(100)]
    pos = [_record("instantaneous", "position", v, "completed",
                   [2.0 * x for x in ramp], ramp) for v in (0.19, 0.37)]
    # The same architecture on a host twice as slow: the same figure.
    slow = [_record("instantaneous", "velocity", 0.19, "completed",
                    [16.0 * x for x in ramp], [2.0 * x for x in ramp])]
    failed = [_record("predictive", "position", 0.49, "wholebody_solver")]
    figures = in_reference_units(pos + slow + failed)
    # 2.0 and 8.0: geometric mean 4.0; runs without cycles are left out.
    assert figures["control_ref.p5"] == pytest.approx(4.0)
    assert figures["control_ref.period_mean_p5"] == pytest.approx(4.0, rel=0.05)
    assert figures["reference_ms.p5"] == pytest.approx(1.07)
    assert in_reference_units(failed)["control_ref.p5"] is None


def test_rows_must_cite_a_completed_velocity_or_zero():
    runs = [_record("instantaneous", "position", 0.19, "completed"),
            _record("instantaneous", "position", 0.37, "wholebody_solver")]
    row = {"SimplifiedModelControl": "instantaneous", "WholeBodyQPControl": "position"}
    assert row_problems([dict(row, MaxStraightVelocity=0.19)], runs) == []
    assert row_problems([dict(row, MaxStraightVelocity=0.0)], runs) == []
    assert len(row_problems([dict(row, MaxStraightVelocity=0.37)], runs)) == 1


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")

    def plain(x):
        return x + 1

    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        def method(self, x):
            return 2 * x

        @classmethod
        def build(cls, x):
            return cls, x

        @staticmethod
        def helper(x):
            return -x

    mod.plain = plain
    mod.Thing = Thing
    mod.value = 3
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_hooks_record_spans_and_restore_originals(fake_module):
    mod = fake_module
    Thing = mod.Thing
    originals = {"plain": mod.plain, "method": vars(Thing)["method"],
                 "build": vars(Thing)["build"], "helper": vars(Thing)["helper"]}
    seen = []
    hooks = [Hook("perfbench_fake.plain", "plain",
                  after=lambda t, i, a, k, r: seen.append((t.names[i], a, r))),
             Hook("perfbench_fake.Thing.method", "method"),
             Hook("perfbench_fake.Thing.build", "build"),
             Hook("perfbench_fake.Thing.helper", "helper"),
             Hook("perfbench_fake.Thing.inherited", "inherited")]
    tracer = Tracer()
    with install(hooks, tracer) as done:
        assert done.missing == []
        assert mod.plain(1) == 2
        assert Thing().method(3) == 6
        assert Thing.build(4) == (Thing, 4)
        assert Thing().helper(5) == -5
        assert Thing().inherited() == "base"
        assert "inherited" in vars(Thing)
    assert tracer.names == ["plain", "method", "build", "helper", "inherited"]
    assert seen == [("plain", (1,), 2)]
    assert mod.plain is originals["plain"]
    for name in ("method", "build", "helper"):
        assert vars(Thing)[name] is originals[name]
    assert "inherited" not in vars(Thing)
    assert Thing().inherited() == "base"


def test_before_runs_ahead_of_the_span(fake_module):
    tracer = Tracer()
    open_spans = []
    hook = Hook("perfbench_fake.plain", "plain",
                before=lambda: open_spans.append(len(tracer)))
    with install([hook], tracer):
        fake_module.plain(1)
        fake_module.plain(2)
    assert open_spans == [0, 1]
    assert tracer.names == ["plain", "plain"]


def test_observer_times_the_reference_every_few_cycles(monkeypatch):
    import workloads
    calls = []
    monkeypatch.setattr(workloads, "time_kernel",
                        lambda n: calls.append(n) or [1.0] * n)
    observer = workloads.RunObserver()
    assert [h.target for h in observer.hooks()] == ["dcmwalk.harness.run_scenario"]
    tick = observer.hooks(during=True)[1]
    assert tick.target == "dcmwalk.harness.realized_support_polygon"
    observer.calibrate()
    for _ in range(3 * workloads.REFERENCE_EVERY + 1):
        tick.before()
    assert calls == [workloads.REFERENCE_REPEATS, 1, 1, 1]
    assert len(observer._samples) == workloads.REFERENCE_REPEATS + 3


def test_missing_hook_warns_and_installs_the_rest(fake_module):
    warn = io.StringIO()
    hooks = [Hook("perfbench_fake.gone", "gone"),
             Hook("perfbench_fake.Thing.gone", "gone_method"),
             Hook("perfbench_no_such_module.f", "nomod"),
             Hook("perfbench_fake.value", "not_callable"),
             Hook("perfbench_fake.plain", "plain")]
    tracer = Tracer()
    with install(hooks, tracer, warn=warn) as done:
        assert done.missing == ["perfbench_fake.gone", "perfbench_fake.Thing.gone",
                                "perfbench_no_such_module.f", "perfbench_fake.value"]
        assert fake_module.plain(1) == 2
    assert warn.getvalue().count("warning") == 4
    assert tracer.names == ["plain"]
    assert fake_module.value == 3


def test_hooks_are_restored_when_the_call_raises(fake_module):
    original = fake_module.plain
    with pytest.raises(ZeroDivisionError):
        with install([Hook("perfbench_fake.plain", "plain")], Tracer()):
            1 / 0
    assert fake_module.plain is original


def _synthetic_trace():
    """Two runs of three cycles: set-up, then per cycle phase_at, marker,
    one cache build, one wholebody cycle holding a cache build."""
    ticks = iter(range(10_000))
    t = Tracer(clock=lambda: next(ticks))
    for _ in range(2):
        run = t.begin("harness.run")
        for name in ("kinematics.cache", "unicycle.build_gait"):
            t.end(t.begin(name))
        for _ in range(3):
            for name in ("unicycle.phase_at", "harness.realized_support"):
                t.end(t.begin(name))
            wb = t.begin("wholebody.cycle")
            t.end(t.begin("kinematics.cache"))
            t.end(wb)
            t.end(t.begin("kinematics.cache"))
        t.end(run)
    return t


def test_cycles_exclude_setup_and_count_exactly():
    t = _synthetic_trace()
    cycle_of, runs = assign_cycles(t)
    assert len(runs) == 2 and all(len(bounds) == 3 for _, _, bounds in runs)
    assert [cycle_of[i] for i in range(1, 5)] == [-1, -1, 0, 0]
    # Each cycle spans 10 ticks, 6 of them inside hooked calls; only the
    # middle cycle of each run is neither first nor last.
    assert harness_self_per_cycle(t, cycle_of, runs) == [4, 4]
    sources = {"harness.run": ["h.run"], "harness.realized_support": ["h.rs"],
               "kinematics.cache": ["h.kc", "w.kc"],
               "wholebody.cycle": ["w.cycle"], "unicycle.phase_at": ["u.pa"]}
    per = layer_metrics(t, sources, [], {"checked": 0, "count": 0, "worst": 0.0},
                        [], [])
    assert per["kinematics.cache.builds_per_cycle"]["value"] == 2.0
    assert per["unicycle.phase_at.calls_per_cycle"]["value"] == 1.0
    assert per["harness.self_ms.p50"]["value"] == 4e3


def test_metric_of_a_missing_hook_is_absent_not_zero():
    t = _synthetic_trace()
    sources = {"harness.realized_support": ["h.rs"],
               "kinematics.cache": ["h.kc", "w.kc"]}
    per = layer_metrics(t, sources, ["w.kc"], {"checked": None}, [], [])
    entry = per["kinematics.cache.builds_per_cycle"]
    assert entry["value"] is None and "w.kc" in entry["absent"]
    assert per["qp.kkt_violations"]["value"] is None
    per = layer_metrics(t, sources, ["h.rs"], {"checked": 0, "count": 0,
                                               "worst": 0.0}, [], [])
    assert per["lipm.step_us.p50"]["value"] is None
    assert "h.rs" in per["lipm.step_us.p50"]["absent"]


def test_metric_names_match_benchmark_json():
    import run
    spec_path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
