"""Closed-loop scenario runner: determinism, equilibria, falls, serialization."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk import harness, qp
from dcmwalk.control import SupportPolygon
from dcmwalk.dcm_planner import build_trajectory
from dcmwalk.harness import (NoiseModel, PlanTable, Push, Scenario, build_gait,
                             compare_architectures, fall_detector,
                             foot_rectangle, metrics_from_traces, run_scenario,
                             scenario_from_dict, support_polygon_at)
from dcmwalk.so3 import rot_z
from dcmwalk.unicycle import FootSide, PhaseKind, PlanInfeasibleError, UnicycleConfig
from dcmwalk.wholebody import TaskGains, WholeBodyController
from oracles import foot_reference_at
from test_dcm_planner import biped_omega


def quiet(**kw):
    kw.setdefault("noise", NoiseModel.none())
    kw.setdefault("duration", 3.0)
    return Scenario(**kw)


class TestStanding:
    def test_equilibrium_hold(self):
        result = run_scenario(quiet(forward_velocity=0.0))
        assert result.metrics["completed"]
        assert not result.metrics["fallen"]
        assert result.metrics["max_dcm_error"] < 1e-6

    def test_push_recovery(self):
        pushed = quiet(forward_velocity=0.0, duration=4.0,
                       pushes=(Push(time=1.5, impulse=np.array([0.1, 0.0])),))
        result = run_scenario(pushed)
        assert result.metrics["completed"]
        base = run_scenario(quiet(forward_velocity=0.0, duration=4.0))
        diff = np.abs(result.traces["xi_plant"] - base.traces["xi_plant"]).max()
        assert diff > 1e-3  # the push visibly perturbs the run

    def test_large_push_falls(self):
        pushed = quiet(forward_velocity=0.0, duration=4.0,
                       pushes=(Push(time=1.5, impulse=np.array([1.5, 0.0])),))
        result = run_scenario(pushed)
        assert result.metrics["fallen"]
        assert not result.metrics["completed"]


class TestDeterminism:
    def test_bitwise_repeatability(self):
        scenario = Scenario(forward_velocity=0.19, duration=5.0)
        a = run_scenario(scenario, seed=7)
        b = run_scenario(scenario, seed=7)
        for key in a.traces:
            if key == "cycle_time":
                continue  # wall-clock timing, not part of the dynamics
            assert np.array_equal(a.traces[key], b.traces[key]), key
        for key, val in a.metrics.items():
            if "cycle_time" not in key:
                assert b.metrics[key] == val, key

    def test_seed_changes_noisy_run(self):
        scenario = Scenario(forward_velocity=0.19, duration=5.0)
        a = run_scenario(scenario, seed=0)
        b = run_scenario(scenario, seed=1)
        assert np.abs(a.traces["xi_plant"] - b.traces["xi_plant"]).max() > 1e-6


class TestNoNoiseModeEquivalence:
    def test_position_velocity_traces_match(self):
        # Without noise the two command interfaces are algebraically the
        # same loop; they separate only through noise-excited feedback paths.
        base = dict(forward_velocity=0.19, duration=6.0,
                    noise=NoiseModel.none())
        pos = run_scenario(Scenario(mode="position", **base))
        vel = run_scenario(Scenario(mode="velocity", **base))
        assert pos.metrics["completed"] and vel.metrics["completed"]
        for key in ("xi_plant", "x_plant", "lf_real", "rf_real"):
            assert np.abs(pos.traces[key] - vel.traces[key]).max() < 1e-6


class TestFallDetector:
    def support(self):
        return foot_rectangle(np.zeros(2), 0.0)

    def test_nominal_not_fallen(self):
        assert not fall_detector(np.array([0.02, 0.0]), self.support(),
                                 com_height=0.43, z0=0.43, margin=0.3, height_fraction=0.5)

    def test_dcm_escape(self):
        assert fall_detector(np.array([0.5, 0.0]), self.support(),
                             com_height=0.43, z0=0.43, margin=0.3, height_fraction=0.5)
        # Same DCM tolerated with a larger margin: monotone in margin.
        assert not fall_detector(np.array([0.5, 0.0]), self.support(),
                                 com_height=0.43, z0=0.43, margin=0.5, height_fraction=0.5)

    def test_height_collapse(self):
        assert fall_detector(np.zeros(2), self.support(),
                             com_height=0.2, z0=0.43, margin=0.3, height_fraction=0.5)
        assert not fall_detector(np.zeros(2), self.support(),
                                 com_height=0.3, z0=0.43, margin=0.3, height_fraction=0.5)


class TestGaitAssembly:
    def test_lead_time_respected(self):
        scenario = Scenario(forward_velocity=0.19, duration=8.0, lead_time=1.0)
        steps, timeline = build_gait(scenario)
        moving = steps[2:]
        assert moving[0].impact_time >= scenario.lead_time
        assert abs(timeline.phases[0].t_start) < 1e-12

    def test_support_polygon_kinds(self):
        scenario = Scenario(forward_velocity=0.19, duration=8.0)
        _, timeline = build_gait(scenario)
        for ph in timeline.phases:
            mid = 0.5 * (ph.t_start + ph.t_end)
            poly = support_polygon_at(timeline, mid)
            assert isinstance(poly, SupportPolygon)
            if ph.kind is PhaseKind.SINGLE_SUPPORT:
                assert poly.violation(ph.feet[ph.stance_side].position) <= 1e-9
            else:
                for f in ph.feet.values():
                    assert poly.violation(f.position) <= 1e-9

    @pytest.mark.parametrize("controller, v, duration", [
        ("predictive", 0.37, 12.0), ("instantaneous", 0.19, 10.0), ("predictive", 0.49, 10.0)])
    def test_plan_table_matches_fresh_references(self, controller, v, duration):
        # Every row of a run's table against what the cycle built afresh:
        # the phase by phase_at, the DCM by traj.eval, each MPC window by
        # traj.dcm and support_polygon_at at the times the MPC uses, and
        # the feet and torso from the phase. The last windows run past the
        # plan's end, into its terminal segment and last phase.
        scenario = Scenario(controller=controller, forward_velocity=v, duration=duration)
        _, timeline = build_gait(scenario)
        traj = build_trajectory(timeline, biped_omega(), ds_ratio=scenario.ds_ratio)
        plan = PlanTable(scenario, timeline, traj)
        n = round(scenario.duration / scenario.dt)
        stride = round(scenario.mpc_period / scenario.dt)
        horizon = scenario.mpc_horizon
        assert len(plan.phases) == len(plan.feet) == len(plan.dcm) == len(plan.dcm_rate) == n
        samples = 0
        for k in range(n):
            t = k * scenario.dt
            phase = timeline.phase_at(t)
            assert plan.phases[k] is phase, t
            xi, xid = traj.eval(t)
            assert np.array_equal(plan.dcm[k], xi) and np.array_equal(plan.dcm_rate[k], xid), t
            *feet, torso = plan.feet[k]
            for side, ref in zip((FootSide.LEFT, FootSide.RIGHT), feet):
                got = (ref.position, ref.rotation, ref.linear_velocity, ref.angular_velocity)
                for a, b in zip(got, foot_reference_at(phase, t, side)):
                    assert np.array_equal(a, b), (t, side)
            mean_yaw = 0.5 * (phase.feet[FootSide.LEFT].yaw + phase.feet[FootSide.RIGHT].yaw)
            assert np.array_equal(torso, rot_z(mean_yaw)), t
            if controller != "predictive" or k % stride:
                continue
            times = [t + j * scenario.mpc_period for j in range(horizon + 1)]
            window = np.array([traj.dcm(s) for s in times])
            assert np.array_equal(plan.windows[k // stride], window), t
            assert len(plan.polygons[k // stride]) == horizon
            for s, got in zip(times, plan.polygons[k // stride]):
                want = support_polygon_at(timeline, s)
                for name in ("vertices", "A", "b"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (s, name)
            samples += 1
        if controller == "predictive":
            assert len(plan.windows) == len(plan.polygons) == samples
            # The last window's polygons reach past the last phase's start,
            # its DCM samples past the terminal segment's start.
            assert times[-2] > timeline.phases[-1].t_start and times[-1] > traj.t_end
        else:
            assert plan.windows is None and plan.polygons is None


class TestPredictiveWithoutLp:
    @pytest.mark.parametrize("mode", ["position", "velocity"])
    def test_walk_completes_without_phase1_or_polygon_rebuilds(self, mode, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("not expected in the control loop")
        monkeypatch.setattr(qp, "linprog", fail)
        monkeypatch.setattr(harness, "support_polygon_at", fail)
        result = run_scenario(Scenario(controller="predictive", mode=mode,
                                       forward_velocity=0.19, duration=3.0), seed=0)
        assert result.metrics["completed"], result.summary["error"]


@pytest.mark.parametrize("controller, other", [
    ("instantaneous", "PredictiveDcmController"), ("predictive", "InstantaneousDcmController")])
def test_run_builds_only_its_stabilizer(controller, other, monkeypatch):
    # A PI run builds no MPC (and so none of its fixed blocks), nor an MPC
    # run a PI stabilizer.
    def fail(*args, **kwargs):
        raise AssertionError(f"{other} built")
    monkeypatch.setattr(harness, other, fail)
    result = run_scenario(Scenario(controller=controller, forward_velocity=0.19,
                                   duration=1.0), seed=0)
    assert result.metrics["completed"], result.summary["error"]


class TestCycleMarker:
    @pytest.mark.parametrize("controller", ["instantaneous", "predictive"])
    def test_realized_support_once_per_cycle(self, controller, monkeypatch):
        # perfbench counts the calls of realized_support_polygon as cycles.
        calls = []
        realized = harness.realized_support_polygon

        def counted(*args):
            calls.append(args)
            return realized(*args)

        monkeypatch.setattr(harness, "realized_support_polygon", counted)
        result = run_scenario(Scenario(controller=controller, forward_velocity=0.19,
                                       duration=1.0), seed=0)
        assert result.metrics["completed"], result.summary["error"]
        assert len(calls) == len(result.traces["t"]) == 100


class TestMetrics:
    def test_recompute_matches_run(self):
        result = run_scenario(quiet(forward_velocity=0.0))
        again = metrics_from_traces(result.traces)
        for key, val in again.items():
            assert result.metrics[key] == val

    def test_empty_traces(self):
        m = metrics_from_traces({"t": []}, fallen=False, error="planner")
        assert m["failed"] and not m["completed"]


class TestSerialization:
    def test_dump_csv_expands_vectors(self, tmp_path):
        result = run_scenario(quiet(forward_velocity=0.0, duration=1.0))
        path = tmp_path / "run.csv"
        result.dump_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert "t" in header and "xi_plant_0" in header and "xi_plant_1" in header
        assert len(path.read_text().splitlines()) == len(result.traces["t"]) + 1

    def test_dump_summary_json(self, tmp_path):
        result = run_scenario(quiet(forward_velocity=0.0, duration=1.0))
        path = tmp_path / "summary.json"
        result.dump_summary(path)
        doc = json.loads(path.read_text())
        assert doc["controller"] == "instantaneous"
        assert doc["completed"] is True

    def test_scenario_from_dict_nested(self):
        scenario = scenario_from_dict({
            "controller": "predictive", "mode": "velocity",
            "forward_velocity": 0.19, "duration": 4.0,
            "noise": {"zmp_std": 0.0, "encoder_std": 0.0, "actuation_std": 0.0,
                      "velocity_lag": 0.0, "impact_ratio": 0.0},
            "pushes": [[1.0, [0.1, 0.0]]],
            "unicycle": {"max_step_length": 0.3},
        })
        assert scenario.controller == "predictive"
        assert scenario.noise == NoiseModel.none()
        assert scenario.pushes[0].time == 1.0
        assert isinstance(scenario.unicycle, UnicycleConfig)
        assert scenario.unicycle.max_step_length == 0.3
        assert scenario.unicycle.forward_velocity == 0.19

    @pytest.mark.parametrize("time, impulse", [
        (float("nan"), [0.3, 0.0]), (float("inf"), [0.3, 0.0]),
        (1.0, [float("nan"), 0.0]), (1.0, [0.0, -float("inf")])])
    def test_non_finite_push_rejected(self, time, impulse):
        # A NaN impulse used to end the run at the push as a config error;
        # a NaN time made the push never happen.
        with pytest.raises(ValueError, match="push time and impulse must be finite"):
            Push(time=time, impulse=impulse)
        with pytest.raises(ValueError, match="push"):
            scenario_from_dict({"pushes": [[time, impulse]]})

    @pytest.mark.parametrize("time", [-5.0, -1e-9, 10.0, 10.0 + 1e-9, 30.0])
    def test_push_outside_run_rejected(self, time):
        # A push at t = -5 used to act at t = 0, and one at t = 30 in a 10 s
        # run was dropped without a word. The last step of a 10 s run at
        # dt = 0.01 is at 9.99 s, so a push at 10 s never acts either.
        with pytest.raises(ValueError, match=r"push time .* is outside \[0, duration\]"):
            Scenario(duration=10.0, pushes=(Push(time=time, impulse=[0.1, 0.0]),))
        with pytest.raises(ValueError, match="outside"):
            scenario_from_dict({"duration": 10.0, "pushes": [[time, [0.1, 0.0]]]})

    @pytest.mark.parametrize("time", [0.0, 999 * 0.01])
    def test_push_at_run_endpoints_accepted(self, time):
        # The first and the last step of the run.
        push = Push(time=time, impulse=[0.1, 0.0])
        assert Scenario(duration=10.0, pushes=(push,)).pushes == (push,)
        assert scenario_from_dict(
            {"duration": 10.0, "pushes": [[time, [0.1, 0.0]]]}).pushes == (push,)

    def test_push_at_last_step_acts(self):
        # The run's last step is at (K - 1) dt; the push lands before the
        # pendulum steps, so the last recorded DCM moves.
        scenario = Scenario(forward_velocity=0.19, duration=1.0, noise=NoiseModel.none())
        last = 99 * scenario.dt
        pushed = run_scenario(dataclasses.replace(
            scenario, pushes=(Push(time=last, impulse=[0.3, 0.0]),)))
        plain = run_scenario(scenario)
        assert len(pushed.traces["t"]) == len(plain.traces["t"]) == 100
        assert pushed.traces["t"][-1] == last
        assert np.array_equal(pushed.traces["xi_plant"][:-1], plain.traces["xi_plant"][:-1])
        assert not np.array_equal(pushed.traces["xi_plant"][-1], plain.traces["xi_plant"][-1])

    def test_scenario_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            scenario_from_dict({"walk_speed": 0.2})

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(controller="fuzzy")
        with pytest.raises(ValueError):
            Scenario(mode="torque")
        with pytest.raises(ValueError):
            Scenario(dt=0.0)

    @pytest.mark.parametrize("mpc_period, dt", [(0.1, 0.01), (0.05, 0.01), (0.01, 0.01),
                                                (0.3, 0.1), (0.1 + 5e-11, 0.01)])
    def test_mpc_period_whole_multiple_of_dt_accepted(self, mpc_period, dt):
        Scenario(mpc_period=mpc_period, dt=dt)

    @pytest.mark.parametrize("mpc_period, dt", [(0.105, 0.01), (0.1 + 1e-8, 0.01),
                                                (0.004, 0.01), (0.0, 0.01),
                                                (-0.1, 0.01), (float("nan"), 0.01),
                                                (float("inf"), 0.01)])
    def test_mpc_period_not_a_multiple_of_dt_rejected(self, mpc_period, dt):
        # run_scenario would sample the MPC every round(mpc_period / dt)
        # cycles while the MPC models a period of mpc_period.
        with pytest.raises(ValueError, match="mpc_period"):
            Scenario(mpc_period=mpc_period, dt=dt)

    def test_fall_margin_nonnegative(self):
        Scenario(fall_margin=0.0)
        for margin in (-0.01, float("nan")):
            with pytest.raises(ValueError, match="fall_margin"):
                Scenario(fall_margin=margin)
        with pytest.raises(ValueError, match="fall_margin"):
            scenario_from_dict({"fall_margin": -0.3})

    @pytest.mark.parametrize("name, value", [
        ("duration", float("nan")), ("duration", float("inf")),
        ("fall_height_fraction", -0.1), ("fall_height_fraction", float("nan")),
        ("gain_blend_time", -1.0)])
    def test_invalid_run_bounds_rejected(self, name, value):
        # A non-finite duration hangs the footstep planner; a negative
        # height fraction ends every run as a fall, and NaN turns it off; a
        # negative blend time acted as 0.
        with pytest.raises(ValueError, match=name):
            Scenario(**{name: value})

    FLOAT_FIELDS = [f.name for f in dataclasses.fields(Scenario) if f.type is float]

    def test_float_fields_listed(self):
        assert len(self.FLOAT_FIELDS) == 21
        assert {"gain_blend_time", "dcm_kp", "k_zmp_walking", "apex", "mpc_q"} \
            <= set(self.FLOAT_FIELDS)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_number_rejected(self, name, value):
        # Before, a NaN gain or apex ended the run at cycle 0 as a solver
        # failure, and a NaN blend time acted as 0.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Scenario(**{name: value})


class TestNoiseModel:
    def test_none_is_all_zero(self):
        n = NoiseModel.none()
        assert (n.zmp_std, n.encoder_std, n.actuation_std,
                n.velocity_lag, n.impact_ratio) == (0, 0, 0, 0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["zmp_std", "encoder_std", "actuation_std",
                                      "velocity_lag", "impact_ratio"])
    def test_non_finite_rejected(self, name, value):
        # A NaN impact ratio used to end a run at the first touchdown with a
        # ValueError from the pendulum; a NaN standard deviation acted as 0.
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
            NoiseModel(**{name: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(zmp_std=-0.01)
        with pytest.raises(ValueError):
            NoiseModel(impact_ratio=1.0)


class TestTimedSection:
    """`cycle_time` covers the two control stages, from the simplified
    stage through the whole-body QP, and nothing of sense, plant or record.

    A fake clock advances only inside the patched calls, so the recorded
    times count the patched calls made inside the timed span.
    """

    def run(self, monkeypatch, controller, timed=()):
        clock = [0.0]

        def ticking(fn):
            def call(*args, **kwargs):
                clock[0] += 1.0
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
        # Sense stage, plant stage (pendulum step, kinematics, fall check).
        for owner, name in [(harness, "realized_support_polygon"), (harness.Plant, "step"),
                            (harness, "KinematicsCache"), (harness, "fall_detector"),
                            *timed]:
            monkeypatch.setattr(owner, name, ticking(getattr(owner, name)))
        result = run_scenario(Scenario(controller=controller, forward_velocity=0.19,
                                       duration=1.0), seed=0)
        assert result.metrics["completed"]
        assert clock[0] > 4 * len(result.traces["t"])  # the stages did tick
        return result.traces["cycle_time"]

    @pytest.mark.parametrize("controller", ["instantaneous", "predictive"])
    def test_sense_and_plant_are_untimed(self, monkeypatch, controller):
        assert np.all(self.run(monkeypatch, controller) == 0.0)

    @pytest.mark.parametrize("controller", ["instantaneous", "predictive"])
    def test_wholebody_cycle_is_timed(self, monkeypatch, controller):
        times = self.run(monkeypatch, controller, [(WholeBodyController, "cycle")])
        assert np.all(times == 1.0)

    @pytest.mark.parametrize("controller", ["instantaneous", "predictive"])
    def test_simplified_stage_is_timed(self, monkeypatch, controller):
        times = self.run(monkeypatch, controller, [(harness._SimplifiedLayer, "control")])
        assert np.all(times == 1.0)


class TestUnicycleBlock:
    """A `unicycle` block sets the step bounds; the velocities stay the
    scenario's own."""

    DOC = {"forward_velocity": 0.19, "duration": 4.0, "unicycle": {"max_step_length": 0.2}}

    def test_block_keeps_the_commanded_velocity(self):
        scenario = scenario_from_dict(self.DOC)
        assert scenario.unicycle.forward_velocity == 0.19
        assert scenario.unicycle.max_step_length == 0.2
        steps, _ = build_gait(scenario)
        assert len(steps) > 4
        strides = [np.linalg.norm(b.position - a.position)
                   for a, b in zip(steps, steps[2:])]
        assert max(strides) <= 0.2

    def test_block_bounds_apply_at_the_commanded_velocity(self):
        scenario = scenario_from_dict({**self.DOC, "forward_velocity": 0.3})
        with pytest.raises(PlanInfeasibleError, match="max_step_length"):
            build_gait(scenario)

    @pytest.mark.parametrize("key", ["forward_velocity", "angular_velocity"])
    def test_velocity_inside_block_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            scenario_from_dict({"unicycle": {key: 0.1}})

    def test_compare_keeps_block(self, monkeypatch):
        seen = []

        def fake_run(scenario, seed=0, model=None):
            seen.append(scenario)
            return SimpleNamespace(metrics={"completed": True})

        monkeypatch.setattr(harness, "run_scenario", fake_run)
        compare_architectures(scenario_from_dict(self.DOC), [0.1, 0.25], model=object())
        assert len(seen) == 8
        for scenario in seen:
            assert scenario.unicycle.max_step_length == 0.2
            assert scenario.unicycle.forward_velocity == scenario.forward_velocity


def as_doc(scenario):
    """The flat config mapping `scenario_from_dict` reads back as `scenario`."""
    doc = {}
    for f in dataclasses.fields(scenario):
        value = getattr(scenario, f.name)
        if f.name == "pushes":
            doc[f.name] = [[p.time, p.impulse.tolist()] for p in value]
        elif f.name == "unicycle":
            doc[f.name] = {k: v for k, v in dataclasses.asdict(value).items()
                           if k not in ("forward_velocity", "angular_velocity")}
        elif dataclasses.is_dataclass(value):
            doc[f.name] = dataclasses.asdict(value)
        else:
            doc[f.name] = value
    return doc


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


NOISE_DOCS = st.fixed_dictionaries({}, optional={
    "zmp_std": floats(0.0, 0.01), "encoder_std": floats(0.0, 0.01),
    "actuation_std": floats(0.0, 0.01), "velocity_lag": floats(0.0, 0.2),
    "impact_ratio": floats(0.0, 0.9)})
PUSH_DOCS = st.lists(st.tuples(floats(0.0, 10.0), floats(-1.0, 1.0), floats(-1.0, 1.0))
                     .map(lambda p: [p[0], [p[1], p[2]]]), max_size=3)
UNICYCLE_DOCS = st.fixed_dictionaries({}, optional={
    "min_step_duration": floats(0.2, 0.45), "max_step_duration": floats(0.5, 1.5),
    "min_step_length": floats(0.001, 0.05), "max_step_length": floats(0.1, 0.5),
    "max_feet_yaw": floats(0.1, 0.6), "feet_spacing": floats(0.1, 0.25),
    "sampling_dt": floats(0.005, 0.02)})
TASK_GAIN_DOCS = st.fixed_dictionaries({}, optional={
    "torso_weight": floats(0.5, 10.0).map(lambda w: (w * np.eye(3)).tolist()),
    "postural_weight": floats(0.1, 5.0), "foot_position_gain": floats(1.0, 20.0),
    "com_integral_gain": floats(0.0, 1.0), "integral_bound": floats(0.01, 0.1)})
SCENARIO_DOCS = st.fixed_dictionaries({}, optional={
    "controller": st.sampled_from(["instantaneous", "predictive"]),
    "mode": st.sampled_from(["position", "velocity"]),
    "forward_velocity": floats(-0.5, 0.5), "angular_velocity": floats(-0.3, 0.3),
    "duration": floats(0.5, 20.0), "dcm_kp": floats(1.1, 5.0),
    "mpc_horizon": st.integers(1, 30), "fall_margin": floats(0.0, 1.0),
    "noise": NOISE_DOCS, "pushes": PUSH_DOCS, "unicycle": UNICYCLE_DOCS,
    "task_gains": TASK_GAIN_DOCS}).filter(   # a valid push lies in [0, last step]
        lambda doc: all(p[0] <= (round(doc.get("duration", Scenario.duration) / Scenario.dt)
                                 - 1) * Scenario.dt + 1e-12
                        for p in doc.get("pushes", ())))


class TestScenarioFromDict:
    def test_arrays_compare_by_value(self):
        # `TaskGains.torso_weight` and `Push.impulse` are arrays.
        def scenario(weight=2.0, impulse=0.1):
            return Scenario(task_gains=TaskGains(torso_weight=weight * np.eye(3)),
                            pushes=(Push(time=1.0, impulse=[impulse, 0.0]),))

        assert Scenario() == Scenario()
        assert scenario() == scenario()
        assert scenario() != scenario(weight=3.0)
        assert scenario() != scenario(impulse=0.2)
        assert TaskGains() != TaskGains(foot_position_gain=9.0)

    @settings(max_examples=80, deadline=None)
    @given(doc=SCENARIO_DOCS)
    def test_round_trip(self, doc):
        scenario = scenario_from_dict(doc)
        for key, value in doc.items():
            if key == "noise":
                assert scenario.noise == NoiseModel(**value)
            elif key == "pushes":
                assert [(p.time, p.impulse.tolist()) for p in scenario.pushes] \
                    == [(t, list(impulse)) for t, impulse in value]
            elif key in ("unicycle", "task_gains"):
                block = getattr(scenario, key)
                for name, v in value.items():
                    assert np.array_equal(getattr(block, name), v), name
            else:
                assert getattr(scenario, key) == value, key
        assert scenario.unicycle.forward_velocity == scenario.forward_velocity
        assert scenario.unicycle.angular_velocity == scenario.angular_velocity
        assert scenario_from_dict(as_doc(scenario)) == scenario

    @settings(max_examples=40, deadline=None)
    @given(doc=SCENARIO_DOCS,
           key=st.text(min_size=1).filter(lambda k: k not in Scenario.__dataclass_fields__))
    def test_unknown_key_raises(self, doc, key):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            scenario_from_dict({**doc, key: 1.0})

    @settings(max_examples=40, deadline=None)
    @given(doc=SCENARIO_DOCS, v=floats(-0.5, 0.5))
    def test_replace_velocity_keeps_block(self, doc, v):
        scenario = scenario_from_dict(doc)
        moved = dataclasses.replace(scenario, forward_velocity=v)
        assert moved.unicycle == dataclasses.replace(scenario.unicycle, forward_velocity=v)
        assert dataclasses.replace(moved, unicycle=None) \
            == dataclasses.replace(scenario, forward_velocity=v, unicycle=None)

