"""Footstep planning, swing interpolation and gait timeline bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk.harness import Scenario, build_gait
from dcmwalk.unicycle import (Footstep, FootSide, GaitPhase, GaitTimeline, PhaseKind,
                              PlanInfeasibleError, UnicycleConfig, plan_footsteps,
                              swing_trajectory, timeline_from_footsteps)
from oracles import phase_at_scan, swing_pose_plain


def make_feet(spacing=0.14):
    return (Footstep(FootSide.LEFT, np.array([0.0, spacing / 2]), 0.0, 0.0),
            Footstep(FootSide.RIGHT, np.array([0.0, -spacing / 2]), 0.0, 0.0))


class TestPlanFootsteps:
    def test_stationary_command(self):
        plan = plan_footsteps(UnicycleConfig(), make_feet(), 5.0)
        assert len(plan) == 2
        assert {s.side for s in plan} == {FootSide.LEFT, FootSide.RIGHT}

    def test_forward_bounds_and_yaw(self):
        cfg = UnicycleConfig(forward_velocity=0.1, max_step_length=0.2)
        plan = plan_footsteps(cfg, make_feet(), 8.0)
        assert len(plan) > 2
        last = {s.side: s for s in plan[:2]}
        for s in plan[2:]:
            stride = np.linalg.norm(s.position - last[s.side].position)
            assert cfg.min_step_length <= stride <= cfg.max_step_length + 1e-12
            assert abs(s.yaw) < 1e-12
            last[s.side] = s

    def test_turning_constraint_audit(self):
        cfg = UnicycleConfig(forward_velocity=0.15, angular_velocity=0.2)
        plan = plan_footsteps(cfg, make_feet(), 8.0)
        last = {s.side: s for s in plan[:2]}
        for s in plan[2:]:
            stance = last[s.side.other]
            dyaw = (s.yaw - stance.yaw + np.pi) % (2 * np.pi) - np.pi
            assert abs(dyaw) <= cfg.max_feet_yaw + 1e-12
            last[s.side] = s

    def test_alternating_sides_and_increasing_times(self):
        cfg = UnicycleConfig(forward_velocity=0.2)
        plan = plan_footsteps(cfg, make_feet(), 8.0)
        moving = plan[2:]
        for a, b in zip(moving, moving[1:]):
            assert a.side is not b.side
            assert b.impact_time > a.impact_time
        durations = np.diff([0.0] + [s.impact_time for s in moving])
        assert np.all(durations >= cfg.min_step_duration - 1e-12)
        assert np.all(durations <= cfg.max_step_duration + 1e-12)

    def test_feet_never_cross(self):
        cfg = UnicycleConfig(forward_velocity=0.2, angular_velocity=0.1)
        plan = plan_footsteps(cfg, make_feet(), 8.0)
        last = {s.side: s for s in plan[:2]}
        for s in plan[2:]:
            stance = last[s.side.other]
            # Lateral coordinate of the new foot in the stance-foot frame.
            d = s.position - stance.position
            lat = -np.sin(stance.yaw) * d[0] + np.cos(stance.yaw) * d[1]
            if s.side is FootSide.LEFT:
                assert lat > 0.05
            else:
                assert lat < -0.05
            last[s.side] = s

    def test_too_fast_rejected(self):
        cfg = UnicycleConfig(forward_velocity=2.0)
        with pytest.raises(PlanInfeasibleError) as exc:
            plan_footsteps(cfg, make_feet(), 5.0)
        assert exc.value.violated_bound == "max_step_length"

    def test_determinism_bitwise(self):
        cfg = UnicycleConfig(forward_velocity=0.19, angular_velocity=0.05)
        a = plan_footsteps(cfg, make_feet(), 8.0)
        b = plan_footsteps(cfg, make_feet(), 8.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.side is y.side
            assert np.array_equal(x.position, y.position)
            assert x.yaw == y.yaw and x.impact_time == y.impact_time

    def test_coincident_feet_rejected(self):
        feet = (Footstep(FootSide.LEFT, np.zeros(2), 0.0, 0.0),
                Footstep(FootSide.RIGHT, np.zeros(2), 0.0, 0.0))
        with pytest.raises(ValueError):
            plan_footsteps(UnicycleConfig(forward_velocity=0.1), feet, 5.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, horizon):
        # min(t, nan) drops the NaN, so the step loop would never end.
        with pytest.raises(ValueError, match="horizon"):
            plan_footsteps(UnicycleConfig(forward_velocity=0.1), make_feet(), horizon)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["forward_velocity", "angular_velocity",
                                      "min_step_duration", "max_step_duration",
                                      "min_step_length", "max_step_length", "max_feet_yaw",
                                      "feet_spacing", "sampling_dt"])
    def test_non_finite_config_rejected(self, name, value):
        # Before, a NaN yaw bound or an infinite step bound acted as no bound,
        # and a NaN spacing or sampling step failed deep in the planner.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            UnicycleConfig(**{name: value})


class TestSwingTrajectory:
    def test_boundary_conditions(self):
        a = Footstep(FootSide.LEFT, np.array([0.0, 0.07]), 0.0, 0.0)
        b = Footstep(FootSide.LEFT, np.array([0.2, 0.07]), 0.3, 1.0)
        tr = swing_trajectory(a, b, (0.0, 0.6), apex=0.03)
        p0, yaw0, v0, w0 = tr.pose(0.0)
        p1, yaw1, v1, w1 = tr.pose(0.6)
        assert np.allclose(p0, [0.0, 0.07, 0.0], atol=1e-12)
        assert np.allclose(p1, [0.2, 0.07, 0.0], atol=1e-12)
        assert abs(yaw0) < 1e-12 and abs(yaw1 - 0.3) < 1e-12
        assert np.allclose(v0, 0, atol=1e-12) and np.allclose(v1, 0, atol=1e-12)
        assert abs(w0) < 1e-12 and abs(w1) < 1e-12

    def test_apex_at_midswing(self):
        a = Footstep(FootSide.LEFT, np.zeros(2), 0.0, 0.0)
        tr = swing_trajectory(a, a, (0.0, 0.5), apex=0.03)
        assert abs(tr.pose(0.25)[0][2] - 0.03) < 1e-12
        ts = np.linspace(0, 0.5, 101)
        assert max(tr.pose(t)[0][2] for t in ts) <= 0.03 + 1e-12

    def test_midpoint_symmetry(self):
        a = Footstep(FootSide.LEFT, np.zeros(2), 0.0, 0.0)
        b = Footstep(FootSide.LEFT, np.array([0.2, 0.0]), 0.0, 1.0)
        tr = swing_trajectory(a, b, (0.0, 0.4))
        assert abs(tr.pose(0.2)[0][0] - 0.1) < 1e-12

    def test_coefficients_match_linear_solve(self):
        # Independent 4x4 solve of the Hermite boundary conditions per axis.
        a = Footstep(FootSide.LEFT, np.array([0.03, -0.02]), 0.1, 0.0)
        b = Footstep(FootSide.LEFT, np.array([0.21, 0.05]), -0.2, 1.0)
        T = 0.7
        tr = swing_trajectory(a, b, (0.0, T))
        for axis in range(2):
            M = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                          [1, T, T**2, T**3], [0, 1, 2 * T, 3 * T**2]], dtype=float)
            rhs = np.array([a.position[axis], 0.0, b.position[axis], 0.0])
            coeffs = np.linalg.solve(M, rhs)
            assert np.allclose(tr.coeffs_xy[axis], coeffs, atol=1e-12)

    def test_c1_inside_interval(self):
        a = Footstep(FootSide.LEFT, np.zeros(2), 0.0, 0.0)
        b = Footstep(FootSide.LEFT, np.array([0.15, 0.03]), 0.2, 1.0)
        tr = swing_trajectory(a, b, (0.0, 0.5))
        ts = np.linspace(1e-4, 0.5 - 1e-4, 400)
        prev_p = tr.pose(ts[0])[0]
        for t0, t1 in zip(ts, ts[1:]):
            p0, _, v0, _ = tr.pose(t0)
            p1 = tr.pose(t1)[0]
            # Finite-difference velocity matches the analytic one.
            assert np.linalg.norm((p1 - p0) / (t1 - t0) - v0) < 5e-3

    def test_pose_equals_plain_cubics_across_swing(self):
        # Bit for bit on a grid across the lift and the descent.
        a = Footstep(FootSide.LEFT, np.array([0.1, -0.05]), 0.2, 0.0)
        b = Footstep(FootSide.LEFT, np.array([0.35, 0.02]), -0.4, 1.0)
        tr = swing_trajectory(a, b, (1.3, 1.75), apex=0.04)
        for t in np.linspace(1.2, 1.85, 131):
            for g, w in zip(tr.pose(t), swing_pose_plain(tr, t)):
                assert np.array_equal(g, w), t

    @settings(max_examples=200, deadline=None)
    @given(xy=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           yaws=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
           t_start=st.floats(0.0, 20.0), duration=st.floats(0.05, 2.0),
           apex=st.floats(1e-3, 0.1), u=st.floats(-0.5, 1.5))
    def test_pose_equals_reference_formula(self, xy, yaws, t_start, duration, apex, u):
        # Bit for bit, before, inside and after the swing and at mid-swing.
        a = Footstep(FootSide.LEFT, np.array(xy[:2]), yaws[0], 0.0)
        b = Footstep(FootSide.LEFT, np.array(xy[2:]), yaws[1], 1.0)
        t_end = t_start + duration
        tr = swing_trajectory(a, b, (t_start, t_end), apex=apex)
        for t in (t_start + u * duration, t_start + 0.5 * (t_end - t_start),
                  t_start - 1.0, t_end + 1.0, t_start, t_end):
            got, want = tr.pose(t), swing_pose_plain(tr, t)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_degenerate_phase_rejected(self):
        a = Footstep(FootSide.LEFT, np.zeros(2), 0.0, 0.0)
        with pytest.raises(ValueError):
            swing_trajectory(a, a, (0.5, 0.5))


class TestTimeline:
    def plan(self, v=0.19, horizon=6.0):
        return plan_footsteps(UnicycleConfig(forward_velocity=v), make_feet(), horizon)

    def test_zero_ds_ratio(self):
        tl = timeline_from_footsteps(self.plan(), ds_ratio=0.0, final_stand=0.5)
        kinds = {ph.kind for ph in tl.phases}
        assert PhaseKind.DOUBLE_SUPPORT not in kinds

    def test_ds_window_arithmetic(self):
        steps = [Footstep(FootSide.LEFT, np.array([0.0, 0.07]), 0.0, 0.0),
                 Footstep(FootSide.RIGHT, np.array([0.0, -0.07]), 0.0, 0.0),
                 Footstep(FootSide.LEFT, np.array([0.2, 0.07]), 0.0, 1.0),
                 Footstep(FootSide.RIGHT, np.array([0.4, -0.07]), 0.0, 2.0)]
        tl = timeline_from_footsteps(steps, ds_ratio=0.25, final_stand=1.0)
        ds = [ph for ph in tl.phases if ph.kind is PhaseKind.DOUBLE_SUPPORT]
        # Interior junctions get symmetric windows of total width 0.25 * 1.0.
        assert all(abs(ph.duration - 0.125) < 1e-12 for ph in ds)

    def test_contiguous_gap_free(self):
        tl = timeline_from_footsteps(self.plan(), ds_ratio=0.2, final_stand=0.5)
        assert abs(tl.phases[0].t_start) < 1e-12
        for a, b in zip(tl.phases, tl.phases[1:]):
            assert abs(a.t_end - b.t_start) < 1e-12
        assert tl.phases[-1].kind is PhaseKind.TERMINAL

    def test_feet_planted_during_ds(self):
        # Every DS phase must have both feet planted (no active swing).
        tl = timeline_from_footsteps(self.plan(), ds_ratio=0.3, final_stand=0.5)
        for ph in tl.phases:
            if ph.kind is PhaseKind.DOUBLE_SUPPORT:
                assert set(ph.feet) == {FootSide.LEFT, FootSide.RIGHT}
            if ph.kind is PhaseKind.SINGLE_SUPPORT:
                assert ph.swing.t_start <= ph.t_start + 1e-12
                assert ph.t_end <= ph.swing.t_end + 1e-12

    def test_stance_zmp_on_stance_foot(self):
        tl = timeline_from_footsteps(self.plan(), ds_ratio=0.2, final_stand=0.5)
        for ph in tl.phases:
            if ph.kind is PhaseKind.SINGLE_SUPPORT:
                stance = ph.feet[ph.stance_side]
                assert np.allclose(ph.stance_zmp, stance.position)

    def test_step_sequence_shapes(self):
        tl = timeline_from_footsteps(self.plan(), ds_ratio=0.2, final_stand=0.5)
        zmps, durations = tl.step_sequence()
        assert len(zmps) == len(durations) + 1
        assert all(d > 0 for d in durations)

    def test_overlapping_impacts_rejected(self):
        steps = list(make_feet())
        steps.append(Footstep(FootSide.LEFT, np.array([0.2, 0.07]), 0.0, 1.0))
        steps.append(Footstep(FootSide.RIGHT, np.array([0.4, -0.07]), 0.0, 1.0))
        with pytest.raises(ValueError):
            timeline_from_footsteps(steps)

    def test_phase_at_lookup(self):
        tl = timeline_from_footsteps(self.plan(), ds_ratio=0.2, final_stand=0.5)
        for ph in tl.phases:
            mid = 0.5 * (ph.t_start + ph.t_end)
            assert tl.phase_at(mid) is ph
        assert tl.phase_at(tl.horizon + 5.0) is tl.phases[-1]


class TestPhaseAt:
    """`GaitTimeline.phase_at` against an independent scan as the oracle,
    with its 1e-12 start slack and its last-phase fallback."""

    @staticmethod
    def probe_times(tl):
        times = [-1.0, -1e-9, tl.horizon, tl.horizon + 1e-9, tl.horizon + 1.0]
        for ph in tl.phases:
            for edge in (ph.t_start, ph.t_end):
                times += [edge + d for d in (-2e-12, -1e-12, 0.0, 1e-12, 2e-12)]
                times += [np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        return times

    @pytest.mark.parametrize("v", [0.19, 0.49])
    def test_matches_scan_on_walk_timelines(self, v):
        scenario = Scenario(forward_velocity=v)
        _, tl = build_gait(scenario)
        cycles = [k * scenario.dt for k in range(round(scenario.duration / scenario.dt))]
        for t in cycles + self.probe_times(tl):
            assert tl.phase_at(t) is phase_at_scan(tl, t), t

    @pytest.mark.parametrize("v", [0.19, 0.37, 0.49])
    def test_phase_indices_match_phase_at(self, v):
        # The batched lookup at every cycle and MPC-window time of a run,
        # and at every phase boundary, 1e-12 and 2e-12 and one ulp either
        # side of it; as a flat array and as the (samples, horizon) grid.
        scenario = Scenario(forward_velocity=v)
        _, tl = build_gait(scenario)
        cycles = np.arange(round(scenario.duration / scenario.dt)) * scenario.dt
        stride = round(scenario.mpc_period / scenario.dt)
        windows = cycles[::stride, None] + np.arange(scenario.mpc_horizon) * scenario.mpc_period
        for times in (cycles, np.array(self.probe_times(tl)), windows):
            index = tl.phase_indices(times)
            assert index.shape == times.shape
            for i, t in zip(index.ravel().tolist(), times.ravel().tolist()):
                assert tl.phases[i] is tl.phase_at(t), t

    @settings(max_examples=100, deadline=None)
    @given(durations=st.lists(st.sampled_from([0.0, 1e-12, 0.1, 0.35]), min_size=1,
                              max_size=8),
           jitter=st.lists(st.sampled_from([-2e-12, -1e-12, 0.0, 1e-12]), min_size=16,
                           max_size=16))
    def test_matches_scan_with_jittered_boundaries(self, durations, jitter):
        # Boundaries that miss by up to 2e-12 and phases of zero length, so
        # that the ends need not be sorted; the scan does not care.
        phases, t = [], 0.0
        for i, d in enumerate(durations):
            phases.append(GaitPhase(PhaseKind.DOUBLE_SUPPORT, t + jitter[2 * i],
                                    t + d + jitter[2 * i + 1], stance_zmp=np.zeros(2)))
            t += d
        tl = GaitTimeline(phases=tuple(phases), footsteps=())
        times = self.probe_times(tl)
        for t in times:
            assert tl.phase_at(t) is phase_at_scan(tl, t), t
        # The batched lookup needs the phases' starts and ends in order.
        starts = [ph.t_start - 1e-12 for ph in phases]
        ends = [ph.t_end for ph in phases]
        if starts != sorted(starts) or ends != sorted(ends):
            with pytest.raises(ValueError, match="in time order"):
                tl.phase_indices(times)
            return
        for i, t in zip(tl.phase_indices(times).tolist(), times):
            assert tl.phases[i] is phase_at_scan(tl, t), t
