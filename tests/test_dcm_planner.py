"""DCM reference generation: recursion, segments, C1 trajectory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk.dcm_planner import (CubicSegment, backward_recursion, build_trajectory,
                                 ds_segment, ss_segment)
from dcmwalk.harness import Scenario, build_gait
from dcmwalk.kinematics import KinematicsCache, home_state, sample_biped
from dcmwalk.lipm import PendulumParams
from dcmwalk.unicycle import (PhaseKind, UnicycleConfig, plan_footsteps,
                              timeline_from_footsteps)
from oracles import implied_zmp, segment_at_scan
from test_unicycle import make_feet


def make_timeline(v=0.19, horizon=6.0, ds_ratio=0.2, final_stand=0.8):
    steps = plan_footsteps(UnicycleConfig(forward_velocity=v), make_feet(), horizon)
    return timeline_from_footsteps(steps, ds_ratio=ds_ratio, final_stand=final_stand)


def biped_omega():
    """The pendulum frequency of a run of the packaged biped."""
    model = sample_biped()
    return PendulumParams.from_height(KinematicsCache(model, home_state(model)).com()[2]).omega


def junction_jumps(traj, eps=1e-9):
    """Max position/velocity mismatch across interior segment boundaries."""
    dp, dv = 0.0, 0.0
    for a, b in zip(traj.segments, traj.segments[1:]):
        t = b.t_start
        pa, va = a.eval_with(t, traj.omega)
        pb, vb = b.eval_with(t, traj.omega)
        dp = max(dp, float(np.linalg.norm(pa - pb)))
        dv = max(dv, float(np.linalg.norm(va - vb)))
    return dp, dv


class TestBackwardRecursion:
    def test_identical_zmps_fixed_point(self):
        p = np.array([0.3, -0.1])
        bounds = backward_recursion([p, p, p], [0.8, 0.6], 3.0)
        for b in bounds:
            assert np.allclose(b.xi_ios, p) and np.allclose(b.xi_eos, p)

    def test_hand_evaluation(self):
        # Two-interval recursion evaluated by hand: e^{-2.4} ~= 0.090718.
        r1 = np.array([0.1, 0.05])
        r2 = np.array([0.2, -0.05])
        bounds = backward_recursion([r1, r2], [0.8], 3.0)
        assert len(bounds) == 1
        assert np.allclose(bounds[0].xi_eos, r2)
        expected_ios = r1 + np.exp(-2.4) * (r2 - r1)
        assert np.allclose(bounds[0].xi_ios, expected_ios, atol=1e-12)
        assert abs(np.exp(-2.4) - 0.090718) < 1e-6

    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            zmps = [rng.normal(scale=0.3, size=2) for _ in range(n)]
            durations = rng.uniform(0.3, 1.2, size=n - 1)
            omega = rng.uniform(2.0, 6.0)
            bounds = backward_recursion(zmps, durations, omega)
            for b in bounds:
                fwd = b.r_zmp + np.exp(omega * b.t_step) * (b.xi_ios - b.r_zmp)
                assert np.linalg.norm(fwd - b.xi_eos) < 1e-12

    def test_chaining(self):
        rng = np.random.default_rng(4)
        zmps = [rng.normal(size=2) for _ in range(5)]
        bounds = backward_recursion(zmps, [0.7] * 4, 3.5)
        for a, b in zip(bounds, bounds[1:]):
            assert np.allclose(a.xi_eos, b.xi_ios)
        assert np.allclose(bounds[-1].xi_eos, zmps[-1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            backward_recursion([np.zeros(2)], [], 3.0)
        with pytest.raises(ValueError):
            backward_recursion([np.zeros(2), np.ones(2)], [0.5, 0.5], 3.0)
        with pytest.raises(ValueError):
            backward_recursion([np.zeros(2), np.ones(2)], [-0.5], 3.0)


class TestSegments:
    def test_ss_constant_at_fixed_point(self):
        bounds = backward_recursion([np.array([0.1, 0.2])] * 2, [0.8], 3.0)
        seg = ss_segment(bounds[0], 3.0)
        pos, vel = seg.eval_with(0.37, 3.0)
        assert np.allclose(pos, [0.1, 0.2]) and np.allclose(vel, 0)

    def test_ss_boundary_identities(self):
        r1, r2 = np.array([0.0, 0.0]), np.array([0.25, 0.1])
        bounds = backward_recursion([r1, r2], [0.8], 3.0)
        seg = ss_segment(bounds[0], 3.0)
        p_end, _ = seg.eval_with(0.8, 3.0)
        p_start, _ = seg.eval_with(0.0, 3.0)
        assert np.linalg.norm(p_end - bounds[0].xi_eos) < 1e-14
        assert np.linalg.norm(p_start - bounds[0].xi_ios) < 1e-14

    def test_ds_constant_case(self):
        p = np.array([0.1, -0.3])
        seg = ds_segment(p, np.zeros(2), p, np.zeros(2), (0.0, 0.4))
        assert np.allclose(seg.coeffs[:, 0], p)
        assert np.allclose(seg.coeffs[:, 1:], 0)

    def test_ds_hand_hermite(self):
        # xi(0)=0, xid(0)=0, xi(1)=1, xid(1)=0 -> 3t^2 - 2t^3 per axis.
        seg = ds_segment(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2), (0.0, 1.0))
        assert np.allclose(seg.coeffs, np.array([[0, 0, 3, -2], [0, 0, 3, -2]]))

    def test_ds_random_boundary_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p0, v0, p1, v1 = (rng.normal(size=2) for _ in range(4))
            t0 = rng.uniform(0, 2)
            T = rng.uniform(0.1, 1.0)
            seg = ds_segment(p0, v0, p1, v1, (t0, t0 + T))
            pa, va = seg.eval_with(t0, 3.0)
            pb, vb = seg.eval_with(t0 + T, 3.0)
            for got, want in ((pa, p0), (va, v0), (pb, p1), (vb, v1)):
                assert np.linalg.norm(got - want) < 1e-12

    def test_ds_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            ds_segment(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2), (1.0, 1.0))


class TestBuildTrajectory:
    def test_c1_junctions(self):
        traj = build_trajectory(make_timeline(), 4.3)
        dp, dv = junction_jumps(traj)
        assert dp < 1e-9 and dv < 1e-9

    def test_implied_zmp_continuity(self):
        traj = build_trajectory(make_timeline(), 4.3)
        ts = np.arange(traj.t_start, traj.t_end, 1e-3)
        zmps = np.array([implied_zmp(traj, t) for t in ts])
        jumps = np.linalg.norm(np.diff(zmps, axis=0), axis=1)
        assert jumps.max() < 1e-6 + 1e-3 * 10.0  # bounded slope, no steps

    def test_implied_zmp_matches_stance_in_ss(self):
        tl = make_timeline()
        traj = build_trajectory(tl, 4.3)
        for ph in tl.phases:
            if ph.kind.value == "ss":
                mid = 0.5 * (ph.t_start + ph.t_end)
                assert np.linalg.norm(implied_zmp(traj, mid) - ph.stance_zmp) < 1e-9

    def test_terminal_condition(self):
        tl = make_timeline()
        traj = build_trajectory(tl, 4.3)
        zmps, _ = tl.step_sequence()
        assert np.linalg.norm(traj.dcm(traj.t_end) - zmps[-1]) < 1e-6
        assert np.linalg.norm(traj.eval(traj.t_end)[1]) < 1e-4

    def test_stationary_timeline(self):
        tl = make_timeline(v=0.0)
        traj = build_trajectory(tl, 4.3)
        p = traj.dcm(0.0)
        assert np.allclose(traj.dcm(1.0), p)
        assert np.allclose(traj.eval(1.0)[1], 0)

    @pytest.mark.parametrize("ds_ratio", [0.0, 0.2])
    def test_segment_lookup_matches_scan(self, ds_ratio):
        # At every segment start, one ulp either side, and outside the plan.
        traj = build_trajectory(make_timeline(ds_ratio=ds_ratio), 4.3, ds_ratio=ds_ratio)
        times = [traj.segments[0].t_start - 1.0, traj.segments[-1].t_end + 1.0]
        for seg in traj.segments:
            times += [np.nextafter(seg.t_start, -np.inf), seg.t_start,
                      np.nextafter(seg.t_start, np.inf)]
        for t in times:
            assert traj._segment_at(t) is segment_at_scan(traj, t), t

    @pytest.mark.parametrize("v", [0.0, 0.19, 0.37, 0.49])
    def test_eval_many_equals_eval(self, v):
        # The gathered evaluation, row for row, at every segment start, one
        # ulp either side, outside the plan, and at every cycle and
        # MPC-window time of a run's plan. Its exponentials must come from
        # np.exp as eval's do: math.exp differs from it in the last bit on
        # about 1 argument in 20.
        scenario = Scenario(forward_velocity=v)
        _, timeline = build_gait(scenario)
        traj = build_trajectory(timeline, biped_omega(), ds_ratio=scenario.ds_ratio)
        edges = [traj.segments[0].t_start - 1.0, traj.segments[-1].t_end + 1.0]
        for seg in traj.segments:
            edges += [np.nextafter(seg.t_start, -np.inf), seg.t_start,
                      np.nextafter(seg.t_start, np.inf)]
        cycles = np.arange(round(scenario.duration / scenario.dt)) * scenario.dt
        stride = round(scenario.mpc_period / scenario.dt)
        windows = cycles[::stride, None] \
            + np.arange(scenario.mpc_horizon + 1) * scenario.mpc_period
        assert windows[-1, -1] > traj.t_end
        for times in (np.array(edges), cycles, windows):
            xi, xid = traj.eval_many(times)
            assert xi.shape == xid.shape == times.shape + (2,)
            for t, got, got_rate in zip(times.ravel().tolist(), xi.reshape(-1, 2),
                                        xid.reshape(-1, 2)):
                want, want_rate = traj.eval(t)
                assert np.array_equal(got, want) and np.array_equal(got_rate, want_rate), t

    def test_zero_ds_ratio_pure_exponentials(self):
        tl = make_timeline(ds_ratio=0.0)
        traj = build_trajectory(tl, 4.3, ds_ratio=0.0)
        from dcmwalk.dcm_planner import ExponentialSegment
        assert all(isinstance(s, ExponentialSegment) for s in traj.segments)


class TestTrajectoryProperties:
    @settings(max_examples=60, deadline=None)
    @given(v=st.floats(0.0, 0.45), yaw_rate=st.floats(-0.5, 0.5),
           ds_ratio=st.floats(0.01, 0.6), omega=st.floats(3.0, 5.0))
    def test_planner_invariants(self, v, yaw_rate, ds_ratio, omega):
        steps = plan_footsteps(UnicycleConfig(forward_velocity=v, angular_velocity=yaw_rate),
                               make_feet(), 4.0)
        tl = timeline_from_footsteps(steps, ds_ratio=ds_ratio, final_stand=0.8)
        traj = build_trajectory(tl, omega, ds_ratio=ds_ratio)

        def zmp(seg, t):
            xi, xid = seg.eval_with(t, omega)
            return xi - xid / omega

        # C1 at every junction (ds_ratio = 0 has no blend, tested above), so
        # the implied ZMP is continuous too.
        dp, dv = junction_jumps(traj)
        assert dp < 1e-9 and dv < 1e-9
        for a, b in zip(traj.segments, traj.segments[1:]):
            assert np.linalg.norm(zmp(a, b.t_start) - zmp(b, b.t_start)) < 1e-9

        # Outside the double-support windows the implied ZMP is the stance ZMP.
        for ph in tl.phases:
            if ph.kind is PhaseKind.SINGLE_SUPPORT:
                t0 = ph.t_start
            elif ph.kind is PhaseKind.TERMINAL:
                before = tl.phases[-2] if len(tl.phases) > 1 else None
                t0 = ph.t_start + (before.duration if before is not None and
                                   before.kind is PhaseKind.DOUBLE_SUPPORT else 0.0)
            else:
                continue
            for t in np.linspace(t0, ph.t_end, 7):
                assert np.linalg.norm(implied_zmp(traj, t) - ph.stance_zmp) < 1e-9

        # `build_trajectory` sizes its blends from its own `ds_ratio`, by the
        # timeline's rule: each pair of DS phases that meet at an impact is
        # one cubic's window. The last DS phase, before TERMINAL, has no
        # partner; its cubic runs as far past the TERMINAL phase's start.
        ds = [ph for ph in tl.phases if ph.kind is PhaseKind.DOUBLE_SUPPORT]
        windows = []
        for before, after in zip(ds[::2], ds[1::2]):
            assert before.t_end == after.t_start
            windows.append((before.t_start, after.t_end))
        if ds:
            last = ds[-1]
            assert len(ds) % 2 == 1 and last.t_end == tl.phases[-1].t_start
            windows.append((last.t_start, last.t_end + last.duration))
        cubics = [(seg.t_start, seg.t_end) for seg in traj.segments
                  if isinstance(seg, CubicSegment)]
        assert len(cubics) == len(windows)
        assert np.abs(np.subtract(cubics, windows)).max(initial=0.0) <= 1e-12

        # The walk ends at rest on the final ZMP.
        zmps, _ = tl.step_sequence()
        assert traj.t_end == tl.horizon
        assert np.linalg.norm(traj.dcm(traj.t_end) - zmps[-1]) < 1e-12
        assert np.linalg.norm(traj.eval(traj.t_end)[1]) < 1e-12
