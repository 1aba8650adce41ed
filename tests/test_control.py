"""Simplified-model control: support polygons, DCM stabilizers, ZMP-CoM law."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dcmwalk import qp
from dcmwalk.control import (InstantaneousDcmController, InstantaneousGains,
                             MpcConfig, MpcInfeasibleError, PredictiveDcmController,
                             SupportPolygon, ZmpComGains, gain_schedule,
                             minimum_jerk, zmp_com_control)
from dcmwalk.lipm import PendulumParams, SimplifiedState, step_exact
from dcmwalk.harness import NoiseModel, Scenario, _SimplifiedLayer, run_scenario
from oracles import (PiDcmLaw, brute_force_hull, mpc_kkt_oracle, mpc_qp_forward,
                     mpc_rollout_plain, mpc_start_point, zmp_com_law)


def square(half=1.0, center=(0.0, 0.0)):
    c = np.asarray(center, dtype=float)
    return SupportPolygon.from_points(c + half * np.array(
        [[1, 1], [-1, 1], [-1, -1], [1, -1]]))


class TestSupportPolygon:
    @settings(max_examples=100, deadline=None)
    @given(center=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
           yaw=st.floats(-np.pi, np.pi), length=st.floats(0.01, 1.0),
           width=st.floats(0.01, 1.0))
    @example(center=(0.1, -0.2), yaw=0.4, length=0.19, width=0.09)
    def test_rectangle_matches_from_points(self, center, yaw, length, width):
        a = SupportPolygon.from_rectangle(center, yaw, length, width)
        b = SupportPolygon.from_points(a.vertices)
        # Both run counter-clockwise; from_points starts at the lowest vertex.
        shift = next(i for i, v in enumerate(a.vertices)
                     if np.array_equal(v, b.vertices[0]))
        for name in ("vertices", "A", "b"):
            assert np.array_equal(np.roll(getattr(a, name), -shift, axis=0),
                                  getattr(b, name)), name

    def test_halfplane_invariant(self):
        poly = SupportPolygon.from_rectangle([0.3, 0.1], -0.7, 0.19, 0.09)
        assert np.max(poly.A @ poly.vertices.T - poly.b[:, None]) < 1e-9
        assert np.allclose(np.linalg.norm(poly.A, axis=1), 1.0)

    def test_contains_and_violation(self):
        poly = square(1.0)
        assert poly.violation([0.0, 0.0]) <= 1e-9
        assert poly.violation([1.0, 1.0]) <= 1e-9
        assert poly.violation([1.5, 0.0]) > 1e-9
        assert abs(poly.violation([1.5, 0.0]) - 0.5) < 1e-12
        assert poly.violation([0.0, 0.0]) < 0

    def test_shrunk(self):
        # Each half-plane moved inward by the margin.
        base = square(1.0)
        poly = SupportPolygon(vertices=base.vertices, A=base.A, b=base.b - 0.25)
        assert poly.violation([0.7, 0.0]) <= 1e-9
        assert poly.violation([0.9, 0.0]) > 1e-9

    def test_project_identity_inside(self):
        poly = square(1.0)
        p = np.array([0.3, -0.4])
        assert np.array_equal(poly.project(p), p)

    def test_project_closest_point(self):
        poly = square(1.0)
        assert np.allclose(poly.project([2.0, 0.0]), [1.0, 0.0])
        assert np.allclose(poly.project([2.0, 2.0]), [1.0, 1.0])
        # Brute force: projection distance is minimal over dense edge samples.
        rng = np.random.default_rng(0)
        edges = np.vstack([np.linspace(poly.vertices[i], poly.vertices[(i + 1) % 4], 200)
                           for i in range(4)])
        for _ in range(20):
            p = rng.normal(scale=2.0, size=2)
            proj = poly.project(p)
            d = np.linalg.norm(p - proj)
            d_brute = np.linalg.norm(edges - p, axis=1).min()
            assert d <= d_brute + 1e-6

    def test_union_hull(self):
        a = square(0.5, (-1.0, 0.0))
        b = square(0.5, (1.0, 0.0))
        hull = SupportPolygon.union_hull(a, b)
        assert hull.violation([0.0, 0.0]) <= 1e-9
        assert hull.violation([1.4, 0.4]) <= 1e-9
        assert hull.violation([0.0, 0.6]) > 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SupportPolygon.from_points([[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            SupportPolygon.from_points([[0, 0], [1, 0], [np.nan, 1]])
        with pytest.raises(ValueError):
            SupportPolygon.from_rectangle([0, 0], 0.0, -0.1, 0.1)


# Points on a 1/8 m grid, plus duplicates and points on the segments between
# them: every turn is computed exactly in floating point, and collinear and
# repeated points are common.
grid = st.integers(-4, 4).map(lambda k: k / 8)


@st.composite
def hull_inputs(draw):
    pts = [(draw(grid), draw(grid)) for _ in range(draw(st.integers(3, 8)))]
    for _ in range(draw(st.integers(0, 4))):
        a, b = np.array(draw(st.sampled_from(pts))), np.array(draw(st.sampled_from(pts)))
        t = draw(st.sampled_from([0.0, 0.25, 0.5]))  # 0: a duplicate
        pts.append(tuple(a + t * (b - a)))
    return np.array(pts)


class TestConvexHull:
    @settings(max_examples=300, deadline=None)
    @given(points=hull_inputs())
    @example(points=np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [1, 1], [0.5, 0.5]]))
    def test_matches_brute_force(self, points):
        expected = brute_force_hull(points)
        if len(expected) < 3:
            event("no area")
            with pytest.raises(ValueError):
                SupportPolygon.from_points(points)
            return
        poly = SupportPolygon.from_points(points)
        verts = poly.vertices
        assert [tuple(v) for v in verts.tolist()] == expected
        a, b, c = verts, np.roll(verts, -1, axis=0), np.roll(verts, -2, axis=0)
        turns = (b - a)[:, 0] * (c - b)[:, 1] - (b - a)[:, 1] * (c - b)[:, 0]
        assert np.all(turns > 0.0)
        assert set(map(tuple, verts.tolist())) <= set(map(tuple, points.tolist()))
        for p in points:
            assert poly.violation(p) <= 1e-12

    @pytest.mark.parametrize("points", [
        [[0, 0], [1, 1], [2, 2]],
        [[0, 0], [0.5, 0.25], [1, 0.5], [2, 1], [1, 0.5]],
        [[0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.1, 0.2]],
    ])
    def test_points_without_area_rejected(self, points):
        with pytest.raises(ValueError):
            SupportPolygon.from_points(points)


class TestInstantaneous:
    def gains(self, kp=2.0, ki=0.5):
        return InstantaneousGains(kp=kp * np.eye(2), ki=ki * np.eye(2))

    def test_gain_invariants(self):
        with pytest.raises(ValueError):
            InstantaneousGains(kp=np.eye(2), ki=0.5 * np.eye(2))  # kp - I not PD
        with pytest.raises(ValueError):
            InstantaneousGains(kp=2 * np.eye(2), ki=-0.1 * np.eye(2))
        # ki = 0 is admissible (positive semidefinite).
        InstantaneousGains(kp=2 * np.eye(2), ki=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["kp", "ki"])
    def test_non_finite_gains_rejected(self, name, bad):
        # Every eigenvalue test is False on NaN, so only a finiteness check
        # stops it.
        gains = {"kp": 2 * np.eye(2), "ki": 0.5 * np.eye(2)}
        gains[name] = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            InstantaneousGains(**gains)

    def test_zero_error_feedforward(self):
        ctrl = InstantaneousDcmController(self.gains(), 4.3)
        xi_ref = np.array([0.2, 0.1])
        xid_ref = np.array([0.05, 0.0])
        r = ctrl.control(xi_ref, xi_ref, xid_ref, 0.01)
        assert np.allclose(r, xi_ref - xid_ref / 4.3, atol=1e-12)

    def test_proportional_term(self):
        ctrl = InstantaneousDcmController(self.gains(ki=0.0), 4.3)
        r = ctrl.control([0.11, 0.0], [0.1, 0.0], [0.0, 0.0], 0.01)
        # First cycle: integral contribution from ki = 0; pure kp term.
        assert np.allclose(r, [0.1 + 2.0 * 0.01, 0.0], atol=1e-12)

    def test_anti_windup_clamp(self):
        ctrl = InstantaneousDcmController(self.gains(), 4.3)
        for _ in range(10000):
            ctrl.control([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.01)
        assert np.linalg.norm(ctrl.integral) <= self.gains().anti_windup + 1e-12

    def test_closed_loop_decay(self):
        # Exact LIPM plant under the PI law: error below 1e-6 within 5 s.
        # The slow closed-loop mode for kp=2, ki=0.5, omega=4.3 sits at
        # -0.577 1/s, so the step must be small for 1e-6 to be reachable.
        omega = 4.3
        params = PendulumParams(gravity=9.80665, com_height=9.80665 / omega**2,
                                omega=omega)
        ctrl = InstantaneousDcmController(self.gains(), omega)
        xi_ref = 5e-5 * np.array([1.0, -0.5])
        state = SimplifiedState.from_com(np.zeros(2), np.zeros(2), omega)
        dt = 0.01
        errs = []
        for k in range(int(5.0 / dt)):
            r = ctrl.control(state.dcm, xi_ref, np.zeros(2), dt)
            state = step_exact(state, r, params, dt)
            errs.append(np.linalg.norm(state.dcm - xi_ref))
        assert errs[-1] < 1e-6
        # Monotone decay once the fast transient has settled.
        tail = errs[int(1.5 / dt):]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_output_may_exit_polygon(self):
        # No feasibility guarantee: a large error pushes r outside the foot.
        ctrl = InstantaneousDcmController(self.gains(), 4.3)
        foot = SupportPolygon.from_rectangle([0.0, 0.0], 0.0, 0.19, 0.09)
        r = ctrl.control([0.4, 0.0], [0.0, 0.0], [0.0, 0.0], 0.01)
        assert foot.violation(r) > 1e-9

    def test_error_system_hurwitz(self):
        rng = np.random.default_rng(1)
        omega = 4.3
        for _ in range(200):
            kp = rng.uniform(1.01, 10.0)
            ki = rng.uniform(1e-3, 5.0)
            A = np.array([[omega * (1 - kp), -omega * ki], [1.0, 0.0]])
            assert np.linalg.eigvals(A).real.max() < 0


class TestPredictive:
    def make(self, N=2, T=0.1, q=1.0, r=0.1, qn=1.0, omega=4.3):
        cfg = MpcConfig(horizon=N, sample_time=T, Q=q * np.eye(2),
                        R=r * np.eye(2), Q_terminal=qn * np.eye(2))
        return PredictiveDcmController(cfg, omega), cfg

    def test_stationary_fixed_point(self):
        ctrl, _ = self.make(N=5)
        p = np.array([0.12, -0.03])
        refs = np.tile(p, (6, 1))
        poly = square(0.5, p)
        r, _ = ctrl.control(p, p, ctrl.sample(refs, [poly] * 5))
        assert np.linalg.norm(r - p) < 1e-8

    def test_idempotence_at_fixed_point(self):
        ctrl, _ = self.make(N=5)
        p = np.array([0.1, 0.0])
        refs = np.tile(p, (6, 1))
        sample = ctrl.sample(refs, [square(0.5, p)] * 5)
        r1, _ = ctrl.control(p, p, sample)
        r2, _ = ctrl.control(p, r1, sample)
        assert np.linalg.norm(r1 - r2) < 1e-8

    def test_matches_kkt_oracle_n2(self):
        rng = np.random.default_rng(2)
        omega, T = 4.3, 0.1
        for _ in range(25):
            q, r, qn = rng.uniform(0.5, 5.0, size=3)
            ctrl, cfg = self.make(N=2, T=T, q=q, r=r, qn=qn, omega=omega)
            xi = rng.normal(scale=0.1, size=2)
            r_prev = rng.normal(scale=0.1, size=2)
            refs = rng.normal(scale=0.1, size=(3, 2))
            got, _ = ctrl.control(xi, r_prev, ctrl.sample(refs))
            want = mpc_kkt_oracle(omega, T, cfg.Q, cfg.R, cfg.Q_terminal,
                                  xi, r_prev, refs)
            assert np.linalg.norm(got - want) < 1e-8

    def test_deadbeat_equivalence(self):
        # R -> 0, Q = Q_N = I, one-step horizon: the input is the dead-beat
        # ZMP mapping xi to the next reference under the discrete dynamics.
        omega, T = 4.3, 0.1
        cfg = MpcConfig(horizon=1, sample_time=T, Q=np.eye(2),
                        R=np.zeros((2, 2)), Q_terminal=np.eye(2))
        ctrl = PredictiveDcmController(cfg, omega)
        xi = np.array([0.05, -0.02])
        target = np.array([0.08, 0.01])
        refs = np.vstack([xi, target])
        got, _ = ctrl.control(xi, np.zeros(2), ctrl.sample(refs))
        f = np.exp(omega * T)
        deadbeat = (target - f * xi) / (1.0 - f)
        assert np.linalg.norm(got - deadbeat) < 1e-8

    def test_output_on_polygon_boundary(self):
        # Reference outside the polygon: the optimizer saturates a constraint.
        ctrl, _ = self.make(N=3)
        poly = square(0.05, (0.0, 0.0))
        target = np.array([0.5, 0.0])
        refs = np.tile(target, (4, 1))
        r, _ = ctrl.control(np.zeros(2), np.zeros(2), ctrl.sample(refs, [poly] * 3))
        assert abs(poly.violation(r)) < 1e-6

    def test_output_inside_polygon(self):
        ctrl, _ = self.make(N=3)
        poly = square(0.05)
        rng = np.random.default_rng(3)
        for _ in range(20):
            refs = rng.normal(scale=0.2, size=(4, 2))
            xi, r_prev = rng.normal(scale=0.05, size=(2, 2))
            r, _ = ctrl.control(xi, r_prev, ctrl.sample(refs, [poly] * 3))
            assert poly.violation(r) <= 1e-6

    def test_reference_window_length_checked(self):
        ctrl, _ = self.make(N=4)
        with pytest.raises(ValueError):
            ctrl.sample(np.zeros((3, 2)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MpcConfig(horizon=0)
        with pytest.raises(ValueError):
            MpcConfig(sample_time=-0.1)
        with pytest.raises(ValueError):
            MpcConfig(Q=-np.eye(2))

    @pytest.mark.parametrize("name", ["Q", "R", "Q_terminal"])
    def test_non_finite_weights_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MpcConfig(**{name: np.full((2, 2), np.nan)})


coord = st.floats(-0.5, 0.5)


@st.composite
def plan_polygons(draw):
    """A rotated foot-sized rectangle, or the hull of two of them."""
    def rect():
        return SupportPolygon.from_rectangle(
            (draw(coord), draw(coord)), draw(st.floats(-np.pi, np.pi)),
            draw(st.floats(0.02, 0.3)), draw(st.floats(0.02, 0.3)))
    first = rect()
    return SupportPolygon.union_hull(first, rect()) if draw(st.booleans()) else first


class TestMpcStartPoint:
    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 20), omega=st.floats(3.0, 5.5), T=st.floats(0.05, 0.1),
           data=st.data())
    def test_feasible_and_same_optimum(self, N, omega, T, data):
        polys = [data.draw(plan_polygons()) for _ in range(N)]
        xi, r_prev = (np.array([data.draw(coord), data.draw(coord)]) for _ in range(2))
        refs = np.array([[data.draw(coord), data.draw(coord)] for _ in range(N + 1)])
        cfg = MpcConfig(horizon=N, sample_time=T, Q=10.0 * np.eye(2),
                        R=0.05 * np.eye(2), Q_terminal=10.0 * np.eye(2))
        ctrl = PredictiveDcmController(cfg, omega)
        sample = ctrl.sample(refs, polys)
        problem = ctrl.assemble(xi, r_prev, sample)
        w = ctrl.start_point(xi, r_prev, sample)
        scale = max(1.0, np.abs(w).max())
        assert np.linalg.norm(problem.A_eq @ w - problem.b_eq, np.inf) <= 1e-9 * scale
        for j, poly in enumerate(polys):
            assert poly.violation(w[2 * j:2 * j + 2]) < 0.0
        # The built start is accepted: the MPC never needs the Phase-1 LP.
        with mock.patch.object(qp, "linprog", side_effect=AssertionError("Phase-1 LP")):
            try:
                r0, _ = ctrl.control(xi, r_prev, sample)
            except MpcInfeasibleError:
                r0 = None
        cold = qp.QpSolver().solve(problem)
        # The active-set loop cycles on about 2% of these feasible QPs
        # (1 of 60 examples at hypothesis seed 1, none at seed 2), from
        # either start. Such a solve must end in MAX_ITER,
        # never in a wrong optimum. Wherever both converge they agree on the
        # scale of the solver's stopping rule, 1e-8 * max(1, |w|_inf).
        if r0 is None or cold.status is not qp.QpStatus.OPTIMAL:
            event("active-set cycling")
            assert cold.status in (qp.QpStatus.OPTIMAL, qp.QpStatus.MAX_ITER)
            return
        w_scale = max(1.0, np.abs(cold.w).max())
        assert np.linalg.norm(r0 - cold.w[:2], np.inf) < 1e-8 * w_scale

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(1, 20), omega=st.floats(3.0, 5.5), T=st.floats(0.05, 0.1),
           n_polys=st.integers(0, 20), data=st.data())
    def test_equals_numpy_rollout(self, N, omega, T, n_polys, data):
        # Bit for bit against the numpy closed form, with fewer polygons
        # than steps as well; its xi_N is where the DCM rolled forward
        # through the same ZMPs ends, to rounding amplified by e^{N omega T}.
        polys = [data.draw(plan_polygons()) for _ in range(min(n_polys, N))]
        xi, r_prev = (np.array([data.draw(coord), data.draw(coord)]) for _ in range(2))
        ctrl = PredictiveDcmController(MpcConfig(horizon=N, sample_time=T), omega)
        want = mpc_start_point(omega, T, xi, r_prev, polys + [None] * (N - len(polys)))
        sample = ctrl.sample(np.zeros((N + 1, 2)), polys)
        w = ctrl.start_point(xi, r_prev, sample)
        assert np.array_equal(w, want)
        rolled = mpc_rollout_plain(np.exp(omega * T), xi, w[:2 * N])[-1]
        assert np.linalg.norm(w[2 * N:] - rolled, np.inf) <= 1e-12 * max(1.0, np.abs(rolled).max())

    def test_unconstrained_steps_use_previous_zmp(self):
        ctrl = PredictiveDcmController(MpcConfig(horizon=3), 4.3)
        r_prev = np.array([0.1, -0.2])
        sample = ctrl.sample(np.zeros((4, 2)), [square(0.1), None])
        w = ctrl.start_point(np.zeros(2), r_prev, sample)
        assert np.allclose(w[:6].reshape(3, 2), [[0.0, 0.0], r_prev, r_prev])


def _solve_both(ctrl, xi, r_prev, refs, polygons):
    """The solutions of the MPC's own QP from its start point, and of the
    same QP in forward coordinates (`oracles.mpc_qp_forward`) from its
    rollout, each by a fresh solver."""
    sample = ctrl.sample(refs, polygons)
    new = qp.QpSolver().solve(ctrl.assemble(xi, r_prev, sample),
                              ctrl.start_point(xi, r_prev, sample))
    forward = qp.QpSolver().solve(*mpc_qp_forward(ctrl.config, ctrl.omega, xi, r_prev,
                                                  refs, polygons))
    return new, forward


def _assert_same_optimum(ctrl, new, forward):
    # The first ZMP agrees on the scale of the solver's stopping rule, and
    # the new solution meets its own KKT conditions.
    n_xi = 2 * (ctrl.config.horizon + 1)
    scale = max(1.0, np.abs(new.w).max())
    assert np.linalg.norm(new.w[:2] - forward.w[n_xi:n_xi + 2], np.inf) < 1e-8 * scale
    assert max(new.residuals.values()) <= 1e-8


class TestForwardEquivalence:
    def test_every_sample_of_a_steady_walk(self, monkeypatch):
        # Each MPC sample with its measurement, DCM window and polygons.
        inside, solved = [], []
        mpc_control = PredictiveDcmController.control
        layer_control = _SimplifiedLayer.control

        def staged(self, k, *args):
            inside.append((self, k))
            try:
                return layer_control(self, k, *args)
            finally:
                inside.pop()

        def captured(self, xi_meas, r_prev, sample):
            layer, k = inside[-1]
            solved.append((self, np.array(xi_meas), np.array(r_prev),
                           layer._plan.windows[k // 10], layer._plan.polygons[k // 10]))
            return mpc_control(self, xi_meas, r_prev, sample)

        monkeypatch.setattr(_SimplifiedLayer, "control", staged)
        monkeypatch.setattr(PredictiveDcmController, "control", captured)
        result = run_scenario(Scenario(controller="predictive", forward_velocity=0.19,
                                       duration=6.0, noise=NoiseModel()))
        monkeypatch.undo()
        assert result.metrics["completed"]
        assert len(solved) == 60
        for ctrl, xi, r_prev, refs, polygons in solved:
            new, forward = _solve_both(ctrl, xi, r_prev, refs, polygons)
            assert new.status is forward.status is qp.QpStatus.OPTIMAL
            _assert_same_optimum(ctrl, new, forward)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 20), omega=st.floats(3.0, 5.5), T=st.floats(0.05, 0.1),
           data=st.data())
    def test_random_windows(self, N, omega, T, data):
        polys = [data.draw(st.none() | plan_polygons()) for _ in range(N)]
        xi, r_prev = (np.array([data.draw(coord), data.draw(coord)]) for _ in range(2))
        refs = np.array([[data.draw(coord), data.draw(coord)] for _ in range(N + 1)])
        cfg = MpcConfig(horizon=N, sample_time=T, Q=10.0 * np.eye(2),
                        R=0.05 * np.eye(2), Q_terminal=10.0 * np.eye(2))
        ctrl = PredictiveDcmController(cfg, omega)
        new, forward = _solve_both(ctrl, xi, r_prev, refs, polys)
        if not new.status is forward.status is qp.QpStatus.OPTIMAL:
            event("a solve did not end OPTIMAL")
            return
        _assert_same_optimum(ctrl, new, forward)


class TestZmpCom:
    def test_zero_errors(self):
        gains = ZmpComGains(k_zmp=1.0 * np.eye(2), k_com=5.0 * np.eye(2))
        xd_ref = np.array([0.2, -0.1])
        out = zmp_com_control([0.1, 0.1], [0.1, 0.1], xd_ref,
                              [0.0, 0.0], [0.0, 0.0], gains)
        assert np.allclose(out, xd_ref)

    def test_direct_substitution(self):
        gains = ZmpComGains(k_zmp=1.0 * np.eye(2), k_com=4.0 * np.eye(2))
        out = zmp_com_control([0.0, 0.0], [0.01, 0.0], [0.0, 0.0],
                              [0.0, 0.0], [0.02, 0.0], gains)
        # xd_ref - K_zmp (r_ref - r) + K_com (x_ref - x) = 0.04 - 0.02.
        assert np.allclose(out, [0.02, 0.0], atol=1e-12)

    def test_closed_loop_com_decay(self):
        # Perfectly tracked ZMP: xdot = xd* drives the CoM error below 1e-4.
        omega = 4.3
        gains = ZmpComGains(k_zmp=1.0 * np.eye(2),
                            k_com=5.0 * np.eye(2)).validate(omega)
        x = np.zeros(2)
        x_ref = np.array([0.05, -0.02])
        dt = 0.01
        for _ in range(int(3.0 / dt)):
            xd = zmp_com_control(x, x_ref, np.zeros(2), np.zeros(2), np.zeros(2),
                                 gains)
            x = x + dt * xd
        assert np.linalg.norm(x - x_ref) < 1e-4

    def test_gain_invariants(self):
        omega = 4.3
        with pytest.raises(ValueError):
            ZmpComGains(k_zmp=1.0 * np.eye(2), k_com=omega * np.eye(2)).validate(omega)
        with pytest.raises(ValueError):
            ZmpComGains(k_zmp=omega * np.eye(2), k_com=6.0 * np.eye(2)).validate(omega)
        ZmpComGains(k_zmp=1.0 * np.eye(2), k_com=6.0 * np.eye(2)).validate(omega)

    @pytest.mark.parametrize("name", ["k_zmp", "k_com"])
    def test_non_finite_gains_rejected(self, name):
        gains = {"k_zmp": 1.0 * np.eye(2), "k_com": 6.0 * np.eye(2)}
        gains[name] = np.nan * np.eye(2)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ZmpComGains(**gains).validate(4.3)


def _gain(rng, diagonal, lo, hi):
    """A 2 x 2 SPD gain with eigenvalues in [lo, hi]."""
    if diagonal:
        return np.diag(rng.uniform(lo, hi, 2))
    Q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    M = Q @ np.diag(rng.uniform(lo, hi, 2)) @ Q.T
    return 0.5 * (M + M.T)


def _assert_law_matches(got, want, diagonal, scale):
    """Bit-equal for diagonal gains, as the program's are. For general
    gains BLAS may fuse a multiply and an add, so the float evaluation may
    differ from the matrix one by the rounding of a term of size `scale`."""
    if diagonal:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15 * scale)


class TestFloatLaws:
    """The PI and ZMP-CoM laws on floats against their matrix form in
    `oracles`."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans())
    def test_zmp_com_law(self, seed, diagonal):
        rng = np.random.default_rng(seed)
        k_zmp, k_com = _gain(rng, diagonal, 0.1, 4.0), _gain(rng, diagonal, 4.5, 9.0)
        gains = ZmpComGains(k_zmp=k_zmp, k_com=k_com)
        for _ in range(20):
            args = rng.normal(scale=0.3, size=(5, 2))
            _assert_law_matches(zmp_com_control(*args, gains),
                                zmp_com_law(*args, k_zmp, k_com), diagonal,
                                scale=20.0 * np.abs(args).max())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans())
    def test_pi_law(self, seed, diagonal):
        # A DCM error biased by 0.3-1 m winds the integral up to the clamp
        # within 20 cycles, so both branches of the anti-windup run.
        rng = np.random.default_rng(seed)
        kp, ki = _gain(rng, diagonal, 1.5, 6.0), _gain(rng, diagonal, 0.0, 2.0)
        omega = rng.uniform(2.0, 6.0)
        ctrl = InstantaneousDcmController(InstantaneousGains(kp=kp, ki=ki), omega)
        oracle = PiDcmLaw(kp, ki, ctrl.gains.anti_windup, omega)
        bias = rng.uniform(0.3, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        clamped = 0
        for _ in range(60):
            xi_ref, xid_ref, noise = rng.normal(scale=0.3, size=(3, 2))
            xi = xi_ref + bias + noise
            got = ctrl.control(xi, xi_ref, xid_ref, 0.01)
            want = oracle.control(xi, xi_ref, xid_ref, 0.01)
            _assert_law_matches(ctrl.integral, oracle.integral, diagonal, scale=0.1)
            _assert_law_matches(got, want, diagonal,
                                scale=10.0 * np.abs([xi, xi_ref, xid_ref]).max())
            clamped += np.linalg.norm(oracle.integral) >= ctrl.gains.anti_windup * (1 - 1e-12)
        assert clamped


class TestGainSchedule:
    def sets(self):
        standing = ZmpComGains(k_zmp=0.6 * np.eye(2), k_com=5.0 * np.eye(2))
        walking = ZmpComGains(k_zmp=1.2 * np.eye(2), k_com=6.5 * np.eye(2))
        return standing, walking

    def test_minimum_jerk_quintic(self):
        assert minimum_jerk(0.0) == 0.0
        assert minimum_jerk(1.0) == 1.0
        assert abs(minimum_jerk(0.5) - 0.5) < 1e-12
        u = 0.3
        assert abs(minimum_jerk(u) - (10 * u**3 - 15 * u**4 + 6 * u**5)) < 1e-15

    def test_endpoints(self):
        standing, walking = self.sets()
        g0 = gain_schedule(0.0, standing, walking)
        g1 = gain_schedule(1.0, standing, walking)
        assert np.allclose(g0.k_zmp, standing.k_zmp)
        assert np.allclose(g1.k_com, walking.k_com)

    def test_midpoint_mean(self):
        standing, walking = self.sets()
        g = gain_schedule(0.5, standing, walking)
        assert np.allclose(g.k_zmp, 0.5 * (standing.k_zmp + walking.k_zmp))

    def test_out_of_range_rejected(self):
        standing, walking = self.sets()
        with pytest.raises(ValueError):
            gain_schedule(1.5, standing, walking)

    @settings(max_examples=150, deadline=None)
    @given(omega=st.floats(1.0, 10.0), blend=st.floats(0.0, 1.0),
           angles=st.lists(st.floats(0.0, np.pi), min_size=4, max_size=4),
           ratios=st.lists(st.floats(0.01, 0.99), min_size=8, max_size=8))
    def test_blend_of_valid_sets_is_valid(self, omega, blend, angles, ratios):
        # k_zmp's eigenvalues lie in (0, omega) and k_com's above omega, each
        # pair along its own random axes, so the two sets differ in shape.
        def spd(angle, eigs):
            c, s = np.cos(angle), np.sin(angle)
            R = np.array([[c, -s], [s, c]])
            M = R @ np.diag(eigs) @ R.T
            return 0.5 * (M + M.T)

        def gains(a_zmp, a_com, r):
            return ZmpComGains(k_zmp=spd(a_zmp, [r[0] * omega, r[1] * omega]),
                               k_com=spd(a_com, [omega / r[2], omega / r[3]])).validate(omega)

        standing = gains(angles[0], angles[1], ratios[:4])
        walking = gains(angles[2], angles[3], ratios[4:])
        blended = gain_schedule(blend, standing, walking)
        assert blended.validate(omega) is blended
