"""Planar LIPM/DCM state and exact propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk.lipm import (PendulumParams, SimplifiedState, com_velocity_from_dcm,
                          dcm_from_com, step_exact)
from dcmwalk.so3 import exp_so3, rot_z
from oracles import sk, skew_vee_error, vee


def make_params(omega=3.0, z0=None):
    if z0 is None:
        z0 = 9.80665 / omega**2
    return PendulumParams.from_height(z0)


def rk4_flow(state, r_zmp, params, duration, n=2000):
    """Fine-step RK4 integration of the continuous dynamics (oracle)."""
    x = state.com.copy()
    xi = state.dcm.copy()
    w = params.omega
    r = np.asarray(r_zmp, dtype=float)

    def f(y):
        x_, xi_ = y[:2], y[2:]
        return np.concatenate([-w * (x_ - xi_), w * (xi_ - r)])

    y = np.concatenate([x, xi])
    dt = duration / n
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:2], y[2:]


class TestDcmFromCom:
    def test_rest_state(self):
        assert np.allclose(dcm_from_com([0, 0], [0, 0], 3.0), [0, 0])

    def test_direct_substitution(self):
        assert np.allclose(dcm_from_com([0.1, 0], [0.3, 0], 3.0), [0.2, 0])

    def test_hand_evaluation(self):
        # Independent scalar evaluation of xi = x + xdot / w.
        w = 3.1321
        xi = dcm_from_com([0.05, -0.02], [0.12, 0.06], w)
        assert abs(xi[0] - (0.05 + 0.12 / w)) < 1e-15
        assert abs(xi[1] - (-0.02 + 0.06 / w)) < 1e-15

    def test_inverse_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=2)
            xd = rng.normal(size=2)
            w = rng.uniform(1.0, 8.0)
            xi = dcm_from_com(x, xd, w)
            assert np.linalg.norm(com_velocity_from_dcm(x, xi, w) - xd) < 1e-12

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValueError):
            dcm_from_com([0, 0], [0, 0], 0.0)


class TestPendulumParams:
    def test_omega_cached(self):
        p = PendulumParams.from_height(0.53)
        assert abs(p.omega - np.sqrt(9.80665 / 0.53)) < 1e-12

    def test_inconsistent_omega_rejected(self):
        with pytest.raises(ValueError):
            PendulumParams(gravity=9.81, com_height=0.5, omega=1.0)

    def test_nonpositive_rejected(self):
        # from_height(nan) used to return omega = nan, and
        # PendulumParams(9.8, inf, 0.0) was accepted.
        for height in (-0.5, 0.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                PendulumParams.from_height(height)
        for args in ((9.8, float("inf"), 0.0), (float("nan"), 0.5, 4.0),
                     (float("inf"), 0.5, float("inf")), (9.8, 0.5, float("nan")),
                     (0.0, 0.5, 0.0)):
            with pytest.raises(ValueError, match="positive and finite"):
                PendulumParams(*args)


class TestStepExact:
    def test_fixed_point(self):
        p = make_params(3.0)
        r = np.array([0.2, -0.1])
        s = SimplifiedState.from_com(r, [0, 0], p.omega)
        s1 = step_exact(s, r, p, 0.5)
        assert np.linalg.norm(s1.dcm - r) < 1e-14

    def test_scalar_exponential(self):
        p = make_params(3.0)
        s = SimplifiedState(com=np.zeros(2), com_velocity=3.0 * np.array([1.0, 0.0]),
                            dcm=np.array([1.0, 0.0]))
        s1 = step_exact(s, [0.0, 0.0], p, 0.1)
        assert abs(s1.dcm[0] - np.exp(0.3)) < 1e-12

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(1)
        p = make_params(4.3)
        for _ in range(5):
            s = SimplifiedState.from_com(rng.normal(scale=0.1, size=2),
                                         rng.normal(scale=0.2, size=2), p.omega)
            r = rng.normal(scale=0.1, size=2)
            T = rng.uniform(0.05, 0.3)
            s1 = step_exact(s, r, p, T)
            x_o, xi_o = rk4_flow(s, r, p, T)
            assert np.linalg.norm(s1.com - x_o) < 1e-8
            assert np.linalg.norm(s1.dcm - xi_o) < 1e-8

    def test_composition(self):
        rng = np.random.default_rng(2)
        p = make_params(4.3)
        s = SimplifiedState.from_com(rng.normal(size=2), rng.normal(size=2), p.omega)
        r = rng.normal(size=2)
        a = step_exact(step_exact(s, r, p, 0.13), r, p, 0.27)
        b = step_exact(s, r, p, 0.40)
        assert np.linalg.norm(a.com - b.com) < 1e-10
        assert np.linalg.norm(a.dcm - b.dcm) < 1e-10

    def test_velocity_consistency(self):
        p = make_params(3.7)
        s = SimplifiedState.from_com([0.1, 0.0], [0.05, -0.02], p.omega)
        s1 = step_exact(s, [0.0, 0.0], p, 0.2)
        assert np.linalg.norm(s1.dcm - (s1.com + s1.com_velocity / p.omega)) <= 1e-9

    def test_nonpositive_duration_rejected(self):
        p = make_params(3.0)
        s = SimplifiedState.from_com([0, 0], [0, 0], p.omega)
        with pytest.raises(ValueError):
            step_exact(s, [0, 0], p, 0.0)


class TestSkewVeeError:
    def test_identity_error(self):
        R = rot_z(0.7)
        assert np.allclose(skew_vee_error(R, R), 0)

    def test_z_rotation(self):
        # sk(Rz(a)) has vee = (0, 0, sin a).
        err = skew_vee_error(rot_z(0.2), np.eye(3))
        assert np.allclose(err, [0, 0, np.sin(0.2)], atol=1e-12)

    def test_antisymmetry(self):
        R1, R2 = rot_z(0.3), rot_z(-0.4)
        assert np.allclose(skew_vee_error(R1, R2), -skew_vee_error(R2, R1))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            skew_vee_error(1.1 * np.eye(3), np.eye(3))

    @settings(max_examples=200, deadline=None)
    @given(w=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
           w_des=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
    def test_matches_matrix_form(self, w, w_des):
        R, R_des = exp_so3(np.array(w)), exp_so3(np.array(w_des))
        err = skew_vee_error(R, R_des)
        assert np.abs(err - vee(sk(R @ R_des.T))).max() <= 1e-15
        # Either argument off SO(3) is still rejected.
        for bad in ((1.0 + 1e-6) * R, R @ np.diag([1.0, 1.0, -1.0]),
                    np.where(np.eye(3) == 1.0, np.nan, R)):
            with pytest.raises(ValueError, match="R is not orthonormal"):
                skew_vee_error(bad, R_des)
            with pytest.raises(ValueError, match="R_des is not orthonormal"):
                skew_vee_error(R, bad)
