"""SO(3) helper functions."""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dcmwalk.so3 import exp_so3, rot_x, rot_y, rot_z, rows_are_rotation, rpy_to_rotation, skew
from oracles import exp_so3_plain, sk, vee


def test_skew_matches_cross():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v, u = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(v) @ u, np.cross(v, u))


def test_vee_inverts_skew():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(size=3)
        assert np.allclose(vee(skew(v)), v)


def test_sk_antisymmetric_part():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    S = sk(A)
    assert np.allclose(S, -S.T)
    assert np.allclose(S + 0.5 * (A + A.T), A)


def test_exp_so3_axis_angle():
    # Rotation about z by a matches the planar rotation matrix.
    a = 0.37
    assert np.allclose(exp_so3([0, 0, a]), rot_z(a), atol=1e-12)
    assert np.allclose(exp_so3([a, 0, 0]), rot_x(a), atol=1e-12)
    assert np.allclose(exp_so3([0, a, 0]), rot_y(a), atol=1e-12)


def test_exp_so3_is_rotation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        R = exp_so3(rng.normal(scale=2.0, size=3))
        assert rows_are_rotation(R.tolist())


def test_exp_so3_small_angle():
    w = np.array([1e-14, 0, 0])
    assert np.allclose(exp_so3(w), np.eye(3) + skew(w))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
       scale=st.sampled_from([1.0, 1e-6, 1e-12, 1e-13, 1e-15, 0.0]))
def test_exp_so3_equals_plain_form(w, scale):
    # Scales of 1e-13 and below give angles under 1e-12, the first-order branch.
    w = scale * np.array(w)
    event("first-order branch" if np.sqrt(w @ w) < 1e-12 else "Rodrigues branch")
    R = exp_so3(w)
    assert np.array_equal(R, exp_so3_plain(w))
    assert R.shape == (3, 3) and R.dtype == float


def test_exp_so3_rodrigues_oracle():
    # Independent Rodrigues evaluation via matrix series terms.
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.normal(size=3)
        th = np.linalg.norm(w)
        K = skew(w / th)
        R_ref = np.eye(3) + np.sin(th) * K + (1 - np.cos(th)) * (K @ K)
        assert np.allclose(exp_so3(w), R_ref, atol=1e-12)


def test_rpy_to_rotation_composition():
    r, p, y = 0.1, -0.2, 0.3
    assert np.allclose(rpy_to_rotation(r, p, y), rot_z(y) @ rot_y(p) @ rot_x(r))


def test_is_rotation_rejects():
    assert rows_are_rotation(np.eye(3).tolist())
    assert not rows_are_rotation((np.eye(3) * 1.001).tolist())
    assert not rows_are_rotation((-np.eye(3)).tolist())  # det -1


def _is_rotation_linalg(R, tol):
    """The check as first written, through np.linalg."""
    if np.linalg.norm(R.T @ R - np.eye(3), ord=np.inf) > tol:
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
       kind=st.sampled_from(["rotation", "reflection", "scaled", "near_tol"]),
       scale=st.floats(-3.0, 3.0),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_is_rotation_agrees_with_linalg(w, kind, scale, direction):
    R = exp_so3(np.array(w))
    E = np.array(direction).reshape(3, 3)
    if kind == "reflection":
        R = R @ np.diag([1.0, 1.0, -1.0])
    elif kind == "scaled":
        R = (1.0 + 10.0 ** (scale - 9.0)) * R
    elif kind == "near_tol":
        # Perturbations from a tenth to ten times the tolerance.
        R = R + 10.0 ** (scale / 3.0) * 1e-9 * E
    tol = 1e-9
    det = np.linalg.det(R)
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    assert abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - det) < 1e-14
    # The two determinants may round apart, and so may the two forms of
    # |R^T R - I|_inf (scalar sums against BLAS products, about 1e-16 apart),
    # so a term within that rounding of the tolerance can fall either way.
    orthonormality = np.linalg.norm(R.T @ R - np.eye(3), ord=np.inf)
    if abs(abs(det - 1.0) - tol) > 1e-14 and abs(orthonormality - tol) > 1e-14:
        assert rows_are_rotation(R.tolist(), tol) == _is_rotation_linalg(R, tol)
