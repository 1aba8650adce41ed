"""Small SO(3) helpers shared by the simplified-model and whole-body layers."""

import math

import numpy as np

ORTHONORMALITY_TOL = 1e-9


def skew(v):
    """3-vector -> antisymmetric matrix such that skew(v) @ u == cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rows_are_rotation(rows, tol=ORTHONORMALITY_TOL):
    """Whether the 3x3 matrix R with these three rows of floats is a
    rotation: |R^T R - I|_inf <= tol (max absolute row sum) and
    |det R - 1| <= tol."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    # R^T R - I from the column dot products; one row sum per column of R.
    xx = a * a + d * d + g * g - 1.0
    yy = b * b + e * e + h * h - 1.0
    zz = c * c + f * f + i * i - 1.0
    xy = a * b + d * e + g * h
    xz = a * c + d * f + g * i
    yz = b * c + e * f + h * i
    if (abs(xx) + abs(xy) + abs(xz) > tol or abs(xy) + abs(yy) + abs(yz) > tol
            or abs(xz) + abs(yz) + abs(zz) > tol):
        return False
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return abs(det - 1.0) <= tol


def exp_so3(w):
    """Rodrigues formula: rotation matrix of the axis-angle vector w."""
    w = np.asarray(w, dtype=float).reshape(3)
    wx, wy, wz = w.tolist()
    theta = math.sqrt(wx * wx + wy * wy + wz * wz)
    if theta < 1e-12:
        return np.eye(3) + skew(w)
    x, y, z = wx / theta, wy / theta, wz / theta
    # numpy's sin and cos, not math's: numpy's SIMD loops need not round as libm.
    c, s = float(np.cos(theta)), float(np.sin(theta))
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C]])


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_to_rotation(roll, pitch, yaw):
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
