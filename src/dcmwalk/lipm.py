"""Planar LIPM/DCM state, exact discrete propagation and rotation-error feedback.

The walking-plane dynamics used throughout the stack:

    xdot  = -w (x - xi)         (CoM converges to the DCM)
    xidot =  w (xi - r_zmp)     (DCM diverges away from the ZMP)

with w = sqrt(g / z0) the pendulum constant.
"""

from dataclasses import dataclass

import numpy as np

from .so3 import ORTHONORMALITY_TOL, rows_are_rotation


def _planar(v, name="vector"):
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components")
    return a


@dataclass(frozen=True)
class PendulumParams:
    """Gravity, CoM height and the cached pendulum constant omega = sqrt(g/z0)."""

    gravity: float
    com_height: float
    omega: float

    @classmethod
    def from_height(cls, com_height, gravity=9.80665):
        # A bad height gives a NaN or inf omega, which __post_init__ rejects.
        with np.errstate(divide="ignore", invalid="ignore"):
            omega = float(np.sqrt(np.divide(gravity, com_height)))
        return cls(gravity=gravity, com_height=com_height, omega=omega)

    def __post_init__(self):
        # Written so that NaN fails: every comparison with NaN is False.
        if not (0.0 < self.gravity < np.inf and 0.0 < self.com_height < np.inf
                and 0.0 < self.omega < np.inf):
            raise ValueError("gravity, com_height and omega must be positive and finite")
        if abs(self.omega - np.sqrt(self.gravity / self.com_height)) > 1e-9 * self.omega:
            raise ValueError("omega inconsistent with sqrt(gravity / com_height)")


@dataclass(frozen=True)
class SimplifiedState:
    """CoM position, CoM velocity and DCM on the walking plane."""

    com: np.ndarray
    com_velocity: np.ndarray
    dcm: np.ndarray

    @classmethod
    def from_com(cls, com, com_velocity, omega):
        com = _planar(com, "com")
        com_velocity = _planar(com_velocity, "com_velocity")
        return cls(com=com, com_velocity=com_velocity,
                   dcm=dcm_from_com(com, com_velocity, omega))


def dcm_from_com(com, com_velocity, omega):
    """xi = x + xdot / w."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return _planar(com, "com") + _planar(com_velocity, "com_velocity") / omega


def com_velocity_from_dcm(com, dcm, omega):
    """Inverse relation: xdot = w (xi - x)."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return omega * (_planar(dcm, "dcm") - _planar(com, "com"))


def step_exact(state, r_zmp, params, duration):
    """Exact flow of the planar dynamics under a constant ZMP over `duration`.

    The DCM row is the scalar exponential xi+ = e^{wT} xi + (1 - e^{wT}) r.
    The CoM row is the closed-form solution of x' = -w (x - xi(t)) driven by
    that diverging DCM:
        x(T) = r + e^{-wT} (x0 - r) + (xi0 - r) (e^{wT} - e^{-wT}) / 2.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    r = _planar(r_zmp, "r_zmp")
    w = params.omega
    ep = np.exp(w * duration)
    em = np.exp(-w * duration)
    dcm_next = r + ep * (state.dcm - r)
    com_next = (r + em * (state.com - r)
                + 0.5 * (state.dcm - r) * (ep - em))
    vel_next = com_velocity_from_dcm(com_next, dcm_next, w)
    return SimplifiedState(com=com_next, com_velocity=vel_next, dcm=dcm_next)


def rotation_error(r, d):
    """vee(sk(R R_des^T)) as three floats, from the rows of R and of R_des
    as lists of floats; a ValueError when either is not a rotation.

    Entry (i, j) of R R_des^T is row i of R dotted with row j of R_des;
    the term needs only the six off-diagonal entries.
    """
    if not rows_are_rotation(r):
        raise ValueError(f"R is not orthonormal within {ORTHONORMALITY_TOL}")
    if not rows_are_rotation(d):
        raise ValueError(f"R_des is not orthonormal within {ORTHONORMALITY_TOL}")
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = d
    return (0.5 * ((r20 * d10 + r21 * d11 + r22 * d12) - (r10 * d20 + r11 * d21 + r12 * d22)),
            0.5 * ((r00 * d20 + r01 * d21 + r02 * d22) - (r20 * d00 + r21 * d01 + r22 * d02)),
            0.5 * ((r10 * d00 + r11 * d01 + r12 * d02) - (r00 * d10 + r01 * d11 + r02 * d12)))
