"""Whole-body differential-IK layer.

Feet poses and the CoM are hard (equality) tasks, torso orientation and a
postural term are weighted soft tasks, and the joint-velocity limits are
the model's constant inequality rows; the resulting QP over the robot
velocity nu is solved every control cycle.

In "velocity" mode the starred references are built from the measured state
and the joint velocities are the command; in "position" mode they are built
from an internally integrated state and the integrated joint positions are
the command (differential IK).
"""

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .kinematics import KinematicsCache, integrate_state
from .lipm import rotation_error
from .qp import QpProblem, QpSolver, QpStatus

LEFT_FOOT = "left_foot"
RIGHT_FOOT = "right_foot"
TORSO = "torso"
# The task Jacobian's frames, in its row order after the CoM.
TASK_FRAMES = (LEFT_FOOT, RIGHT_FOOT, TORSO)

# Keeps the reduced Hessian positive definite when the soft tasks leave the
# base directions unweighted; small enough not to disturb the task optima.
BASE_REGULARIZATION = 1e-8


class ControlMode(Enum):
    POSITION = "position"
    VELOCITY = "velocity"


class RankDeficientTasksError(RuntimeError):
    def __init__(self, task):
        super().__init__(f"hard task rows are rank deficient: {task}")
        self.task = task


@dataclass(frozen=True)
class TaskGains:
    torso_weight: np.ndarray = None        # K_T, 3x3 SPD soft-task weight
    postural_weight: float = 1.0           # Lambda (scalar -> diagonal)
    postural_gain: float = 2.0             # K_s
    torso_rotation_gain: float = 3.0       # K_omega_T
    foot_position_gain: float = 10.0       # K^p_x
    foot_integral_gain: float = 0.1        # K^i_x
    foot_rotation_gain: float = 5.0        # K_omega_f
    com_position_gain: float = 4.0         # K^p_C (planar)
    com_integral_gain: float = 0.5         # K^i_C (planar)
    com_height_gain: float = 2.0           # vertical proportional hold
    integral_bound: float = 0.05           # anti-windup clamp, m*s

    def __post_init__(self):
        W = np.asarray(self.torso_weight, dtype=float) if self.torso_weight is not None \
            else 5.0 * np.eye(3)
        # Written so that NaN fails: every comparison with NaN is False.
        if W.shape != (3, 3) or not np.isfinite(W).all() \
                or not np.linalg.eigvalsh(0.5 * (W + W.T)).min() > 0.0:
            raise ValueError("torso_weight must be finite, 3x3 and positive definite")
        object.__setattr__(self, "torso_weight", W)
        for name in ("postural_weight", "postural_gain", "torso_rotation_gain",
                     "foot_position_gain", "foot_rotation_gain",
                     "com_position_gain", "com_height_gain", "integral_bound"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("foot_integral_gain", "com_integral_gain"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")

    def __eq__(self, other):
        if type(other) is not TaskGains:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class FootReference:
    position: np.ndarray
    rotation: np.ndarray
    linear_velocity: np.ndarray
    angular_velocity: np.ndarray

    @classmethod
    def stationary(cls, position, rotation):
        return cls(position=np.asarray(position, dtype=float),
                   rotation=np.asarray(rotation, dtype=float),
                   linear_velocity=np.zeros(3), angular_velocity=np.zeros(3))


@dataclass(frozen=True)
class WholeBodyReferences:
    com_velocity_cmd: np.ndarray     # planar xdot* from the ZMP-CoM law
    left_foot: FootReference
    right_foot: FootReference
    torso_rotation: np.ndarray
    posture: np.ndarray
    com_position: np.ndarray         # planar CoM position reference


def _clamp_norm(v, bound):
    n = math.sqrt(v @ v)
    return v if n <= bound else v * (bound / n)


@dataclass
class _Integrators:
    com_err: np.ndarray = field(default_factory=lambda: np.zeros(2))
    foot_err: dict = field(default_factory=lambda: {LEFT_FOOT: np.zeros(3),
                                                    RIGHT_FOOT: np.zeros(3)})
    prev_com_err: np.ndarray = None
    prev_foot_err: dict = field(default_factory=dict)


def _foot_velocity(pose, reference, integral, gains, out):
    """Append the starred 6D foot velocity to `out`: v_ref - K_p e_p -
    K_i int(e_p), then w_ref - K_w vee(sk(R R_ref^T)); returns e_p."""
    r0, r1, r2, (px, py, pz) = pose
    kp, ki, kw = gains.foot_position_gain, gains.foot_integral_gain, gains.foot_rotation_gain
    rx, ry, rz = reference.position.tolist()
    ex, ey, ez = px - rx, py - ry, pz - rz
    (vx, vy, vz), (wx, wy, wz) = (reference.linear_velocity.tolist(),
                                  reference.angular_velocity.tolist())
    ix, iy, iz = integral.tolist()
    qx, qy, qz = rotation_error((r0, r1, r2), reference.rotation.tolist())
    out += (vx - kp * ex - ki * ix, vy - kp * ey - ki * iy, vz - kp * ez - ki * iz,
            wx - kw * qx, wy - kw * qy, wz - kw * qz)
    return np.array([ex, ey, ez])


def _task_velocities(poses, com, refs, integ, gains, z0):
    """The starred task velocities and the tracking errors, on Python floats
    with the products and sums of the vector laws in their order.

    `poses` is the `KinematicsCache.frame_poses` array of TASK_FRAMES and
    `com` the whole-body CoM. Returns the torso's -K_omega_T vee(sk(R
    R_ref^T)), b_eq = [v_com; v_left; v_right] (the CoM's planar v - K_p e -
    K_i int(e) and height hold -K_z (z - z0), then each foot's
    `_foot_velocity`), and the planar CoM error and the feet's position
    errors as arrays, for the integrators.
    """
    left, right, (t0, t1, t2, _) = poses.tolist()
    qx, qy, qz = rotation_error((t0, t1, t2), refs.torso_rotation.tolist())
    kt = gains.torso_rotation_gain
    v_torso = np.array([-kt * qx, -kt * qy, -kt * qz])

    kp, ki = gains.com_position_gain, gains.com_integral_gain
    x, y, z = com.tolist()
    rx, ry = np.asarray(refs.com_position, dtype=float).tolist()
    vx, vy = np.asarray(refs.com_velocity_cmd, dtype=float).tolist()
    ix, iy = integ.com_err.tolist()
    ex, ey = x - rx, y - ry
    b_eq = [vx - kp * ex - ki * ix, vy - kp * ey - ki * iy, -gains.com_height_gain * (z - z0)]
    foot_errs = {LEFT_FOOT: _foot_velocity(left, refs.left_foot, integ.foot_err[LEFT_FOOT],
                                           gains, b_eq),
                 RIGHT_FOOT: _foot_velocity(right, refs.right_foot, integ.foot_err[RIGHT_FOOT],
                                            gains, b_eq)}
    return v_torso, np.array(b_eq), np.array([ex, ey]), foot_errs


def build_wholebody_qp(model, cache, v_torso_star, b_eq, sdot_star, gains):
    """Assemble the QP over nu = (base twist, joint velocities); `b_eq` is
    the hard tasks' starred velocities [v_com; v_left; v_right]."""
    nv = model.n_velocities
    # Hard task rows [J_com; J_left_foot; J_right_foot], then the torso's
    # linear and angular rows.
    J = cache.task_jacobian(TASK_FRAMES)
    A_eq, J_torso = J[:15], J[18:]

    K_T = gains.torso_weight
    H = J_torso.T @ K_T @ J_torso
    diagonal = H.reshape(-1)[::nv + 1]   # a view: writes go into H
    diagonal[6:] += gains.postural_weight
    diagonal += BASE_REGULARIZATION
    H = 0.5 * (H + H.T)
    g = -J_torso.T @ K_T @ v_torso_star
    g[6:] += -gains.postural_weight * sdot_star

    _check_task_ranks(A_eq, (("com", 3), ("left_foot", 6), ("right_foot", 6)))
    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=b_eq,
                     A_in=model.rate_rows, b_in=model.rate_rhs)


def _check_task_ranks(stacked, blocks):
    """`blocks` names consecutive row blocks of `stacked` with their sizes.

    The rows are full rank when every singular value is above 1e-10, the
    count `np.linalg.matrix_rank(stacked, tol=1e-10)` makes. More rows than
    columns give fewer singular values than rows, so never full row rank.

    A Cholesky factorization of A A^T - delta I proves full rank first:
    delta bounds the rounding of the Gram product and of the factorization
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 10.1),
    so when it completes every singular value is above sqrt(1e-20). Only
    when it fails does the SVD decide.
    """
    m, n = stacked.shape
    if m <= n:
        gram = stacked @ stacked.T
        # trace(A A^T) is the sum of squares of A.
        delta = 1e-20 + 2 * (m + n + 2) * 2.0**-53 * np.vdot(stacked, stacked)
        gram.flat[::m + 1] -= delta
        try:
            np.linalg.cholesky(gram)
            return
        except np.linalg.LinAlgError:
            if np.linalg.svd(stacked, compute_uv=False).min() > 1e-10:
                return
    # Deficient: walk the blocks to name the first offender.
    rank = 0
    end = 0
    for name, rows in blocks:
        end += rows
        new_rank = np.linalg.matrix_rank(stacked[:end], tol=1e-10)
        if new_rank < rank + rows:
            raise RankDeficientTasksError(name)
        rank = new_rank
    raise RankDeficientTasksError(blocks[-1][0])


class WholeBodyController:
    """One instance per control loop; owns the mode-dependent internal state."""

    def __init__(self, model, gains, mode, dt, z0, initial_state):
        self.model = model
        self.gains = gains
        self.mode = ControlMode(mode)
        self.dt = dt
        self.z0 = z0
        self.internal_state = initial_state.copy()
        self._integ = _Integrators()
        self._solver = QpSolver()

    def cycle(self, refs, measured_state):
        """One control cycle; returns (command vector, diagnostics dict).

        Raises `RankDeficientTasksError`, naming the task, when the hard
        task rows are rank deficient, and `RuntimeError` when the QP does
        not end optimal.
        """
        state = self.internal_state if self.mode is ControlMode.POSITION else measured_state
        cache = KinematicsCache(self.model, state)
        gains = self.gains
        v_torso, b_eq, com_err, foot_errs = _task_velocities(
            cache.frame_poses(TASK_FRAMES), cache.com(), refs, self._integ, gains, self.z0)
        sdot_star = -gains.postural_gain * (state.joint_positions - refs.posture)

        problem = build_wholebody_qp(self.model, cache, v_torso, b_eq, sdot_star, gains)
        sol = self._solver.solve(problem)
        if sol.status is not QpStatus.OPTIMAL:
            raise RuntimeError(f"whole-body QP failed: {sol.status.value}")
        nu = sol.w

        self._advance_integrators(com_err, foot_errs)
        if self.mode is ControlMode.POSITION:
            self.internal_state = integrate_state(self.internal_state, nu, self.dt)
            command = self.internal_state.joint_positions.copy()
        else:
            command = nu[6:].copy()
        diag = {
            "nu": nu,
            "hard_residual": sol.eq_residual,
            "qp_iterations": sol.iterations,
        }
        return command, diag

    def _advance_integrators(self, com_err, foot_errs):
        integ = self._integ
        dt = self.dt
        prev = com_err if integ.prev_com_err is None else integ.prev_com_err
        integ.com_err = _clamp_norm(integ.com_err + 0.5 * dt * (prev + com_err),
                                    self.gains.integral_bound)
        integ.prev_com_err = com_err
        for frame, err in foot_errs.items():
            prev = integ.prev_foot_err.get(frame, err)
            integ.foot_err[frame] = _clamp_norm(
                integ.foot_err[frame] + 0.5 * dt * (prev + err),
                self.gains.integral_bound)
            integ.prev_foot_err[frame] = err
