"""Footstep planning on a planar unicycle path plus swing-foot interpolation.

The robot is abstracted as a unicycle whose wheels are the feet: the path is
integrated at a fixed sampling step and candidate impact times are scanned
greedily, taking the earliest sample that satisfies every step bound.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


class FootSide(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self):
        return FootSide.RIGHT if self is FootSide.LEFT else FootSide.LEFT


@dataclass(frozen=True)
class Footstep:
    side: FootSide
    position: np.ndarray  # planar, meters
    yaw: float
    impact_time: float

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float).reshape(2))


@dataclass(frozen=True)
class UnicycleConfig:
    forward_velocity: float = 0.0      # m/s
    angular_velocity: float = 0.0      # rad/s
    min_step_duration: float = 0.35    # s
    max_step_duration: float = 1.1     # s
    min_step_length: float = 0.005     # m, same-foot stride
    max_step_length: float = 0.35      # m
    max_feet_yaw: float = 0.35         # rad, between the two feet
    feet_spacing: float = 0.14         # m, nominal lateral distance
    sampling_dt: float = 0.01          # s, path integration step

    def __post_init__(self):
        # The checks below let NaN and infinite bounds through.
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (0.0 < self.min_step_duration < self.max_step_duration):
            raise ValueError("step duration bounds must satisfy 0 < min < max")
        if not (0.0 < self.min_step_length < self.max_step_length):
            raise ValueError("step length bounds must satisfy 0 < min < max")
        if self.max_feet_yaw <= 0.0 or self.feet_spacing <= 0.0 or self.sampling_dt <= 0.0:
            raise ValueError("max_feet_yaw, feet_spacing and sampling_dt must be positive")


class PlanInfeasibleError(RuntimeError):
    """Raised when no sampled impact time satisfies the step bounds."""

    def __init__(self, message, violated_bound):
        super().__init__(f"{message} (violated bound: {violated_bound})")
        self.violated_bound = violated_bound


def _foot_offset(side, spacing):
    return 0.5 * spacing if side is FootSide.LEFT else -0.5 * spacing


def _unicycle_pose(t, config):
    """Closed-form unicycle pose under constant (v, omega) from the origin."""
    v, wz = config.forward_velocity, config.angular_velocity
    if abs(wz) < 1e-12:
        return np.array([v * t, 0.0]), 0.0
    theta = wz * t
    radius = v / wz
    return np.array([radius * np.sin(theta), radius * (1.0 - np.cos(theta))]), theta


def _foot_on_path(t, side, config, origin, origin_yaw):
    p_local, yaw_local = _unicycle_pose(t, config)
    c, s = np.cos(origin_yaw), np.sin(origin_yaw)
    R = np.array([[c, -s], [s, c]])
    yaw = origin_yaw + yaw_local
    normal = np.array([-np.sin(yaw), np.cos(yaw)])
    return origin + R @ p_local + _foot_offset(side, config.feet_spacing) * normal, yaw


def plan_footsteps(config, initial_feet, horizon):
    """Greedy sampled footstep plan over `horizon` seconds.

    `initial_feet` are the two current stance feet (impact_time 0). A
    stationary command returns only the initial feet.
    """
    left = next(f for f in initial_feet if f.side is FootSide.LEFT)
    right = next(f for f in initial_feet if f.side is FootSide.RIGHT)
    if np.linalg.norm(left.position - right.position) < 1e-9:
        raise ValueError("initial feet must not coincide")
    if not np.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon <= config.min_step_duration:
        raise ValueError("horizon must exceed one minimum step duration")
    if abs(config.forward_velocity) < 1e-12 and abs(config.angular_velocity) < 1e-12:
        return [left, right]

    origin = 0.5 * (left.position + right.position)
    origin_yaw = 0.5 * (left.yaw + right.yaw)
    plan = [left, right]
    last_pose = {FootSide.LEFT: left, FootSide.RIGHT: right}
    # First swing foot: the one farther behind along the path direction.
    heading = np.array([np.cos(origin_yaw), np.sin(origin_yaw)])
    swing = FootSide.LEFT if (left.position - right.position) @ heading < 0 else FootSide.RIGHT
    t_prev = 0.0
    while True:
        t_lo = t_prev + config.min_step_duration
        t_hi = min(t_prev + config.max_step_duration, horizon)
        if t_lo > t_hi:
            break
        chosen = None
        saw_short = False
        saw_long = False
        n_samples = int(np.floor((t_hi - t_lo) / config.sampling_dt)) + 1
        for k in range(n_samples):
            t = t_lo + k * config.sampling_dt
            pos, yaw = _foot_on_path(t, swing, config, origin, origin_yaw)
            stride = np.linalg.norm(pos - last_pose[swing].position)
            stance_yaw = last_pose[swing.other].yaw
            if stride < config.min_step_length:
                saw_short = True
                continue
            if stride > config.max_step_length:
                saw_long = True
                break
            if abs(_wrap_angle(yaw - stance_yaw)) > config.max_feet_yaw:
                # Later samples only rotate further away from the stance yaw.
                break
            chosen = Footstep(side=swing, position=pos, yaw=yaw, impact_time=t)
            break
        if chosen is None:
            if saw_long and not saw_short:
                raise PlanInfeasibleError(
                    "command too fast for the configured bounds", "max_step_length")
            if saw_short:
                # Path too slow to reach a valid stride: stop planning.
                break
            raise PlanInfeasibleError(
                "no sample satisfies the step bounds", "max_feet_yaw")
        plan.append(chosen)
        last_pose[swing] = chosen
        swing = swing.other
        t_prev = chosen.impact_time
    return plan


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _hermite_coeffs(p0, v0, p1, v1, T):
    """Coefficients a0..a3 of the Hermite cubic a0 + a1 t + a2 t^2 + a3 t^3 on
    [0, T] from the boundary values and rates; with per-axis arrays, one
    column per axis."""
    a2 = (3.0 * (p1 - p0) - (2.0 * v0 + v1) * T) / T**2
    a3 = (2.0 * (p0 - p1) + (v0 + v1) * T) / T**3
    return np.array([p0, v0, a2, a3])


def _hermite_eval(coeffs, t):
    """Value and rate at t of the cubic(s) from `_hermite_coeffs`."""
    a0, a1, a2, a3 = coeffs
    return (a0 + t * (a1 + t * (a2 + t * a3)),
            a1 + t * (2.0 * a2 + 3.0 * t * a3))


@dataclass(frozen=True)
class SwingTrajectory:
    """Cubic swing-foot pose trajectory on [t_start, t_end].

    Planar position and yaw are single cubics with zero boundary velocities;
    the vertical lift is a two-piece cubic reaching `apex` exactly at
    mid-swing and returning to ground height at touch-down.
    """

    t_start: float
    t_end: float
    coeffs_xy: np.ndarray     # (2, 4)
    coeffs_yaw: np.ndarray    # (4,)
    apex: float
    ground_height: float = 0.0

    def __post_init__(self):
        # Each cubic once, as float tuples: the plan table calls pose for
        # every cycle of a swing. On numpy arrays instead: a 12 s walk's
        # PlanTable build +28% (+4.4 ms, outside the spread of 10 pairs).
        half = 0.5 * (self.t_end - self.t_start)
        top = self.ground_height + self.apex
        cubics = (self.coeffs_xy[0], self.coeffs_xy[1], self.coeffs_yaw,
                  _hermite_coeffs(self.ground_height, 0.0, top, 0.0, half),
                  _hermite_coeffs(top, 0.0, self.ground_height, 0.0, half))
        object.__setattr__(self, "_half", half)
        object.__setattr__(self, "_cubics", tuple(
            tuple(np.asarray(c, dtype=float).tolist()) for c in cubics))

    def pose(self, t):
        """(position 3-vector, yaw, linear velocity 3-vector, yaw rate) at t."""
        tau = min(max(t, self.t_start), self.t_end) - self.t_start
        cx, cy, cyaw, lift, lower = self._cubics
        x, vx = _hermite_eval(cx, tau)
        y, vy = _hermite_eval(cy, tau)
        yaw, yaw_rate = _hermite_eval(cyaw, tau)
        # The lift reaches the apex at mid-swing; the descent starts there.
        if tau <= self._half:
            z, vz = _hermite_eval(lift, tau)
        else:
            z, vz = _hermite_eval(lower, tau - self._half)
        return np.array([x, y, z]), yaw, np.array([vx, vy, vz]), yaw_rate


def swing_trajectory(start, target, phase, apex=0.03):
    """Interpolate the swing foot from `start` to `target` over `phase`.

    `phase` is the (t_start, t_end) interval; boundary velocities are zero and
    yaw follows the shortest angular path with the same cubic time scaling.
    """
    t_start, t_end = phase
    if t_end <= t_start:
        raise ValueError("degenerate swing phase duration")
    if apex <= 0.0:
        raise ValueError("apex must be positive")
    T = t_end - t_start
    cx = _hermite_coeffs(start.position[0], 0.0, target.position[0], 0.0, T)
    cy = _hermite_coeffs(start.position[1], 0.0, target.position[1], 0.0, T)
    dyaw = _wrap_angle(target.yaw - start.yaw)
    cyaw = _hermite_coeffs(start.yaw, 0.0, start.yaw + dyaw, 0.0, T)
    return SwingTrajectory(t_start=t_start, t_end=t_end,
                           coeffs_xy=np.array([cx, cy]), coeffs_yaw=cyaw, apex=apex)


class PhaseKind(Enum):
    SINGLE_SUPPORT = "ss"
    DOUBLE_SUPPORT = "ds"
    TERMINAL = "terminal"


@dataclass(frozen=True)
class GaitPhase:
    kind: PhaseKind
    t_start: float
    t_end: float
    stance_zmp: np.ndarray            # reference ZMP during the phase
    stance_side: FootSide = None      # stance foot in SS; None otherwise
    swing: SwingTrajectory = None     # active swing trajectory in SS
    interval_start: float = None      # enclosing inter-impact interval
    interval_end: float = None
    feet: dict = None                 # side -> latest planted Footstep

    @property
    def duration(self):
        return self.t_end - self.t_start


@dataclass(frozen=True)
class GaitTimeline:
    """Alternating DS/SS phases covering [0, horizon], plus a terminal stance."""

    phases: tuple
    footsteps: tuple

    @property
    def horizon(self):
        return self.phases[-1].t_end

    def phase_at(self, t):
        """The first phase with t_start - 1e-12 <= t < t_end, else the last."""
        for ph in self.phases:
            if ph.t_start - 1e-12 <= t < ph.t_end:
                return ph
        return self.phases[-1]

    def phase_indices(self, times):
        """Index into `phases` of `phase_at(t)` for every t of the array
        `times`, tolerance included. The phases start and end in order, so
        the first phase that ends after t is the only one that can hold it."""
        starts = np.array([ph.t_start - 1e-12 for ph in self.phases])
        ends = np.array([ph.t_end for ph in self.phases])
        if (np.diff(starts) < 0.0).any() or (np.diff(ends) < 0.0).any():
            raise ValueError("phases must start and end in time order")
        times = np.asarray(times, dtype=float)
        last = len(self.phases) - 1
        i = np.minimum(np.searchsorted(ends, times, side="right"), last)
        return np.where(starts[i] <= times, i, last)

    def step_sequence(self):
        """(zmp_refs, durations) consumed by the DCM planner.

        One stance ZMP per inter-impact interval plus the terminal ZMP; one
        duration per interval (the terminal stance carries no duration).
        """
        zmps = []
        durations = []
        for ph in self.phases:
            if ph.kind is PhaseKind.TERMINAL:
                zmps.append(ph.stance_zmp)
                break
            if ph.kind is PhaseKind.SINGLE_SUPPORT:
                zmps.append(ph.stance_zmp)
                durations.append(ph.interval_end - ph.interval_start)
        return zmps, durations


def timeline_from_footsteps(steps, ds_ratio=0.2, apex=0.03, final_stand=0.5):
    """Phase bookkeeping: impacts -> alternating DS/SS intervals.

    Between consecutive impacts t_k < t_{k+1} the stance foot is the one that
    is not landing at t_{k+1}. Double-support windows bracket each impact
    symmetrically with half-width 0.5 ds_ratio times the shorter adjacent
    interval, so the swing foot is planted whenever the planned ZMP transfers
    between feet. The ZMP reference sits on the stance foot center and moves
    to the feet midpoint for the terminal stance.
    """
    if len(steps) < 2:
        raise ValueError("need at least two footsteps")
    if not 0.0 <= ds_ratio < 1.0:
        raise ValueError("ds_ratio must be in [0, 1)")
    if final_stand <= 0.0:
        raise ValueError("final_stand must be positive")
    impacts = [0.0] + [s.impact_time for s in steps[2:]]
    if any(b - a <= 0 for a, b in zip(impacts, impacts[1:])):
        raise ValueError("impact times must be strictly increasing")

    feet = {s.side: s for s in steps[:2]}
    moving = steps[2:]
    n = len(moving)
    lengths = [b - a for a, b in zip(impacts, impacts[1:])] + [final_stand]
    # Half-width of the double-support window at junction k (impact k).
    half = [0.0] + [0.5 * ds_ratio * min(lengths[k - 1], lengths[k])
                    for k in range(1, n + 1)]

    phases = []
    for k, landing in enumerate(moving):
        t_k, t_next = impacts[k], impacts[k + 1]
        stance = feet[landing.side.other]
        start_pose = feet[landing.side]
        t_lift = t_k + half[k]
        t_down = t_next - half[k + 1]
        swing = swing_trajectory(start_pose, landing, (t_lift, t_down), apex=apex)
        if half[k] > 0.0:
            phases.append(GaitPhase(PhaseKind.DOUBLE_SUPPORT, t_k, t_lift,
                                    stance_zmp=stance.position.copy(),
                                    feet=dict(feet)))
        phases.append(GaitPhase(PhaseKind.SINGLE_SUPPORT, t_lift, t_down,
                                stance_zmp=stance.position.copy(),
                                stance_side=stance.side, swing=swing,
                                interval_start=t_k, interval_end=t_next,
                                feet=dict(feet)))
        feet[landing.side] = landing
        if half[k + 1] > 0.0:
            phases.append(GaitPhase(PhaseKind.DOUBLE_SUPPORT, t_down, t_next,
                                    stance_zmp=stance.position.copy(),
                                    feet=dict(feet)))
    final_mid = 0.5 * (feet[FootSide.LEFT].position + feet[FootSide.RIGHT].position)
    t_last = impacts[-1]
    phases.append(GaitPhase(PhaseKind.TERMINAL, t_last, t_last + final_stand,
                            stance_zmp=final_mid, feet=dict(feet)))
    _audit_phases(phases)
    return GaitTimeline(phases=tuple(phases), footsteps=tuple(steps))


def _audit_phases(phases):
    for a, b in zip(phases, phases[1:]):
        if abs(a.t_end - b.t_start) > 1e-12:
            raise ValueError("phase intervals must be contiguous")
        if a.duration < 0 or b.duration < 0:
            raise ValueError("phase intervals must be non-overlapping")
