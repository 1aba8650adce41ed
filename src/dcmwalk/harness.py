"""Closed-loop scenario runner.

Wires the three layers together around a stand-in plant each control cycle:

  planner (offline)  : footsteps -> gait timeline -> DCM reference
  simplified control : instantaneous or predictive DCM stabilizer + ZMP-CoM law
  whole-body control : differential-IK QP, position or velocity mode
  plant              : exact LIPM flow driven by the commanded ZMP, plus the
                       kinematic robot propagated from the joint commands

Sensor stand-ins: the measured CoM is the pendulum CoM plus the encoder-noise
error propagated through the robot kinematics; the CoM velocity is a numeric
derivative of that signal (the dominant DCM measurement noise); the measured
ZMP is the realized ZMP plus white noise.
"""

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dcm_planner
from .control import (InstantaneousDcmController, InstantaneousGains, MpcConfig,
                      MpcInfeasibleError, PredictiveDcmController, SupportPolygon,
                      ZmpComGains, gain_schedule, zmp_com_control)
from .kinematics import KinematicsCache, RobotState, home_state, integrate_state, sample_biped
from .lipm import PendulumParams, SimplifiedState
from .lipm import step_exact as lipm_step
from .so3 import rot_z
from .unicycle import (Footstep, FootSide, PhaseKind, UnicycleConfig,
                       plan_footsteps, timeline_from_footsteps)
from .wholebody import (FootReference, TaskGains, WholeBodyController,
                        WholeBodyReferences)

FOOT_LENGTH = 0.19
FOOT_WIDTH = 0.09


@dataclass(frozen=True)
class NoiseModel:
    """Synthetic sensor/actuation imperfections (stand-in calibration)."""

    zmp_std: float = 0.005        # m, ZMP measurement noise
    encoder_std: float = 0.001    # rad, joint encoder noise
    actuation_std: float = 0.002  # rad, per-cycle joint actuation error
    velocity_lag: float = 0.08    # s, inner velocity-loop time constant
    impact_ratio: float = 0.4     # CoM velocity fraction lost at touchdown

    def __post_init__(self):
        # Written so that NaN fails: every comparison with NaN is False.
        for name in ("zmp_std", "encoder_std", "actuation_std", "velocity_lag",
                     "impact_ratio"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if self.impact_ratio >= 1.0:
            raise ValueError("impact_ratio must be below 1")

    @classmethod
    def none(cls):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Push:
    time: float
    impulse: np.ndarray  # planar CoM velocity change, m/s

    def __post_init__(self):
        impulse = np.asarray(self.impulse, dtype=float).reshape(2)
        if not (math.isfinite(self.time) and np.isfinite(impulse).all()):
            raise ValueError("push time and impulse must be finite")
        object.__setattr__(self, "impulse", impulse)

    def __eq__(self, other):
        if type(other) is not Push:
            return NotImplemented
        return self.time == other.time and np.array_equal(self.impulse, other.impulse)


@dataclass(frozen=True)
class Scenario:
    controller: str = "instantaneous"      # "instantaneous" | "predictive"
    mode: str = "position"                 # "position" | "velocity"
    forward_velocity: float = 0.0
    angular_velocity: float = 0.0
    duration: float = 10.0
    dt: float = 0.01
    mpc_period: float = 0.1
    lead_time: float = 1.0                 # settle time before the first step
    final_stand: float = 1.0
    ds_ratio: float = 0.2
    apex: float = 0.03
    dcm_kp: float = 2.0
    dcm_ki: float = 0.5
    mpc_horizon: int = 20
    mpc_q: float = 10.0
    mpc_r: float = 0.05
    mpc_qn: float = 10.0
    k_zmp_standing: float = 0.6
    k_zmp_walking: float = 1.2
    k_com_standing: float = 5.0
    k_com_walking: float = 6.5
    gain_blend_time: float = 1.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    pushes: tuple = ()
    fall_margin: float = 0.3               # m outside the realized support
    fall_height_fraction: float = 0.5
    task_gains: TaskGains = field(default_factory=TaskGains)
    unicycle: UnicycleConfig = None

    def __post_init__(self):
        if self.controller not in ("instantaneous", "predictive"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.mode not in ("position", "velocity"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # A NaN fails every comparison, so a check like `gain > 0` would let
        # it through; an infinite duration hangs the footstep planner.
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        # The plant applies a push at the first step at or after its time
        # (with 1e-12 of slack), so one before t = 0 acted at t = 0 and one
        # after the last step, at (K - 1) dt for K steps, never acted.
        last_step = (round(self.duration / self.dt) - 1) * self.dt
        for push in self.pushes:
            if not 0.0 <= push.time <= last_step + 1e-12:
                raise ValueError(f"push time {push.time} is outside [0, duration] "
                                 f"or after the last step, at {last_step:g}")
        # The MPC samples every mpc_period / dt cycles and models a period of
        # mpc_period, so the two must agree.
        stride = self.mpc_period / self.dt
        if not (np.isfinite(stride) and stride >= 0.5 and abs(
                round(stride) * self.dt - self.mpc_period) <= 1e-9 * self.mpc_period):
            raise ValueError("mpc_period must be a positive whole multiple of dt")
        for name in ("fall_margin", "fall_height_fraction", "gain_blend_time"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        # The stabilizers' gains and weights, checked here by their own
        # types; the ZMP-CoM gains need omega, so they are checked at run start.
        object.__setattr__(self, "_dcm_gains", InstantaneousGains(
            kp=self.dcm_kp * np.eye(2), ki=self.dcm_ki * np.eye(2)))
        object.__setattr__(self, "_mpc_config", MpcConfig(
            horizon=self.mpc_horizon, sample_time=self.mpc_period,
            Q=self.mpc_q * np.eye(2), R=self.mpc_r * np.eye(2),
            Q_terminal=self.mpc_qn * np.eye(2)))
        # The planner's velocities are always the scenario's own, so a
        # `unicycle` block only sets the step bounds, and
        # `replace(scenario, forward_velocity=v)` plans at v.
        object.__setattr__(self, "unicycle", replace(
            self.unicycle if self.unicycle is not None else UnicycleConfig(),
            forward_velocity=self.forward_velocity,
            angular_velocity=self.angular_velocity))


@dataclass
class RunResult:
    traces: dict
    metrics: dict
    summary: dict

    def dump_csv(self, path):
        keys = list(self.traces)
        cols = {}
        for k in keys:
            arr = np.asarray(self.traces[k])
            if arr.ndim == 1:
                cols[k] = arr
            else:
                for j in range(arr.shape[1]):
                    cols[f"{k}_{j}"] = arr[:, j]
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(list(cols))
            for i in range(len(next(iter(cols.values())))):
                writer.writerow([f"{cols[c][i]:.12g}" for c in cols])

    def dump_summary(self, path):
        with open(path, "w") as f:
            json.dump(self.summary, f, indent=2, sort_keys=True)
            f.write("\n")


def initial_feet(spacing=0.14):
    return (Footstep(side=FootSide.LEFT, position=np.array([0.0, spacing / 2]),
                     yaw=0.0, impact_time=0.0),
            Footstep(side=FootSide.RIGHT, position=np.array([0.0, -spacing / 2]),
                     yaw=0.0, impact_time=0.0))


def _shift_impacts(steps, delay):
    shifted = list(steps[:2])
    for s in steps[2:]:
        shifted.append(replace(s, impact_time=s.impact_time + delay))
    return shifted


def build_gait(scenario):
    """Footstep plan, timeline and DCM reference for a scenario."""
    feet = initial_feet()
    walk_time = max(scenario.duration - scenario.lead_time - scenario.final_stand,
                    2 * scenario.unicycle.min_step_duration)
    steps = plan_footsteps(scenario.unicycle, feet, walk_time)
    steps = _shift_impacts(steps, scenario.lead_time)
    timeline = timeline_from_footsteps(steps, ds_ratio=scenario.ds_ratio,
                                       apex=scenario.apex,
                                       final_stand=scenario.final_stand)
    return steps, timeline


def foot_rectangle(position, yaw):
    return SupportPolygon.from_rectangle(position, yaw, FOOT_LENGTH, FOOT_WIDTH)


def _support_region(phase, foot_positions):
    """SS: the stance foot's rectangle, else the hull of both feet's, with
    the feet at the planar `foot_positions` (by side) and the plan's yaws."""
    if phase.kind is PhaseKind.SINGLE_SUPPORT:
        side = phase.stance_side
        return foot_rectangle(foot_positions[side], phase.feet[side].yaw)
    rects = [foot_rectangle(foot_positions[side], step.yaw)
             for side, step in phase.feet.items()]
    return SupportPolygon.union_hull(*rects)


def plan_support_polygon(phase):
    """Plan-level support polygon: the feet where the plan puts them."""
    return _support_region(phase, {side: f.position for side, f in phase.feet.items()})


def support_polygon_at(timeline, t):
    """Plan-level support polygon of the gait phase at time t."""
    return plan_support_polygon(timeline.phase_at(t))


def realized_support_polygon(phase, foot_positions):
    """Support polygon from the realized planar foot positions (plan yaws).

    `Plant.sense` calls it once per cycle, and nothing else calls it: the
    benchmark in `perfbench/` counts its calls as cycles.
    """
    return _support_region(phase, foot_positions)


def fall_detector(dcm, support, com_height, z0, *, margin, height_fraction):
    """Fallen when the DCM leaves the support region by more than `margin`
    or the CoM height drops/rises by more than the configured fraction."""
    if support.violation(dcm) > margin:
        return True
    return abs(com_height - z0) > height_fraction * z0


def _held_references(phase):
    """The whole-body references that hold through a gait phase: (left
    foot, right foot, torso rotation), with None for a swinging foot."""
    swinging = (phase.stance_side.other if phase.kind is PhaseKind.SINGLE_SUPPORT
                and phase.swing is not None else None)
    feet = []
    for side in (FootSide.LEFT, FootSide.RIGHT):
        step = phase.feet[side]
        feet.append(None if side is swinging else FootReference.stationary(
            np.array([step.position[0], step.position[1], 0.0]), rot_z(step.yaw)))
    torso = rot_z(0.5 * (phase.feet[FootSide.LEFT].yaw + phase.feet[FootSide.RIGHT].yaw))
    return feet[0], feet[1], torso


class PlanTable:
    """The plan of one run sampled before its first cycle, so that the
    control stages only index rows. Per cycle k, at t = k dt: `phases[k]`
    (`timeline.phase_at(t)`), the DCM reference `dcm[k]` and its rate
    `dcm_rate[k]` (`traj.eval(t)`), and `feet[k]`, the (left foot, right
    foot, torso rotation) references. Per MPC sample m of a predictive run,
    at cycle m * stride: `windows[m]`, the DCM at t + j mpc_period for
    j = 0..N, and `polygons[m]`, the plan support polygons at the first N of
    those times. Planted feet, torso and polygons are built once per phase.
    A predictive `_SimplifiedLayer` builds each sample's QP blocks from its
    window and polygons before the first cycle, too.
    """

    def __init__(self, scenario, timeline, traj):
        sc = scenario
        t = np.arange(round(sc.duration / sc.dt)) * sc.dt
        index = timeline.phase_indices(t).tolist()
        self.phases = [timeline.phases[i] for i in index]
        self.dcm, self.dcm_rate = traj.eval_many(t)
        held = [_held_references(ph) for ph in timeline.phases]
        self.feet = []
        for i, phase, tk in zip(index, self.phases, t.tolist()):
            left, right, torso = held[i]
            if left is None or right is None:
                pos, yaw, vel, yaw_rate = phase.swing.pose(tk)
                swing = FootReference(position=pos, rotation=rot_z(yaw), linear_velocity=vel,
                                      angular_velocity=np.array([0.0, 0.0, yaw_rate]))
                left, right = (swing, right) if left is None else (left, swing)
            self.feet.append((left, right, torso))
        self.windows = self.polygons = None
        if sc.controller == "predictive":
            times = t[::round(sc.mpc_period / sc.dt), None] \
                + np.arange(sc.mpc_horizon + 1) * sc.mpc_period
            self.windows = traj.eval_many(times)[0]
            plan = [plan_support_polygon(ph) for ph in timeline.phases]
            self.polygons = [[plan[i] for i in row]
                             for row in timeline.phase_indices(times[:, :-1]).tolist()]


# Trace columns, in the order of the row `run_scenario` records per cycle.
_TRACE_KEYS = ("t", "xi_ref", "xi_plant", "xi_meas", "x_ref", "x_plant", "r_ref",
               "r_realized", "r_meas", "xdot_star", "com_kin", "lf_ref", "lf_real",
               "rf_ref", "rf_real", "hard_residual", "sdot_max", "cycle_time")


class Plant:
    """Stand-in for the robot: exact LIPM pendulum plus the kinematic body.

    It also carries what its sensor and actuator stand-ins keep between
    cycles: the kinematics of the current body (`cache`), the last measured
    CoM, the realized ZMP (`zmp`), the joint rates of the inner velocity
    loop, and the pushes and touchdown impacts still to come.
    """

    def __init__(self, scenario, params, pendulum_state, cache, timeline):
        self.params = params
        self.pendulum = pendulum_state
        self.robot = cache.state.copy()
        self.cache = cache
        self.fallen = False
        # The robot starts at rest, its ZMP under the CoM.
        self.zmp = pendulum_state.com.copy()
        self._scenario = scenario
        self._prev_com_meas = None
        self._joint_rates = np.zeros(cache.model.n_joints)
        self._pushes = sorted(scenario.pushes, key=lambda p: p.time)
        self._touchdowns = [ph.swing.t_end for ph in timeline.phases
                            if ph.kind is PhaseKind.SINGLE_SUPPORT]

    def step(self, r_zmp, dt):
        self.pendulum = lipm_step(self.pendulum, r_zmp, self.params, dt)

    def push(self, impulse):
        vel = self.pendulum.com_velocity + impulse
        self.pendulum = SimplifiedState.from_com(self.pendulum.com, vel,
                                                 self.params.omega)

    def sense(self, phase, rng):
        """The sense stage: sensor stand-ins at the start of a cycle.

        Sets `feet` and `support`, the realized foot positions and support
        polygon, and returns the body state the encoders report with the
        measured CoM, DCM and ZMP. The CoM error is the encoder noise
        propagated through the kinematics (first order in the noise), the
        CoM velocity is a numeric derivative of the measured CoM, and the
        ZMP is the previous cycle's realized ZMP plus white noise.
        """
        noise = self._scenario.noise
        poses = self.cache.frame_poses(("left_foot", "right_foot"))
        self.feet = {FootSide.LEFT: poses[0, 3], FootSide.RIGHT: poses[1, 3]}
        self.support = realized_support_polygon(
            phase, {side: p[:2] for side, p in self.feet.items()})
        robot, e_com = self.robot, np.zeros(2)
        if noise.encoder_std > 0.0:
            noise_j = rng.normal(0.0, noise.encoder_std, robot.joint_positions.size)
            robot = RobotState(robot.base_position, robot.base_rotation,
                               robot.joint_positions + noise_j, robot.joint_velocities)
            e_com = self.cache.com_jacobian()[:2, 6:] @ noise_j
        x_meas = self.pendulum.com + e_com
        if self._prev_com_meas is None:
            xd_meas = self.pendulum.com_velocity
        else:
            xd_meas = (x_meas - self._prev_com_meas) / self._scenario.dt
        self._prev_com_meas = x_meas
        xi_meas = x_meas + xd_meas / self.params.omega
        r_meas = self.zmp + (rng.normal(0.0, noise.zmp_std, 2)
                             if noise.zmp_std > 0.0 else 0.0)
        return robot, x_meas, xi_meas, r_meas

    def advance(self, t, phase, r_ref, ref_feet, wb_state, nu, rng):
        """The plant stage: realize the commanded ZMP `r_ref`, land the
        pushes and touchdown impacts due at t, step the pendulum, actuate
        the joints, rebuild the kinematics (`cache`, and `com`, the body's
        CoM) and check for a fall.

        The ankle realizes the ZMP relative to the actual stance foot, so
        foot placement error shifts it, and the physical ZMP cannot leave
        the support region; both mismatches destabilize the DCM.
        """
        sc = self._scenario
        sides = ((phase.stance_side,) if phase.kind is PhaseKind.SINGLE_SUPPORT
                 else tuple(phase.feet))
        zmp_shift = np.mean([self.feet[s][:2] - ref_feet[s][:2] for s in sides], axis=0)
        self.zmp = self.support.project(r_ref + zmp_shift)
        while self._pushes and self._pushes[0].time <= t + 1e-12:
            self.push(self._pushes.pop(0).impulse)
        # Touchdown impact: a fraction of the CoM momentum is lost.
        while self._touchdowns and self._touchdowns[0] <= t + 1e-12:
            self._touchdowns.pop(0)
            self.push(-sc.noise.impact_ratio * self.pendulum.com_velocity)
        self.step(self.zmp, sc.dt)
        self._actuate(wb_state, nu, rng)
        self.cache = KinematicsCache(self.cache.model, self.robot)
        self.com = self.cache.com()
        self.fallen = self.fallen or fall_detector(
            self.pendulum.dcm, self.support, self.com[2], self.params.com_height,
            margin=sc.fall_margin, height_fraction=sc.fall_height_fraction)

    def _actuate(self, wb_state, nu, rng):
        """Actuation stand-in: position commands (the whole-body controller's
        integrated state) execute with a bounded white error; velocity
        commands `nu` execute with velocity noise the joints integrate, so
        the error can accumulate until feedback catches it."""
        sc = self._scenario
        act_std = sc.noise.actuation_std
        n = self._joint_rates.size
        if sc.mode == "position":
            self.robot = wb_state.copy()
            if act_std > 0.0:
                self.robot.joint_positions = self.robot.joint_positions \
                    + rng.normal(0.0, act_std, n)
            return
        nu = nu.copy()
        if act_std > 0.0:
            nu[6:] += rng.normal(0.0, act_std, n) / sc.dt
        lag = sc.noise.velocity_lag
        if lag > 0.0:
            # Inner velocity loop with finite bandwidth.
            self._joint_rates += (sc.dt / (lag + sc.dt)) * (nu[6:] - self._joint_rates)
            nu[6:] = self._joint_rates
        else:
            self._joint_rates = nu[6:].copy()
        self.robot = integrate_state(self.robot, nu, sc.dt)


class _SimplifiedLayer:
    """The simplified-model layer of one run: the scenario's DCM stabilizer,
    then the ZMP-CoM law. A predictive layer builds the `MpcSample` of each
    of the plan's MPC samples when it is made, so that a cycle's MPC call
    adds only the measurement.

    It carries the CoM reference `x_ref`, which `advance` moves toward the
    DCM reference after each cycle, and the commanded ZMP `r_ref`, which the
    MPC holds between its samples.
    """

    def __init__(self, scenario, plan, omega):
        sc = scenario
        self._scenario = sc
        self._plan = plan
        self._omega = omega
        if sc.controller == "instantaneous":
            self._inst = InstantaneousDcmController(sc._dcm_gains, omega)
        else:
            # Every sample's plan-fixed QP blocks, built before the first cycle.
            self._mpc = PredictiveDcmController(sc._mpc_config, omega)
            self._mpc_stride = round(sc.mpc_period / sc.dt)
            self._samples = [self._mpc.sample(window, polygons)
                             for window, polygons in zip(plan.windows, plan.polygons)]
        self._standing = ZmpComGains(k_zmp=sc.k_zmp_standing * np.eye(2),
                                     k_com=sc.k_com_standing * np.eye(2)).validate(omega)
        self._walking = ZmpComGains(k_zmp=sc.k_zmp_walking * np.eye(2),
                                    k_com=sc.k_com_walking * np.eye(2)).validate(omega)
        self.x_ref = plan.dcm[0].copy()
        self.r_ref = plan.dcm[0].copy()

    def control(self, k, t, x_meas, xi_meas, r_meas):
        """The simplified stage of cycle k at time t: sets `r_ref` and
        returns the DCM reference and the commanded CoM velocity."""
        sc = self._scenario
        plan = self._plan
        xi_ref, xid_ref = plan.dcm[k], plan.dcm_rate[k]
        xd_ref = self._omega * (xi_ref - self.x_ref)
        if sc.controller == "instantaneous":
            self.r_ref = self._inst.control(xi_meas, xi_ref, xid_ref, sc.dt)
        elif k % self._mpc_stride == 0:
            self.r_ref, _ = self._mpc.control(xi_meas, self.r_ref,
                                              self._samples[k // self._mpc_stride])
        blend = min(max(t / sc.gain_blend_time, 0.0), 1.0) \
            if sc.gain_blend_time > 0.0 else 1.0
        gains = self._walking if blend >= 1.0 else gain_schedule(
            blend, self._standing, self._walking)
        return xi_ref, zmp_com_control(x_meas, self.x_ref, xd_ref, r_meas, self.r_ref, gains)

    def advance(self, xi_ref):
        """Exact one-step propagation of the CoM reference toward the DCM ref."""
        decay = np.exp(-self._omega * self._scenario.dt)
        self.x_ref = xi_ref + decay * (self.x_ref - xi_ref)


def _wholebody(wb, feet, xdot_star, x_ref, posture, robot):
    """The wholebody stage: one QP cycle toward the cycle's foot and torso
    references `feet` (a `PlanTable.feet` row). Returns the foot reference
    positions by side and the controller's diagnostics."""
    lf_ref, rf_ref, torso_ref = feet
    refs = WholeBodyReferences(com_velocity_cmd=xdot_star, left_foot=lf_ref,
                               right_foot=rf_ref, torso_rotation=torso_ref,
                               posture=posture, com_position=x_ref)
    _, diag = wb.cycle(refs, robot)
    return {FootSide.LEFT: lf_ref.position, FootSide.RIGHT: rf_ref.position}, diag


def run_scenario(scenario, seed=0, model=None):
    """Closed-loop run; deterministic for a given (scenario, seed).

    Each cycle runs five stages: sense (`Plant.sense`), simplified
    (`_SimplifiedLayer.control`), wholebody (`_wholebody`), plant
    (`Plant.advance`) and record (one trace row). The plan's references
    are sampled into a `PlanTable` before the first cycle, so the stages
    only read its rows. `cycle_time` times the two control stages only,
    from the simplified stabilizer through the whole-body QP.
    """
    rng = np.random.default_rng(seed)
    model = model if model is not None else sample_biped()
    robot0 = home_state(model)
    cache0 = KinematicsCache(model, robot0)
    z0 = cache0.com()[2]
    params = PendulumParams.from_height(z0)
    steps, timeline = build_gait(scenario)
    traj = dcm_planner.build_trajectory(timeline, params.omega, ds_ratio=scenario.ds_ratio)
    plan = PlanTable(scenario, timeline, traj)
    plant = Plant(scenario, params,
                  SimplifiedState.from_com(plan.dcm[0].copy(), np.zeros(2), params.omega),
                  cache0, timeline)
    simplified = _SimplifiedLayer(scenario, plan, params.omega)
    wb = WholeBodyController(model, scenario.task_gains, scenario.mode,
                             scenario.dt, z0, robot0)
    posture = robot0.joint_positions.copy()
    left, right = FootSide.LEFT, FootSide.RIGHT

    rows = []
    error = None
    for k, phase in enumerate(plan.phases):
        t = k * scenario.dt
        robot, x_meas, xi_meas, r_meas = plant.sense(phase, rng)
        # The control stages, timed: this is the per-cycle compute budget.
        t_clock = time.perf_counter()
        try:
            xi_ref, xdot_star = simplified.control(k, t, x_meas, xi_meas, r_meas)
        except MpcInfeasibleError as exc:
            error = f"mpc: {exc}"
            break
        try:
            ref_feet, diag = _wholebody(wb, plan.feet[k], xdot_star, simplified.x_ref,
                                        posture, robot)
        except RuntimeError as exc:
            error = f"wholebody: {exc}"
            break
        cycle_time = time.perf_counter() - t_clock
        plant.advance(t, phase, simplified.r_ref, ref_feet, wb.internal_state,
                      diag["nu"], rng)
        rows.append((t, xi_ref, plant.pendulum.dcm, xi_meas, simplified.x_ref,
                     plant.pendulum.com, simplified.r_ref, plant.zmp, r_meas, xdot_star,
                     plant.com, ref_feet[left], plant.feet[left], ref_feet[right],
                     plant.feet[right], diag["hard_residual"],
                     float(np.abs(diag["nu"][6:]).max()), cycle_time))
        simplified.advance(xi_ref)
        if plant.fallen:
            break
    return _run_result(scenario, seed, rows, plant, error, n_steps_planned=len(steps) - 2)


def _run_result(scenario, seed, rows, plant, error, n_steps_planned):
    columns = zip(*rows) if rows else [()] * len(_TRACE_KEYS)
    traces = {k: np.asarray(col) for k, col in zip(_TRACE_KEYS, columns)}
    metrics = metrics_from_traces(traces, fallen=plant.fallen, error=error)
    summary = {
        "seed": int(seed),
        "controller": scenario.controller,
        "mode": scenario.mode,
        "forward_velocity": scenario.forward_velocity,
        "z0": float(plant.params.com_height),
        "omega": float(plant.params.omega),
        "n_steps_planned": n_steps_planned,
        "error": error,
        **{k: (bool(v) if isinstance(v, (bool, np.bool_))
               else float(v) if np.isscalar(v) or isinstance(v, np.floating)
               else v) for k, v in metrics.items()},
    }
    return RunResult(traces=traces, metrics=metrics, summary=summary)


def metrics_from_traces(traces, fallen=False, error=None):
    if len(traces.get("t", ())) == 0:
        return {"fallen": bool(fallen), "failed": error is not None,
                "completed": False}
    dcm_err = np.linalg.norm(traces["xi_plant"] - traces["xi_ref"], axis=1)
    com_err = np.linalg.norm(traces["x_plant"] - traces["x_ref"], axis=1)
    foot_err = np.maximum(np.abs(traces["lf_real"] - traces["lf_ref"]),
                          np.abs(traces["rf_real"] - traces["rf_ref"]))
    duration = traces["t"][-1] - traces["t"][0] if len(traces["t"]) > 1 else 0.0
    mean_vel = ((traces["x_plant"][-1, 0] - traces["x_plant"][0, 0]) / duration
                if duration > 0 else 0.0)
    return {
        "max_dcm_error": float(dcm_err.max()),
        "mean_dcm_error": float(dcm_err.mean()),
        "max_com_error": float(com_err.max()),
        "mean_com_error": float(com_err.mean()),
        "max_foot_error_x": float(foot_err[:, 0].max()),
        "max_foot_error_y": float(foot_err[:, 1].max()),
        "max_foot_error_z": float(foot_err[:, 2].max()),
        "max_hard_residual": float(traces["hard_residual"].max()),
        "mean_cycle_time": float(traces["cycle_time"].mean()),
        "max_cycle_time": float(traces["cycle_time"].max()),
        "mean_forward_velocity": float(mean_vel),
        "fallen": bool(fallen),
        "failed": error is not None,
        "completed": not fallen and error is None,
    }


ARCHITECTURES = (("instantaneous", "position"), ("instantaneous", "velocity"),
                 ("predictive", "position"), ("predictive", "velocity"))


def compare_architectures(base_scenario, velocities, seed=0, model=None):
    """Largest no-fall commanded velocity per architecture (ranking table)."""
    model = model if model is not None else sample_biped()
    rows = []
    for controller, mode in ARCHITECTURES:
        best = 0.0
        for v in sorted(velocities):
            scenario = replace(base_scenario, controller=controller, mode=mode,
                               forward_velocity=v)
            result = run_scenario(scenario, seed=seed, model=model)
            if result.metrics.get("completed"):
                best = v
        rows.append({"SimplifiedModelControl": controller,
                     "WholeBodyQPControl": mode,
                     "MaxStraightVelocity": best})
    return rows


def scenario_from_dict(doc):
    """Scenario from a flat config mapping (YAML-friendly)."""
    doc = dict(doc or {})
    kwargs = {}
    if "noise" in doc:
        kwargs["noise"] = NoiseModel(**doc.pop("noise"))
    if "pushes" in doc:
        kwargs["pushes"] = tuple(Push(time=float(p[0]), impulse=p[1])
                                 for p in doc.pop("pushes"))
    if "unicycle" in doc:
        block = dict(doc.pop("unicycle"))
        inside = sorted({"forward_velocity", "angular_velocity"} & set(block))
        if inside:
            raise ValueError(f"set {inside} at the top level, not in the unicycle block")
        kwargs["unicycle"] = UnicycleConfig(**block)
    if "task_gains" in doc:
        kwargs["task_gains"] = TaskGains(**doc.pop("task_gains"))
    valid = set(Scenario.__dataclass_fields__)
    unknown = set(doc) - valid
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    kwargs.update(doc)
    return Scenario(**kwargs)


def dump_comparison(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["SimplifiedModelControl",
                                               "WholeBodyQPControl",
                                               "MaxStraightVelocity"])
        writer.writeheader()
        writer.writerows(rows)
