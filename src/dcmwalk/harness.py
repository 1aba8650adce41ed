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
import time
from dataclasses import dataclass, field, replace

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
        for name in ("zmp_std", "encoder_std", "actuation_std", "velocity_lag",
                     "impact_ratio"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
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
        object.__setattr__(self, "impulse", np.asarray(self.impulse, dtype=float).reshape(2))


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
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        # The MPC samples every mpc_period / dt cycles and models a period of
        # mpc_period, so the two must agree.
        stride = self.mpc_period / self.dt
        if not (np.isfinite(stride) and stride >= 0.5 and abs(
                round(stride) * self.dt - self.mpc_period) <= 1e-9 * self.mpc_period):
            raise ValueError("mpc_period must be a positive whole multiple of dt")
        if not self.fall_margin >= 0.0:
            raise ValueError("fall_margin must be nonnegative")
        if self.unicycle is None:
            object.__setattr__(self, "unicycle", UnicycleConfig(
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


def plan_support_polygon(phase):
    """Plan-level support polygon (SS: stance rectangle, else both feet)."""
    if phase.kind is PhaseKind.SINGLE_SUPPORT:
        stance = phase.feet[phase.stance_side]
        return foot_rectangle(stance.position, stance.yaw)
    rects = [foot_rectangle(f.position, f.yaw) for f in phase.feet.values()]
    return SupportPolygon.union_hull(*rects)


def support_polygon_at(timeline, t):
    """Plan-level support polygon of the gait phase at time t."""
    return plan_support_polygon(timeline.phase_at(t))


class PlanPolygons:
    """Plan-level support polygons, built once per gait phase.

    `at(t)` returns the polygon `support_polygon_at(timeline, t)` would
    build, without building it again.
    """

    def __init__(self, timeline):
        self._timeline = timeline
        self._by_phase = {id(ph): plan_support_polygon(ph) for ph in timeline.phases}

    def at(self, t):
        return self._by_phase[id(self._timeline.phase_at(t))]


def realized_support_polygon(phase, foot_positions):
    """Support polygon from the realized planar foot positions (plan yaws)."""
    if phase.kind is PhaseKind.SINGLE_SUPPORT:
        side = phase.stance_side
        return foot_rectangle(foot_positions[side], phase.feet[side].yaw)
    rects = [foot_rectangle(foot_positions[side], step.yaw)
             for side, step in phase.feet.items()]
    return SupportPolygon.union_hull(*rects)


def fall_detector(dcm, support, com_height, z0, margin=0.3, height_fraction=0.5):
    """Fallen when the DCM leaves the support region by more than `margin`
    or the CoM height drops/rises by more than the configured fraction."""
    if support.violation(dcm) > margin:
        return True
    return abs(com_height - z0) > height_fraction * z0


def _foot_reference_at(phase, t, side):
    if (phase.kind is PhaseKind.SINGLE_SUPPORT and phase.swing is not None
            and phase.stance_side is not side):
        pos, yaw, vel, yaw_rate = phase.swing.pose(t)
        return FootReference(position=pos, rotation=rot_z(yaw),
                             linear_velocity=vel,
                             angular_velocity=np.array([0.0, 0.0, yaw_rate]))
    planted = phase.feet[side]
    return FootReference.stationary(
        np.array([planted.position[0], planted.position[1], 0.0]),
        rot_z(planted.yaw))


class Plant:
    """Stand-in for the robot: exact LIPM pendulum plus the kinematic body."""

    def __init__(self, params, pendulum_state, robot_state):
        self.params = params
        self.pendulum = pendulum_state
        self.robot = robot_state
        self.time = 0.0
        self.fallen = False

    def step(self, r_zmp, dt):
        self.pendulum = lipm_step(self.pendulum, r_zmp, self.params, dt)
        self.time += dt

    def push(self, impulse):
        vel = self.pendulum.com_velocity + impulse
        self.pendulum = SimplifiedState.from_com(self.pendulum.com, vel,
                                                 self.params.omega)

    def latch_fall(self, fallen):
        self.fallen = self.fallen or fallen


def run_scenario(scenario, seed=0, model=None):
    """Closed-loop run; deterministic for a given (scenario, seed)."""
    rng = np.random.default_rng(seed)
    model = model if model is not None else sample_biped()
    robot0 = home_state(model)
    cache0 = KinematicsCache(model, robot0)
    com0 = cache0.com()
    z0 = com0[2]
    params = PendulumParams.from_height(z0)
    omega = params.omega

    steps, timeline = build_gait(scenario)
    traj = dcm_planner.build_trajectory(timeline, omega, ds_ratio=scenario.ds_ratio)
    n_cycles = int(round(scenario.duration / scenario.dt))

    xi0 = traj.dcm(0.0)
    pendulum = SimplifiedState.from_com(xi0.copy(), np.zeros(2), omega)
    plant = Plant(params, pendulum, robot0.copy())

    inst = InstantaneousDcmController(
        InstantaneousGains(kp=scenario.dcm_kp * np.eye(2),
                           ki=scenario.dcm_ki * np.eye(2)), omega)
    mpc = PredictiveDcmController(
        MpcConfig(horizon=scenario.mpc_horizon, sample_time=scenario.mpc_period,
                  Q=scenario.mpc_q * np.eye(2), R=scenario.mpc_r * np.eye(2),
                  Q_terminal=scenario.mpc_qn * np.eye(2)), omega)
    plan_polygons = PlanPolygons(timeline) if scenario.controller == "predictive" else None
    standing = ZmpComGains(k_zmp=scenario.k_zmp_standing * np.eye(2),
                           k_com=scenario.k_com_standing * np.eye(2)).validate(omega)
    walking = ZmpComGains(k_zmp=scenario.k_zmp_walking * np.eye(2),
                          k_com=scenario.k_com_walking * np.eye(2)).validate(omega)
    wb = WholeBodyController(model, scenario.task_gains, scenario.mode,
                             scenario.dt, z0, robot0)
    posture = robot0.joint_positions.copy()

    dt = scenario.dt
    mpc_stride = round(scenario.mpc_period / dt)
    meas_jacobian = cache0.com_jacobian()[:2, 6:]
    x_ref = xi0.copy()
    prev_x_meas = None
    r_ref = xi0.copy()
    r_realized = xi0.copy()
    pushes = sorted(scenario.pushes, key=lambda p: p.time)
    push_idx = 0
    cache = cache0
    touchdowns = [ph.swing.t_end for ph in timeline.phases
                  if ph.kind is PhaseKind.SINGLE_SUPPORT]
    td_idx = 0
    realized_sdot = np.zeros(model.n_joints)

    keys = ("t", "xi_ref", "xi_plant", "xi_meas", "x_ref", "x_plant", "r_ref",
            "r_realized", "r_meas", "xdot_star", "com_kin", "lf_ref", "lf_real",
            "rf_ref", "rf_real", "hard_residual", "sdot_max", "cycle_time")
    traces = {k: [] for k in keys}
    error = None

    for k in range(n_cycles):
        t = k * dt
        phase = timeline.phase_at(t)
        lf_real = cache.frame_pose("left_foot")[0]
        rf_real = cache.frame_pose("right_foot")[0]
        support_real = realized_support_polygon(
            phase, {FootSide.LEFT: lf_real[:2], FootSide.RIGHT: rf_real[:2]})

        # Measurement stand-ins. The CoM estimation error is the encoder noise
        # propagated through the kinematics (first order in the noise).
        if scenario.noise.encoder_std > 0.0:
            noise_j = rng.normal(0.0, scenario.noise.encoder_std, model.n_joints)
            noisy_robot = RobotState(plant.robot.base_position,
                                     plant.robot.base_rotation,
                                     plant.robot.joint_positions + noise_j,
                                     plant.robot.joint_velocities)
            e_com = meas_jacobian @ noise_j
        else:
            noisy_robot = plant.robot
            e_com = np.zeros(2)
        x_meas = plant.pendulum.com + e_com
        if prev_x_meas is None:
            xd_meas = plant.pendulum.com_velocity.copy()
        else:
            xd_meas = (x_meas - prev_x_meas) / dt
        prev_x_meas = x_meas
        xi_meas = x_meas + xd_meas / omega
        # Measured ZMP: previous cycle's realized ZMP plus sensor noise.
        r_meas = r_realized + (rng.normal(0.0, scenario.noise.zmp_std, 2)
                               if scenario.noise.zmp_std > 0.0 else 0.0)

        # Control layers (timed: this is the per-cycle compute budget).
        t_clock = time.perf_counter()
        xi_ref, xid_ref = traj.eval(t)
        xd_ref = omega * (xi_ref - x_ref)
        try:
            if scenario.controller == "instantaneous":
                r_ref = inst.control(xi_meas, xi_ref, xid_ref, dt)
            elif k % mpc_stride == 0:
                N = scenario.mpc_horizon
                window = np.array([traj.dcm(t + j * scenario.mpc_period)
                                   for j in range(N + 1)])
                polys = [plan_polygons.at(t + j * scenario.mpc_period)
                         for j in range(N)]
                r_ref, _ = mpc.control(xi_meas, r_ref, window, polys)
        except MpcInfeasibleError as exc:
            error = f"mpc: {exc}"
            break
        blend = min(max(t / scenario.gain_blend_time, 0.0), 1.0) \
            if scenario.gain_blend_time > 0.0 else 1.0
        zc_gains = walking if blend >= 1.0 else gain_schedule(blend, standing,
                                                              walking, omega)
        xdot_star = zmp_com_control(x_meas, x_ref, xd_ref, r_meas, r_ref, zc_gains)

        # Whole-body QP control layer.
        lf_ref = _foot_reference_at(phase, t, FootSide.LEFT)
        rf_ref = _foot_reference_at(phase, t, FootSide.RIGHT)
        torso_ref = rot_z(0.5 * (phase.feet[FootSide.LEFT].yaw
                                 + phase.feet[FootSide.RIGHT].yaw))
        refs = WholeBodyReferences(com_velocity_cmd=xdot_star, left_foot=lf_ref,
                                   right_foot=rf_ref, torso_rotation=torso_ref,
                                   posture=posture, com_position=x_ref)
        try:
            command, diag = wb.cycle(refs, noisy_robot)
        except RuntimeError as exc:
            error = f"wholebody: {exc}"
            break
        cycle_time = time.perf_counter() - t_clock

        # Plant propagation. The ankle realizes the commanded ZMP relative to
        # the actual stance foot, so foot placement error shifts it, and the
        # physical ZMP cannot leave the support region; both mismatches
        # destabilize the DCM.
        ref_planar = {FootSide.LEFT: lf_ref.position[:2],
                      FootSide.RIGHT: rf_ref.position[:2]}
        real_planar = {FootSide.LEFT: lf_real[:2], FootSide.RIGHT: rf_real[:2]}
        sides = ((phase.stance_side,) if phase.kind is PhaseKind.SINGLE_SUPPORT
                 else tuple(phase.feet))
        zmp_shift = np.mean([real_planar[s] - ref_planar[s] for s in sides], axis=0)
        r_realized = support_real.project(r_ref + zmp_shift)
        while push_idx < len(pushes) and pushes[push_idx].time <= t + 1e-12:
            plant.push(pushes[push_idx].impulse)
            push_idx += 1
        # Touchdown impact: a fraction of the CoM momentum is lost.
        while td_idx < len(touchdowns) and touchdowns[td_idx] <= t + 1e-12:
            plant.push(-scenario.noise.impact_ratio * plant.pendulum.com_velocity)
            td_idx += 1
        plant.step(r_realized, dt)
        # Actuation stand-in: position commands execute with a bounded white
        # error, velocity commands execute with velocity noise the joints
        # integrate (so the error can accumulate until feedback catches it).
        act_std = scenario.noise.actuation_std
        if scenario.mode == "position":
            plant.robot = wb.internal_state.copy()
            if act_std > 0.0:
                plant.robot.joint_positions = plant.robot.joint_positions \
                    + rng.normal(0.0, act_std, model.n_joints)
        else:
            nu = diag["nu"].copy()
            if act_std > 0.0:
                nu[6:] += rng.normal(0.0, act_std, model.n_joints) / dt
            lag = scenario.noise.velocity_lag
            if lag > 0.0:
                # Inner velocity loop with finite bandwidth.
                realized_sdot += (dt / (lag + dt)) * (nu[6:] - realized_sdot)
                nu[6:] = realized_sdot
            else:
                realized_sdot = nu[6:].copy()
            plant.robot = integrate_state(plant.robot, nu, dt)

        cache = KinematicsCache(model, plant.robot)
        com_kin = cache.com()
        if scenario.noise.encoder_std > 0.0:
            meas_jacobian = cache.com_jacobian()[:2, 6:]
        plant.latch_fall(fall_detector(plant.pendulum.dcm, support_real,
                                       com_kin[2], z0,
                                       margin=scenario.fall_margin,
                                       height_fraction=scenario.fall_height_fraction))

        traces["t"].append(t)
        traces["xi_ref"].append(xi_ref)
        traces["xi_plant"].append(plant.pendulum.dcm.copy())
        traces["xi_meas"].append(xi_meas)
        traces["x_ref"].append(x_ref.copy())
        traces["x_plant"].append(plant.pendulum.com.copy())
        traces["r_ref"].append(np.asarray(r_ref, dtype=float).copy())
        traces["r_realized"].append(r_realized.copy())
        traces["r_meas"].append(np.asarray(r_meas, dtype=float).reshape(2).copy())
        traces["xdot_star"].append(xdot_star)
        traces["com_kin"].append(com_kin)
        traces["lf_ref"].append(lf_ref.position.copy())
        traces["lf_real"].append(lf_real)
        traces["rf_ref"].append(rf_ref.position.copy())
        traces["rf_real"].append(rf_real)
        traces["hard_residual"].append(diag["hard_residual"])
        traces["sdot_max"].append(float(np.abs(diag["nu"][6:]).max()))
        traces["cycle_time"].append(cycle_time)

        # Exact one-step propagation of the CoM reference toward the DCM ref.
        x_ref = xi_ref + np.exp(-omega * dt) * (x_ref - xi_ref)
        if plant.fallen:
            break

    traces = {k: np.asarray(v) for k, v in traces.items()}
    metrics = metrics_from_traces(traces, fallen=plant.fallen, error=error)
    summary = {
        "seed": int(seed),
        "controller": scenario.controller,
        "mode": scenario.mode,
        "forward_velocity": scenario.forward_velocity,
        "z0": float(z0),
        "omega": float(omega),
        "n_steps_planned": len(steps) - 2,
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
                               forward_velocity=v, unicycle=None)
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
        kwargs["unicycle"] = UnicycleConfig(**doc.pop("unicycle"))
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
