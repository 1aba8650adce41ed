"""End-to-end acceptance checks for the full control stack.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities, so a log scan shows the whole scorecard.
"""

import time

import numpy as np
import pytest

from dcmwalk import qp
from dcmwalk.control import (InstantaneousDcmController, InstantaneousGains,
                             MpcConfig, PredictiveDcmController, SupportPolygon)
from dcmwalk.dcm_planner import backward_recursion, build_trajectory
from dcmwalk.harness import (NoiseModel, Scenario, build_gait,
                             compare_architectures, run_scenario,
                             support_polygon_at)
from dcmwalk.kinematics import KinematicsCache, integrate_state, sample_biped
from dcmwalk.lipm import PendulumParams, SimplifiedState, step_exact
from dcmwalk.unicycle import UnicycleConfig, plan_footsteps, timeline_from_footsteps
from oracles import (brute_force_qp, implied_zmp, mpc_kkt_oracle, mpc_qp_data_n2, random_qp,
                     row_form, vee)
from test_harness import quiet
from test_unicycle import make_feet
from test_wholebody import consistent_refs, make_controller


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def experiment1():
    """Instantaneous + position at 0.19 m/s with the calibrated noise."""
    scenario = Scenario(controller="instantaneous", mode="position",
                        forward_velocity=0.19, duration=12.0)
    t0 = time.perf_counter()
    result = run_scenario(scenario, seed=0)
    return scenario, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def predictive_gait():
    scenario = Scenario(controller="predictive", mode="position",
                        forward_velocity=0.19, duration=10.0)
    return scenario, run_scenario(scenario, seed=0)


def test_criterion_01_planner_c1_and_runtime():
    cfg = UnicycleConfig(forward_velocity=0.19)
    t0 = time.perf_counter()
    steps = plan_footsteps(cfg, make_feet(), 6.0)
    timeline = timeline_from_footsteps(steps, ds_ratio=0.2, final_stand=0.8)
    traj = build_trajectory(timeline, 4.3)
    runtime = time.perf_counter() - t0
    n_steps = len(steps) - 2
    dp, dv = 0.0, 0.0
    for a, b in zip(traj.segments, traj.segments[1:]):
        pa, va = a.eval_with(b.t_start, traj.omega)
        pb, vb = b.eval_with(b.t_start, traj.omega)
        dp = max(dp, float(np.linalg.norm(pa - pb)))
        dv = max(dv, float(np.linalg.norm(va - vb)))
    ts = np.arange(traj.t_start, traj.t_end, 1e-3)
    zmp = np.array([implied_zmp(traj, t) for t in ts])
    zmp_jump = float(np.linalg.norm(np.diff(zmp, axis=0), axis=1).max())
    ok = (n_steps >= 10 and dp < 1e-9 and dv < 1e-9
          and zmp_jump < 1e-6 + 1e-3 * 10.0 and runtime < 0.1)
    report(1, ok, f"{n_steps} steps, pos jump {dp:.2e} m, vel jump {dv:.2e} m/s, "
                  f"zmp step {zmp_jump:.2e} m/ms, runtime {runtime * 1e3:.1f} ms")


def test_criterion_02_backward_recursion_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        zmps = [rng.normal(scale=0.3, size=2) for _ in range(n)]
        durations = rng.uniform(0.3, 1.2, size=n - 1)
        omega = rng.uniform(2.0, 6.0)
        for b in backward_recursion(zmps, durations, omega):
            fwd = b.r_zmp + np.exp(omega * b.t_step) * (b.xi_ios - b.r_zmp)
            worst = max(worst, float(np.linalg.norm(fwd - b.xi_eos)))
    report(2, worst < 1e-12, f"100 plans, worst forward residual {worst:.2e} m")


def test_criterion_03_instantaneous_closed_loop():
    omega = 4.3
    params = PendulumParams(gravity=9.80665, com_height=9.80665 / omega**2,
                            omega=omega)
    ctrl = InstantaneousDcmController(
        InstantaneousGains(kp=2.0 * np.eye(2), ki=0.5 * np.eye(2)), omega)
    # The slow closed-loop mode sits at -0.577 1/s for these gains, so the
    # step must be small enough for 1e-6 m to be reachable within 5 s.
    xi_ref = 5e-5 * np.array([1.0, -0.5])
    state = SimplifiedState.from_com(np.zeros(2), np.zeros(2), omega)
    dt = 0.01
    for _ in range(int(5.0 / dt)):
        r = ctrl.control(state.dcm, xi_ref, np.zeros(2), dt)
        state = step_exact(state, r, params, dt)
    err = float(np.linalg.norm(state.dcm - xi_ref))

    rng = np.random.default_rng(7)
    worst_real = -np.inf
    for _ in range(1000):
        kp = rng.uniform(1.0 + 1e-6, 10.0)
        ki = rng.uniform(1e-6, 5.0)
        A = np.array([[omega * (1 - kp), -omega * ki], [1.0, 0.0]])
        worst_real = max(worst_real, float(np.linalg.eigvals(A).real.max()))
    ok = err < 1e-6 and worst_real < 0.0
    report(3, ok, f"step error at 5 s {err:.2e} m, worst eigenvalue real part "
                  f"{worst_real:.2e} over 1000 gains")


def test_criterion_04_mpc_oracles_and_gait(predictive_gait):
    omega, T = 4.3, 0.1
    rng = np.random.default_rng(11)
    square = SupportPolygon.from_points(0.06 * np.array(
        [[1, 1], [-1, 1], [-1, -1], [1, -1]]))

    worst_eq = 0.0
    for _ in range(25):
        q, r, qn = rng.uniform(0.5, 5.0, size=3)
        cfg = MpcConfig(horizon=2, sample_time=T, Q=q * np.eye(2),
                        R=r * np.eye(2), Q_terminal=qn * np.eye(2))
        ctrl = PredictiveDcmController(cfg, omega)
        xi = rng.normal(scale=0.1, size=2)
        r_prev = rng.normal(scale=0.1, size=2)
        refs = rng.normal(scale=0.1, size=(3, 2))
        got, _ = ctrl.control(xi, r_prev, ctrl.sample(refs))
        want = mpc_kkt_oracle(omega, T, cfg.Q, cfg.R, cfg.Q_terminal,
                              xi, r_prev, refs)
        worst_eq = max(worst_eq, float(np.linalg.norm(got - want)))

    worst_in = 0.0
    n_active = 0
    for _ in range(50):
        q, r, qn = rng.uniform(0.5, 5.0, size=3)
        cfg = MpcConfig(horizon=2, sample_time=T, Q=q * np.eye(2),
                        R=r * np.eye(2), Q_terminal=qn * np.eye(2))
        ctrl = PredictiveDcmController(cfg, omega)
        xi = rng.normal(scale=0.04, size=2)
        r_prev = rng.normal(scale=0.04, size=2)
        refs = rng.normal(scale=0.08, size=(3, 2))
        got, _ = ctrl.control(xi, r_prev, ctrl.sample(refs, [square, square]))
        H, grad, A_eq, b_eq = mpc_qp_data_n2(
            omega, T, cfg.Q, cfg.R, cfg.Q_terminal, xi, r_prev, refs)
        A_in = np.zeros((2 * square.A.shape[0], 10))
        A_in[:square.A.shape[0], 6:8] = square.A
        A_in[square.A.shape[0]:, 8:10] = square.A
        b_in = np.concatenate([square.b, square.b])
        w = brute_force_qp(H, grad, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)
        assert w is not None
        worst_in = max(worst_in, float(np.linalg.norm(got - w[6:8])))
        if np.max(A_in @ w - b_in) > -1e-6:
            n_active += 1

    scenario, result = predictive_gait
    assert result.metrics["completed"]
    _, timeline = build_gait(scenario)
    stride = max(1, int(round(scenario.mpc_period / scenario.dt)))
    worst_gait = -np.inf
    for k in range(0, len(result.traces["t"]), stride):
        t = result.traces["t"][k]
        poly = support_polygon_at(timeline, t)
        worst_gait = max(worst_gait,
                         float(poly.violation(result.traces["r_ref"][k])))
    ok = worst_eq < 1e-8 and worst_in < 1e-7 and worst_gait <= 1e-6
    report(4, ok, f"KKT gap {worst_eq:.2e}, enumeration gap {worst_in:.2e} "
                  f"({n_active}/50 with active constraints), worst gait "
                  f"polygon violation {worst_gait:.2e} m")


def test_criterion_05_qp_solver():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        spec, _ = random_qp(rng, n_max=10, m_max=8)
        sol = qp.QpSolver().solve(qp.QpProblem(**row_form(spec)))
        assert sol.status is qp.QpStatus.OPTIMAL
        worst = max(worst, max(sol.residuals.values()))
    worst_bf = 0.0
    n_checked = 0
    while n_checked < 50:
        spec, _ = random_qp(rng, n_max=3, m_max=3)
        w = brute_force_qp(**spec)
        if w is None:
            continue
        sol = qp.QpSolver().solve(qp.QpProblem(**row_form(spec)))
        worst_bf = max(worst_bf, float(np.linalg.norm(sol.w - w)))
        n_checked += 1
    ok = worst <= 1e-8 and worst_bf < 1e-6
    report(5, ok, f"1000 instances, worst KKT residual {worst:.2e}; "
                  f"{n_checked} brute-force checks, worst gap {worst_bf:.2e}")


def test_criterion_06_jacobian_fd_slopes():
    model = sample_biped()
    rng = np.random.default_rng(17)
    q = rng.uniform(-0.4, 0.4, size=model.n_joints)
    from dcmwalk.kinematics import RobotState
    from dcmwalk.so3 import exp_so3
    state = RobotState(base_position=rng.normal(scale=0.2, size=3),
                       base_rotation=exp_so3(rng.normal(scale=0.2, size=3)),
                       joint_positions=q)
    nu = rng.normal(size=model.n_velocities)
    nu /= np.linalg.norm(nu)
    eps_grid = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    frames = sorted(set(model.frames) | set(model.links))
    worst_dev = 0.0
    for frame in frames:
        errs = []
        cache = KinematicsCache(model, state)
        p0, R0 = cache.frame_pose(frame)
        twist = cache.task_jacobian((frame,))[3:] @ nu
        for eps in eps_grid:
            pert = KinematicsCache(model, integrate_state(state, nu, eps))
            p1, R1 = pert.frame_pose(frame)
            dR = R1 @ R0.T
            e = np.concatenate([(p1 - p0) / eps - twist[:3],
                                vee(0.5 * (dR - dR.T)) / eps - twist[3:]])
            errs.append(np.linalg.norm(e))
        if max(errs) < 1e-8:
            continue  # exactly integrated frame (base): agreement is exact
        slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
        worst_dev = max(worst_dev, abs(slope - 1.0))
    report(6, worst_dev < 0.1, f"{len(frames)} frames, worst slope deviation "
                               f"{worst_dev:.3f} from 1.0")


def test_criterion_07_wholebody_hard_tasks(experiment1):
    _, result, _ = experiment1
    hard = float(result.traces["hard_residual"].max())
    sdot = float(result.traces["sdot_max"].max())
    lo, hi = sample_biped().velocity_limits()
    bound = float(hi.max())
    ctrl, model, state = make_controller(mode="velocity")
    _, diag = ctrl.cycle(consistent_refs(model, state), state)
    nu0 = float(np.linalg.norm(diag["nu"], np.inf))
    ok = hard <= 1e-8 and sdot <= bound + 1e-9 and nu0 < 1e-10
    report(7, ok, f"max hard residual {hard:.2e}, max joint rate {sdot:.2f} "
                  f"<= {bound:.0f} rad/s, fixed-point |nu| {nu0:.2e}")


def test_criterion_08_experiment1_analog(experiment1):
    _, result, wall = experiment1
    m = result.metrics
    n_steps = result.summary["n_steps_planned"]
    ok = (m["completed"] and m["max_dcm_error"] < 0.05
          and m["max_com_error"] < 0.02 and n_steps >= 20 and wall < 30.0)
    report(8, ok, f"max DCM err {m['max_dcm_error']:.4f} m, max CoM err "
                  f"{m['max_com_error']:.4f} m, {n_steps} steps, "
                  f"runtime {wall:.1f} s")


def test_criterion_09_architecture_ranking():
    base = Scenario(controller="instantaneous", mode="position",
                    forward_velocity=0.19, duration=12.0)
    rows = compare_architectures(base, velocities=(0.19, 0.37, 0.49), seed=0)
    table = {(r["SimplifiedModelControl"], r["WholeBodyQPControl"]):
             r["MaxStraightVelocity"] for r in rows}
    best = table[("instantaneous", "position")]
    others = {k: v for k, v in table.items()
              if k != ("instantaneous", "position")}
    ok = all(best > v for v in others.values())
    report(9, ok, f"instantaneous+position reaches {best} m/s vs "
                  + ", ".join(f"{c[0][:4]}+{c[1][:3]} {v}" for c, v in others.items()))


def test_criterion_10_compute_budget(experiment1):
    _, result, _ = experiment1
    mean_ms = result.metrics["mean_cycle_time"] * 1e3
    report(10, mean_ms < 3.0, f"mean control cycle {mean_ms:.2f} ms")


def test_criterion_11_foot_tracking_modes():
    worse = 0
    gaps = []
    for seed in range(10):
        errs = {}
        for mode in ("position", "velocity"):
            scenario = Scenario(controller="instantaneous", mode=mode,
                                forward_velocity=0.19, duration=8.0)
            m = run_scenario(scenario, seed=seed).metrics
            errs[mode] = max(m["max_foot_error_x"], m["max_foot_error_y"],
                             m["max_foot_error_z"])
        gaps.append(errs["velocity"] - errs["position"])
        if errs["position"] > errs["velocity"]:
            worse += 1
    report(11, worse == 0, f"10 seeds, position tracking never worse; "
                           f"min/median velocity-position gap "
                           f"{min(gaps):.4f}/{float(np.median(gaps)):.4f} m")
