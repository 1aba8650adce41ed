"""Dense active-set QP solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk import dcm_planner, harness, kinematics, lipm, so3, unicycle, wholebody
from dcmwalk import qp as qp_module
from dcmwalk.control import MpcConfig, PredictiveDcmController, SupportPolygon
from dcmwalk.harness import NoiseModel, Scenario, run_scenario
from dcmwalk.qp import QpProblem, QpSolver, QpStatus, _ratio_test, kkt_residuals
from dcmwalk.wholebody import WholeBodyController
from oracles import (brute_force_qp, inequality_rows, mpc_blocks_plain, mpc_start_point,
                     random_qp, ratio_test_plain, row_form)


def test_unconstrained_minimum():
    sol = QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.array([-2.0, -4.0])))
    assert sol.status is QpStatus.OPTIMAL
    assert np.allclose(sol.w, [1.0, 2.0], atol=1e-10)


def test_equality_symmetric():
    # min |w|^2 s.t. w1 + w2 = 1.
    sol = QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.zeros(2),
                                     A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])))
    assert np.allclose(sol.w, [0.5, 0.5], atol=1e-10)


def test_active_bound():
    # Unconstrained optimum (1, 2), the row w2 <= 1 pins w2 at 1.
    sol = QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.array([-2.0, -4.0]),
                                     A_in=np.array([[0.0, 1.0]]), b_in=np.array([1.0])))
    assert np.allclose(sol.w, [1.0, 1.0], atol=1e-10)
    assert sol.dual_in[0] > 0


def test_brute_force_oracle_small():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(60):
        spec, _ = random_qp(rng, n_max=2, m_max=3, with_eq=False, with_bounds=False)
        sol = QpSolver().solve(QpProblem(**row_form(spec)))
        assert sol.status is QpStatus.OPTIMAL
        ref = brute_force_qp(**spec)
        assert ref is not None
        assert np.linalg.norm(sol.w - ref, np.inf) < 1e-7
        hits += 1
    assert hits == 60


def test_kkt_residuals_at_optimum():
    sol = QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.array([-2.0, -4.0])))
    res = kkt_residuals(QpProblem(H=2 * np.eye(2), g=np.array([-2.0, -4.0])), sol)
    assert all(v <= 1e-12 for v in res.values())


def test_kkt_residuals_detect_perturbation():
    prob = QpProblem(H=2 * np.eye(2), g=np.array([-2.0, -4.0]))
    sol = QpSolver().solve(prob)
    sol.w = sol.w + np.array([1e-3, 0.0])
    assert kkt_residuals(prob, sol)["stationarity"] > 1e-4


def test_in_violation_definition():
    prob = QpProblem(H=np.eye(2), g=np.zeros(2),
                     A_in=np.array([[1.0, 0.0]]), b_in=np.array([-1.0]))
    sol = QpSolver().solve(prob)
    sol.w = np.array([0.5, 0.0])  # violates w1 <= -1 by 1.5
    assert abs(kkt_residuals(prob, sol)["in_violation"] - 1.5) < 1e-12


def test_determinism():
    rng = np.random.default_rng(11)
    spec, _ = random_qp(rng)
    a = QpSolver().solve(QpProblem(**row_form(spec)))
    b = QpSolver().solve(QpProblem(**row_form(spec)))
    assert np.array_equal(a.w, b.w)
    assert a.iterations == b.iterations


def test_eq_residual_is_the_residual_at_the_solution():
    # Whether the solve ends at the equality-only minimizer (one iteration,
    # its residual from the feasibility test) or in the active-set loop,
    # `eq_residual` reads max |A_eq w - b_eq| at the returned w, bit for bit.
    rng = np.random.default_rng(14)
    iterations = set()
    for _ in range(60):
        prob = QpProblem(**row_form(random_qp(rng)[0]))
        sol = QpSolver().solve(prob)
        assert sol.status is QpStatus.OPTIMAL
        iterations.add(min(sol.iterations, 2))
        want = (float(np.abs(prob.A_eq @ sol.w - prob.b_eq).max())
                if prob.A_eq.shape[0] else 0.0)
        assert sol.eq_residual == want
    assert iterations == {1, 2}


def test_warm_start_same_optimum():
    rng = np.random.default_rng(12)
    for _ in range(20):
        prob = QpProblem(**row_form(random_qp(rng)[0]))
        cold = QpSolver().solve(prob)
        warm = QpSolver().solve(prob, start=cold.w)
        assert np.linalg.norm(cold.w - warm.w, np.inf) < 1e-7


def test_scale_invariance():
    rng = np.random.default_rng(13)
    spec, _ = random_qp(rng, with_eq=False, with_bounds=False)
    a = QpSolver().solve(QpProblem(**row_form(spec)))
    spec_scaled = dict(spec, H=7.0 * spec["H"], g=7.0 * spec["g"])
    b = QpSolver().solve(QpProblem(**row_form(spec_scaled)))
    assert np.linalg.norm(a.w - b.w, np.inf) < 1e-9


def test_duality_gap():
    # Gap between the primal objective and the Lagrangian at the returned
    # multipliers equals the complementarity defect; both must vanish.
    rng = np.random.default_rng(14)
    for _ in range(30):
        spec, _ = random_qp(rng, with_eq=False, with_bounds=False)
        prob = QpProblem(**row_form(spec))
        sol = QpSolver().solve(prob)
        assert sol.status is QpStatus.OPTIMAL
        gap = 0.0
        if spec["A_in"] is not None:
            slack = spec["A_in"] @ sol.w - np.asarray(spec["b_in"])
            gap = abs(sol.dual_in @ slack)
        res = kkt_residuals(prob, sol)
        assert gap <= 1e-7
        assert res["stationarity"] <= 1e-7


def test_infeasible_detected():
    prob = QpProblem(H=np.eye(1), g=np.zeros(1),
                     A_in=np.array([[1.0], [-1.0]]), b_in=np.array([-1.0, -1.0]))
    sol = QpSolver().solve(prob)
    assert sol.status is QpStatus.INFEASIBLE


def test_infeasible_bounds_vs_equalities():
    A_in, b_in, _ = inequality_rows(2, lb=np.full(2, -1.0), ub=np.ones(2))
    prob = QpProblem(H=np.eye(2), g=np.zeros(2), A_eq=np.array([[1.0, 1.0]]),
                     b_eq=np.array([10.0]), A_in=A_in, b_in=b_in)
    sol = QpSolver().solve(prob)
    assert sol.status is QpStatus.INFEASIBLE


def test_dimension_validation():
    with pytest.raises(ValueError):
        QpProblem(H=np.eye(3), g=np.zeros(2))
    with pytest.raises(ValueError):
        QpProblem(H=np.eye(2), g=np.zeros(2), A_eq=np.ones((1, 2)), b_eq=None)
    with pytest.raises(ValueError):
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        QpProblem(H=asym, g=np.zeros(2))
    base = dict(H=np.eye(2), g=np.zeros(2))
    # Each of these used to be accepted.
    for bad in (dict(g=np.zeros((2, 1))), dict(A_in=np.ones((1, 3)), b_in=np.ones(1)),
                dict(A_in=np.ones((2, 2)), b_in=np.ones(3)),
                dict(A_eq=np.ones(2), b_eq=np.ones(1)),
                dict(A_eq=np.ones((1, 2)), b_eq=np.ones((1, 1)))):
        with pytest.raises(ValueError):
            QpProblem(**dict(base, **bad))
    # A non-finite entry is rejected; a NaN in g used to come back
    # INFEASIBLE. An infinite b_in is rejected too: a row with no bound is
    # left out, not given an infinite one.
    full = dict(base, A_eq=np.ones((1, 2)), b_eq=np.ones(1), A_in=np.ones((1, 2)),
                b_in=np.ones(1))
    QpProblem(**full)
    for name in ("H", "g", "A_eq", "b_eq", "A_in", "b_in"):
        for value in (np.nan, np.inf, -np.inf):
            spec = dict(full, **{name: full[name].copy()})
            spec[name].flat[-1] = value
            with pytest.raises(ValueError, match=name):
                QpProblem(**spec)


def test_problem_normalized_once():
    # Absent blocks become empty blocks; float64 arrays of the right shape
    # are kept as the same objects.
    H, g, A_in, b_in = np.eye(3), np.zeros(3), -np.eye(3), np.ones(3)
    prob = QpProblem(H=H, g=g, A_in=A_in, b_in=b_in)
    assert prob.H is H and prob.g is g and prob.A_in is A_in and prob.b_in is b_in
    assert prob.A_eq.shape == (0, 3) and prob.b_eq.shape == (0,)
    prob = QpProblem(H=H, g=g)
    assert prob.A_eq.shape == prob.A_in.shape == (0, 3)
    assert prob.b_eq.shape == prob.b_in.shape == (0,)
    listed = QpProblem(H=[[2, 0], [0, 2]], g=[1, 0], A_in=[[1, 1]], b_in=[3])
    for name in ("H", "g", "A_in", "b_in"):
        assert getattr(listed, name).dtype == np.float64
    assert listed.A_eq.shape == (0, 2)


def test_max_iter_status():
    rng = np.random.default_rng(15)
    spec, _ = random_qp(rng)
    sol = QpSolver(max_iter=0).solve(QpProblem(**row_form(spec)))
    assert sol.status in (QpStatus.MAX_ITER, QpStatus.OPTIMAL, QpStatus.INFEASIBLE)


def test_max_iter_carries_the_last_step_multipliers():
    # min |w - (2, 0.5, 0)|^2 / 2 s.t. w2 = 1, w0 <= 1, w1 <= 5, from the
    # least-squares start (0, 0, 1): iteration 1 is blocked by w0 <= 1, and
    # iteration 2 takes the full step to the minimizer on that working row,
    # one iteration before the multiplier check would return OPTIMAL.
    prob = QpProblem(H=np.eye(3), g=np.array([-2.0, -0.5, 0.0]),
                     A_eq=np.array([[0.0, 0.0, 1.0]]), b_eq=np.array([1.0]),
                     A_in=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), b_in=np.array([1.0, 5.0]))
    sol = QpSolver(max_iter=2).solve(prob)
    assert sol.status is QpStatus.MAX_ITER and sol.active_set == (0,)
    # The KKT system of the equality and the working row, solved directly.
    W = list(sol.active_set)
    A = np.vstack([prob.A_eq, prob.A_in[W]])
    K = np.block([[prob.H, A.T], [A, np.zeros((A.shape[0], A.shape[0]))]])
    z = np.linalg.solve(K, np.concatenate([-prob.g, prob.b_eq, prob.b_in[W]]))
    assert np.allclose(sol.w, z[:3], rtol=0.0, atol=1e-12)
    assert np.allclose(sol.dual_eq, z[3:4], rtol=0.0, atol=1e-12)
    dual_in = np.zeros(2)
    dual_in[W] = z[4:]
    assert np.allclose(sol.dual_in, dual_in, rtol=0.0, atol=1e-12) and sol.dual_in[0] == 1.0
    assert max(sol.residuals.values()) <= 1e-12
    assert QpSolver(max_iter=3).solve(prob).status is QpStatus.OPTIMAL


def test_infeasible_start_point_ignored():
    # A start that breaks the equality is rejected; the cold start is used.
    prob = QpProblem(H=2 * np.eye(2), g=np.zeros(2),
                     A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    sol = QpSolver().solve(prob, start=np.array([5.0, 5.0]))
    assert sol.status is QpStatus.OPTIMAL
    assert np.allclose(sol.w, [0.5, 0.5], atol=1e-10)


@pytest.mark.parametrize("rows", [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]])
def test_ratio_test_tie_picks_lower_index(rows):
    # From w = 0 the step toward the optimum (2, 0) meets both rows, each
    # a scaled copy of w1 <= 1, at exactly the same step length.
    A_in = np.array(rows)
    prob = QpProblem(H=2 * np.eye(2), g=np.array([-4.0, 0.0]),
                     A_in=A_in, b_in=A_in[:, 0].copy())
    sol = QpSolver().solve(prob)
    assert sol.status is QpStatus.OPTIMAL
    assert np.allclose(sol.w, [1.0, 0.0], atol=1e-12)
    assert sol.active_set == (0,)


def test_ratio_test_matches_rowwise_reference():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(0, 12))
        # Few distinct values, so exact ties, zero and tiny steps, negative
        # slacks (rounding just past a row) and steps past 1 all occur.
        Ap = rng.choice([-1.0, 0.0, 1e-15, 0.5, 1.0, 2.0], size=m)
        slack = rng.choice([-1e-12, 0.0, 0.25, 0.5, 1.0, 3.0], size=m)
        working = set(np.flatnonzero(rng.uniform(size=m) < 0.2).tolist())
        got = _ratio_test(Ap, slack, working)
        want = ratio_test_plain(Ap, slack, working)
        assert got[1] == want[1]
        assert got[0] == want[0]


# Steps that tie with one another within 1e-15, or sit at the prefilter's
# edge just below 1 - 1e-15 and 1, and A p at +-1e-14 and one ulp above it.
_STEPS = [0.0, 0.25, 0.5, 0.5 + 5e-16, 0.5 + 1e-15, 0.5 + 2e-15, 1.0 - 2e-15,
          1.0 - 1e-15, 1.0 - 5e-16, np.nextafter(1.0, 0.0), 1.0, 2.0]
_AP = [-1.0, -1e-14, 0.0, 1e-15, 1e-14, np.nextafter(1e-14, 1.0), 0.5, 1.0, 3.0]


@st.composite
def _ratio_rows(draw):
    """(A p, slack, working set) with drawn ties, zero and negative slacks,
    A p at +-1e-14 and rows already in the working set."""
    m = draw(st.integers(0, 12))
    Ap = np.array([draw(st.sampled_from(_AP) | st.floats(-2.0, 2.0)) for _ in range(m)])
    slack = np.array([draw(st.sampled_from(_STEPS).map(lambda a, ap=ap: a * ap)
                           | st.sampled_from([0.0, -0.0, -1e-12, -1.0])
                           | st.floats(-1.0, 3.0)) for ap in Ap])
    working = {i: None for i in range(m) if draw(st.booleans()) and draw(st.booleans())}
    return Ap, slack, working


@settings(max_examples=400, deadline=None)
@given(rows=_ratio_rows())
def test_ratio_test_equals_plain_scan(rows):
    Ap, slack, working = rows
    alpha, blocking = _ratio_test(Ap, slack, working)
    want_alpha, want_blocking = ratio_test_plain(Ap, slack, working)
    assert blocking == want_blocking
    assert alpha == want_alpha and np.signbit(alpha) == np.signbit(want_alpha)


def test_lazy_residuals_equal_eager_kkt_residuals():
    rng = np.random.default_rng(20)
    for _ in range(100):
        prob = QpProblem(**row_form(random_qp(rng)[0]))
        sol = QpSolver().solve(prob)
        eager = kkt_residuals(prob, sol)
        assert "residuals" not in vars(sol)
        assert sol.residuals == eager
        assert sol.residuals is sol.residuals


def _interior_problem(rng, n, m_eq, m_in):
    """A QP whose minimizer under the equalities alone lies strictly inside
    its bounds and inequality rows; returns (spec, that minimizer). The spec
    has bounds, so `row_form` turns it into a `QpProblem`'s arguments."""
    M = rng.normal(size=(n, n))
    H = M.T @ M + np.eye(n)
    g = rng.normal(size=n)
    A_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    w_eq = brute_force_qp(H, g, A_eq, b_eq)
    A_in = rng.normal(size=(m_in, n))
    spec = dict(H=H, g=g, A_eq=A_eq, b_eq=b_eq, A_in=A_in,
                b_in=A_in @ w_eq + rng.uniform(0.1, 1.0, size=m_in),
                lb=w_eq - rng.uniform(0.1, 1.0, size=n), ub=w_eq + rng.uniform(0.1, 1.0, size=n))
    return spec, w_eq


@pytest.mark.parametrize("m_eq", [0, 2])
def test_feasible_equality_minimizer_takes_one_solve(monkeypatch, m_eq):
    def forbidden(*args, **kwargs):
        raise AssertionError("the least-squares start or Phase-1 LP was used")
    monkeypatch.setattr(qp_module.np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(qp_module, "linprog", forbidden)
    rng = np.random.default_rng(30 + m_eq)
    for _ in range(20):
        spec, _ = _interior_problem(rng, n=4, m_eq=m_eq, m_in=3)
        sol = QpSolver().solve(QpProblem(**row_form(spec)))
        assert sol.status is QpStatus.OPTIMAL
        assert sol.iterations == 1
        assert sol.active_set == ()
        assert max(sol.residuals.values()) <= 1e-8
        assert np.linalg.norm(sol.w - brute_force_qp(**spec), np.inf) < 1e-9


@pytest.mark.parametrize("m_eq", [0, 2])
def test_binding_bound_matches_oracle(m_eq):
    rng = np.random.default_rng(40 + m_eq)
    for _ in range(20):
        spec, w_eq = _interior_problem(rng, n=4, m_eq=m_eq, m_in=2)
        # Cut the equality-constrained minimizer off with one upper bound.
        j = int(rng.integers(4))
        spec["ub"][j] = w_eq[j] - rng.uniform(0.05, 0.5)
        spec["lb"][j] = spec["ub"][j] - 2.0
        ref = brute_force_qp(**spec)
        if ref is None:
            continue
        sol = QpSolver().solve(QpProblem(**row_form(spec)))
        assert sol.status is QpStatus.OPTIMAL
        assert sol.iterations > 1
        assert max(sol.residuals.values()) <= 1e-8
        assert np.linalg.norm(sol.w - ref, np.inf) < 1e-7


@pytest.mark.parametrize("with_eq", [False, True])
def test_random_cold_solves_match_oracle(with_eq):
    rng = np.random.default_rng(50 + with_eq)
    iterations = []
    for _ in range(60):
        spec, _ = random_qp(rng, n_max=3, m_max=4, with_eq=with_eq)
        sol = QpSolver().solve(QpProblem(**row_form(spec)))
        assert sol.status is QpStatus.OPTIMAL
        assert np.linalg.norm(sol.w - brute_force_qp(**spec), np.inf) < 1e-7
        assert max(sol.residuals.values()) <= 1e-8
        iterations.append(sol.iterations)
    # Both the one-solve path and the active-set loop were exercised.
    assert 1 in iterations and max(iterations) > 1


@pytest.mark.parametrize("mode", ["position", "velocity"])
def test_steady_walk_solves_each_wholebody_qp_once(monkeypatch, mode):
    # Every cycle of a steady walk ends its QP after one iteration, and does
    # one tree pass, one batched read of the task frames' poses (no pose read
    # frame by frame), one task Jacobian (hard tasks and torso together), one
    # Cholesky (the rank certificate, with no SVD after it) and one dense
    # solve (the KKT system): a second factorization per cycle fails here.
    # Its three rotation errors (torso and both feet) check both of their
    # rotations, the measured one and the reference, with the float-rows
    # check, and no rotation is checked between cycles.
    cycle = WholeBodyController.cycle
    iterations = []
    per_cycle = []
    running = []   # the counts of the cycle in progress, if any
    between = []   # rotation checks outside the cycles
    names = ("KinematicsCache", "frame_poses", "frame_pose", "task_jacobian", "cholesky",
             "svd", "solve", "matrix_rank", "rows_are_rotation")

    def counted(self, refs, measured_state):
        running.append(dict.fromkeys(names, 0))
        try:
            command, diag = cycle(self, refs, measured_state)
        finally:
            per_cycle.append(running.pop())
        iterations.append(diag["qp_iterations"])
        return command, diag

    def counting(name, fn):
        def call(*args, **kwargs):
            if running:
                running[-1][name] += 1
            elif name == "rows_are_rotation":
                between.append(args)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(WholeBodyController, "cycle", counted)
    monkeypatch.setattr(wholebody, "KinematicsCache",
                        counting("KinematicsCache", wholebody.KinematicsCache))
    for name in ("frame_poses", "frame_pose", "task_jacobian"):
        monkeypatch.setattr(kinematics.KinematicsCache, name,
                            counting(name, getattr(kinematics.KinematicsCache, name)))
    # The rotation error calls the check by its name in `lipm`.
    monkeypatch.setattr(lipm, "rows_are_rotation",
                        counting("rows_are_rotation", so3.rows_are_rotation))
    for name in ("cholesky", "svd", "solve", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    result = run_scenario(Scenario(controller="instantaneous", mode=mode,
                                   forward_velocity=0.19, duration=3.0, noise=NoiseModel()))
    monkeypatch.undo()
    assert result.metrics["completed"]
    assert len(iterations) == len(result.traces["t"]) == 300
    assert set(iterations) == {1}
    work = {tuple(sorted(counts.items())) for counts in per_cycle}
    assert work == {(("KinematicsCache", 1), ("cholesky", 1), ("frame_pose", 0),
                     ("frame_poses", 1), ("matrix_rank", 0), ("rows_are_rotation", 6),
                     ("solve", 1), ("svd", 0), ("task_jacobian", 1))}
    assert between == []


def test_predictive_walk_reads_the_plan_outside_the_timed_stages(monkeypatch):
    # The plan is sampled before the first cycle: inside the two timed
    # stages no cycle evaluates the DCM reference, looks up a gait phase or
    # evaluates a swing trajectory, while the MPC solves every 10th cycle.
    inside = []
    calls = []   # (name, whether inside a timed stage)

    def staged(fn):
        def call(*args, **kwargs):
            inside.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return call

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, bool(inside)))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(harness._SimplifiedLayer, "control",
                        staged(harness._SimplifiedLayer.control))
    monkeypatch.setattr(harness, "_wholebody", staged(harness._wholebody))
    for owner, name in [(dcm_planner.DcmTrajectory, "eval"), (dcm_planner.DcmTrajectory, "dcm"),
                        (unicycle.GaitTimeline, "phase_at"), (unicycle.SwingTrajectory, "pose"),
                        (PredictiveDcmController, "control")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    result = run_scenario(Scenario(controller="predictive", forward_velocity=0.19,
                                   duration=3.0, noise=NoiseModel()))
    monkeypatch.undo()
    assert result.metrics["completed"]
    assert len(result.traces["t"]) == 300
    assert calls.count(("control", True)) == 30
    assert [name for name, timed in calls if timed and name != "control"] == []
    assert ("pose", False) in calls


def test_predictive_walk_builds_its_samples_before_the_first_cycle(monkeypatch):
    # Each MPC sample's plan-fixed blocks are built when the layer is made:
    # inside the timed simplified stage no sample is built, and every QP the
    # MPC solves, with its start point, equals the per-call build from the
    # sample's DCM window and polygons and the measurement.
    inside, built, solved = [], [], []
    control, sample = harness._SimplifiedLayer.control, PredictiveDcmController.sample
    mpc_control = PredictiveDcmController.control

    def staged(self, k, *args):
        inside.append((self, k))
        try:
            return control(self, k, *args)
        finally:
            inside.pop()

    def counted(self, *args):
        built.append(bool(inside))
        return sample(self, *args)

    def captured(self, xi_meas, r_prev, mpc_sample):
        solved.append((inside[-1], self, np.array(xi_meas), np.array(r_prev), mpc_sample))
        return mpc_control(self, xi_meas, r_prev, mpc_sample)

    monkeypatch.setattr(harness._SimplifiedLayer, "control", staged)
    monkeypatch.setattr(PredictiveDcmController, "sample", counted)
    monkeypatch.setattr(PredictiveDcmController, "control", captured)
    result = run_scenario(Scenario(controller="predictive", forward_velocity=0.19,
                                   duration=3.0, noise=NoiseModel()))
    monkeypatch.undo()
    assert result.metrics["completed"]
    assert built == [False] * 30 and len(solved) == 30
    for (layer, k), ctrl, xi_meas, r_prev, mpc_sample in solved:
        m = k // 10
        window, polygons = layer._plan.windows[m], layer._plan.polygons[m]
        problem = ctrl.assemble(xi_meas, r_prev, mpc_sample)
        want = mpc_blocks_plain(ctrl.config, ctrl.omega, xi_meas, r_prev, window, polygons)
        for name, block in zip(("g", "b_eq", "A_in", "b_in"), want):
            assert np.array_equal(getattr(problem, name), block), (k, name)
        assert problem.H is ctrl._H and problem.A_eq is ctrl._A_eq
        assert np.array_equal(ctrl.start_point(xi_meas, r_prev, mpc_sample),
                              mpc_start_point(ctrl.omega, ctrl.config.sample_time,
                                              xi_meas, r_prev, polygons))


def _frozen_copy(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def test_frozen_asymmetric_H_rejected_on_first_use():
    H = _frozen_copy([[2.0, 1.0], [0.0, 2.0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(H=H, g=np.zeros(2))


def test_writeable_H_made_asymmetric_in_place_rejected():
    H = np.eye(2)
    QpProblem(H=H, g=np.zeros(2))
    H[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(H=H, g=np.zeros(2))
    # Nor does a read-only H that passed escape the test once made
    # writeable and changed, or a read-only view changed through its base.
    H = _frozen_copy(np.eye(2))
    QpProblem(H=H, g=np.zeros(2))
    H.setflags(write=True)
    H[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(H=H, g=np.zeros(2))
    base = np.eye(2)
    view = base[:]
    view.setflags(write=False)
    QpProblem(H=view, g=np.zeros(2))
    base[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(H=view, g=np.zeros(2))


def test_finite_entries_whose_squares_overflow_accepted():
    # A finiteness test by sum of squares would overflow on these.
    big = 1e308
    QpProblem(H=np.full((2, 2), big), g=np.full(2, -big), A_eq=np.full((1, 2), big),
              b_eq=np.full(1, big), A_in=np.full((3, 2), -big), b_in=np.full(3, big))


@pytest.mark.parametrize("name", ["H", "g", "A_eq", "b_eq", "A_in", "b_in"])
def test_non_finite_entry_named_anywhere(name):
    # Beside overflowing finite entries, at every position of every field.
    full = dict(H=np.eye(2), g=np.zeros(2), A_eq=np.ones((1, 2)), b_eq=np.ones(1),
                A_in=np.ones((2, 2)), b_in=np.ones(2))
    for value in (np.nan, np.inf, -np.inf):
        for i in range(full[name].size):
            spec = dict(full, **{name: np.full_like(full[name], 1e308)})
            spec[name].flat[i] = value
            with pytest.raises(ValueError, match=name):
                QpProblem(**spec)


def _working_sets(rng, prob, G, count):
    """Random working sets of rows of G whose KKT matrix has a condition
    number below 1e4, so that the dense reference solve is accurate to
    about 1e-12."""
    n = prob.n
    for _ in range(count):
        k = int(rng.integers(0, min(G.shape[0], n - prob.A_eq.shape[0]) + 1))
        idx = sorted(rng.choice(G.shape[0], size=k, replace=False).tolist())
        A_w = np.vstack([prob.A_eq, G[idx]])
        if np.linalg.cond(qp_module._kkt_matrix(prob.H, A_w)) < 1e4:
            yield idx


def _assert_step_matches_dense(prob, K_cols, G_w, rng):
    grad = rng.normal(size=prob.n)
    p, duals = QpSolver._schur_step(K_cols, G_w, grad)
    A_w = np.vstack([prob.A_eq, G_w])
    p_ref, duals_ref = QpSolver._kkt_solve(prob.H, A_w, -grad, np.zeros(A_w.shape[0]))
    want = np.concatenate([p_ref, duals_ref])
    np.testing.assert_allclose(np.concatenate([p, duals]), want, rtol=1e-10,
                               atol=1e-10 * max(1.0, np.abs(want).max()))


def test_schur_step_matches_dense_kkt_solve():
    rng = np.random.default_rng(60)
    steps = 0
    for _ in range(100):
        prob = QpProblem(**row_form(random_qp(rng)[0]))
        G = prob.A_in
        K_cols = QpSolver()._kkt_columns(prob)
        for idx in _working_sets(rng, prob, G, 5):
            _assert_step_matches_dense(prob, K_cols, G[idx], rng)
            steps += 1
    assert steps > 300


def test_schur_step_matches_dense_kkt_solve_on_mpc_problems():
    # The MPC's QP, with working sets of at most two polygon rows per ZMP
    # sample (a third row on one 2-D sample, or two parallel ones, are dependent).
    rng = np.random.default_rng(61)
    for omega, N in ((4.79, 20), (3.0, 5), (5.5, 12)):
        ctrl = PredictiveDcmController(MpcConfig(horizon=N, Q=10.0 * np.eye(2),
                                                 R=0.05 * np.eye(2),
                                                 Q_terminal=10.0 * np.eye(2)), omega)
        for _ in range(4):
            polys = [SupportPolygon.from_rectangle(rng.uniform(-0.5, 0.5, 2),
                                                   rng.uniform(-np.pi, np.pi),
                                                   *rng.uniform(0.05, 0.3, 2))
                     for _ in range(N)]
            xi, r_prev = rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)
            prob = ctrl.assemble(xi, r_prev, ctrl.sample(rng.uniform(-0.5, 0.5, (N + 1, 2)),
                                                         polys))
            K_cols = QpSolver()._kkt_columns(prob)
            for _ in range(5):
                # One edge of a sample's rectangle, or two adjacent ones.
                idx = sorted(4 * j + (int(r) + e) % 4
                             for j, r in zip(rng.choice(N, size=rng.integers(1, N + 1),
                                                        replace=False), rng.integers(4, size=N))
                             for e in range(rng.integers(1, 3)))
                _assert_step_matches_dense(prob, K_cols, prob.A_in[idx], rng)


def test_schur_step_reports_dependent_rows():
    # +e_0 and -e_0 together make the Schur complement singular.
    G, h, _ = inequality_rows(2, lb=np.full(2, -1.0), ub=np.ones(2))
    prob = QpProblem(H=np.eye(2), g=np.zeros(2), A_in=G, b_in=h)
    K_cols = QpSolver()._kkt_columns(prob)
    assert QpSolver._schur_step(K_cols, G[[0, 2]], np.ones(2)) == (None, None)


def test_dependent_working_set_drops_row_added_last(monkeypatch):
    # From w = 0 toward the minimizer (2, 2), row 1 (w0 <= 0.5) blocks
    # first and row 0 (w1 <= 1) second, so the row added last has the lower
    # index. The first step with both rows is reported dependent; the next
    # step must keep row 1 alone.
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = QpProblem(H=np.eye(2), g=np.array([-2.0, -2.0]), A_in=G, b_in=np.array([1.0, 0.5]))
    schur_step = QpSolver._schur_step
    calls = []

    def dependent_once(K_cols, G_w, grad):
        calls.append(G_w.copy())
        if len(G_w) == 2 and len(calls) == 3:
            return None, None
        return schur_step(K_cols, G_w, grad)

    monkeypatch.setattr(QpSolver, "_schur_step", staticmethod(dependent_once))
    sol = QpSolver().solve(prob, start=np.zeros(2))
    assert [len(G_w) for G_w in calls[:4]] == [0, 1, 2, 1]
    np.testing.assert_array_equal(calls[1], G[[1]])
    np.testing.assert_array_equal(calls[3], G[[1]])
    assert sol.status is QpStatus.OPTIMAL
    np.testing.assert_allclose(sol.w, [0.5, 1.0], atol=1e-12)
    assert sol.active_set == (0, 1)


def test_singular_equality_block_infeasible():
    # Dependent equality rows make K0 singular: the loop reports INFEASIBLE.
    A_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
    prob = QpProblem(H=np.eye(2), g=np.zeros(2), A_eq=A_eq, b_eq=np.array([1.0, 2.0]),
                     A_in=np.eye(2), b_in=np.full(2, 0.4))
    assert QpSolver().solve(prob, start=np.array([0.5, 0.5])).status is QpStatus.INFEASIBLE


@pytest.mark.parametrize("with_eq", [False, True])
def test_started_solves_match_oracle(with_eq):
    # A feasible start always enters the working-set loop.
    rng = np.random.default_rng(62 + with_eq)
    for _ in range(60):
        spec, w0 = random_qp(rng, n_max=4, m_max=4, with_eq=with_eq)
        sol = QpSolver().solve(QpProblem(**row_form(spec)), start=w0)
        assert sol.status is QpStatus.OPTIMAL
        assert np.linalg.norm(sol.w - brute_force_qp(**spec), np.inf) < 1e-7
        assert max(sol.residuals.values()) <= 1e-8


def _counting_inverses(monkeypatch):
    inverted = []
    inv = np.linalg.inv

    def counted(a):
        inverted.append(a.shape)
        return inv(a)
    monkeypatch.setattr(qp_module.np.linalg, "inv", counted)
    return inverted


def _loop_problem(H, A_eq, g):
    """A problem with a binding box row, solved from a feasible start so
    that the working-set loop runs."""
    n = H.shape[0]
    A_in, b_in, _ = inequality_rows(n, lb=np.full(n, -1.0), ub=np.ones(n))
    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=np.zeros(A_eq.shape[0]), A_in=A_in, b_in=b_in)


def test_kkt_inverse_cached_for_read_only_matrices(monkeypatch):
    inverted = _counting_inverses(monkeypatch)
    H, A_eq = np.diag([2.0, 1.0, 4.0]), np.array([[1.0, 1.0, 1.0]])
    for a in (H, A_eq):
        a.setflags(write=False)
    solver = QpSolver()
    rng = np.random.default_rng(63)
    for _ in range(4):
        prob = _loop_problem(H, A_eq, rng.normal(scale=5.0, size=3))
        sol = solver.solve(prob, start=np.zeros(3))
        assert sol.status is QpStatus.OPTIMAL
        assert np.linalg.norm(sol.w - brute_force_qp(prob.H, prob.g, prob.A_eq, prob.b_eq,
                                                     prob.A_in, prob.b_in), np.inf) < 1e-9
    assert inverted == [(4, 4)]
    # Another read-only pair, or a read-only view of the same data, rebuilds.
    H2 = np.diag([1.0, 1.0, 1.0])
    H2.setflags(write=False)
    view = H.view()
    view.setflags(write=False)
    for h, count in ((H2, 2), (H2, 2), (view, 3), (view, 4), (H, 5), (H, 5)):
        solver.solve(_loop_problem(h, A_eq, np.ones(3)), start=np.zeros(3))
        assert len(inverted) == count


def test_kkt_inverse_rebuilt_for_writeable_matrices(monkeypatch):
    # A writeable H or A_eq may change in place between solves, so its
    # inverse is never reused: each solve sees the matrix as it is now.
    inverted = _counting_inverses(monkeypatch)
    solver = QpSolver()
    H, A_eq = np.diag([2.0, 1.0, 4.0]), np.array([[1.0, 1.0, 1.0]])
    g = np.array([-6.0, 1.0, 3.0])
    for step in range(4):
        prob = _loop_problem(H, A_eq, g)
        sol = solver.solve(prob, start=np.zeros(3))
        ref = brute_force_qp(H, g, A_eq, prob.b_eq, prob.A_in, prob.b_in)
        assert sol.status is QpStatus.OPTIMAL
        assert np.linalg.norm(sol.w - ref, np.inf) < 1e-9
        assert len(inverted) == step + 1
        H[step % 3, step % 3] *= 5.0
        A_eq[0, (step + 1) % 3] = -1.0 - step


def test_steady_predictive_walk_inverts_once(monkeypatch):
    # One controller inverts its fixed KKT block once; every MPC loop
    # iteration then solves only its |W| x |W| Schur complement.
    control = PredictiveDcmController.control
    step = QpSolver._schur_step
    inverted, solved, samples = [], [], []
    running = []   # the |W| of the step in progress, if any

    def in_mpc(self, *args):
        samples.append(len(inverted))
        running.append(None)
        try:
            return control(self, *args)
        finally:
            running.pop()

    def counted_step(K_cols, G_w, grad):
        running.append(G_w.shape[0])
        try:
            return step(K_cols, G_w, grad)
        finally:
            running.pop()

    def counting(name, fn, calls):
        def call(a, *args):
            if running:
                calls.append((running[-1], a.shape))
            return fn(a, *args)
        return call

    monkeypatch.setattr(PredictiveDcmController, "control", in_mpc)
    monkeypatch.setattr(QpSolver, "_schur_step", staticmethod(counted_step))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv, inverted))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve, solved))
    result = run_scenario(Scenario(controller="predictive", mode="position",
                                   forward_velocity=0.19, duration=3.0, noise=NoiseModel()))
    monkeypatch.undo()
    assert result.metrics["completed"]
    assert len(samples) == 30
    assert inverted == [(None, (44, 44))]
    assert solved and all(w == shape[0] == shape[1] for w, shape in solved)
