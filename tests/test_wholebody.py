"""Whole-body differential-IK layer: QP assembly, modes, and how a cycle
fails: rank-deficient hard tasks raise an error that names the task."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk.harness import Scenario, run_scenario
from dcmwalk.kinematics import (KinematicsCache, RobotState, home_state, load_model,
                                sample_biped)
from dcmwalk.so3 import exp_so3, rot_z
from dcmwalk.wholebody import (ControlMode, FootReference, RankDeficientTasksError,
                               TaskGains, WholeBodyController, WholeBodyReferences,
                               LEFT_FOOT, RIGHT_FOOT, _check_task_ranks, _Integrators,
                               _task_velocities, build_wholebody_qp)
from oracles import com_velocity_law, foot_velocity_law, skew_vee_error


def consistent_refs(model, state, com_velocity=None, posture=None):
    """References that make the current state an exact fixed point."""
    cache = KinematicsCache(model, state)
    lf = FootReference.stationary(*cache.frame_pose("left_foot"))
    rf = FootReference.stationary(*cache.frame_pose("right_foot"))
    return WholeBodyReferences(
        com_velocity_cmd=np.zeros(2) if com_velocity is None else com_velocity,
        left_foot=lf, right_foot=rf,
        torso_rotation=cache.frame_pose("torso")[1],
        posture=state.joint_positions.copy() if posture is None else posture,
        com_position=cache.com()[:2].copy())


def make_controller(model=None, mode="velocity", gains=None, state=None, dt=0.01):
    model = model or sample_biped()
    state = state or home_state(model)
    z0 = KinematicsCache(model, state).com()[2]
    ctrl = WholeBodyController(model, gains or TaskGains(), mode, dt, z0, state)
    return ctrl, model, state


class TestFixedPoint:
    def test_nu_zero_at_consistent_references(self):
        ctrl, model, state = make_controller(mode="velocity")
        refs = consistent_refs(model, state)
        command, diag = ctrl.cycle(refs, state)
        assert np.linalg.norm(diag["nu"], np.inf) < 1e-10
        assert np.linalg.norm(command, np.inf) < 1e-10
        assert diag["hard_residual"] < 1e-10

    def test_position_mode_holds_posture(self):
        ctrl, model, state = make_controller(mode="position")
        refs = consistent_refs(model, state)
        for _ in range(5):
            command, diag = ctrl.cycle(refs, state)
            assert np.linalg.norm(diag["nu"], np.inf) < 1e-10
        assert np.allclose(command, state.joint_positions, atol=1e-10)


class TestHardTasks:
    def test_residuals_with_active_references(self):
        ctrl, model, state = make_controller(mode="velocity")
        cache = KinematicsCache(model, state)
        refs = consistent_refs(model, state)
        # Shift the CoM command and one foot: hard rows must still be met.
        p, R = cache.frame_pose("left_foot")
        moved = FootReference(position=p + [0.02, 0.0, 0.01], rotation=R,
                              linear_velocity=np.array([0.1, 0.0, 0.0]),
                              angular_velocity=np.zeros(3))
        refs = WholeBodyReferences(
            com_velocity_cmd=np.array([0.1, -0.05]), left_foot=moved,
            right_foot=refs.right_foot, torso_rotation=refs.torso_rotation,
            posture=refs.posture, com_position=refs.com_position + [0.01, 0.0])
        _, diag = ctrl.cycle(refs, state)
        assert diag["hard_residual"] <= 1e-8
        assert np.linalg.norm(diag["nu"]) > 1e-3  # actually moving

    def test_velocity_bounds_respected_under_saturation(self):
        model = sample_biped()
        state = home_state(model)
        ctrl, _, _ = make_controller(model=model, state=state, mode="velocity")
        refs = consistent_refs(model, state,
                               posture=state.joint_positions + 10.0)
        _, diag = ctrl.cycle(refs, state)
        lo, hi = model.velocity_limits()
        sdot = diag["nu"][6:]
        assert np.all(sdot <= hi + 1e-9) and np.all(sdot >= lo - 1e-9)
        assert diag["hard_residual"] <= 1e-8

    def test_soft_task_yields_to_hard_tasks(self):
        # Large torso reference error: the hard rows stay exact while the
        # torso task is left with a visible residual.
        ctrl, model, state = make_controller(mode="velocity")
        cache = KinematicsCache(model, state)
        refs = consistent_refs(model, state)
        refs = WholeBodyReferences(
            com_velocity_cmd=refs.com_velocity_cmd, left_foot=refs.left_foot,
            right_foot=refs.right_foot,
            torso_rotation=rot_z(1.0) @ refs.torso_rotation,
            posture=refs.posture, com_position=refs.com_position)
        _, diag = ctrl.cycle(refs, state)
        assert diag["hard_residual"] <= 1e-8
        J_torso = cache.task_jacobian(("torso",))[6:9]
        achieved = J_torso @ diag["nu"]
        # The starred torso rate is K * sin(1.0) about z; it is not met.
        gains = TaskGains()
        star = gains.torso_rotation_gain * np.array([0.0, 0.0, np.sin(1.0)])
        assert np.linalg.norm(achieved - star) > 1e-3


class TestModes:
    def perturbed_refs(self, model, state):
        refs = consistent_refs(model, state)
        return WholeBodyReferences(
            com_velocity_cmd=np.array([0.05, 0.0]), left_foot=refs.left_foot,
            right_foot=refs.right_foot, torso_rotation=refs.torso_rotation,
            posture=refs.posture, com_position=refs.com_position)

    def test_position_mode_integrates_commands(self):
        model = sample_biped()
        state = home_state(model)
        ctrl, _, _ = make_controller(model=model, state=state, mode="position",
                                     dt=0.01)
        refs = self.perturbed_refs(model, state)
        q_prev = state.joint_positions.copy()
        for _ in range(3):
            command, diag = ctrl.cycle(refs, state)
            assert np.allclose(command, q_prev + 0.01 * diag["nu"][6:], atol=1e-12)
            q_prev = command

    def test_velocity_mode_returns_rates(self):
        model = sample_biped()
        state = home_state(model)
        ctrl, _, _ = make_controller(model=model, state=state, mode="velocity")
        command, diag = ctrl.cycle(self.perturbed_refs(model, state), state)
        assert np.array_equal(command, diag["nu"][6:])

    def test_mode_parse(self):
        assert ControlMode("position") is ControlMode.POSITION
        with pytest.raises(ValueError):
            ControlMode("torque")


class TestRankDeficiency:
    def degenerate_model(self):
        # Both foot frames on the same link: the stacked hard rows cannot be
        # independent (and 15 rows exceed the 7 available velocities anyway).
        doc = {
            "base_link": "pelvis",
            "links": [{"name": "pelvis", "mass": 1.0},
                      {"name": "torso_link", "mass": 1.0}],
            "joints": [{"name": "j1", "type": "revolute", "parent": "pelvis",
                        "child": "torso_link", "axis": [0, 0, 1]}],
            "frames": {"torso": {"link": "torso_link"},
                       "left_foot": {"link": "pelvis", "xyz": [0.0, 0.07, -0.4]},
                       "right_foot": {"link": "pelvis", "xyz": [0.0, -0.07, -0.4]}},
        }
        return load_model(doc)

    def degenerate_state(self):
        return RobotState(base_position=np.zeros(3), base_rotation=np.eye(3),
                          joint_positions=np.zeros(1))

    def test_builder_raises_named_offender(self):
        model = self.degenerate_model()
        cache = KinematicsCache(model, self.degenerate_state())
        with pytest.raises(RankDeficientTasksError) as info:
            build_wholebody_qp(model, cache, np.zeros(3), np.zeros(15), np.zeros(1),
                               TaskGains())
        assert info.value.task == "left_foot"

    def test_controller_raises_named_offender(self):
        model = self.degenerate_model()
        state = self.degenerate_state()
        ctrl = WholeBodyController(model, TaskGains(), "velocity", 0.01, 0.4, state)
        with pytest.raises(RankDeficientTasksError) as info:
            ctrl.cycle(consistent_refs(model, state), state)
        assert info.value.task == "left_foot"

    def test_run_ends_at_first_cycle_and_says_why(self):
        result = run_scenario(Scenario(duration=1.0), model=self.degenerate_model())
        assert len(result.traces["t"]) == 0
        assert result.summary["error"] == \
            "wholebody: hard task rows are rank deficient: left_foot"
        assert result.metrics["completed"] is False
        assert result.metrics["failed"] is True


class TestRankThreshold:
    """`_check_task_ranks` on a 15 x 20 stack built from its SVD: rows are
    full rank when every singular value is above 1e-10."""

    BLOCKS = (("com", 3), ("left_foot", 6), ("right_foot", 6))

    def stack(self, sigma_min, block, seed=0):
        # Left singular vectors that keep each block's rows to itself, so
        # the smallest singular value belongs to the rows of `block`.
        rng = np.random.default_rng(seed)
        U = np.zeros((15, 15))
        start = 0
        for _, rows in self.BLOCKS:
            U[start:start + rows, start:start + rows] = np.linalg.qr(
                rng.normal(size=(rows, rows)))[0]
            start += rows
        V = np.linalg.qr(rng.normal(size=(20, 20)))[0]
        sigma = np.logspace(0.0, -3.0, 15)
        first = {"com": 0, "left_foot": 3, "right_foot": 9}[block]
        sigma[first + 1] = sigma_min
        return U @ np.diag(sigma) @ V[:, :15].T

    @pytest.mark.parametrize("block", ["com", "left_foot", "right_foot"])
    def test_threshold(self, block):
        stacked = self.stack(2e-10, block)
        assert np.linalg.svd(stacked, compute_uv=False).min() > 1e-10
        _check_task_ranks(stacked, self.BLOCKS)
        stacked = self.stack(5e-11, block)
        with pytest.raises(RankDeficientTasksError) as info:
            _check_task_ranks(stacked, self.BLOCKS)
        assert info.value.task == block

    @settings(max_examples=300, deadline=None)
    @given(log_sigma_min=st.floats(-13.0, -1.0), log_scale=st.floats(-2.0, 2.0),
           block=st.sampled_from(["com", "left_foot", "right_foot"]),
           seed=st.integers(0, 2**32 - 1))
    def test_raises_iff_smallest_singular_value_at_most_threshold(
            self, log_sigma_min, log_scale, block, seed):
        # The Cholesky certificate may only shortcut a stack the SVD would
        # pass: the verdict is the SVD's at every sigma_min and norm.
        stacked = 10.0**log_scale * self.stack(10.0**(log_sigma_min - log_scale), block,
                                               seed=seed)
        deficient = np.linalg.svd(stacked, compute_uv=False).min() <= 1e-10
        if deficient:
            with pytest.raises(RankDeficientTasksError):
                _check_task_ranks(stacked, self.BLOCKS)
        else:
            _check_task_ranks(stacked, self.BLOCKS)

    def test_more_rows_than_columns_is_deficient(self):
        # Fifteen rows over 7 velocities: the SVD has only 7 singular values,
        # all large here, and the rows still cannot be independent.
        rng = np.random.default_rng(1)
        stacked = rng.normal(size=(15, 7))
        assert np.linalg.svd(stacked, compute_uv=False).min() > 1e-3
        with pytest.raises(RankDeficientTasksError):
            _check_task_ranks(stacked, self.BLOCKS)


class TestStarredVelocities:
    """The whole-body cycle's task velocities on floats against their vector
    form in `oracles`: the same IEEE operations, so bit-equal."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_match_vector_form(self, seed):
        # `_task_velocities` on the poses of TASK_FRAMES (left foot, right
        # foot, torso) against the foot and CoM laws and the torso term.
        rng = np.random.default_rng(seed)
        gains = TaskGains(**{name: float(rng.uniform(0.1, 12.0)) for name in (
            "torso_rotation_gain", "foot_position_gain", "foot_integral_gain",
            "foot_rotation_gain", "com_position_gain", "com_integral_gain",
            "com_height_gain")})
        for _ in range(10):
            R = [exp_so3(rng.normal(size=3)) for _ in range(3)]
            p = rng.normal(scale=0.3, size=(3, 3))
            poses = np.concatenate([np.stack(R), p[:, None]], axis=1)
            feet = [FootReference(position=ref_p, rotation=exp_so3(rng.normal(size=3)),
                                  linear_velocity=v, angular_velocity=w)
                    for ref_p, v, w in rng.normal(scale=0.3, size=(2, 3, 3))]
            com, (ref_xy, cmd) = rng.normal(size=3), rng.normal(size=(2, 2))
            refs = WholeBodyReferences(com_velocity_cmd=cmd, left_foot=feet[0],
                                       right_foot=feet[1],
                                       torso_rotation=exp_so3(rng.normal(size=3)),
                                       posture=None, com_position=ref_xy)
            integ = _Integrators(com_err=rng.normal(size=2),
                                 foot_err={LEFT_FOOT: rng.normal(size=3),
                                           RIGHT_FOOT: rng.normal(size=3)})
            z0 = float(rng.uniform(0.2, 0.6))
            v_torso, b_eq, com_err, foot_errs = _task_velocities(poses, com, refs, integ,
                                                                 gains, z0)

            assert np.array_equal(v_torso, -gains.torso_rotation_gain
                                  * skew_vee_error(R[2], refs.torso_rotation))
            v_com, e_com = com_velocity_law(com, ref_xy, cmd, gains, integ.com_err, z0)
            want, errs = [v_com], [e_com]
            for k, frame in enumerate((LEFT_FOOT, RIGHT_FOOT)):
                v, e = foot_velocity_law(p[k], R[k], feet[k], gains, integ.foot_err[frame],
                                         skew_vee_error)
                want.append(v)
                errs.append(e)
            assert np.array_equal(b_eq, np.concatenate(want))
            got = [com_err, foot_errs[LEFT_FOOT], foot_errs[RIGHT_FOOT]]
            assert all(np.array_equal(a, b) for a, b in zip(got, errs))


class TestTaskGains:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskGains(torso_weight=-np.eye(3))
        with pytest.raises(ValueError):
            TaskGains(torso_weight=np.eye(2))
        with pytest.raises(ValueError):
            TaskGains(postural_weight=0.0)
        with pytest.raises(ValueError):
            TaskGains(foot_integral_gain=-0.1)
        TaskGains(com_integral_gain=0.0)  # integral gains may be zero

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [
        "torso_weight", "postural_weight", "postural_gain", "torso_rotation_gain",
        "foot_position_gain", "foot_integral_gain", "foot_rotation_gain",
        "com_position_gain", "com_integral_gain", "com_height_gain", "integral_bound"])
    def test_non_finite_rejected(self, name, value):
        # A NaN gain used to pass every check and end the run at cycle 0 as
        # an infeasible whole-body QP.
        with pytest.raises(ValueError, match=name):
            TaskGains(**{name: np.full((3, 3), value) if name == "torso_weight" else value})

    def test_integral_clamped(self):
        gains = TaskGains(integral_bound=0.02)
        ctrl, model, state = make_controller(mode="velocity", gains=gains)
        refs = consistent_refs(model, state)
        p, R = KinematicsCache(model, state).frame_pose("left_foot")
        far = FootReference.stationary(p + [0.5, 0.0, 0.0], R)
        refs = WholeBodyReferences(
            com_velocity_cmd=refs.com_velocity_cmd, left_foot=far,
            right_foot=refs.right_foot, torso_rotation=refs.torso_rotation,
            posture=refs.posture, com_position=refs.com_position)
        for _ in range(200):
            ctrl.cycle(refs, state)
        assert np.linalg.norm(ctrl._integ.foot_err["left_foot"]) <= 0.02 + 1e-12
