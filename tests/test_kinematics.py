"""Floating-base kinematics: FK, Jacobians, CoM, integration, model loading."""

from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmwalk.kinematics import (YAML_LOADER, KinematicsCache, RobotState,
                                UnknownFrameError, home_state, integrate_state,
                                load_model, sample_biped)
from dcmwalk.so3 import exp_so3
from oracles import (com_jacobian_loop, com_oracle, fd_task_jacobian, fk_chain_oracle,
                     frame_jacobian_loop, frame_pose_plain, inequality_rows,
                     random_tree_doc, task_jacobian_masked, tree_pass_plain, vee)


def random_state(model, rng, scale=0.4):
    q = rng.uniform(-scale, scale, size=model.n_joints)
    return RobotState(base_position=rng.normal(scale=0.3, size=3),
                      base_rotation=exp_so3(rng.normal(scale=0.3, size=3)),
                      joint_positions=q)


def all_frames(model):
    return sorted(set(model.frames) | set(model.links))


def fd_jacobian_error(model, state, frame, nu, eps):
    """Norm of (FD frame twist - J nu) for step size eps."""
    cache = KinematicsCache(model, state)
    p0, R0 = cache.frame_pose(frame)
    J = cache.task_jacobian((frame,))[3:]
    twist = J @ nu
    pert = KinematicsCache(model, integrate_state(state, nu, eps))
    p1, R1 = pert.frame_pose(frame)
    v_fd = (p1 - p0) / eps
    dR = R1 @ R0.T
    w_fd = vee(0.5 * (dR - dR.T)) / eps
    return np.linalg.norm(np.concatenate([v_fd - twist[:3], w_fd - twist[3:]]))


def assert_frame_poses_equal(cache, frames):
    """`frame_poses` of `frames` and `frame_pose` of each, bit for bit,
    against the plain per-frame form."""
    poses = cache.frame_poses(frames)
    assert poses.shape == (len(frames), 4, 3)
    for pose, frame in zip(poses, frames):
        p, R = frame_pose_plain(cache.model, cache.state, frame)
        assert np.array_equal(pose[:3], R) and np.array_equal(pose[3], p), frame
        p1, R1 = cache.frame_pose(frame)
        assert np.array_equal(R1, R) and np.array_equal(p1, p), frame


class TestForwardKinematics:
    def test_frame_poses_equal_plain_form_on_biped(self):
        # Every link is also a frame, the base link's among them; frames
        # with `rpy` are drawn on random trees.
        model = sample_biped()
        rng = np.random.default_rng(3)
        assert model.base_link in all_frames(model)
        for _ in range(20):
            cache = KinematicsCache(model, random_state(model, rng, scale=1.0))
            assert_frame_poses_equal(cache, ("left_foot", "right_foot", "torso"))
            assert_frame_poses_equal(cache, tuple(all_frames(model)))

    def test_matches_homogeneous_chain_oracle(self):
        model = sample_biped()
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = random_state(model, rng)
            cache = KinematicsCache(model, state)
            for frame in all_frames(model):
                p, R = cache.frame_pose(frame)
                p_o, R_o = fk_chain_oracle(model, state, frame)
                assert np.linalg.norm(p - p_o) < 1e-12
                assert np.linalg.norm(R - R_o) < 1e-12

    def test_base_translation_equivariance(self):
        model = sample_biped()
        rng = np.random.default_rng(1)
        state = random_state(model, rng)
        d = np.array([0.3, -0.2, 0.1])
        shifted = state.copy()
        shifted.base_position = state.base_position + d
        for frame in all_frames(model):
            p0, R0 = KinematicsCache(model, state).frame_pose(frame)
            p1, R1 = KinematicsCache(model, shifted).frame_pose(frame)
            assert np.allclose(p1, p0 + d, atol=1e-12)
            assert np.allclose(R1, R0, atol=1e-12)

    def test_home_state_feet_on_ground(self):
        model = sample_biped()
        state = home_state(model)
        cache = KinematicsCache(model, state)
        zl = cache.frame_pose("left_foot")[0][2]
        zr = cache.frame_pose("right_foot")[0][2]
        assert abs(min(zl, zr)) < 1e-12
        assert zl > -1e-12 and zr > -1e-12

    def test_unknown_frame_raises(self):
        model = sample_biped()
        state = home_state(model)
        with pytest.raises(UnknownFrameError):
            KinematicsCache(model, state).frame_pose("no_such_frame")


class TestJacobians:
    def test_tree_pass_equals_plain_form(self):
        # The tree pass against the same pass with its joint arrays built
        # per call, in the model's joint order.
        model = sample_biped()
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(model, rng, scale=1.0)
            cache = KinematicsCache(model, state)
            rotation, position = tree_pass_plain(model, state)
            assert np.array_equal(cache._rotation, rotation)
            assert np.array_equal(cache._position, position)

    def test_planned_jacobian_equals_masked_form(self):
        # On a plan's first use and from the plan, for the CoM alone, the
        # whole-body QP's tuple, every frame alone and reversed tuples.
        model = sample_biped()
        frames = all_frames(model)
        qp_frames = ("left_foot", "right_foot", "torso")
        tuples = ([(), qp_frames, qp_frames[::-1], tuple(frames), tuple(reversed(frames))]
                  + [(f,) for f in frames])
        rng = np.random.default_rng(8)
        for k in range(4):
            state = random_state(model, rng, scale=1.0)
            cache = KinematicsCache(model, state)
            for tup in tuples:
                assert (tup in model._task_plans) == (k > 0)
                want = task_jacobian_masked(model, state, tup)
                assert np.array_equal(cache.task_jacobian(tup), want), tup
                assert np.array_equal(cache.task_jacobian(tup), want), tup
        assert np.array_equal(cache.com_jacobian(), task_jacobian_masked(model, state, ()))
        assert np.array_equal(cache.task_jacobian(("torso",))[3:],
                              task_jacobian_masked(model, state, ("torso",))[3:])

    def test_fd_slope_first_order(self):
        # Truncation error of the one-sided difference is O(eps): the
        # log-log slope over four decades must sit near 1.
        model = sample_biped()
        rng = np.random.default_rng(2)
        state = random_state(model, rng)
        nu = rng.normal(size=model.n_velocities)
        nu /= np.linalg.norm(nu)
        eps_grid = (1e-3, 1e-4, 1e-5, 1e-6)
        for frame in ("left_foot", "right_foot", "torso", "pelvis"):
            errs = [fd_jacobian_error(model, state, frame, nu, e)
                    for e in eps_grid]
            if max(errs) < 1e-8:
                continue  # exactly integrated frame (base): agreement is exact
            slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
            assert abs(slope - 1.0) < 0.1

    def test_base_twist_rows(self):
        # Pure base translation moves every frame at the base velocity.
        model = sample_biped()
        state = home_state(model)
        cache = KinematicsCache(model, state)
        nu = np.zeros(model.n_velocities)
        nu[0:3] = [0.1, -0.2, 0.3]
        for frame in ("left_foot", "torso"):
            twist = cache.task_jacobian((frame,))[3:] @ nu
            assert np.allclose(twist[:3], nu[0:3], atol=1e-12)
            assert np.allclose(twist[3:], 0, atol=1e-12)

    def test_base_rotation_lever_arm(self):
        # Pure base angular velocity: v_frame = w x (p_frame - p_base).
        model = sample_biped()
        rng = np.random.default_rng(3)
        state = random_state(model, rng)
        cache = KinematicsCache(model, state)
        w = np.array([0.2, 0.1, -0.3])
        nu = np.zeros(model.n_velocities)
        nu[3:6] = w
        for frame in ("left_foot", "right_foot"):
            p, _ = cache.frame_pose(frame)
            twist = cache.task_jacobian((frame,))[3:] @ nu
            assert np.allclose(twist[:3],
                               np.cross(w, p - state.base_position), atol=1e-12)
            assert np.allclose(twist[3:], w, atol=1e-12)

    def test_point_jacobian_matches_frame_rows(self):
        # Linear frame rows are the velocity of the frame origin, by central
        # differences of the homogeneous chain oracle.
        model = sample_biped()
        rng = np.random.default_rng(4)
        state = random_state(model, rng)
        cache = KinematicsCache(model, state)
        J = cache.task_jacobian(("left_foot", "torso"))
        J_fd = fd_task_jacobian(model, state, ("left_foot", "torso"))
        for k, frame in enumerate(("left_foot", "torso")):
            rows = J[3 + 6 * k:9 + 6 * k]
            assert np.array_equal(rows, cache.task_jacobian((frame,))[3:])
            assert np.abs(rows[:3] - J_fd[3 + 6 * k:6 + 6 * k]).max() < 1e-8

    def test_stacked_jacobian_matches_per_frame_loop(self):
        # The whole-body equality rows [J_com; J_lf; J_rf] and the torso
        # angular rows against the per-joint loops they replaced.
        model = sample_biped()
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = random_state(model, rng, scale=0.8)
            cache = KinematicsCache(model, state)
            J = cache.task_jacobian(("left_foot", "right_foot", "torso"))
            ref = np.vstack([com_jacobian_loop(model, state),
                             frame_jacobian_loop(model, state, "left_foot"),
                             frame_jacobian_loop(model, state, "right_foot")])
            assert np.abs(J[:15] - ref).max() < 1e-14
            assert np.abs(J[18:]
                          - frame_jacobian_loop(model, state, "torso")[3:6]).max() < 1e-14


class TestRandomTrees:
    """Random trees of revolute joints, with frames at random offsets,
    against the homogeneous chain oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_poses_match_chain_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = load_model(random_tree_doc(rng))
        state = random_state(model, rng, scale=1.0)
        cache = KinematicsCache(model, state)
        for frame in all_frames(model):
            p, R = cache.frame_pose(frame)
            p_o, R_o = fk_chain_oracle(model, state, frame)
            assert np.abs(p - p_o).max() < 1e-12
            assert np.abs(R - R_o).max() < 1e-12
        assert np.abs(cache.com() - com_oracle(model, state)).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_frame_poses_equal_plain_form(self, seed):
        rng = np.random.default_rng(seed)
        doc = random_tree_doc(rng)
        # A named frame on the base link, turned and offset in it.
        doc["frames"]["on_base"] = {"link": doc["base_link"],
                                    "xyz": rng.normal(scale=0.2, size=3).tolist(),
                                    "rpy": rng.uniform(-np.pi, np.pi, size=3).tolist()}
        model = load_model(doc)
        cache = KinematicsCache(model, random_state(model, rng, scale=1.0))
        frames = all_frames(model)
        for tup in (tuple(frames), tuple(rng.permutation(frames).tolist())):
            assert_frame_poses_equal(cache, tup)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_planned_forms_equal_plain_forms(self, seed):
        # The tree pass and the planned Jacobian against the plain tree pass
        # and the masked Jacobian.
        rng = np.random.default_rng(seed)
        model = load_model(random_tree_doc(rng))
        state = random_state(model, rng, scale=1.0)
        cache = KinematicsCache(model, state)
        rotation, position = tree_pass_plain(model, state)
        assert np.array_equal(cache._rotation, rotation)
        assert np.array_equal(cache._position, position)
        frames = all_frames(model)
        for tup in [(), tuple(frames), tuple(reversed(frames))] + [(f,) for f in frames]:
            want = task_jacobian_masked(model, state, tup)
            for _ in range(2):
                assert np.array_equal(cache.task_jacobian(tup), want), tup

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_task_jacobian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = load_model(random_tree_doc(rng))
        state = random_state(model, rng, scale=1.0)
        cache = KinematicsCache(model, state)
        frames = tuple(sorted(model.frames)) + (str(rng.choice(list(model.links))),)
        J = cache.task_jacobian(frames)
        assert J.shape == (3 + 6 * len(frames), model.n_velocities)
        assert np.abs(J - fd_task_jacobian(model, state, frames)).max() < 1e-7
        assert np.array_equal(cache.com_jacobian(), J[:3])
        # A frame's rows do not depend on where it sits in the stack: the
        # frame points come from one batched product.
        J_reversed = cache.task_jacobian(frames[::-1])
        ref = [com_jacobian_loop(model, state)]
        for k, frame in enumerate(frames):
            rows = J[3 + 6 * k:9 + 6 * k]
            assert np.array_equal(cache.task_jacobian((frame,))[3:], rows)
            k_rev = len(frames) - 1 - k
            assert np.array_equal(J_reversed[3 + 6 * k_rev:9 + 6 * k_rev], rows)
            ref.append(frame_jacobian_loop(model, state, frame))
        assert np.abs(J - np.vstack(ref)).max() < 1e-12


class TestCom:
    def test_memoized_com_equals_fresh_evaluation(self):
        # The cache computes the CoM once; the task Jacobian reads the same
        # array, and no caller can write into it.
        model = sample_biped()
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = random_state(model, rng, scale=1.0)
            cache = KinematicsCache(model, state)
            J = cache.task_jacobian(("left_foot", "torso"))
            com = cache.com()
            assert cache.com() is com and not com.flags.writeable
            fresh = model._mass_vector @ KinematicsCache(model, state)._link_coms() \
                / model._total_mass
            assert np.array_equal(com, fresh)
            assert np.array_equal(J[:3], KinematicsCache(model, state).com_jacobian())

    def test_com_between_feet_at_home(self):
        model = sample_biped()
        cache = KinematicsCache(model, home_state(model))
        com = cache.com()
        assert abs(com[1]) < 0.02      # laterally centered
        assert 0.2 < com[2] < 0.7      # plausible pendulum height

    def test_com_jacobian_numeric_diff(self):
        # Central difference of the mass-weighted CoM along random nu.
        model = sample_biped()
        rng = np.random.default_rng(5)
        for _ in range(5):
            state = random_state(model, rng)
            nu = rng.normal(size=model.n_velocities)
            J = KinematicsCache(model, state).com_jacobian()
            eps = 1e-6
            cp = KinematicsCache(model, integrate_state(state, nu, eps)).com()
            cm = KinematicsCache(model, integrate_state(state, nu, -eps)).com()
            assert np.linalg.norm((cp - cm) / (2 * eps) - J @ nu) < 1e-6

    def test_com_jacobian_base_columns(self):
        model = sample_biped()
        state = home_state(model)
        cache = KinematicsCache(model, state)
        J = cache.com_jacobian()
        assert np.allclose(J[:, 0:3], np.eye(3), atol=1e-14)
        nu = np.zeros(model.n_velocities)
        nu[3:6] = [0.0, 0.0, 1.0]
        assert np.allclose(J @ nu,
                           np.cross([0, 0, 1.0], cache.com() - state.base_position),
                           atol=1e-12)


class TestIntegrateState:
    def test_pure_translation(self):
        model = sample_biped()
        state = home_state(model)
        nu = np.zeros(model.n_velocities)
        nu[0:3] = [1.0, 2.0, 3.0]
        out = integrate_state(state, nu, 0.1)
        assert np.allclose(out.base_position,
                           state.base_position + [0.1, 0.2, 0.3], atol=1e-15)
        assert np.array_equal(out.base_rotation, state.base_rotation)

    def test_rotation_exponential_map(self):
        model = sample_biped()
        state = home_state(model)
        nu = np.zeros(model.n_velocities)
        nu[3:6] = [0.0, 0.0, 2.0]
        out = integrate_state(state, nu, 0.25)
        assert np.allclose(out.base_rotation,
                           exp_so3(np.array([0, 0, 0.5])) @ state.base_rotation,
                           atol=1e-14)
        # Rotation stays exactly on SO(3): two half steps equal one full step.
        half = integrate_state(integrate_state(state, nu, 0.125), nu, 0.125)
        assert np.allclose(half.base_rotation, out.base_rotation, atol=1e-14)

    def test_joint_euler_and_velocity_store(self):
        model = sample_biped()
        state = home_state(model)
        nu = np.zeros(model.n_velocities)
        nu[6:] = 1.0
        out = integrate_state(state, nu, 0.01)
        assert np.allclose(out.joint_positions, state.joint_positions + 0.01)
        assert np.allclose(out.joint_velocities, 1.0)


class TestLoadModel:
    def doc(self):
        return {
            "base_link": "base",
            "links": [{"name": "base", "mass": 1.0},
                      {"name": "arm", "mass": 0.5, "com": [0.1, 0.0, 0.0]}],
            "joints": [{"name": "j1", "type": "revolute", "parent": "base",
                        "child": "arm", "axis": [0, 0, 1],
                        "origin_xyz": [0.2, 0.0, 0.0]}],
        }

    def test_minimal_document(self):
        model = load_model(self.doc())
        assert model.n_joints == 1 and model.n_velocities == 7
        assert abs(sum(link.mass for link in model.links.values()) - 1.5) < 1e-15

    def joint(self, name, parent, child):
        return {"name": name, "type": "revolute", "parent": parent, "child": child,
                "axis": [0, 0, 1]}

    def test_unreachable_link_rejected(self):
        doc = self.doc()
        doc["links"].append({"name": "orphan", "mass": 0.1})
        with pytest.raises(ValueError, match=r"links not reachable from base: \['orphan'\]"):
            load_model(doc)

    def test_base_not_a_link_rejected(self):
        doc = self.doc()
        doc["base_link"] = "pelvis"
        with pytest.raises(ValueError, match="base link 'pelvis' is not a link"):
            load_model(doc)

    def test_loop_rejected(self):
        # A joint onto the base, or a second joint onto the same child.
        for parent, child in (("arm", "base"), ("base", "arm")):
            doc = self.doc()
            doc["joints"].append(self.joint("j2", parent, child))
            with pytest.raises(ValueError, match=f"kinematic loop at link {child}"):
                load_model(doc)

    def test_cycle_cut_off_from_base_rejected(self):
        doc = self.doc()
        doc["links"] += [{"name": "a", "mass": 0.1}, {"name": "b", "mass": 0.1}]
        doc["joints"] += [self.joint("j2", "a", "b"), self.joint("j3", "b", "a")]
        with pytest.raises(ValueError, match="kinematic tree is disconnected or cyclic"):
            load_model(doc)

    def test_unknown_link_rejected(self):
        doc = self.doc()
        doc["joints"][0]["child"] = "hand"
        with pytest.raises(ValueError, match="unknown link"):
            load_model(doc)
        doc = self.doc()
        doc["frames"] = {"tip": {"link": "hand"}}
        with pytest.raises(ValueError, match="unknown link"):
            load_model(doc)

    def test_joints_in_any_order(self):
        doc = self.doc()
        doc["links"].append({"name": "hand", "mass": 0.2})
        doc["joints"].insert(0, {"name": "j2", "type": "revolute", "parent": "arm",
                                 "child": "hand", "axis": [1, 0, 0],
                                 "origin_xyz": [0.0, 0.1, 0.0]})
        model = load_model(doc)
        state = RobotState(base_position=np.zeros(3), base_rotation=np.eye(3),
                           joint_positions=[0.3, 0.5])
        p, _ = KinematicsCache(model, state).frame_pose("hand")
        assert np.allclose(p, fk_chain_oracle(model, state, "hand")[0], atol=1e-15)

    def test_bad_axis_rejected(self):
        doc = self.doc()
        doc["joints"][0]["axis"] = [0, 0, 2]
        with pytest.raises(ValueError):
            load_model(doc)

    def test_bad_joint_type_rejected(self):
        for kind in ("spherical", "prismatic"):
            doc = self.doc()
            doc["joints"][0]["type"] = kind
            with pytest.raises(ValueError, match=f"joint j1: .*{kind!r}"):
                load_model(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("links", "mass", np.nan),
        ("links", "mass", -0.5),
        ("links", "com", [0.0, np.nan, 0.0]),
        ("joints", "velocity_limit", np.nan),
        ("joints", "velocity_limit", -1.0),
        ("joints", "limits", [1.0, -1.0]),
        ("joints", "limits", [np.nan, 1.0]),
        ("joints", "limits", [-1.0, np.nan]),
        ("joints", "origin_xyz", [np.nan, 0.0, 0.0]),
        ("joints", "origin_rpy", [0.0, 0.0, np.inf]),
        ("joints", "axis", [0.0, 0.0, np.nan]),
        ("frames", "xyz", [np.nan, 0.0, 0.0]),
        ("frames", "rpy", [0.0, np.nan, 0.0]),
    ])
    def test_bad_number_rejected(self, section, key, value):
        doc = self.doc()
        doc["frames"] = {"tip": {"link": "arm"}}
        owner, entry = {"links": ("link arm", 1), "joints": ("joint j1", 0),
                        "frames": ("frame on link arm", "tip")}[section]
        doc[section][entry][key] = value
        with pytest.raises(ValueError, match=f"{owner}: {key}"):
            load_model(doc)

    def test_infinite_velocity_limit_is_no_bound(self):
        doc = self.doc()
        assert load_model(doc).rate_rows.shape == (2, 7)
        doc["joints"][0]["velocity_limit"] = np.inf
        model = load_model(doc)
        assert model.rate_rows.shape == (0, 7) and model.rate_rhs.shape == (0,)

    def test_sample_biped_rate_rows_match_rowwise_reference(self):
        model = sample_biped()
        lo, hi = model.velocity_limits()
        free = np.full(6, np.inf)
        A, b, _ = inequality_rows(model.n_velocities, lb=np.concatenate([-free, lo]),
                                  ub=np.concatenate([free, hi]))
        assert model.rate_rows.shape == A.shape == (28, 20)
        assert model.rate_rows.tobytes() == A.tobytes()
        assert model.rate_rhs.tobytes() == b.tobytes()
        assert not (model.rate_rows.flags.writeable or model.rate_rhs.flags.writeable)

    def test_loader_parses_packaged_model_as_pure_python_does(self):
        text = resources.files("dcmwalk").joinpath("models/sample_biped.yaml").read_text()
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_sample_biped_shape(self):
        model = sample_biped()
        assert model.n_joints == 14
        lo, hi = model.joint_limits()
        assert np.all(lo < hi)
        assert {"left_foot", "right_foot", "torso"} <= set(model.frames)
