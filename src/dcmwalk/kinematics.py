"""Floating-base kinematic tree: frame poses, geometric Jacobians, CoM.

Conventions: the robot velocity is nu = (base linear velocity, base angular
velocity, joint velocities), all coordinates in the inertial frame; a frame
Jacobian maps nu to the stacked linear/angular frame velocity.
"""

from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np
import yaml

from .so3 import exp_so3, rpy_to_rotation, skew

# libyaml's parser where PyYAML was built with it: the same documents, parsed
# several times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _finite_vector(owner, name, value):
    """`value` as a 3-vector of floats; a NaN or infinite entry is an error."""
    v = np.asarray(value, dtype=float).reshape(3)
    if not np.isfinite(v).all():
        raise ValueError(f"{owner}: {name} must be finite")
    return v


@dataclass(frozen=True)
class Joint:
    """A revolute joint: it turns its child link about `axis`."""

    name: str
    parent: str
    child: str
    axis: np.ndarray
    origin_xyz: np.ndarray
    origin_rpy: np.ndarray
    limits: tuple = (-2.5, 2.5)
    velocity_limit: float = 10.0

    def __post_init__(self):
        owner = f"joint {self.name}"
        axis = _finite_vector(owner, "axis", self.axis)
        if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise ValueError(f"{owner}: axis must be a unit vector")
        # Each comparison is written so that NaN fails; an infinite limit is no bound.
        limits = tuple(float(v) for v in self.limits)
        if len(limits) != 2 or not limits[0] <= limits[1]:
            raise ValueError(f"{owner}: limits must be [lower, upper] with lower <= upper")
        velocity_limit = float(self.velocity_limit)
        if not velocity_limit >= 0.0:
            raise ValueError(f"{owner}: velocity_limit must be nonnegative")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "origin_xyz", _finite_vector(owner, "origin_xyz", self.origin_xyz))
        object.__setattr__(self, "origin_rpy", _finite_vector(owner, "origin_rpy", self.origin_rpy))
        object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "velocity_limit", velocity_limit)
        object.__setattr__(self, "origin_rotation", rpy_to_rotation(*self.origin_rpy))


@dataclass(frozen=True)
class Link:
    name: str
    mass: float
    com: np.ndarray  # in the link frame

    def __post_init__(self):
        mass = float(self.mass)
        if not 0.0 <= mass < np.inf:
            raise ValueError(f"link {self.name}: mass must be nonnegative and finite")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "com", _finite_vector(f"link {self.name}", "com", self.com))


@dataclass(frozen=True)
class FrameDef:
    link: str
    xyz: np.ndarray
    rpy: np.ndarray

    def __post_init__(self):
        owner = f"frame on link {self.link}"
        object.__setattr__(self, "xyz", _finite_vector(owner, "xyz", self.xyz))
        object.__setattr__(self, "rpy", _finite_vector(owner, "rpy", self.rpy))
        object.__setattr__(self, "rotation", rpy_to_rotation(*self.rpy))


class UnknownFrameError(KeyError):
    pass


# -skew(d) = [[0, d_z, -d_y], [-d_z, 0, d_x], [d_y, -d_x, 0]]: the (row,
# column) entries that hold -d_x, -d_y, -d_z and +d_x, +d_y, +d_z, with the
# columns offset to nu's base angular block (3:6).
_MINUS_D_ROWS, _MINUS_D_COLS = np.array([2, 0, 1]), np.array([4, 5, 3])
_PLUS_D_ROWS, _PLUS_D_COLS = np.array([1, 2, 0]), np.array([5, 3, 4])
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


@dataclass
class KinematicModel:
    base_link: str
    links: dict
    joints: list
    frames: dict = field(default_factory=dict)  # name -> FrameDef

    def __post_init__(self):
        self._link_order = list(self.links)
        link_index = {name: i for i, name in enumerate(self._link_order)}
        # Measured alone, one 4x4 product per joint read +1.8% steady-pi control_ref.p5.
        self._fk_joints, self._fk_levels, self._fk_rows, chain = self._walk_tree(link_index)
        self._total_mass = sum(l.mass for l in self.links.values())
        if not self._total_mass > 0.0:
            raise ValueError("total mass must be positive")
        n = len(self.joints)
        joints = self.joints

        # Per-joint arrays, built once; a KinematicsCache only indexes them.
        self._parent_link = np.array([link_index[j.parent] for j in joints], dtype=int)
        axes = np.array([j.axis for j in joints]).reshape(n, 3)
        self._axis_skew = np.array([skew(a) for a in axes]).reshape(n, 3, 3)
        self._axis_skew2 = self._axis_skew @ self._axis_skew
        self._origin_rotation = np.array([j.origin_rotation for j in joints]).reshape(n, 3, 3)
        # Joint origin offset and joint axis, both in the parent link frame.
        self._joint_offsets = np.stack(
            [np.array([j.origin_xyz for j in joints]).reshape(n, 3),
             (self._origin_rotation @ axes[:, :, None])[:, :, 0]], axis=2)

        # `_chains[l]` lists the joints that move link l.
        self._chains = [np.flatnonzero(row) for row in chain]
        self._mass_vector = np.array([self.links[name].mass for name in self._link_order])
        self._link_com = np.array([self.links[name].com for name in self._link_order])
        # Mass share of every link in each joint's subtree: joints x links.
        self._subtree_weight = chain.T * (self._mass_vector / self._total_mass)
        self._subtree_share = self._subtree_weight.sum(axis=1)
        # Every link is a frame at its origin; named frames may shadow links.
        self._frame_table = {}
        for name in self.links:
            self._frame_table[name] = (link_index[name],
                                       FrameDef(link=name, xyz=np.zeros(3), rpy=np.zeros(3)))
        for name, fd in self.frames.items():
            if fd.link not in link_index:
                raise ValueError(f"frame {name}: unknown link {fd.link!r}")
            self._frame_table[name] = (link_index[fd.link], fd)
        # frame tuple -> `_TaskPlan`, built on first use. Against 0/1 chain
        # masks over every joint: steady-pi control_ref.p5 -8.4%, 10/10 pairs.
        self._task_plans = {}
        # Joint-rate limits as read-only rows rate_rows @ nu <= rate_rhs, with
        # a zero base block: +e_j for each finite upper limit, then -e_j for
        # each finite lower one. An infinite limit gives no row.
        lo, hi = self.velocity_limits()
        upper, lower = np.flatnonzero(np.isfinite(hi)), np.flatnonzero(np.isfinite(lo))
        self.rate_rows = np.zeros((upper.size + lower.size, 6 + n))
        self.rate_rows[np.arange(upper.size), 6 + upper] = 1.0
        self.rate_rows[upper.size + np.arange(lower.size), 6 + lower] = -1.0
        self.rate_rhs = np.concatenate([hi[upper], -lo[lower]])
        self.rate_rows.setflags(write=False)
        self.rate_rhs.setflags(write=False)

    def _walk_tree(self, link_index):
        """Check that the joints form a tree over the links, walking it level
        by level from the base, and lay out the tree pass.

        Level d holds the joints whose child link is d joints below the base.
        The pass keeps its poses in its own row order: row 0 is the base and
        row i + 1 the child link of joint `joints[i]`, the joints taken level
        by level, each level sorted by parent row. A level is then one
        batched product of its parent rows with a slice of joints, into a
        slice of child rows. Its parent rows are a slice when they are one
        row (broadcast) or consecutive, else an index array. Returns
        (joints, levels, the row of each link in link order, the links x
        joints chain matrix: 1 where the joint moves the link).
        """
        if self.base_link not in self.links:
            raise ValueError(f"base link {self.base_link!r} is not a link")
        children = {}
        for i, j in enumerate(self.joints):
            if j.parent not in self.links or j.child not in self.links:
                raise ValueError(f"joint {j.name}: unknown link")
            children.setdefault(j.parent, []).append(i)
        chain = np.zeros((len(link_index), len(self.joints)))
        row = {self.base_link: 0}
        joints, levels = [], []
        level = [self.base_link]
        while level:
            start, parents, below = len(joints), [], []
            for link in level:
                for i in children.pop(link, ()):
                    child = self.joints[i].child
                    if child in row:
                        raise ValueError(f"kinematic loop at link {child}")
                    joints.append(i)
                    row[child] = len(joints)
                    parents.append(row[link])
                    below.append(child)
                    chain[link_index[child]] = chain[link_index[link]]
                    chain[link_index[child], i] = 1.0
            if below:
                parents = np.array(parents)
                step = set(np.diff(parents).tolist())
                if step <= {0} or step == {1}:
                    parents = slice(int(parents[0]), int(parents[-1]) + 1)
                levels.append((slice(start, len(joints)), parents,
                               slice(start + 1, len(joints) + 1)))
            level = below
        if len(joints) < len(self.joints):
            raise ValueError("kinematic tree is disconnected or cyclic")
        missing = set(self.links) - set(row)
        if missing:
            raise ValueError(f"links not reachable from base: {sorted(missing)}")
        return (np.array(joints, dtype=int), levels,
                np.array([row[name] for name in self._link_order], dtype=int), chain)

    @property
    def n_joints(self):
        return len(self.joints)

    @property
    def n_velocities(self):
        return 6 + len(self.joints)

    def joint_limits(self):
        lo = np.array([j.limits[0] for j in self.joints])
        hi = np.array([j.limits[1] for j in self.joints])
        return lo, hi

    def velocity_limits(self):
        v = np.array([j.velocity_limit for j in self.joints])
        return -v, v

    def _frame(self, name):
        """(link index, FrameDef) of a named frame."""
        try:
            return self._frame_table[name]
        except KeyError:
            raise UnknownFrameError(name) from None

    def _task_plan(self, frames):
        """The `_TaskPlan` of a tuple of frames, built on its first use."""
        plan = self._task_plans.get(frames)
        if plan is None:
            plan = self._task_plans[frames] = self._build_task_plan(frames)
        return plan

    def _build_task_plan(self, frames):
        n, nv = self.n_joints, self.n_velocities
        defs = [self._frame(f) for f in frames]
        nf = len(defs)
        links = np.array([link for link, _ in defs], dtype=int)
        # First row of each task's linear block: the CoM, then the frames.
        top = np.concatenate([[0], 3 + 6 * np.arange(nf)])
        template = np.zeros((3 + 6 * nf, nv))
        for t, row in enumerate(top):
            template[row:row + 3, 0:3] = _EYE3
            if t:
                template[row + 3:row + 6, 3:6] = _EYE3
        template.setflags(write=False)
        # The (task, joint) pairs on each frame's chain; task 0 is the CoM.
        chains = [self._chains[link] for link in links]
        pair_tasks = np.repeat(1 + np.arange(nf), [c.size for c in chains])
        pair_joints = np.concatenate([np.zeros(0, dtype=int)] + chains)
        lever_tasks = np.concatenate([np.zeros(n, dtype=int), pair_tasks])
        lever_joints = np.concatenate([np.arange(n), pair_joints])
        xyz = np.arange(3)[:, None]

        def index(tasks, joints, rows=0):
            return (top[tasks] + rows + xyz) * nv + 6 + joints

        return _TaskPlan(
            template=template, links=links,
            offsets=np.array([fd.xyz for _, fd in defs]).reshape(nf, 3, 1),
            rotations=np.array([fd.rotation for _, fd in defs]).reshape(nf, 3, 3),
            pair_tasks=pair_tasks, pair_joints=pair_joints, lever_joints=lever_joints,
            lever_index=index(lever_tasks, lever_joints),
            base_index=np.array([(top[:, None] + rows) * nv + cols
                                 for rows, cols in ((_MINUS_D_ROWS, _MINUS_D_COLS),
                                                    (_PLUS_D_ROWS, _PLUS_D_COLS))]),
            angular_index=index(pair_tasks, pair_joints, 3))


class _TaskPlan(NamedTuple):
    """What `KinematicsCache.task_jacobian` and `frame_poses` need of a frame
    tuple that only the model decides. Joints are numbered in the model's
    order; task 0 is the CoM and task 1 + f is frame f. An index is into the
    flattened Jacobian, with one row per x, y, z component."""

    template: np.ndarray          # the Jacobian's constant identity blocks
    links: np.ndarray             # each frame's link
    offsets: np.ndarray           # each frame's offset in its link, nf x 3 x 1
    rotations: np.ndarray         # each frame's rotation in its link, nf x 3 x 3
    pair_tasks: np.ndarray        # the (task, joint) pairs on the frames' chains
    pair_joints: np.ndarray
    lever_joints: np.ndarray      # the CoM's joints (all), then the pairs' joints
    lever_index: np.ndarray       # where axis x lever goes, per lever
    base_index: np.ndarray        # where -d and +d of -skew(d) go, per task
    angular_index: np.ndarray     # where the pairs' joint axes go


@dataclass
class RobotState:
    base_position: np.ndarray
    base_rotation: np.ndarray
    joint_positions: np.ndarray
    joint_velocities: np.ndarray = None

    def __post_init__(self):
        self.base_position = np.asarray(self.base_position, dtype=float).reshape(3)
        self.base_rotation = np.asarray(self.base_rotation, dtype=float).reshape(3, 3)
        self.joint_positions = np.asarray(self.joint_positions, dtype=float).reshape(-1)
        if self.joint_velocities is None:
            self.joint_velocities = np.zeros_like(self.joint_positions)
        else:
            self.joint_velocities = np.asarray(self.joint_velocities, dtype=float).reshape(-1)

    def copy(self):
        return RobotState(self.base_position.copy(), self.base_rotation.copy(),
                          self.joint_positions.copy(), self.joint_velocities.copy())


class KinematicsCache:
    """All link poses of one robot state, and the task Jacobians built from them.

    The joint rotations come from one batched Rodrigues step; the pass down
    the tree is one batched 4x4 product per depth level.
    """

    def __init__(self, model, state):
        self.model = model
        self.state = state
        angle = state.joint_positions[:, None, None]
        joint_rotation = (_EYE3 + np.sin(angle) * model._axis_skew
                          + (1.0 - np.cos(angle)) * model._axis_skew2)
        # Parent link frame -> child link frame, per joint.
        local = np.zeros((model.n_joints, 4, 4))
        local[:, :3, :3] = model._origin_rotation @ joint_rotation
        local[:, :3, 3] = model._joint_offsets[:, :, 0]
        local[:, 3, 3] = 1.0
        # The tree pass, in its own row order (`KinematicModel._walk_tree`).
        local = local[model._fk_joints]
        pose = np.empty((len(model._link_order), 4, 4))
        pose[0, :3, :3] = state.base_rotation
        pose[0, :3, 3] = state.base_position
        pose[0, 3] = (0.0, 0.0, 0.0, 1.0)
        for joints, parents, children in model._fk_levels:
            np.matmul(pose[parents], local[joints], out=pose[children])
        pose = pose[model._fk_rows]
        self._rotation = pose[:, :3, :3]
        self._position = pose[:, :3, 3]
        self._com_points = None
        self._com = None

    def frame_pose(self, name):
        """(position, rotation) of one frame."""
        pose = self.frame_poses((name,))[0]
        return pose[3], pose[:3]

    def frame_poses(self, frames):
        """The poses of a tuple of frames, one nf x 4 x 3 array: frame f's
        rotation in rows [f, :3] and its position in row [f, 3], p + R xyz
        and R R_frame from its link's pose (R, p), from one gather of the
        frames' links."""
        plan = self.model._task_plan(tuple(frames))
        links = plan.links
        R = self._rotation[links]
        poses = np.empty((links.size, 4, 3))
        np.matmul(R, plan.rotations, out=poses[:, :3])
        np.add(self._position[links], (R @ plan.offsets)[:, :, 0], out=poses[:, 3])
        return poses

    def _link_coms(self):
        if self._com_points is None:
            self._com_points = self._position + (
                self._rotation @ self.model._link_com[:, :, None])[:, :, 0]
        return self._com_points

    def com(self):
        """The whole-body CoM, computed on the first call; read-only."""
        if self._com is None:
            model = self.model
            self._com = model._mass_vector @ self._link_coms() / model._total_mass
            self._com.setflags(write=False)
        return self._com

    def task_jacobian(self, frames=()):
        """Stacked task Jacobian [J_com; J_frames[0]; J_frames[1]; ...].

        Three linear-velocity rows for the CoM, then six rows per frame
        (linear, then angular). The frame tuple's `_TaskPlan` places every
        entry: the linear joint columns of every task come from one batched
        cross product of the joint axes with the lever arms.
        """
        model = self.model
        plan = model._task_plan(tuple(frames))
        n = model.n_joints
        # World joint origins and unit axes, one row per joint.
        parent = model._parent_link
        joints = self._rotation[parent] @ model._joint_offsets
        origins, axes = self._position[parent] + joints[:, :, 0], joints[:, :, 1]
        links = plan.links
        points = np.empty((1 + links.size, 3))
        points[0] = self.com()
        points[1:] = self._position[links] + (self._rotation[links] @ plan.offsets)[:, :, 0]
        # Lever arms: the CoM's from each joint's origin, weighted by the
        # joint's subtree mass share; a frame's from each joint on its chain.
        lever = np.empty((plan.lever_joints.size, 3))
        lever[:n] = (model._subtree_weight @ self._link_coms()
                     - model._subtree_share[:, None] * origins)
        np.subtract(points[plan.pair_tasks], origins[plan.pair_joints], out=lever[n:])

        J = plan.template.copy()
        flat = J.reshape(-1)
        # Joint columns, linear rows: axis x lever.
        (ax, ay, az), (lx, ly, lz) = axes[plan.lever_joints].T, lever.T
        cross = np.empty((3, lever.shape[0]))
        np.subtract(ay * lz, az * ly, out=cross[0])
        np.subtract(az * lx, ax * lz, out=cross[1])
        np.subtract(ax * ly, ay * lx, out=cross[2])
        flat[plan.lever_index] = cross
        # Base angular columns: -skew(point - base position).
        d = points - self.state.base_position
        flat[plan.base_index[0]] = -d
        flat[plan.base_index[1]] = d
        # Joint columns, angular rows: the joint's axis.
        flat[plan.angular_index] = axes[plan.pair_joints].T
        return J

    def com_jacobian(self):
        """3 x (6+n) Jacobian of the whole-body CoM."""
        return self.task_jacobian()


def integrate_state(state, nu, dt):
    """Explicit Euler on R^3 x joints, exponential map on the base rotation."""
    nu = np.asarray(nu, dtype=float).reshape(-1)
    v, w, sdot = nu[0:3], nu[3:6], nu[6:]
    return RobotState(
        base_position=state.base_position + dt * v,
        base_rotation=exp_so3(dt * w) @ state.base_rotation,
        joint_positions=state.joint_positions + dt * sdot,
        joint_velocities=sdot.copy())


def load_model(source):
    """Model from the documented YAML schema (path, file object or dict)."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = yaml.load(source, Loader=YAML_LOADER)
    else:
        with open(source) as f:
            doc = yaml.load(f, Loader=YAML_LOADER)
    links = {l["name"]: Link(name=l["name"], mass=float(l["mass"]),
                             com=l.get("com", [0.0, 0.0, 0.0]))
             for l in doc["links"]}
    for j in doc["joints"]:
        if j["type"] != "revolute":
            raise ValueError(f"joint {j['name']}: type must be revolute, not {j['type']!r}")
    joints = [Joint(name=j["name"], parent=j["parent"], child=j["child"],
                    axis=j["axis"], origin_xyz=j.get("origin_xyz", [0.0, 0.0, 0.0]),
                    origin_rpy=j.get("origin_rpy", [0.0, 0.0, 0.0]),
                    limits=tuple(j.get("limits", (-2.5, 2.5))),
                    velocity_limit=float(j.get("velocity_limit", 10.0)))
              for j in doc["joints"]]
    frames = {name: FrameDef(link=spec["link"], xyz=spec.get("xyz", [0.0, 0.0, 0.0]),
                             rpy=spec.get("rpy", [0.0, 0.0, 0.0]))
              for name, spec in doc.get("frames", {}).items()}
    return KinematicModel(base_link=doc["base_link"], links=links, joints=joints,
                          frames=frames)


def sample_biped():
    """The packaged desk-scale biped (14 actuated joints, child-sized links)."""
    with resources.files("dcmwalk").joinpath("models/sample_biped.yaml").open() as f:
        return load_model(f)


# Bent-knee stance: keeps the legs well away from the straight-knee
# singularity over the stride lengths the planner produces.
HOME_POSTURE = {
    "torso_pitch": 0.0, "torso_roll": 0.0,
    "l_hip_roll": 0.0, "l_hip_pitch": -0.5, "l_knee_pitch": 1.0,
    "l_ankle_pitch": -0.5, "l_ankle_roll": 0.0,
    "r_hip_roll": 0.0, "r_hip_pitch": -0.5, "r_knee_pitch": 1.0,
    "r_ankle_pitch": -0.5, "r_ankle_roll": 0.0,
}


def home_state(model):
    """Home posture, feet soles on the ground plane z = 0 and their planar
    midpoint at the origin (the footstep planner's initial stance frame)."""
    s = np.array([HOME_POSTURE.get(j.name, 0.0) for j in model.joints])
    state = RobotState(base_position=np.zeros(3), base_rotation=np.eye(3),
                       joint_positions=s)
    cache = KinematicsCache(model, state)
    lf = cache.frame_pose("left_foot")[0]
    rf = cache.frame_pose("right_foot")[0]
    mid = 0.5 * (lf + rf)
    state.base_position = np.array([-mid[0], -mid[1], -min(lf[2], rf[2])])
    return state
