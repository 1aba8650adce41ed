"""Independent reference implementations used by the test suite.

Everything here is deliberately written against the problem definitions, not
against the library internals, so solver and planner bugs cannot cancel out.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def random_qp(rng, n_max=10, m_max=8, with_eq=True, with_bounds=True):
    """Random strictly convex QP with a guaranteed feasible point."""
    n = int(rng.integers(1, n_max + 1))
    M = rng.normal(size=(n, n))
    H = M.T @ M + (0.5 + rng.uniform()) * np.eye(n)
    g = rng.normal(size=n)
    w0 = rng.normal(scale=0.5, size=n)

    m_eq = int(rng.integers(0, min(n, 3) + 1)) if with_eq else 0
    A_eq = b_eq = None
    if m_eq:
        A_eq = rng.normal(size=(m_eq, n))
        b_eq = A_eq @ w0

    m_in = int(rng.integers(0, m_max + 1))
    A_in = b_in = None
    if m_in:
        A_in = rng.normal(size=(m_in, n))
        b_in = A_in @ w0 + rng.uniform(0.05, 1.0, size=m_in)

    lb = ub = None
    if with_bounds and rng.uniform() < 0.5:
        lb = w0 - rng.uniform(0.5, 3.0, size=n)
        ub = w0 + rng.uniform(0.5, 3.0, size=n)
        # Leave some bounds open.
        open_mask = rng.uniform(size=n) < 0.3
        lb[open_mask] = -np.inf
        ub[open_mask] = np.inf
    return dict(H=H, g=g, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
                lb=lb, ub=ub), w0


def inequality_rows(n, A_in=None, b_in=None, lb=None, ub=None):
    """All rows a^T w <= b, built one row at a time: the general rows, then
    one row per finite upper bound, then one per finite lower bound.

    Returns (A, b, kind) with kind[i] = ("in" | "ub" | "lb", index).
    """
    rows, rhs, kind = [], [], []
    if A_in is not None:
        for i, (a, b) in enumerate(zip(np.atleast_2d(A_in), np.asarray(b_in).reshape(-1))):
            rows.append(np.asarray(a, dtype=float))
            rhs.append(float(b))
            kind.append(("in", i))
    for bound, sign, label in ((ub, 1.0, "ub"), (lb, -1.0, "lb")):
        if bound is None:
            continue
        bv = np.asarray(bound, dtype=float).reshape(-1)
        for j in range(n):
            if np.isfinite(bv[j]):
                e = np.zeros(n)
                e[j] = sign
                rows.append(e)
                rhs.append(sign * bv[j])
                kind.append((label, j))
    A = np.vstack(rows) if rows else np.zeros((0, n))
    b = np.asarray(rhs, dtype=float) if rhs else np.zeros(0)
    return A, b, kind


def row_form(spec):
    """The arguments of a `QpProblem` for a problem `spec` with bounds, as
    `random_qp` makes it: its bounds `lb`/`ub` become rows of A_in/b_in by
    `inequality_rows`, after the rows already there."""
    spec = dict(spec)
    lb, ub = spec.pop("lb", None), spec.pop("ub", None)
    if lb is not None or ub is not None:
        n = np.asarray(spec["g"]).shape[0]
        spec["A_in"], spec["b_in"], _ = inequality_rows(n, spec.get("A_in"), spec.get("b_in"),
                                                        lb, ub)
    return spec


def ratio_test_plain(Ap, slack, working):
    """Active-set line search as a plain scan over every row.

    Ap[i] = a_i^T p and slack[i] = b_i - a_i^T w. Returns (alpha, blocking).
    """
    alpha, blocking = 1.0, None
    for i in range(len(Ap)):
        if i in working:
            continue
        if Ap[i] > 1e-14:
            a_i = slack[i] / Ap[i]
            if a_i < alpha - 1e-15:
                alpha = max(a_i, 0.0)
                blocking = i
    return alpha, blocking


def brute_force_qp(H, g, A_eq=None, b_eq=None, A_in=None, b_in=None,
                   lb=None, ub=None, tol=1e-9):
    """Exhaustive active-set enumeration for tiny strictly convex QPs.

    Folds bounds into inequality rows, solves the KKT system for every
    active subset, keeps the feasible candidate with nonnegative duals and
    the lowest objective. Returns None when no subset qualifies.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    n = g.shape[0]
    A_all, b_all, _ = inequality_rows(n, A_in, b_in, lb, ub)
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    else:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)

    m = A_all.shape[0]
    best_w, best_obj = None, np.inf
    for k in range(m + 1):
        for subset in itertools.combinations(range(m), k):
            A_act = np.vstack([A_eq, A_all[list(subset)]]) if subset else A_eq
            b_act = np.concatenate([b_eq, b_all[list(subset)]]) if subset else b_eq
            ma = A_act.shape[0]
            K = np.zeros((n + ma, n + ma))
            K[:n, :n] = H
            K[:n, n:] = A_act.T
            K[n:, :n] = A_act
            try:
                sol = np.linalg.solve(K, np.concatenate([-g, b_act]))
            except np.linalg.LinAlgError:
                continue
            w = sol[:n]
            duals_in = sol[n + A_eq.shape[0]:]
            if not np.all(np.isfinite(w)):
                continue
            if A_eq.shape[0] and np.linalg.norm(A_eq @ w - b_eq, np.inf) > tol:
                continue
            if m and np.max(A_all @ w - b_all) > tol:
                continue
            if duals_in.size and duals_in.min() < -tol:
                continue
            obj = 0.5 * w @ H @ w + g @ w
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_w = w
    return best_w


def brute_force_hull(points):
    """Convex hull vertices of 2-D points by testing every ordered pair.

    (p, q) is a hull edge when every other distinct point lies strictly left
    of the line p -> q or on the segment pq itself. Turns are computed in
    exact rational arithmetic. Returns the vertices as tuples,
    counter-clockwise from the lowest (x, y) point; fewer than three when
    the points span no area.
    """
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).reshape(-1, 2).tolist())))
    exact = [tuple(map(Fraction, p)) for p in pts]

    def keeps(p, q, r):
        turn = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if turn:
            return turn > 0
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    successor = {}
    for i, j in itertools.permutations(range(len(exact)), 2):
        if all(keeps(exact[i], exact[j], r)
               for k, r in enumerate(exact) if k not in (i, j)):
            successor[i] = j
    cycle = [0]
    while successor.get(cycle[-1], 0) not in cycle:
        cycle.append(successor[cycle[-1]])
    return [pts[i] for i in cycle]


def mpc_qp_data_n2(omega, T, Q, R, QN, xi_meas, r_prev, refs):
    """Hand-assembled N = 2 MPC QP over w = [xi0, xi1, xi2, r0, r1].

    Returns (H, grad, A_eq, b_eq) with the discrete DCM dynamics and the
    initial condition as equalities; the ZMP variables live at w[6:10].
    """
    f = np.exp(omega * T)
    gg = 1.0 - f
    I2 = np.eye(2)
    Z = np.zeros((2, 2))
    H = np.zeros((10, 10))
    H[0:2, 0:2] = 2 * Q
    H[2:4, 2:4] = 2 * Q
    H[4:6, 4:6] = 2 * QN
    # Rate cost |r0 - r_prev|^2_R + |r1 - r0|^2_R.
    H[6:8, 6:8] = 2 * R + 2 * R
    H[8:10, 8:10] = 2 * R
    H[6:8, 8:10] = -2 * R
    H[8:10, 6:8] = -2 * R
    grad = np.concatenate([-2 * Q @ refs[0], -2 * Q @ refs[1], -2 * QN @ refs[2],
                           -2 * R @ r_prev, np.zeros(2)])
    A = np.block([
        [-f * I2, I2, Z, -gg * I2, Z],
        [Z, -f * I2, I2, Z, -gg * I2],
        [I2, Z, Z, Z, Z]])
    b = np.concatenate([np.zeros(4), xi_meas])
    return H, grad, A, b


def mpc_kkt_oracle(omega, T, Q, R, QN, xi_meas, r_prev, refs):
    """Equality-constrained (unconstrained polygon) MPC optimum for N = 2."""
    H, grad, A, b = mpc_qp_data_n2(omega, T, Q, R, QN, xi_meas, r_prev, refs)
    K = np.zeros((16, 16))
    K[:10, :10] = H
    K[:10, 10:] = A.T
    K[10:, :10] = A
    sol = np.linalg.solve(K, np.concatenate([-grad, b]))
    return sol[6:8]


def frame_def(model, name):
    """The `FrameDef` of a named frame of `model`, or of a link's origin
    frame: a named frame shadows a link of the same name."""
    from dcmwalk.kinematics import FrameDef
    if name in model.frames:
        return model.frames[name]
    return FrameDef(link=name, xyz=np.zeros(3), rpy=np.zeros(3))


def implied_zmp(trajectory, t):
    """The ZMP the DCM reference implies at t: xi - xi_dot / omega."""
    xi, xid = trajectory.eval(t)
    return xi - xid / trajectory.omega


def vee(W):
    """Inverse of `so3.skew` for antisymmetric matrices."""
    W = np.asarray(W, dtype=float)
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def sk(A):
    """Antisymmetric part of a square matrix, (A - A^T) / 2."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A - A.T)


def skew_vee_error(R, R_des):
    """The rotation-error term vee(sk(R R_des^T)) of two 3 x 3 matrices by
    `lipm.rotation_error`, the float-rows form the whole-body layer uses."""
    from dcmwalk.lipm import rotation_error
    return np.array(rotation_error(np.asarray(R, dtype=float).tolist(),
                                   np.asarray(R_des, dtype=float).tolist()))


def _chain_up(model, link):
    """Indices of the joints from `link` up to the base, nearest first,
    found by scanning `model.joints` for each link's parent joint."""
    chain = []
    while link != model.base_link:
        idx = next(i for i, j in enumerate(model.joints) if j.child == link)
        chain.append(idx)
        link = model.joints[idx].parent
    return chain


def fk_chain_oracle(model, state, frame):
    """Frame pose by explicit 4x4 homogeneous matrix chaining."""
    from dcmwalk.so3 import exp_so3, rpy_to_rotation

    def hom(R, p):
        T = np.eye(4)
        T[:3, :3] = R
        T[:3, 3] = p
        return T

    fd = frame_def(model, frame)
    T = hom(state.base_rotation, state.base_position)
    for idx in reversed(_chain_up(model, fd.link)):
        joint = model.joints[idx]
        T = T @ hom(rpy_to_rotation(*joint.origin_rpy), joint.origin_xyz)
        T = T @ hom(exp_so3(joint.axis * state.joint_positions[idx]), np.zeros(3))
    T = T @ hom(rpy_to_rotation(*fd.rpy), fd.xyz)
    return T[:3, 3], T[:3, :3]


def _perturbed_state(state, nu, eps):
    """State moved by eps * nu: base twist in the inertial frame (rotation
    through the exponential map), joints additively."""
    from dcmwalk.kinematics import RobotState
    from dcmwalk.so3 import exp_so3
    nu = np.asarray(nu, dtype=float)
    return RobotState(base_position=state.base_position + eps * nu[0:3],
                      base_rotation=exp_so3(eps * nu[3:6]) @ state.base_rotation,
                      joint_positions=state.joint_positions + eps * nu[6:])


def com_oracle(model, state):
    """Whole-body CoM from link poses by homogeneous matrix chaining."""
    total = np.zeros(3)
    for name, link in model.links.items():
        p, R = fk_chain_oracle(model, state, name)
        total += link.mass * (p + R @ link.com)
    return total / sum(link.mass for link in model.links.values())


def fd_task_jacobian(model, state, frames, eps=1e-6):
    """[J_com; 6 rows per frame] by central differences of the chain oracle,
    one velocity coordinate at a time."""
    nv = 6 + model.n_joints
    J = np.zeros((3 + 6 * len(frames), nv))
    for i in range(nv):
        e = np.zeros(nv)
        e[i] = 1.0
        plus = _perturbed_state(state, e, eps)
        minus = _perturbed_state(state, e, -eps)
        J[0:3, i] = (com_oracle(model, plus) - com_oracle(model, minus)) / (2 * eps)
        for k, frame in enumerate(frames):
            p1, R1 = fk_chain_oracle(model, plus, frame)
            p0, R0 = fk_chain_oracle(model, minus, frame)
            dR = R1 @ R0.T
            w = 0.5 * np.array([dR[2, 1] - dR[1, 2], dR[0, 2] - dR[2, 0], dR[1, 0] - dR[0, 1]])
            J[3 + 6 * k:6 + 6 * k, i] = (p1 - p0) / (2 * eps)
            J[6 + 6 * k:9 + 6 * k, i] = w / (2 * eps)
    return J


def _joint_frames_oracle(model, state):
    """World origin and unit axis of every joint, by matrix chaining."""
    from dcmwalk.so3 import rpy_to_rotation
    origins, axes = [], []
    for joint in model.joints:
        p, R = fk_chain_oracle(model, state, joint.parent)
        origins.append(p + R @ joint.origin_xyz)
        axes.append(R @ rpy_to_rotation(*joint.origin_rpy) @ joint.axis)
    return np.array(origins), np.array(axes)


def _lever_skew(d):
    return np.array([[0.0, d[2], -d[1]], [-d[2], 0.0, d[0]], [d[1], -d[0], 0.0]])


def frame_jacobian_loop(model, state, frame):
    """6 x (6+n) frame Jacobian, one joint column at a time."""
    origins, axes = _joint_frames_oracle(model, state)
    p, _ = fk_chain_oracle(model, state, frame)
    chain = _chain_up(model, frame_def(model, frame).link)
    J = np.zeros((6, 6 + model.n_joints))
    J[0:3, 0:3] = np.eye(3)
    J[0:3, 3:6] = _lever_skew(p - state.base_position)
    J[3:6, 3:6] = np.eye(3)
    for idx in chain:
        a, r = axes[idx], p - origins[idx]
        J[0:3, 6 + idx] = (a[1] * r[2] - a[2] * r[1],
                           a[2] * r[0] - a[0] * r[2],
                           a[0] * r[1] - a[1] * r[0])
        J[3:6, 6 + idx] = a
    return J


def com_jacobian_loop(model, state):
    """3 x (6+n) CoM Jacobian, accumulated one joint subtree at a time."""
    origins, axes = _joint_frames_oracle(model, state)
    total = sum(link.mass for link in model.links.values())
    points = {}
    for name, link in model.links.items():
        p, R = fk_chain_oracle(model, state, name)
        points[name] = p + R @ link.com
    com = sum(model.links[n].mass * points[n] for n in model.links) / total
    J = np.zeros((3, 6 + model.n_joints))
    J[:, 0:3] = np.eye(3)
    J[:, 3:6] = _lever_skew(com - state.base_position)
    for idx in range(model.n_joints):
        sub = [n for n in model.links if idx in _chain_up(model, n)]
        m_sub = sum(model.links[n].mass for n in sub)
        c_sub = sum(model.links[n].mass * points[n] for n in sub) / m_sub
        a, r = axes[idx], c_sub - origins[idx]
        J[:, 6 + idx] = (m_sub / total) * np.array(
            (a[1] * r[2] - a[2] * r[1],
             a[2] * r[0] - a[0] * r[2],
             a[0] * r[1] - a[1] * r[0]))
    return J


def random_tree_doc(rng, max_joints=6):
    """Model document of a random tree of revolute joints: random axes,
    joint origins, link masses and CoMs, and frames at random offsets."""
    n = int(rng.integers(1, max_joints + 1))
    links = [{"name": "l0", "mass": float(rng.uniform(0.2, 3.0)),
              "com": rng.normal(scale=0.1, size=3).tolist()}]
    joints = []
    for j in range(n):
        axis = rng.normal(size=3)
        joints.append({"name": f"j{j}", "type": "revolute",
                       "parent": f"l{int(rng.integers(0, j + 1))}", "child": f"l{j + 1}",
                       "axis": (axis / np.linalg.norm(axis)).tolist(),
                       "origin_xyz": rng.normal(scale=0.2, size=3).tolist(),
                       "origin_rpy": rng.uniform(-np.pi, np.pi, size=3).tolist()})
        links.append({"name": f"l{j + 1}", "mass": float(rng.uniform(0.05, 2.0)),
                      "com": rng.normal(scale=0.1, size=3).tolist()})
    frames = {f"f{k}": {"link": f"l{int(rng.integers(0, n + 1))}",
                        "xyz": rng.normal(scale=0.2, size=3).tolist(),
                        "rpy": rng.uniform(-np.pi, np.pi, size=3).tolist()}
              for k in range(int(rng.integers(1, 4)))}
    # Listed in any order: the model finds the order to walk the tree in.
    joints = [joints[i] for i in rng.permutation(n)]
    return {"base_link": "l0", "links": links, "joints": joints, "frames": frames}


def mpc_backward_map(omega, T, N):
    """The MPC's backward map P, (2N + 2) x (2N + 2), from
    w = [r_0 .. r_{N-1}, xi_N] to [xi_0 .. xi_N], one column at a time:
    xi_j's coefficient on r_i (j <= i < N) is (1 - a) a^(i - j) and on xi_N
    a^(N - j), each power by repeated products, a = e^{-omega T}."""
    a = math.exp(-omega * T)
    P = np.zeros((2 * N + 2, 2 * N + 2))
    for i in range(N + 1):
        coef = 1.0 if i == N else 1.0 - a
        for j in range(i, -1, -1):
            P[2 * j, 2 * i] = P[2 * j + 1, 2 * i + 1] = coef
            coef = a * coef
    return P


def mpc_start_point(omega, T, xi_meas, r_prev, polygons):
    """The MPC's start point (`PredictiveDcmController.start_point`) on
    numpy 2-vectors: r_j at the vertex mean of polygon j (r_prev for None),
    and xi_N from the initial condition xi_0 = xi_meas, the first block row
    of `mpc_backward_map`."""
    N = len(polygons)
    r = _mpc_start_zmps(r_prev, polygons)
    c = mpc_backward_map(omega, T, N)[0, ::2]
    xi_N = (np.asarray(xi_meas, dtype=float) - c[:N] @ r) / c[N]
    return np.concatenate([r.ravel(), xi_N])


def mpc_rollout_plain(f, xi_meas, r):
    """The DCMs xi_0 .. xi_N rolled forward from xi_0 = xi_meas through the
    ZMPs r (N x 2): xi_{k+1} = f xi_k + (1 - f) r_k."""
    xi = [np.asarray(xi_meas, dtype=float)]
    for r_k in np.asarray(r, dtype=float).reshape(-1, 2):
        xi.append(f * xi[-1] + (1.0 - f) * r_k)
    return np.array(xi)


def _mpc_start_zmps(r_prev, polygons):
    """N x 2: the vertex mean of each step's polygon, r_prev for None."""
    return np.array([np.asarray(r_prev, dtype=float) if poly is None
                     else poly.vertices.mean(axis=0) for poly in polygons]).reshape(-1, 2)


def _mpc_dcm_gradient(config, xi_refs):
    """[-2 Q ref_0 .. -2 Q ref_{N-1}, -2 Q_terminal ref_N], one sample at a
    time: the gradient's reference terms on the DCMs xi_0 .. xi_N."""
    N = config.horizon
    refs = np.asarray(xi_refs, dtype=float).reshape(N + 1, 2)
    g = np.zeros(2 * N + 2)
    for k in range(N + 1):
        g[2 * k:2 * k + 2] = -2.0 * (config.Q if k < N else config.Q_terminal) @ refs[k]
    return g


def _mpc_polygon_rows(n, offset, polygons):
    """One row per polygon edge on step j's ZMP, at columns offset + 2j and
    offset + 2j + 1, and their right-hand sides."""
    rows, rhs = [], []
    for j, poly in enumerate(polygons):
        if poly is None:
            continue
        for a, b in zip(poly.A, poly.b):
            row = np.zeros(n)
            row[offset + 2 * j:offset + 2 * j + 2] = a
            rows.append(row)
            rhs.append(b)
    return np.array(rows).reshape(-1, n), np.array(rhs, dtype=float)


def mpc_blocks_plain(config, omega, xi_meas, r_prev, xi_refs, polygons):
    """(g, b_eq, A_in, b_in) of the MPC's QP over
    w = [r_0 .. r_{N-1}, xi_N], built in one call from the measurement, the
    DCM window and the polygons (None for a step without one), one polygon
    at a time: g = P^T [-2 Q ref_k .. ] (Q_terminal for k = N) with P from
    `mpc_backward_map`, plus -2 R r_prev on r_0; b_eq = xi_meas; one row
    per polygon edge on its step's ZMP."""
    N = config.horizon
    g = mpc_backward_map(omega, config.sample_time, N).T @ _mpc_dcm_gradient(config, xi_refs)
    g[:2] += -2.0 * config.R @ np.asarray(r_prev, dtype=float)
    A_in, b_in = _mpc_polygon_rows(2 * N + 2, 0, polygons)
    return g, np.asarray(xi_meas, dtype=float), A_in, b_in


def mpc_qp_forward(config, omega, xi_meas, r_prev, xi_refs, polygons):
    """(QP, start point) of the MPC in forward coordinates, over
    w = [xi_0 .. xi_N, r_0 .. r_{N-1}] with the dynamics
    xi_{i+1} = f xi_i + (1 - f) r_i (f = e^{omega T}) and xi_0 = xi_meas as
    2N + 2 equality rows: the same cost and polygon rows as the MPC's own
    QP, so the same optimum. The start point puts each r_j at the vertex
    mean of its polygon (r_prev for None) and rolls the DCM forward."""
    from dcmwalk.qp import QpProblem
    N = config.horizon
    polygons = list(polygons) + [None] * (N - len(polygons))
    f = np.exp(omega * config.sample_time)
    n_xi = 2 * (N + 1)
    n = n_xi + 2 * N
    Q, R, QN = config.Q, config.R, config.Q_terminal
    H = np.zeros((n, n))
    for j in range(N):
        H[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 2.0 * Q
    H[2 * N:2 * N + 2, 2 * N:2 * N + 2] = 2.0 * QN
    # Rate cost sum_j |r_j - r_{j-1}|^2_R with r_{-1} = r_prev.
    for j in range(N):
        k = n_xi + 2 * j
        H[k:k + 2, k:k + 2] += 2.0 * R
        if j + 1 < N:
            H[k:k + 2, k:k + 2] += 2.0 * R
            H[k:k + 2, k + 2:k + 4] += -2.0 * R
            H[k + 2:k + 4, k:k + 2] += -2.0 * R
    A_eq = np.zeros((2 * N + 2, n))
    for i in range(N):
        rows = slice(2 * i, 2 * i + 2)
        A_eq[rows, 2 * (i + 1):2 * (i + 1) + 2] = np.eye(2)
        A_eq[rows, 2 * i:2 * i + 2] = -f * np.eye(2)
        A_eq[rows, n_xi + 2 * i:n_xi + 2 * i + 2] = -(1.0 - f) * np.eye(2)
    A_eq[2 * N:, 0:2] = np.eye(2)
    b_eq = np.zeros(2 * N + 2)
    b_eq[2 * N:] = xi_meas
    g = np.concatenate([_mpc_dcm_gradient(config, xi_refs), np.zeros(2 * N)])
    g[n_xi:n_xi + 2] += -2.0 * R @ np.asarray(r_prev, dtype=float)
    A_in, b_in = _mpc_polygon_rows(n, n_xi, polygons)
    r = _mpc_start_zmps(r_prev, polygons)
    start = np.concatenate([mpc_rollout_plain(f, xi_meas, r).ravel(), r.ravel()])
    return QpProblem(H=H, g=g, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in), start


def segment_at_scan(trajectory, t):
    """The DCM segment at time t by a scan: the last segment that starts at
    or before t, else the first."""
    found = trajectory.segments[0]
    for seg in trajectory.segments:
        if seg.t_start <= t:
            found = seg
    return found


def swing_pose_plain(swing, t):
    """`SwingTrajectory.pose` with each Hermite cubic evaluated on numpy
    coefficient arrays, the lift and descent cubics built per call."""
    from dcmwalk.unicycle import _hermite_coeffs, _hermite_eval
    tau = np.clip(t, swing.t_start, swing.t_end) - swing.t_start
    x, vx = _hermite_eval(swing.coeffs_xy[0], tau)
    y, vy = _hermite_eval(swing.coeffs_xy[1], tau)
    yaw, yaw_rate = _hermite_eval(swing.coeffs_yaw, tau)
    half = 0.5 * (swing.t_end - swing.t_start)
    g, top = swing.ground_height, swing.ground_height + swing.apex
    if tau <= half:
        z, vz = _hermite_eval(_hermite_coeffs(g, 0.0, top, 0.0, half), tau)
    else:
        z, vz = _hermite_eval(_hermite_coeffs(top, 0.0, g, 0.0, half), tau - half)
    return np.array([x, y, z]), yaw, np.array([vx, vy, vz]), yaw_rate


def _joint_arrays(model):
    """Per-joint arrays in the model's joint order: axis skews and their
    squares, origin rotations, and the joint origin offsets and axes in the
    parent link frame (n x 3 x 2)."""
    from dcmwalk.so3 import skew
    joints = model.joints
    n = len(joints)
    axes = np.array([j.axis for j in joints]).reshape(n, 3)
    axis_skew = np.array([skew(a) for a in axes]).reshape(n, 3, 3)
    origin_rotation = np.array([j.origin_rotation for j in joints]).reshape(n, 3, 3)
    offsets = np.stack([np.array([j.origin_xyz for j in joints]).reshape(n, 3),
                        (origin_rotation @ axes[:, :, None])[:, :, 0]], axis=2)
    return axis_skew, axis_skew @ axis_skew, origin_rotation, offsets


def tree_pass_plain(model, state):
    """(link rotations, link positions) in link order by the batched tree
    pass, with the joint arrays built per call."""
    axis_skew, axis_skew2, origin_rotation, offsets = _joint_arrays(model)
    angle = state.joint_positions[:, None, None]
    joint_rotation = (np.eye(3) + np.sin(angle) * axis_skew
                      + (1.0 - np.cos(angle)) * axis_skew2)
    local = np.zeros((model.n_joints, 4, 4))
    local[:, :3, :3] = origin_rotation @ joint_rotation
    local[:, :3, 3] = offsets[:, :, 0]
    local[:, 3, 3] = 1.0
    local = local[model._fk_joints]
    pose = np.empty((len(model.links), 4, 4))
    pose[0, :3, :3] = state.base_rotation
    pose[0, :3, 3] = state.base_position
    pose[0, 3] = (0.0, 0.0, 0.0, 1.0)
    for joints, parents, children in model._fk_levels:
        np.matmul(pose[parents], local[joints], out=pose[children])
    pose = pose[model._fk_rows]
    return pose[:, :3, :3], pose[:, :3, 3]


def frame_pose_plain(model, state, frame):
    """(position, rotation) of a frame, p + R xyz and R R_frame, from its
    link's pose (R, p) by `tree_pass_plain`, one frame at a time."""
    rotation, position = tree_pass_plain(model, state)
    fd = frame_def(model, frame)
    link = list(model.links).index(fd.link)
    return position[link] + rotation[link] @ fd.xyz, rotation[link] @ fd.rotation


def task_jacobian_masked(model, state, frames):
    """`KinematicsCache.task_jacobian` by 0/1 chain masks over every joint,
    in the model's joint order: each task's lever arm from every joint is
    weighted by the share of the task that the joint moves (CoM: subtree
    mass share; a frame: 1 on its chain, else 0)."""
    rotation, position = tree_pass_plain(model, state)
    joint_offsets = _joint_arrays(model)[3]
    link_names = list(model.links)
    link_index = {name: i for i, name in enumerate(link_names)}
    n, nv = model.n_joints, model.n_velocities
    chain = np.zeros((len(link_names), n))
    for l, name in enumerate(link_names):
        chain[l, _chain_up(model, name)] = 1.0
    mass = np.array([model.links[name].mass for name in link_names])
    total = sum(link.mass for link in model.links.values())
    subtree_weight = chain.T * (mass / total)
    coms = position + (rotation @ np.array([model.links[name].com
                                            for name in link_names])[:, :, None])[:, :, 0]
    defs = [model._frame(f) for f in frames]
    links = np.array([link for link, _ in defs], dtype=int)
    offsets = np.array([fd.xyz for _, fd in defs]).reshape(len(defs), 3, 1)
    nf = links.size
    parent = np.array([link_index[j.parent] for j in model.joints], dtype=int)
    joints = rotation[parent] @ joint_offsets
    origins, axes = position[parent] + joints[:, :, 0], joints[:, :, 1]
    points = np.empty((1 + nf, 3))
    points[0] = mass @ coms / total
    points[1:] = position[links] + (rotation[links] @ offsets)[:, :, 0]
    weights = np.empty((1 + nf, n))
    weights[0] = subtree_weight.sum(axis=1)
    weights[1:] = chain[links]
    lever = np.empty((1 + nf, n, 3))
    lever[0] = subtree_weight @ coms - weights[0][:, None] * origins
    lever[1:] = weights[1:, :, None] * (points[1:, None, :] - origins)

    linear = np.zeros((1 + nf, 3, nv))
    linear[:, :, 0:3] = np.eye(3)
    d = points - state.base_position
    linear[:, [2, 0, 1], [4, 5, 3]] = -d
    linear[:, [1, 2, 0], [5, 3, 4]] = d
    (ax, ay, az), (lx, ly, lz) = axes.T, lever.transpose(2, 0, 1)
    columns = linear[:, :, 6:]
    np.subtract(ay * lz, az * ly, out=columns[:, 0])
    np.subtract(az * lx, ax * lz, out=columns[:, 1])
    np.subtract(ax * ly, ay * lx, out=columns[:, 2])

    J = np.zeros((3 + 6 * nf, nv))
    J[:3] = linear[0]
    blocks = J[3:].reshape(nf, 6, nv)
    blocks[:, :3] = linear[1:]
    blocks[:, 3:, 3:6] = np.eye(3)
    blocks[:, 3:, 6:] = (chain[links][:, :, None] * axes).transpose(0, 2, 1)
    return J


def phase_at_scan(timeline, t):
    """The gait phase at time t by a scan from the first phase: the first
    with t_start - 1e-12 <= t < t_end, else the last phase."""
    for ph in timeline.phases:
        if ph.t_start - 1e-12 <= t < ph.t_end:
            return ph
    return timeline.phases[-1]


# The simplified and whole-body feedback laws as matrix and vector
# expressions; the program evaluates them on Python floats.

def zmp_com_law(x_meas, x_ref, xd_ref, r_meas, r_ref, k_zmp, k_com):
    """xdot* = xdot_ref - K_zmp (r_ref - r) + K_com (x_ref - x)."""
    x_meas, x_ref, xd_ref, r_meas, r_ref = (np.asarray(v, dtype=float)
                                            for v in (x_meas, x_ref, xd_ref, r_meas, r_ref))
    return xd_ref - np.asarray(k_zmp) @ (r_ref - r_meas) + np.asarray(k_com) @ (x_ref - x_meas)


class PiDcmLaw:
    """r = xi_ref - xid_ref / w + Kp e + Ki int(e), e = xi - xi_ref, the
    integral by the trapezoid rule and clamped to norm `anti_windup`."""

    def __init__(self, kp, ki, anti_windup, omega):
        self.kp, self.ki = np.asarray(kp, dtype=float), np.asarray(ki, dtype=float)
        self.anti_windup, self.omega = anti_windup, omega
        self.integral = np.zeros(2)
        self.prev = None

    def control(self, xi_meas, xi_ref, xid_ref, dt):
        e = np.asarray(xi_meas, dtype=float) - np.asarray(xi_ref, dtype=float)
        prev = e if self.prev is None else self.prev
        self.integral = self.integral + 0.5 * dt * (prev + e)
        norm = np.linalg.norm(self.integral)
        if norm > self.anti_windup:
            self.integral = self.integral * (self.anti_windup / norm)
        self.prev = e
        return (np.asarray(xi_ref, dtype=float) - np.asarray(xid_ref, dtype=float) / self.omega
                + self.kp @ e + self.ki @ self.integral)


def exp_so3_plain(w):
    """Rodrigues formula on numpy scalars: I + skew(w) below an angle of
    1e-12, else c I + s [u]x + (1 - c) u u^T entry by entry, u = w / theta."""
    w = np.asarray(w, dtype=float).reshape(3)
    theta = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    if theta < 1e-12:
        return np.eye(3) + np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]],
                                     [-w[1], w[0], 0.0]])
    x, y, z = w / theta
    c, s = np.cos(theta), np.sin(theta)
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C]])


def foot_velocity_law(p, R, reference, gains, integral, skew_vee_error):
    """[v_ref - K_p e_p - K_i int(e_p); w_ref - K_w vee(sk(R R_ref^T))] and e_p."""
    e_p = p - reference.position
    linear = (reference.linear_velocity - gains.foot_position_gain * e_p
              - gains.foot_integral_gain * integral)
    angular = (reference.angular_velocity
               - gains.foot_rotation_gain * skew_vee_error(R, reference.rotation))
    return np.concatenate([linear, angular]), e_p


def com_velocity_law(com, com_ref, com_velocity_cmd, gains, integral, z0):
    """[v - K_p e - K_i int(e); -K_z (z - z0)] with e the planar CoM error, and e."""
    e = com[:2] - np.asarray(com_ref, dtype=float)
    planar = (np.asarray(com_velocity_cmd, dtype=float) - gains.com_position_gain * e
              - gains.com_integral_gain * integral)
    return np.array([planar[0], planar[1], -gains.com_height_gain * (com[2] - z0)]), e


def foot_reference_at(phase, t, side):
    """(position, rotation, linear velocity, angular velocity) of a foot's
    reference at time t, built afresh: the swing trajectory for the foot that
    is not the stance foot of a single-support phase, else the planted step
    on the ground."""
    def yaw_rotation(yaw):
        c, s = np.cos(yaw), np.sin(yaw)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    if phase.swing is not None and phase.stance_side is not None \
            and phase.stance_side is not side:
        pos, yaw, vel, yaw_rate = phase.swing.pose(t)
        return pos, yaw_rotation(yaw), vel, np.array([0.0, 0.0, yaw_rate])
    step = phase.feet[side]
    return (np.array([step.position[0], step.position[1], 0.0]), yaw_rotation(step.yaw),
            np.zeros(3), np.zeros(3))
