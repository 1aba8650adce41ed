"""Simplified-model control layer.

Two DCM stabilizers producing a reference ZMP each control cycle:

  * instantaneous: r = xi_ref - xid_ref/w + Kp (xi - xi_ref) + Ki int(xi - xi_ref)
  * predictive: receding-horizon QP over the predicted ZMPs r_0 .. r_{N-1}
    and the last predicted DCM xi_N, the DCMs before it rolled backward
    through the discrete DCM dynamics
        xi_k = e^{-wT} xi_{k+1} + (1 - e^{-wT}) r_k,
    with xi_0 = xi_meas and support-polygon constraints on every predicted ZMP,

followed by the cascaded ZMP-CoM law
    xdot* = xdot_ref - Kzmp (r_ref - r) + Kcom (x_ref - x).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qp import QpProblem, QpSolver, QpStatus


def _check_spd(M, name, strict=True):
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2")
    # The tests below are all False on NaN, so they cannot reject it.
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    if np.linalg.norm(M - M.T, ord=np.inf) > 1e-12 * max(1.0, np.abs(M).max()):
        raise ValueError(f"{name} must be symmetric")
    lo = np.linalg.eigvalsh(M).min()
    if strict and lo <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    if not strict and lo < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")
    return M


def _cross(o, a, b):
    """z of (a - o) x (b - o): positive when o -> a -> b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    """Hull vertices of 2-D `points` by Andrew's monotone chain.

    The vertices run counter-clockwise from the lowest (x, y) point, with
    duplicate and collinear points dropped; fewer than three come back when
    the points span no area.
    """
    pts = sorted(set(map(tuple, points)))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _half_planes(verts):
    """Unit outward half-planes (A, b) of the counter-clockwise polygon
    `verts`, one row per edge from each vertex to the next."""
    edges = np.roll(verts, -1, axis=0) - verts
    A = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    return A, np.einsum("ij,ij->i", A, verts)


@dataclass(frozen=True)
class SupportPolygon:
    """Convex support region, stored as vertices and unit-norm half-planes."""

    vertices: np.ndarray  # (k, 2), counter-clockwise
    A: np.ndarray         # (k, 2), unit rows
    b: np.ndarray         # (k,), A v <= b for every vertex

    @classmethod
    def from_points(cls, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        verts = np.array(_convex_hull(pts.tolist())).reshape(-1, 2)
        if verts.shape[0] < 3:
            raise ValueError("need at least three points not on one line")
        A, b = _half_planes(verts)
        if np.max(A @ verts.T - b[:, None]) > 1e-9:
            raise ValueError("inconsistent half-plane form")
        return cls(vertices=verts, A=A, b=b)

    @classmethod
    def from_rectangle(cls, center, yaw, length, width):
        if length <= 0.0 or width <= 0.0:
            raise ValueError("rectangle sides must be positive")
        c, s = np.cos(yaw), np.sin(yaw)
        R = np.array([[c, -s], [s, c]])
        half = 0.5 * np.array([length, width])
        corners = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]]) * half
        verts = np.asarray(center, dtype=float) + corners @ R.T
        # The corner order above is counter-clockwise, so the hull is known.
        A, b = _half_planes(verts)
        return cls(vertices=verts, A=A, b=b)

    @classmethod
    def union_hull(cls, *polygons):
        return cls.from_points(np.vstack([p.vertices for p in polygons]))

    def violation(self, point):
        """Max half-plane violation; <= 0 inside, distance-like outside."""
        p = np.asarray(point, dtype=float).reshape(2)
        return float(np.max(self.A @ p - self.b))

    def project(self, point):
        """Closest point of the polygon (Euclidean); identity when inside."""
        p = np.asarray(point, dtype=float).reshape(2)
        if self.violation(p) <= 0.0:
            return p.copy()
        verts = self.vertices
        best = None
        best_d = np.inf
        k = verts.shape[0]
        for i in range(k):
            a, bpt = verts[i], verts[(i + 1) % k]
            edge = bpt - a
            t = np.clip((p - a) @ edge / (edge @ edge), 0.0, 1.0)
            cand = a + t * edge
            d = (p - cand) @ (p - cand)
            if d < best_d:
                best_d = d
                best = cand
        return best


@dataclass(frozen=True)
class InstantaneousGains:
    kp: np.ndarray
    ki: np.ndarray
    anti_windup: float = 0.05  # m*s bound on the integral norm

    def __post_init__(self):
        kp = _check_spd(self.kp, "kp")
        _check_spd(self.ki, "ki", strict=False)
        if np.linalg.eigvalsh(kp - np.eye(2)).min() <= 0.0:
            raise ValueError("kp - I must be positive definite")
        if self.anti_windup <= 0.0:
            raise ValueError("anti_windup must be positive")


class InstantaneousDcmController:
    """Proportional-integral DCM stabilizer; no feasibility guarantee."""

    def __init__(self, gains, omega):
        if omega <= 0.0:
            raise ValueError("omega must be positive")
        self.gains = gains
        self.omega = omega
        self.integral = np.zeros(2)
        self._prev_error = None

    def control(self, xi_meas, xi_ref, xid_ref, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        # On floats, as `zmp_com_control`; the norm stays a BLAS dot, which
        # a float sum of squares does not always match.
        (xm, ym), (xr, yr), (dx, dy) = map(_floats, (xi_meas, xi_ref, xid_ref))
        ex, ey = xm - xr, ym - yr
        px, py = (ex, ey) if self._prev_error is None else self._prev_error
        half_dt = 0.5 * dt
        ix, iy = self.integral.tolist()
        integral = np.array([ix + half_dt * (px + ex), iy + half_dt * (py + ey)])
        norm = math.sqrt(integral @ integral)
        if norm > self.gains.anti_windup:
            integral = integral * (self.gains.anti_windup / norm)
        self.integral = integral
        self._prev_error = ex, ey
        kx, ky = _matvec(self.gains.kp, ex, ey)
        jx, jy = _matvec(self.gains.ki, *integral.tolist())
        return np.array([xr - dx / self.omega + kx + jx, yr - dy / self.omega + ky + jy])


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 20
    sample_time: float = 0.1
    Q: np.ndarray = None
    R: np.ndarray = None
    Q_terminal: np.ndarray = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.sample_time <= 0.0:
            raise ValueError("sample_time must be positive")
        object.__setattr__(self, "Q", _check_spd(
            np.eye(2) if self.Q is None else self.Q, "Q"))
        object.__setattr__(self, "R", _check_spd(
            0.1 * np.eye(2) if self.R is None else self.R, "R", strict=False))
        object.__setattr__(self, "Q_terminal", _check_spd(
            np.eye(2) if self.Q_terminal is None else self.Q_terminal, "Q_terminal"))


class MpcInfeasibleError(RuntimeError):
    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class MpcSample(NamedTuple):
    """What the plan alone fixes of one MPC sample's QP, built by
    `PredictiveDcmController.sample`: the gradient's reference terms `g`
    (the stacked -2 Q ref_j mapped through the backward map P, see
    `PredictiveDcmController`), the polygon rows `A_in`, `b_in`, all
    read-only, and `zmps`, each step's start ZMP, the vertex mean of its
    polygon as two floats, or None for a step without one.
    """

    g: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray
    zmps: tuple


class PredictiveDcmController:
    """Receding-horizon DCM stabilizer; ZMP kept inside the support polygon.

    The QP is over w = [r_0 .. r_{N-1}, xi_N]. The DCMs before xi_N roll
    backward through the ZMPs, as the planner's do
    (`dcm_planner.backward_recursion`): xi_j = a xi_{j+1} + (1 - a) r_j with
    a = e^{-wT}, so [xi_0 .. xi_N] = P w, every coefficient of P in [0, 1].
    The Hessian is P^T blkdiag(2Q .. 2Q, 2Q_terminal) P plus the ZMP rate
    chain, and the one equality is P's first block row: xi_0 = xi_meas.
    Both depend only on the config and omega, so they are built once. The
    reference gradient and the polygon rows depend only on the plan, so
    `sample` builds them once per MPC sample, before a run; each solve adds
    the measurement (the previous ZMP's gradient term and the equality's
    right-hand side) and starts the solver from a feasible point built in
    closed form (see `start_point`).
    """

    def __init__(self, config, omega):
        if omega <= 0.0:
            raise ValueError("omega must be positive")
        self.config = config
        self.omega = omega
        self._solver = QpSolver()
        self._P, self._H, self._A_eq = self._fixed_matrices()

    def _fixed_matrices(self):
        N = self.config.horizon
        a = math.exp(-self.omega * self.config.sample_time)
        Q, R, QN = self.config.Q, self.config.R, self.config.Q_terminal

        # Per block row j: xi_j = a xi_{j+1} + (1 - a) r_j, starting from
        # xi_N itself; every 2 x 2 block of P is a multiple of I.
        p = np.zeros((N + 1, N + 1))
        p[N, N] = 1.0
        for j in range(N - 1, -1, -1):
            p[j] = a * p[j + 1]
            p[j, j] = 1.0 - a
        P = np.kron(p, np.eye(2))

        W = np.kron(np.eye(N + 1), 2.0 * Q)
        W[-2:, -2:] = 2.0 * QN
        # The xi_0 term is constant where xi_0 = xi_meas, but it keeps H
        # positive definite when R = 0.
        H = P.T @ W @ P
        # Rate cost sum_j |r_j - r_{j-1}|^2_R with r_{-1} = r_prev: each chain
        # term adds 2R to both endpoint diagonals and -2R off-diagonal.
        for j in range(N):
            k = 2 * j
            H[k:k + 2, k:k + 2] += 2.0 * R
            if j + 1 < N:
                H[k:k + 2, k:k + 2] += 2.0 * R
                H[k:k + 2, k + 2:k + 4] += -2.0 * R
                H[k + 2:k + 4, k:k + 2] += -2.0 * R
        # Exactly symmetric, so that `QpProblem` skips its symmetry test.
        H = 0.5 * (H + H.T)
        # An owned copy: the solver caches K0^-1 only for read-only arrays
        # that own their data, and a view of P does not.
        A_eq = P[:2].copy()
        # Shared by every assembled problem, so nothing may write to them.
        for M in (P, H, A_eq):
            M.setflags(write=False)
        return P, H, A_eq

    def sample(self, xi_refs, polygons=None):
        """The `MpcSample` of a DCM reference window `xi_refs` ((N+1) x 2)
        and up to N support polygons (None for a step without one)."""
        N = self.config.horizon
        refs = np.asarray(xi_refs, dtype=float).reshape(-1, 2)
        if refs.shape[0] != N + 1:
            raise ValueError(f"need {N + 1} DCM reference samples, got {refs.shape[0]}")
        n = 2 * N + 2
        Q, QN = self.config.Q, self.config.Q_terminal
        polygons = list((polygons or [])[:N])
        polygons += [None] * (N - len(polygons))

        # -2 Q ref_j for every step as one stacked matrix-vector product,
        # which rounds as the product per sample does (refs @ Q.T does not),
        # then mapped from the DCMs to w.
        grad = self._P.T @ np.concatenate([(-2.0 * Q @ refs[:N, :, None]).ravel(),
                                           (-2.0 * QN @ refs[N:, :, None]).ravel()])
        constrained = [(j, poly) for j, poly in enumerate(polygons) if poly is not None]
        A_in, b_in = np.zeros((0, n)), np.zeros(0)
        if constrained:
            A = np.concatenate([poly.A for _, poly in constrained])
            b_in = np.concatenate([poly.b for _, poly in constrained])
            # Row i constrains r_j of its polygon: columns 2j and 2j + 1.
            rows = np.arange(A.shape[0])
            cols = 2 * np.repeat([j for j, _ in constrained],
                                 [poly.A.shape[0] for _, poly in constrained])
            A_in = np.zeros((A.shape[0], n))
            A_in[rows, cols] = A[:, 0]
            A_in[rows, cols + 1] = A[:, 1]
        # Shared by every solve of the sample, so nothing may write to them.
        for M in (grad, A_in, b_in):
            M.setflags(write=False)
        # A window's steps share a few polygons: one vertex mean for each.
        distinct = {id(poly): poly for poly in polygons if poly is not None}
        means = {key: tuple(poly.vertices.mean(axis=0).tolist())
                 for key, poly in distinct.items()}
        return MpcSample(grad, A_in, b_in, tuple(None if poly is None else means[id(poly)]
                                                 for poly in polygons))

    def assemble(self, xi_meas, r_prev, sample):
        """The QP of `sample` (an `MpcSample`) at the measured DCM `xi_meas`
        after the ZMP `r_prev`."""
        grad = sample.g.copy()
        grad[:2] += -2.0 * self.config.R @ np.asarray(r_prev, dtype=float)
        return QpProblem(H=self._H, g=grad, A_eq=self._A_eq,
                         b_eq=np.array(xi_meas, dtype=float).reshape(2),
                         A_in=sample.A_in, b_in=sample.b_in)

    def start_point(self, xi_meas, r_prev, sample):
        """A feasible w for `assemble`'s QP, built without an LP.

        Each r_j sits at its sample's start ZMP, the vertex mean of its
        polygon, which is strictly inside a convex polygon (r_prev where
        there is none), and xi_N solves the equality xi_0 = xi_meas in
        closed form, so it holds to rounding: xi_N is the DCM those ZMPs
        roll xi_meas forward to. xi_N is otherwise free, so this point
        always exists.
        """
        r_free = tuple(np.asarray(r_prev, dtype=float).reshape(2).tolist())
        r = np.array([r_free if zmp is None else zmp for zmp in sample.zmps])
        c = self._A_eq[0, ::2]   # xi_0's coefficient on each r_j, then on xi_N
        xi_N = (np.asarray(xi_meas, dtype=float).reshape(2) - c[:-1] @ r) / c[-1]
        return np.concatenate([r.ravel(), xi_N])

    def control(self, xi_meas, r_prev, sample):
        """The first ZMP of the optimum of `sample`'s QP at the measured DCM
        `xi_meas` after the ZMP `r_prev`, and the solution."""
        problem = self.assemble(xi_meas, r_prev, sample)
        sol = self._solver.solve(problem, self.start_point(xi_meas, r_prev, sample))
        if sol.status is QpStatus.INFEASIBLE:
            raise MpcInfeasibleError("support polygon constraints are infeasible",
                                     violation=sol.residuals.get("infeasible"))
        if sol.status is not QpStatus.OPTIMAL:
            raise MpcInfeasibleError("QP solver failed to converge")
        return sol.w[:2].copy(), sol


@dataclass(frozen=True)
class ZmpComGains:
    k_zmp: np.ndarray
    k_com: np.ndarray

    def validate(self, omega):
        k_zmp = _check_spd(self.k_zmp, "k_zmp")
        k_com = _check_spd(self.k_com, "k_com")
        if np.linalg.eigvalsh(k_com - omega * np.eye(2)).min() <= 0.0:
            raise ValueError("k_com - omega I must be positive definite")
        if np.linalg.eigvalsh(omega * np.eye(2) - k_zmp).min() <= 0.0:
            raise ValueError("omega I - k_zmp must be positive definite")
        return self


def zmp_com_control(x_meas, x_ref, xd_ref, r_zmp_meas, r_zmp_ref, gains):
    """Cascaded ZMP-CoM law giving the desired CoM velocity.

    It runs every cycle on 2-vectors, so it works on Python floats: the
    same products and sums as the matrix expression, in its order.
    """
    (xm, ym), (xr, yr), (vx, vy), (rm, sm), (rr, sr) = map(
        _floats, (x_meas, x_ref, xd_ref, r_zmp_meas, r_zmp_ref))
    zx, zy = _matvec(gains.k_zmp, rr - rm, sr - sm)
    cx, cy = _matvec(gains.k_com, xr - xm, yr - ym)
    return np.array([vx - zx + cx, vy - zy + cy])


def _floats(v):
    """A vector as a list of floats."""
    return np.asarray(v, dtype=float).tolist()


def _matvec(M, x, y):
    """M (x, y) for a 2 x 2 M, as two floats. A diagonal M gives the
    products of `M @ v` exactly; any other M may differ in the last bit,
    since BLAS may fuse a multiply and an add."""
    (a, b), (c, d) = np.asarray(M).tolist()
    return a * x + b * y, c * x + d * y


def minimum_jerk(u):
    """Quintic time scaling 10u^3 - 15u^4 + 6u^5 on [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("blend must be in [0, 1]")
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def gain_schedule(blend, standing, walking):
    """Blend standing and walking gain sets with the minimum-jerk scaling.

    Each condition of `ZmpComGains.validate` bounds an eigenvalue of a
    symmetric matrix that is affine in the gains, so it holds on a convex
    set: a blend of two validated sets is valid and is not checked again.
    """
    sigma = minimum_jerk(blend)
    return ZmpComGains(
        k_zmp=(1.0 - sigma) * np.asarray(standing.k_zmp) + sigma * np.asarray(walking.k_zmp),
        k_com=(1.0 - sigma) * np.asarray(standing.k_com) + sigma * np.asarray(walking.k_com))
