"""Dense strictly-convex QP solver (primal active set).

Solves
    min 1/2 w^T H w + g^T w
    s.t. A_eq w == b_eq
         A_in w <= b_in

Problem sizes here are tiny (tens of variables), so everything is dense.
`QpProblem` checks its fields once and fills in absent ones, so the solver
sees one form. Its inequalities are one row block G w <= h, A_in and b_in
as given; a box bound is a row like any other (+e_j w <= u_j). The caller
may pass a feasible start point. Without one (or when it is not feasible)
the solver first solves one KKT system for the minimizer under the
equalities alone, the first step of an active-set method from an empty
working set; when that point breaks no inequality it is the optimum and is
returned after one iteration. Otherwise the loop starts from least squares
on the equalities, and from a Phase-1 LP only when that point breaks an
inequality. The LP is scipy's HiGHS `linprog`; `scipy.optimize` is imported
on the first Phase-1 solve, so importing this module loads no scipy.

The loop takes each step by block elimination (the Schur-complement method,
Nocedal & Wright, Numerical Optimization, sec. 16.2). The fixed block
K0 = [H A_eq^T; A_eq 0] is inverted once, and an iteration with working rows
G_W solves only the |W| x |W| system S = G_W K0^-1[:n, :n] G_W^T. A singular
K0 makes the solve INFEASIBLE.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

DEFAULT_TOL = 1e-8


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class QpProblem:
    """The problem above. Construction checks every field and stores it as a
    float array: an absent block becomes (0, n) with a (0,) right-hand side.
    A float64 array of the right shape is kept as the same object, since the
    solver knows read-only `H` and `A_eq` by identity. Every entry must be
    finite.
    """

    H: np.ndarray
    g: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    A_in: np.ndarray = None
    b_in: np.ndarray = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 1:
            raise ValueError(f"g must be a vector, got shape {g.shape}")
        n = g.shape[0]
        H = np.asarray(self.H, dtype=float)
        if H.shape != (n, n):
            raise ValueError("H must be square and match g")
        arrays = {"H": H, "g": g}
        for kind in ("eq", "in"):
            A, b = getattr(self, "A_" + kind), getattr(self, "b_" + kind)
            if (A is None) != (b is None):
                raise ValueError(f"A_{kind} and b_{kind} must be given together")
            A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
            b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
            if A.ndim != 2 or A.shape[1] != n or b.shape != (A.shape[0],):
                raise ValueError(f"inconsistent {kind}-constraint dimensions")
            arrays["A_" + kind], arrays["b_" + kind] = A, b
        # Every QP of every cycle passes here, so each array is tested with
        # one BLAS call: a finite sum of squares proves every entry finite
        # (NaN and inf propagate). Only a sum that is not, which finite
        # entries give when it overflows, is followed by the entrywise scan.
        # Measured alone, the scan by itself read +1.6% steady-pi control_ref.p5.
        for name, a in arrays.items():
            if a.size and not math.isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
                raise ValueError(f"{name} has non-finite entries")
        # Infinity norms (largest absolute row sums) of H - H^T and of H; an
        # exactly symmetric H, as both callers build, needs neither.
        D = H - H.T
        if np.count_nonzero(D) and (np.abs(D).sum(axis=1).max()
                                    > 1e-9 * max(1.0, np.abs(H).sum(axis=1).max())):
            raise ValueError("H must be symmetric")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    @property
    def n(self):
        return self.g.shape[0]


@dataclass
class QpSolution:
    w: np.ndarray
    status: QpStatus
    iterations: int
    dual_eq: np.ndarray
    dual_in: np.ndarray
    active_set: tuple = ()
    problem: QpProblem = field(default=None, repr=False, compare=False)
    infeasibility: float = None  # largest row violation at w = 0, when infeasible
    _eq_residual: float = field(default=None, repr=False, compare=False)

    @property
    def eq_residual(self):
        """max |A_eq w - b_eq|, 0.0 without equality rows: the one the
        solver's feasibility test computed when it tested this w, else
        computed on first read."""
        if self._eq_residual is None:
            self._eq_residual = _eq_residual(self.problem, self.w)
        return self._eq_residual

    @cached_property
    def residuals(self):
        """`kkt_residuals` of this solution, computed on first read; for an
        infeasible problem, {"infeasible": infeasibility}."""
        if self.status is QpStatus.INFEASIBLE:
            return {"infeasible": self.infeasibility}
        return kkt_residuals(self.problem, self)


class QpSolver:
    """Primal active-set solver.

    A solver keeps the inverse of K0 = [H A_eq^T; A_eq 0] while `H` and
    `A_eq` are the same read-only arrays, as an MPC controller's are on
    every sample.
    """

    def __init__(self, tol=DEFAULT_TOL, max_iter=200):
        self.tol = tol
        self.max_iter = max_iter
        self._kkt = None   # (H, A_eq, their _kkt_columns)

    def solve(self, problem, start=None):
        """Solve `problem`; `start` is an optional feasible start point."""
        H, g, A_eq, b_eq = problem.H, problem.g, problem.A_eq, problem.b_eq
        G, h = problem.A_in, problem.b_in
        n, m_eq, m = problem.n, A_eq.shape[0], h.shape[0]

        w = None
        if start is not None:
            w0 = np.asarray(start, dtype=float).reshape(-1)
            if w0.shape == (n,) and self._feasible(w0, problem) is not None:
                w = w0
        if w is None:
            # The minimizer under the equalities alone is the first step from
            # an empty working set; if it breaks no row it is the optimum.
            w, lam_eq = self._kkt_solve(H, A_eq, -g, b_eq)
            residual = None if w is None else self._feasible(w, problem)
            if residual is not None:
                sol = self._solution(problem, w, QpStatus.OPTIMAL, 1,
                                     lam_eq, np.zeros(m), ())
                sol._eq_residual = residual
                return sol
            w = self._cold_start(problem)
            if w is None:
                return self._infeasible(problem)

        K_cols = self._kkt_columns(problem)
        if K_cols is None:
            return self._infeasible(problem)
        working = {}   # inequality rows as keys, in the order they were added
        last = [], np.zeros(m_eq)   # working rows and duals of the last Schur step
        it = 0
        while it < self.max_iter:
            it += 1
            idx = sorted(working)
            p, duals = self._schur_step(K_cols, G[idx], H @ w + g)
            if p is None:
                # Dependent working set; drop the inequality row added last.
                if working:
                    working.popitem()
                    continue
                return self._infeasible(problem)
            last = idx, duals
            if np.abs(p).max() <= self.tol * max(1.0, np.abs(w).max()):
                mu_w = duals[m_eq:]
                # Inequality duals must be nonnegative at the optimum.
                if idx and mu_w.size and mu_w.min() < -self.tol:
                    del working[idx[int(np.argmin(mu_w))]]
                    continue
                return self._solution(problem, w, QpStatus.OPTIMAL, it,
                                      *_multipliers(last, m_eq, m), working)
            alpha, blocking = _ratio_test(G @ p, h - G @ w, working)
            w = w + alpha * p
            if blocking is not None:
                working[blocking] = None
        # A stalled solve reports the multipliers it last computed.
        return self._solution(problem, w, QpStatus.MAX_ITER, it,
                              *_multipliers(last, m_eq, m), working)

    def _kkt_columns(self, problem):
        """The first n columns of K0^-1, where K0 = [H A_eq^T; A_eq 0], or
        None when K0 is singular; cached for read-only H and A_eq."""
        H, A_eq = problem.H, problem.A_eq
        if self._kkt is not None and self._kkt[0] is H and self._kkt[1] is A_eq:
            return self._kkt[2]
        try:
            K_inv = np.linalg.inv(_kkt_matrix(H, A_eq))
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(K_inv).all():
            return None
        K_cols = np.ascontiguousarray(K_inv[:, :problem.n])
        if _frozen(H, A_eq):
            self._kkt = (H, A_eq, K_cols)
        return K_cols

    @staticmethod
    def _schur_step(K_cols, G_w, grad):
        """(p, duals) with H p + A_eq^T y + G_w^T mu = -grad, A_eq p = 0 and
        G_w p = 0, duals = [y, mu]; (None, None) when the working rows are
        dependent. Block elimination on K0 (see `_kkt_columns`):
        z0 = K0^-1 [-grad; 0], V = K0^-1 [G_w^T; 0], and the |W| x |W| Schur
        complement S = G_w V[:n] gives mu = S^-1 G_w z0[:n], z = z0 - V mu."""
        n = grad.shape[0]
        z = K_cols @ -grad
        if not G_w.shape[0]:
            return z[:n], z[n:]
        V = K_cols @ G_w.T
        try:
            mu = np.linalg.solve(G_w @ V[:n], G_w @ z[:n])
        except np.linalg.LinAlgError:
            return None, None
        z -= V @ mu
        if not (np.isfinite(mu).all() and np.isfinite(z).all()):
            return None, None
        return z[:n], np.concatenate([z[n:], mu])

    @staticmethod
    def _solution(problem, w, status, iterations, lam_eq, mu, working):
        return QpSolution(w=w.copy(), status=status, iterations=iterations,
                          dual_eq=lam_eq, dual_in=mu, active_set=tuple(sorted(working)),
                          problem=problem)

    @staticmethod
    def _kkt_solve(H, A, top, bottom):
        """(x, y) with H x + A^T y = top and A x = bottom, or (None, None)
        when the system is singular."""
        n = H.shape[0]
        try:
            sol = np.linalg.solve(_kkt_matrix(H, A), np.concatenate([top, bottom]))
        except np.linalg.LinAlgError:
            return None, None
        if not np.isfinite(sol).all():
            return None, None
        return sol[:n], sol[n:]

    def _cold_start(self, problem):
        """Least squares on the equalities, then Phase-1 if needed; None
        when no feasible point is found."""
        if problem.A_eq.shape[0]:
            w = np.linalg.lstsq(problem.A_eq, problem.b_eq, rcond=None)[0]
        else:
            w = np.zeros(problem.n)
        if self._feasible(w, problem) is not None:
            return w
        w = self._phase1(problem)
        if w is None or self._feasible(w, problem, slack=100 * self.tol) is None:
            return None
        return w

    def _feasible(self, w, problem, slack=None):
        """`_eq_residual` of w when w meets every row within `slack`
        (the solver's tolerance by default), else None."""
        slack = self.tol if slack is None else slack
        residual = _eq_residual(problem, w)
        if residual > slack or (problem.b_in.shape[0]
                                and (problem.b_in - problem.A_in @ w).min() < -slack):
            return None
        return residual

    def _phase1(self, problem):
        # Free variables: linprog's default bounds are w >= 0.
        res = linprog(c=np.zeros(problem.n), A_ub=problem.A_in, b_ub=problem.b_in,
                      A_eq=problem.A_eq, b_eq=problem.b_eq, bounds=(None, None),
                      method="highs")
        if not res.success:
            return None
        return np.asarray(res.x, dtype=float)

    def _infeasible(self, problem):
        h = problem.b_in
        sol = self._solution(problem, np.full(problem.n, np.nan), QpStatus.INFEASIBLE,
                             0, np.zeros(problem.A_eq.shape[0]), np.zeros(h.shape[0]), ())
        sol.infeasibility = float(np.max(-h)) if h.shape[0] else None   # G w - h at w = 0
        return sol


def _multipliers(step, m_eq, m):
    """(dual_eq, dual_in) of a Schur step's (working rows, duals): the
    inequality duals scattered onto their rows, zero on every other row."""
    idx, duals = step
    mu = np.zeros(m)
    mu[idx] = duals[m_eq:]
    return duals[:m_eq], mu


def _eq_residual(problem, w):
    """max |A_eq w - b_eq|, 0.0 without equality rows."""
    if not problem.A_eq.shape[0]:
        return 0.0
    return float(np.abs(problem.A_eq @ w - problem.b_eq).max())


def _frozen(*arrays):
    """True when every array is read-only and owns its data, so that no view
    can change it: the solver's K0^-1 cache keys such arrays by identity."""
    return all(a.flags.owndata and not a.flags.writeable for a in arrays)


def _kkt_matrix(H, A):
    """The KKT matrix [H A^T; A 0]."""
    n, m = H.shape[0], A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = A.T
    K[n:, :n] = A
    return K


def _ratio_test(Ap, slack, working):
    """Longest step in [0, 1] along p before an inactive row blocks.

    `Ap` is A p and `slack` is b - A w over all inequality rows. Rows are
    scanned in index order and a row blocks only when its step is shorter
    than the current one by more than 1e-15, so of rows that block at the
    same step the lowest index wins. Returns (alpha, blocking row or None).
    Only a row with a step below 1 can block, and a quotient slack / A p
    rounds below 1 only when slack < A p, so the scan visits only the rows
    with A p > 1e-14 and slack < A p, and forms each step as the full scan
    does.
    """
    alpha = 1.0
    blocking = None
    # Measured alone against the scan over every row: steady-mpc
    # control_ref.period_mean_p5 -0.7% (6/10 pairs).
    for i in np.flatnonzero((Ap > 1e-14) & (slack < Ap)).tolist():
        if i not in working:
            a_i = slack[i] / Ap[i]
            if a_i < alpha - 1e-15:
                alpha = max(a_i, 0.0)
                blocking = i
    return alpha, blocking


def kkt_residuals(problem, solution):
    """Stationarity, equality violation, inequality violation, complementarity."""
    w = np.asarray(solution.w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        return {"stationarity": np.inf, "eq_violation": np.inf,
                "in_violation": np.inf, "complementarity": np.inf}
    grad = (problem.H @ w + problem.g + problem.A_eq.T @ solution.dual_eq
            + problem.A_in.T @ solution.dual_in)
    gap = problem.A_in @ w - problem.b_in
    return {"stationarity": float(np.linalg.norm(grad, ord=np.inf)),
            "eq_violation": float(np.max(np.abs(problem.A_eq @ w - problem.b_eq), initial=0.0)),
            "in_violation": float(np.max(gap, initial=0.0)),
            "complementarity": float(np.max(np.abs(solution.dual_in * gap), initial=0.0))}
