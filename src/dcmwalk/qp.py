"""Dense strictly-convex QP solver (primal active set).

Solves
    min 1/2 w^T H w + g^T w
    s.t. A_eq w == b_eq
         A_in w <= b_in
         lb <= w <= ub

Problem sizes here are tiny (tens of variables), so every working-set
iteration solves a dense KKT system directly. The caller may pass a feasible
start point. Without one (or when it is not feasible) the solver first
solves one KKT system for the minimizer under the equalities alone, the
first step of an active-set method from an empty working set; when that
point breaks no inequality it is the optimum and is returned after one
iteration. Otherwise the loop starts from least squares on the equalities,
and from a Phase-1 LP only when that point breaks an inequality. The LP is
scipy's HiGHS `linprog`; `scipy.optimize` is imported on the first Phase-1
solve, so importing this module loads no scipy.
"""

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
    H: np.ndarray
    g: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    A_in: np.ndarray = None
    b_in: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        n = self.n
        H = np.asarray(self.H, dtype=float)
        if H.shape != (n, n):
            raise ValueError("H must be square and match g")
        # Infinity norms (largest absolute row sums) of H - H^T and of H.
        if (np.abs(H - H.T).sum(axis=1).max()
                > 1e-9 * max(1.0, np.abs(H).sum(axis=1).max())):
            raise ValueError("H must be symmetric")
        for A, b, name in ((self.A_eq, self.b_eq, "eq"), (self.A_in, self.b_in, "in")):
            if (A is None) != (b is None):
                raise ValueError(f"A_{name} and b_{name} must be given together")
            if A is not None and (np.asarray(A).ndim != 2 or np.asarray(A).shape[1] != n
                                  or np.asarray(b).reshape(-1).shape[0] != np.asarray(A).shape[0]):
                raise ValueError(f"inconsistent {name}-constraint dimensions")

    @property
    def n(self):
        return np.asarray(self.g).reshape(-1).shape[0]

    def objective(self, w):
        w = np.asarray(w, dtype=float).reshape(-1)
        return 0.5 * w @ np.asarray(self.H, dtype=float) @ w + np.asarray(self.g, dtype=float) @ w


class InequalityRows:
    """The rows a^T w <= b of a problem, in a fixed order: the general rows,
    then +e_j for each finite upper bound, then -e_j for each finite lower
    bound. Bound rows stay column indices; `dense` writes rows out only for
    the indices asked for. Ties in the ratio test go to the lower index, so
    this order is part of the solver's behaviour.
    """

    def __init__(self, problem):
        n = problem.n
        self.n = n
        if problem.A_in is None:
            self.A_in, self.b_in = np.zeros((0, n)), np.zeros(0)
        else:
            self.A_in = np.asarray(problem.A_in, dtype=float)
            self.b_in = np.asarray(problem.b_in, dtype=float).reshape(-1)
        self.m_in = self.A_in.shape[0]
        ub = np.full(n, np.inf) if problem.ub is None else \
            np.asarray(problem.ub, dtype=float).reshape(-1)
        lb = np.full(n, -np.inf) if problem.lb is None else \
            np.asarray(problem.lb, dtype=float).reshape(-1)
        self.ub_cols = np.flatnonzero(np.isfinite(ub))
        self.lb_cols = np.flatnonzero(np.isfinite(lb))
        self.ub = ub[self.ub_cols]
        self.lb = lb[self.lb_cols]
        self.cols = np.concatenate([self.ub_cols, self.lb_cols])
        self.signs = np.concatenate([np.ones(self.ub_cols.size), -np.ones(self.lb_cols.size)])
        self.size = self.m_in + self.cols.size

    def times(self, p):
        """A p, one entry per row."""
        return np.concatenate([self.A_in @ p, p[self.ub_cols], -p[self.lb_cols]])

    def slack(self, w):
        """b - A w, one entry per row."""
        return np.concatenate([self.b_in - self.A_in @ w, self.ub - w[self.ub_cols],
                               w[self.lb_cols] - self.lb])

    def dense(self, idx):
        """Rows `idx` of A as a dense matrix."""
        idx = np.asarray(idx, dtype=int)
        out = np.zeros((idx.size, self.n))
        general = idx < self.m_in
        out[general] = self.A_in[idx[general]]
        bound = np.flatnonzero(~general)
        k = idx[bound] - self.m_in
        out[bound, self.cols[k]] = self.signs[k]
        return out

    def split(self, mu):
        """Row duals -> (dual_in, dual_lb, dual_ub)."""
        n_ub = self.ub_cols.size
        dual_lb = np.zeros(self.n)
        dual_ub = np.zeros(self.n)
        dual_ub[self.ub_cols] = mu[self.m_in:self.m_in + n_ub]
        dual_lb[self.lb_cols] = mu[self.m_in + n_ub:]
        return mu[:self.m_in].copy(), dual_lb, dual_ub


@dataclass
class QpSolution:
    w: np.ndarray
    status: QpStatus
    iterations: int
    dual_eq: np.ndarray
    dual_in: np.ndarray
    dual_lb: np.ndarray
    dual_ub: np.ndarray
    active_set: tuple = ()
    problem: QpProblem = field(default=None, repr=False, compare=False)
    infeasibility: float = None  # largest row violation at w = 0, when infeasible

    @cached_property
    def residuals(self):
        """`kkt_residuals` of this solution, computed on first read; for an
        infeasible problem, {"infeasible": infeasibility}."""
        if self.status is QpStatus.INFEASIBLE:
            return {"infeasible": self.infeasibility}
        return kkt_residuals(self.problem, self)


class QpSolver:
    """Primal active-set solver.

    A solver keeps the `InequalityRows` of its last bound-only problem (no
    `A_in`) and reuses them while `lb` and `ub` are the same read-only
    arrays, as a model's joint-rate bounds are on every whole-body cycle.
    """

    def __init__(self, tol=DEFAULT_TOL, max_iter=200):
        self.tol = tol
        self.max_iter = max_iter
        self._bounds = None   # (lb, ub, their InequalityRows)

    def solve(self, problem, start=None):
        """Solve `problem`; `start` is an optional feasible start point."""
        n = problem.n
        H = np.asarray(problem.H, dtype=float)
        g = np.asarray(problem.g, dtype=float).reshape(-1)
        if problem.A_eq is not None:
            A_eq = np.asarray(problem.A_eq, dtype=float)
            b_eq = np.asarray(problem.b_eq, dtype=float).reshape(-1)
        else:
            A_eq = np.zeros((0, n))
            b_eq = np.zeros(0)
        rows = self._inequality_rows(problem)
        m = rows.size

        w = None
        if start is not None:
            w0 = np.asarray(start, dtype=float).reshape(-1)
            if w0.shape == (n,) and self._feasible(w0, A_eq, b_eq, rows):
                w = w0
        if w is None:
            # The minimizer under the equalities alone is the first step from
            # an empty working set; if it breaks no row it is the optimum.
            w, lam_eq = self._kkt_solve(H, A_eq, -g, b_eq)
            if w is not None and self._feasible(w, A_eq, b_eq, rows):
                return self._solution(problem, rows, w, QpStatus.OPTIMAL, 1,
                                      lam_eq, np.zeros(m), ())
            w = self._cold_start(problem, A_eq, b_eq, rows)
            if w is None:
                return self._infeasible(problem, rows, A_eq.shape[0])

        working = set()
        lam_eq = np.zeros(A_eq.shape[0])
        mu = np.zeros(m)
        it = 0
        while it < self.max_iter:
            it += 1
            idx = sorted(working)
            A_w = np.vstack([A_eq, rows.dense(idx)]) if idx else A_eq
            grad = H @ w + g
            p, duals = self._kkt_solve(H, A_w, -grad, np.zeros(A_w.shape[0]))
            if p is None:
                # Dependent working set; drop the most recent inequality row.
                if idx:
                    working.discard(idx[-1])
                    continue
                return self._infeasible(problem, rows, A_eq.shape[0])
            if np.linalg.norm(p, ord=np.inf) <= self.tol * max(1.0, np.linalg.norm(w, ord=np.inf)):
                lam_eq = duals[:A_eq.shape[0]]
                mu = np.zeros(m)
                mu_w = duals[A_eq.shape[0]:]
                mu[idx] = mu_w
                # Inequality duals must be nonnegative at the optimum.
                if idx and mu_w.size and mu_w.min() < -self.tol:
                    worst = idx[int(np.argmin(mu_w))]
                    working.discard(worst)
                    continue
                return self._solution(problem, rows, w, QpStatus.OPTIMAL, it,
                                      lam_eq, mu, working)
            alpha, blocking = _ratio_test(rows.times(p), rows.slack(w), working)
            w = w + alpha * p
            if blocking is not None:
                working.add(blocking)
        return self._solution(problem, rows, w, QpStatus.MAX_ITER, it, lam_eq, mu, working)

    def _inequality_rows(self, problem):
        lb, ub = problem.lb, problem.ub
        if problem.A_in is not None:
            return InequalityRows(problem)
        if self._bounds is not None and self._bounds[0] is lb and self._bounds[1] is ub:
            return self._bounds[2]
        rows = InequalityRows(problem)
        # A read-only array that owns its data cannot change under a view.
        if all(isinstance(b, np.ndarray) and b.flags.owndata and not b.flags.writeable
               for b in (lb, ub)):
            self._bounds = (lb, ub, rows)
        return rows

    @staticmethod
    def _solution(problem, rows, w, status, iterations, lam_eq, mu, working):
        dual_in, dual_lb, dual_ub = rows.split(mu)
        return QpSolution(w=w.copy(), status=status, iterations=iterations,
                          dual_eq=lam_eq, dual_in=dual_in, dual_lb=dual_lb,
                          dual_ub=dual_ub, active_set=tuple(sorted(working)),
                          problem=problem)

    @staticmethod
    def _kkt_solve(H, A, top, bottom):
        """(x, y) with H x + A^T y = top and A x = bottom, or (None, None)
        when the system is singular."""
        n = H.shape[0]
        mw = A.shape[0]
        K = np.zeros((n + mw, n + mw))
        K[:n, :n] = H
        K[:n, n:] = A.T
        K[n:, :n] = A
        rhs = np.concatenate([top, bottom])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return None, None
        if not np.isfinite(sol).all():
            return None, None
        return sol[:n], sol[n:]

    def _cold_start(self, problem, A_eq, b_eq, rows):
        """Least squares on the equalities, then Phase-1 if needed; None
        when no feasible point is found."""
        if A_eq.shape[0]:
            w = np.linalg.lstsq(A_eq, b_eq, rcond=None)[0]
        else:
            w = np.zeros(problem.n)
        if self._feasible(w, A_eq, b_eq, rows):
            return w
        w = self._phase1(problem)
        if w is None or not self._feasible(w, A_eq, b_eq, rows, slack=100 * self.tol):
            return None
        return w

    def _feasible(self, w, A_eq, b_eq, rows, slack=None):
        slack = self.tol if slack is None else slack
        if A_eq.shape[0] and np.abs(A_eq @ w - b_eq).max() > slack:
            return False
        if rows.size and rows.slack(w).min() < -slack:
            return False
        return True

    def _phase1(self, problem):
        n = problem.n
        res = linprog(
            c=np.zeros(n),
            A_ub=problem.A_in, b_ub=problem.b_in,
            A_eq=problem.A_eq, b_eq=problem.b_eq,
            bounds=list(zip(
                np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float),
                np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float))),
            method="highs")
        if not res.success:
            return None
        return np.asarray(res.x, dtype=float)

    def _infeasible(self, problem, rows, m_eq):
        n = problem.n
        viol = float(np.max(-rows.slack(np.zeros(n)))) if rows.size else None
        return QpSolution(w=np.full(n, np.nan), status=QpStatus.INFEASIBLE, iterations=0,
                          dual_eq=np.zeros(m_eq), dual_in=np.zeros(rows.m_in),
                          dual_lb=np.zeros(n), dual_ub=np.zeros(n),
                          problem=problem, infeasibility=viol)


def solve(problem, start=None, tol=DEFAULT_TOL, max_iter=200):
    return QpSolver(tol=tol, max_iter=max_iter).solve(problem, start)


def _ratio_test(Ap, slack, working):
    """Longest step in [0, 1] along p before an inactive row blocks.

    `Ap` is A p and `slack` is b - A w over all inequality rows. Rows are
    scanned in index order and a row blocks only when its step is shorter
    than the current one by more than 1e-15, so of rows that block at the
    same step the lowest index wins. Returns (alpha, blocking row or None).
    """
    moving = Ap > 1e-14
    if working:
        moving[list(working)] = False
    rows = np.flatnonzero(moving)
    steps = slack[rows] / Ap[rows]
    # Only rows with a step below 1 can ever block, since alpha never grows.
    short = steps < 1.0 - 1e-15
    alpha = 1.0
    blocking = None
    for i, a_i in zip(rows[short], steps[short]):
        if a_i < alpha - 1e-15:
            alpha = max(a_i, 0.0)
            blocking = int(i)
    return alpha, blocking


def kkt_residuals(problem, solution):
    """Stationarity, equality violation, inequality violation, complementarity."""
    w = np.asarray(solution.w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        return {"stationarity": np.inf, "eq_violation": np.inf,
                "in_violation": np.inf, "complementarity": np.inf}
    H = np.asarray(problem.H, dtype=float)
    g = np.asarray(problem.g, dtype=float).reshape(-1)
    grad = H @ w + g
    eq_violation = 0.0
    if problem.A_eq is not None:
        A_eq = np.asarray(problem.A_eq, dtype=float)
        b_eq = np.asarray(problem.b_eq, dtype=float).reshape(-1)
        grad = grad + A_eq.T @ solution.dual_eq
        eq_violation = float(np.linalg.norm(A_eq @ w - b_eq, ord=np.inf))
    in_violation = 0.0
    complementarity = 0.0
    if problem.A_in is not None:
        A_in = np.asarray(problem.A_in, dtype=float)
        b_in = np.asarray(problem.b_in, dtype=float).reshape(-1)
        slack = A_in @ w - b_in
        in_violation = float(max(0.0, np.max(slack))) if slack.size else 0.0
        grad = grad + A_in.T @ solution.dual_in
        if slack.size:
            complementarity = float(np.max(np.abs(solution.dual_in * slack)))
    for bound, dual, sign in ((problem.lb, solution.dual_lb, -1.0),
                              (problem.ub, solution.dual_ub, 1.0)):
        if bound is None:
            continue
        bv = np.asarray(bound, dtype=float).reshape(-1)
        finite = np.isfinite(bv)
        slack = sign * (w - bv)
        slack = np.where(finite, slack, 0.0)
        in_violation = max(in_violation, float(np.max(slack)) if slack.size else 0.0)
        grad = grad + sign * dual
        complementarity = max(complementarity,
                              float(np.max(np.abs(dual * slack))) if slack.size else 0.0)
    return {"stationarity": float(np.linalg.norm(grad, ord=np.inf)),
            "eq_violation": eq_violation,
            "in_violation": in_violation,
            "complementarity": complementarity}
